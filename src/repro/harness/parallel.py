"""Sweep execution core: the only code that runs a sweep grid.

:func:`tasks_from_spec` expands a :class:`~repro.harness.spec.SweepSpec`
into picklable :class:`SweepTask` records and :func:`run_tasks` runs them
in-process (``processes=1``) or over a ``multiprocessing`` pool, behind
:func:`repro.harness.sweep.run_sweep`; service workers run the same
:func:`run_cell_timed` per leased cell.

* **Deterministic seeding** — every task carries its device seed
  explicitly, so serial, pool and served sweeps produce bit-identical
  cells regardless of scheduling order or worker count.
* **Result caching** — with ``cache_dir`` set, each finished cell is
  pickled under a SHA-256 key derived from (spec, scheme, config, seed);
  repeated sweeps skip completed cells, so an interrupted full-scale run
  resumes where it stopped.
* **Spawn safety** — workers rebuild their workload from the registry
  by name (importing the registering module first), so the tasks stay
  tiny and the module works under both ``fork`` and ``spawn`` start
  methods.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import time
import traceback
from dataclasses import asdict, dataclass, replace
from dataclasses import fields as dataclass_fields
from typing import Dict, List, Optional, Sequence, Tuple

from .. import diskcache as _diskcache
from ..compiler import cache as compile_cache_mod
from ..compiler import schemes as scheme_registry
# Unused here; benchmarks/e2e/layers.py wraps this binding.
from ..compiler.driver import compile_circuit  # noqa: F401
from ..compiler.driver import run_circuit
from ..errors import ReproError
from ..noise.model import NoiseModel, derive_seed, finite_real
from ..obs import log as obs_log
from ..obs import metrics as _metrics
from ..obs import trace as _trace
from ..sim.config import SimulationConfig
from . import registry
from .spec import SweepSpec

_log = obs_log.get_logger("repro.harness")

_CACHE_HITS = _metrics.counter(
    "repro_sweep_cache_hits_total", "sweep cells served from the cache")
_CACHE_MISSES = _metrics.counter(
    "repro_sweep_cache_misses_total", "sweep cells actually executed")
_CELLS_RUN = _metrics.counter(
    "repro_sweep_cells_run_total", "run_cell invocations")

#: Bump when CellResult or the simulation semantics change incompatibly —
#: stale cache entries are keyed away instead of deserialized wrongly.
#: v2: workloads resolved through the registry; shots joined the grid.
#: v3: Monte-Carlo noise joined the task (empirical-fidelity columns).
CACHE_FORMAT_VERSION = 3


class SweepExecutionError(ReproError):
    """One or more sweep cells raised.  Carries every failure (the sweep
    finishes the healthy cells first), so CI logs show the full damage
    instead of the first traceback — and the CLI exits non-zero."""

    def __init__(self, failures: List[Tuple["SweepTask", str]]):
        self.failures = failures
        names = ", ".join("{}/{}".format(t.spec_name, t.scheme)
                          for t, _ in failures[:5])
        if len(failures) > 5:
            names += ", ..."
        super().__init__("{} sweep cell(s) failed: {}".format(
            len(failures), names))

    def render(self, stream) -> None:
        """Write every failing cell's traceback to ``stream`` (the sweep
        CLI's error report)."""
        for task, error in self.failures:
            stream.write("--- {}/{} (scale={}, shots={}) failed ---\n{}\n"
                         .format(task.spec_name, task.scheme, task.scale,
                                 task.shots, error))
        stream.write("error: {}\n".format(self))


@dataclass(frozen=True)
class SweepTask:
    """One (workload, scheme) cell of the sweep grid.

    Carries everything a worker needs to rebuild and run the cell —
    workloads are reconstructed from the suite parameters rather than
    pickled (circuit builders are closures), which keeps tasks tiny and
    spawn-safe.
    """

    spec_name: str
    scheme: str
    scale: float
    substitution_fraction: float
    device_seed: int
    shots: int = 1
    #: module that registered the workload; spawn workers import it
    #: before lookup, so families outside the builtin list work too.
    module: Optional[str] = None
    #: module that registered the scheme (same spawn-safety contract).
    scheme_module: Optional[str] = None
    config: Optional[SimulationConfig] = None
    #: Monte-Carlo noise model; None keeps the cell noiseless.
    noise: Optional[NoiseModel] = None
    noise_shots: int = 256
    #: Directory of the persistent compile cache
    #: (:class:`repro.compiler.cache.CompileCache`); None compiles
    #: in-process only.  Deliberately *not* part of ``cache_key``: the
    #: cached compilation is bit-identical to a fresh one by contract
    #: (and tested for).
    compile_cache_dir: Optional[str] = None

    def key(self) -> Tuple[str, str, float, int]:
        """Grid coordinates of this cell (workload, scheme, scale, shots)."""
        return (self.spec_name, self.scheme, self.scale, self.shots)

    def noise_seed(self) -> int:
        """crc32-derived sampler seed, a pure function of the cell
        identity — serial, parallel and cache-replayed runs agree."""
        return derive_seed("cell-noise", self.spec_name, self.scheme,
                           repr(self.scale), self.shots, self.device_seed)

    def cache_key(self) -> str:
        """Stable content hash identifying this cell's result."""
        config = self.config or SimulationConfig()
        payload = (
            ("version", CACHE_FORMAT_VERSION),
            ("spec", self.spec_name),
            ("scheme", self.scheme),
            ("scale", repr(self.scale)),
            ("substitution_fraction", repr(self.substitution_fraction)),
            ("device_seed", self.device_seed),
            ("shots", self.shots),
            ("config", tuple(sorted(asdict(config).items()))),
            ("noise", self.noise.to_json() if self.noise is not None
             else None),
            ("noise_shots", self.noise_shots),
        )
        return hashlib.sha256(repr(payload).encode("utf-8")).hexdigest()

    def to_dict(self) -> Dict[str, object]:
        """Plain-JSON-types dict for the service wire format
        (:mod:`repro.service` leases tasks to workers over HTTP, where
        pickle would be both a fragile and an unsafe transport).
        ``from_dict`` inverts it exactly."""
        return {
            "spec_name": self.spec_name,
            "scheme": self.scheme,
            "scale": self.scale,
            "substitution_fraction": self.substitution_fraction,
            "device_seed": self.device_seed,
            "shots": self.shots,
            "module": self.module,
            "scheme_module": self.scheme_module,
            "config": asdict(self.config) if self.config is not None
                      else None,
            "noise": self.noise.to_dict() if self.noise is not None
                     else None,
            "noise_shots": self.noise_shots,
            "compile_cache_dir": self.compile_cache_dir,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "SweepTask":
        """Rebuild a task from :meth:`to_dict` output (wire format)."""
        if not isinstance(data, dict):
            raise ReproError("task must be a JSON object, got {}".format(
                type(data).__name__))
        known = {field.name for field in dataclass_fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ReproError("unknown task fields {}; known: {}".format(
                sorted(unknown), sorted(known)))
        kwargs = dict(data)
        config = kwargs.get("config")
        if config is not None:
            try:
                kwargs["config"] = SimulationConfig(**config)
            except TypeError as exc:
                raise ReproError("bad task config: {}".format(exc)) \
                    from None
        noise = kwargs.get("noise")
        if noise is not None:
            kwargs["noise"] = NoiseModel.from_dict(noise)
        try:
            return cls(**kwargs)
        except TypeError as exc:
            raise ReproError("bad task: {}".format(exc)) from None


def tasks_from_spec(spec: SweepSpec) -> List[SweepTask]:
    """The declarative grid of a :class:`~repro.harness.spec.SweepSpec`
    as picklable tasks, in the spec's deterministic cell order."""
    return [SweepTask(spec_name=cell.workload, scheme=cell.scheme,
                      scale=cell.scale,
                      substitution_fraction=spec.substitution_fraction,
                      device_seed=spec.device_seed, shots=cell.shots,
                      module=registry.origin_module(cell.workload),
                      scheme_module=scheme_registry.origin_module(
                          cell.scheme),
                      config=spec.config, noise=spec.noise,
                      noise_shots=spec.noise_shots)
            for cell in spec.cells()]


@dataclass
class CellResult:
    """Picklable result of one sweep cell."""

    spec_name: str
    scheme: str
    num_qubits: int
    num_ops: int
    feedback_ops: int
    makespan_cycles: int
    sync_stall_cycles: int
    lifetimes_ns: Dict[int, float]
    shots: int = 1
    #: per-shot makespans (single entry when shots == 1).
    shot_makespan_cycles: Tuple[int, ...] = ()
    #: Monte-Carlo empirical fidelity (None when the cell ran noiseless).
    fidelity_empirical: Optional[float] = None
    fidelity_ci_low: Optional[float] = None
    fidelity_ci_high: Optional[float] = None
    noise_method: Optional[str] = None
    noise_shots: Optional[int] = None
    noise_seed: Optional[int] = None

    def to_dict(self) -> Dict[str, object]:
        """Plain-JSON-types dict for the service wire format.  JSON keys
        are strings, so ``lifetimes_ns`` (qubit index -> ns) is stringed
        here and restored by :meth:`from_dict` — round-trip exact."""
        data = asdict(self)
        data["lifetimes_ns"] = {str(qubit): ns for qubit, ns
                                in self.lifetimes_ns.items()}
        data["shot_makespan_cycles"] = list(self.shot_makespan_cycles)
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "CellResult":
        """Rebuild a cell result from :meth:`to_dict` output, type-checking
        every field: worker payloads are stored as-is, so a malformed one
        must fail here, not at every later fetch."""
        if not isinstance(data, dict):
            raise ReproError("cell result must be a JSON object, got "
                             "{}".format(type(data).__name__))
        known = {field.name for field in dataclass_fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ReproError(
                "unknown cell-result fields {}; known: {}".format(
                    sorted(unknown), sorted(known)))
        problems = [name for name, ok in _cell_field_checks(data) if not ok]
        if problems:
            raise ReproError("bad cell result: malformed {}".format(
                ", ".join("{}={!r}".format(name, data.get(name))[:120]
                          for name in problems)))
        kwargs = dict(data)
        kwargs["lifetimes_ns"] = {int(qubit): ns for qubit, ns
                                  in data["lifetimes_ns"].items()}
        kwargs["shot_makespan_cycles"] = tuple(
            data.get("shot_makespan_cycles", ()))
        return cls(**kwargs)


def _is_int(value, minimum: int) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) \
        and value >= minimum


def _cell_field_checks(data: Dict[str, object]):
    """(field, well-formed?) for every :class:`CellResult` wire field."""
    for name in ("spec_name", "scheme"):
        yield name, isinstance(data.get(name), str)
    for name in ("num_qubits", "num_ops", "feedback_ops", "makespan_cycles",
                 "sync_stall_cycles"):
        yield name, _is_int(data.get(name), 0)
    lifetimes = data.get("lifetimes_ns")
    yield "lifetimes_ns", isinstance(lifetimes, dict) and all(
        isinstance(qubit, str) and qubit.isascii() and qubit.isdecimal()
        and finite_real(ns) and ns >= 0 for qubit, ns in lifetimes.items())
    yield "shots", _is_int(data.get("shots", 1), 1)
    shot_makespans = data.get("shot_makespan_cycles", ())
    yield "shot_makespan_cycles", isinstance(shot_makespans, (list, tuple)) \
        and all(_is_int(cycles, 0) for cycles in shot_makespans)
    # Fidelities are proportions: wilson_interval clamps to [0, 1] too.
    for name in ("fidelity_empirical", "fidelity_ci_low",
                 "fidelity_ci_high"):
        value = data.get(name)
        yield name, value is None or (finite_real(value) and
                                      0 <= value <= 1)
    yield "noise_method", data.get("noise_method") is None or \
        isinstance(data["noise_method"], str)
    yield "noise_shots", data.get("noise_shots") is None or \
        _is_int(data["noise_shots"], 1)
    yield "noise_seed", data.get("noise_seed") is None or \
        _is_int(data["noise_seed"], 0)


def run_cell(task: SweepTask) -> CellResult:
    """Worker entry point: rebuild the workload and run one cell."""
    cell, _ = run_cell_timed(task)
    return cell


def run_cell_timed(task: SweepTask
                   ) -> Tuple[CellResult, Dict[str, float]]:
    """Run one cell; also return per-phase wall-clock seconds.

    The phase dict (``compile`` / ``simulate`` / ``noise`` / ``total``)
    always carries real timings — three ``perf_counter`` pairs per cell
    are noise against a cell's runtime — and feeds the service worker's
    ``/complete`` report (``phase_seconds`` on ``/status``).  When
    tracing is active the same phases show as spans, the cell runs with
    TELF recording on, and its simulated-cycle events are merged into
    the live trace next to the wall-clock spans.

    Workloads are resolved by name through the registry.  A fresh
    ``spawn`` worker starts with an empty registry, so the task's
    ``module`` (recorded at registration) is imported first — builtin
    and third-party families alike rebuild without fork-inherited state.
    """
    from ..circuits.dynamic import count_feedback_ops

    import importlib
    for module in (task.module, task.scheme_module):
        if module and module != "__main__":
            try:
                importlib.import_module(module)
            except ImportError:
                pass  # the registry lookup reports the missing name
    _CELLS_RUN.value += 1
    tracing = _trace.tracing_active()
    phases: Dict[str, float] = {}
    t_start = time.perf_counter()
    with _trace.span("cell", cat="sweep", workload=task.spec_name,
                     scheme=task.scheme, scale=task.scale,
                     shots=task.shots):
        workload = registry.get_workload(task.spec_name)
        spec = workload.spec(task.scale, task.substitution_fraction)
        circuit, mesh_kind = _cell_circuit(task, spec)
        t0 = time.perf_counter()
        with _trace.span("compile", cat="sweep"):
            compilation = _cell_compilation(task, circuit, mesh_kind)
        t1 = time.perf_counter()
        with _trace.span("simulate", cat="sweep"):
            result = run_circuit(circuit, scheme=task.scheme,
                                 config=task.config, backend=None,
                                 device_seed=task.device_seed,
                                 mesh_kind=mesh_kind,
                                 record_gate_log=False,
                                 record_telf=tracing,
                                 shots=task.shots,
                                 compilation=compilation)
        t2 = time.perf_counter()
        if tracing:
            _trace.add_telf_events(result.system.telf.records,
                                   config=result.system.config)
        cell = CellResult(
            spec_name=task.spec_name, scheme=task.scheme,
            num_qubits=circuit.num_qubits, num_ops=len(circuit),
            feedback_ops=count_feedback_ops(circuit),
            makespan_cycles=result.makespan_cycles,
            sync_stall_cycles=result.stats.sync_stall_cycles,
            lifetimes_ns=result.system.device.lifetimes_ns(),
            shots=task.shots,
            shot_makespan_cycles=tuple(result.shot_makespans))
        t3 = t2
        if task.noise is not None:
            # Empirical fidelity rides on the timing run: the scheme's
            # own per-qubit activity windows drive the model's idle
            # decoherence, so schemes that idle longer really do score
            # lower.
            from ..noise.estimator import estimate_fidelity
            seed = task.noise_seed()
            with _trace.span("noise", cat="sweep"):
                estimate = estimate_fidelity(
                    circuit, task.noise, task.noise_shots, seed=seed,
                    lifetimes_ns=cell.lifetimes_ns,
                    config=task.config or SimulationConfig())
            t3 = time.perf_counter()
            cell.fidelity_empirical = estimate.estimate
            cell.fidelity_ci_low = estimate.ci_low
            cell.fidelity_ci_high = estimate.ci_high
            cell.noise_method = estimate.method
            cell.noise_shots = task.noise_shots
            cell.noise_seed = seed
    phases["compile"] = t1 - t0
    phases["simulate"] = t2 - t1
    phases["noise"] = t3 - t2
    phases["total"] = time.perf_counter() - t_start
    return cell, phases


#: (workload, scale, substitution_fraction) -> (circuit, mesh_kind).
#: Sweep grids run every workload under several schemes back to back;
#: circuit construction is deterministic, so one build serves them all.
_CELL_CIRCUITS: Dict[tuple, tuple] = {}
_CELL_CIRCUITS_LIMIT = 64


def _cell_circuit(task: SweepTask, spec) -> tuple:
    key = (task.spec_name, repr(task.scale),
           repr(task.substitution_fraction))
    entry = _CELL_CIRCUITS.get(key)
    if entry is None:
        if len(_CELL_CIRCUITS) >= _CELL_CIRCUITS_LIMIT:
            _CELL_CIRCUITS.clear()
        entry = _CELL_CIRCUITS[key] = (spec.circuit(), spec.mesh_kind)
    return entry


#: Directory -> CompileCache handle (one per worker process; the store
#: itself is shared on disk across sweep workers, service workers and
#: the offline CLIs).
_COMPILE_CACHES: Dict[str, compile_cache_mod.CompileCache] = {}


def _compile_cache_for(directory: str) -> compile_cache_mod.CompileCache:
    cache = _COMPILE_CACHES.get(directory)
    if cache is None:
        cache = _COMPILE_CACHES[directory] = compile_cache_mod.CompileCache(
            directory)
    return cache


def _cell_compilation(task: SweepTask, circuit, mesh_kind: str):
    directory = task.compile_cache_dir
    return compile_cache_mod.cached_compile(
        circuit, scheme=task.scheme, config=task.config, mesh_kind=mesh_kind,
        cache=_compile_cache_for(directory) if directory else None)


def clear_cell_caches() -> None:
    """Drop the per-process circuit memo (benchmarks that want
    cold-start numbers, and tests)."""
    _CELL_CIRCUITS.clear()


#: Cells between the explicit collections of :func:`_gc_batched`.
_GC_EVERY = 8


def _gc_batched(tasks: Sequence[SweepTask]):
    """Yield tasks with the cyclic GC paused between collections.

    A sweep cell allocates millions of short-lived tuples and a couple of
    reference cycles (core <-> system); letting the generational collector
    walk the whole heap every few ten-thousand allocations costs 15-25% of
    serial sweep wall-clock.  Pausing the collector and doing one explicit
    ``gc.collect`` every :data:`_GC_EVERY` cells keeps memory bounded
    while taking the collector off the hot path.  The cycles held between
    collections are at most two systems per cell: shot 0's, plus one
    reused lane system for multishot cells (:mod:`repro.sim.lanes`
    rewinds it per lane instead of building one per shot).  The
    collector's previous state is restored even when a cell raises.
    """
    import gc

    was_enabled = gc.isenabled()
    if not was_enabled:
        yield from tasks
        return
    gc.disable()
    try:
        for index, task in enumerate(tasks):
            if index and index % _GC_EVERY == 0:
                # Generation-1 pass: frees the previous cells' system
                # graphs (young cycles) without walking the long-lived
                # heap of caches and registries.
                gc.collect(1)
            yield task
    finally:
        gc.enable()
        gc.collect()


def _guarded_run_cell(task: SweepTask):
    """Pool adapter: never raises, returns (task, result|None, error|None,
    the cell's compile-cache (hits, misses) in the process that ran it).

    Exceptions are rendered to tracebacks in the worker — exception
    objects are not reliably picklable, strings always are."""
    before = compile_cache_mod.compile_cache_totals()
    try:
        cell, error = run_cell(task), None
    except Exception:
        cell, error = None, traceback.format_exc()
    after = compile_cache_mod.compile_cache_totals()
    return task, cell, error, (after["hits"] - before["hits"],
                               after["misses"] - before["misses"])


@dataclass(frozen=True)
class CacheStats:
    """Hit/miss tally of one sweep's cache lookups.

    ``hits``/``misses`` count result-cache lookups; ``compile_hits``/
    ``compile_misses`` count persistent compile-cache lookups of the
    executed cells, summed across pool workers.
    """

    hits: int = 0
    misses: int = 0
    compile_hits: int = 0
    compile_misses: int = 0


def run_tasks(tasks: Sequence[SweepTask],
              processes: Optional[int] = None,
              start_method: Optional[str] = None,
              cache_dir: Optional[str] = None,
              compile_cache_dir: Optional[str] = None,
              verbose: bool = False
              ) -> Tuple[Dict[Tuple[str, str, float, int], CellResult],
                         CacheStats]:
    """Execute sweep cells, returning ``{task.key(): CellResult}`` + cache
    stats.

    This is the one executor behind :func:`repro.harness.sweep.run_sweep`:
    ``processes=1`` runs in-process, anything else a fresh pool.  One
    code path is what makes the serial/parallel bit-identity guarantee
    structural rather than tested-for.  Failing cells do not abort the
    sweep: every healthy cell runs (and is cached) first, then a
    :class:`SweepExecutionError` carrying all failures is raised.
    """
    cache = _diskcache.PickleDirStore(cache_dir) if cache_dir else None
    if compile_cache_dir:
        # An explicit dir overrides only tasks that did not already
        # carry one (tasks are the wire format; a task-level dir wins).
        tasks = [replace(task, compile_cache_dir=compile_cache_dir)
                 if task.compile_cache_dir is None else task
                 for task in tasks]
    results: Dict[Tuple[str, str, float, int], CellResult] = {}
    misses: List[SweepTask] = []
    for task in tasks:
        cached = cache.get(task.cache_key()) if cache is not None else None
        if cached is not None:
            results[task.key()] = cached
        else:
            misses.append(task)
    stats = CacheStats(hits=len(tasks) - len(misses), misses=len(misses))
    _CACHE_HITS.value += stats.hits
    _CACHE_MISSES.value += stats.misses
    if cache is not None:
        (_log.info if verbose else _log.debug)(
            "sweep_cache", hits=stats.hits, misses=stats.misses)
    failures: List[Tuple[SweepTask, str]] = []
    compile_hits = compile_misses = 0
    if misses:
        workers = processes if processes is not None else (
            os.cpu_count() or 1)
        workers = max(1, min(workers, len(misses)))

        def record(task: SweepTask, cell: CellResult) -> None:
            # Cache each cell as it lands, so an interrupted sweep resumes
            # from the completed cells rather than recomputing everything.
            results[task.key()] = cell
            if cache is not None:
                cache.put(task.cache_key(), cell)

        if workers == 1:
            finished = map(_guarded_run_cell, _gc_batched(misses))
        else:
            # A fresh pool per call: its workers start from the current
            # environment under fork and spawn alike.
            context = multiprocessing.get_context(start_method)
            # chunksize=1: cell runtimes vary by orders of magnitude
            # across workloads, so fine-grained dispatch load-balances.
            pool = context.Pool(workers)
            finished = pool.imap(_guarded_run_cell, misses, chunksize=1)
        try:
            for task, cell, error, compile_delta in finished:
                compile_hits += compile_delta[0]
                compile_misses += compile_delta[1]
                if error is not None:
                    failures.append((task, error))
                else:
                    record(task, cell)
        finally:
            if workers > 1:
                pool.close()
                pool.join()
    if failures:
        raise SweepExecutionError(failures)
    if compile_hits or compile_misses:
        stats = replace(stats, compile_hits=compile_hits,
                        compile_misses=compile_misses)
        (_log.info if verbose else _log.debug)(
            "compile_cache", hits=compile_hits, misses=compile_misses)
    return results, stats
