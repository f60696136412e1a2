"""Parallel evaluation harness: fan the Figure-15 grid across processes.

The serial harness (:func:`repro.harness.runner.run_suite`) walks the
(workload x scheme) grid one ``run_circuit`` at a time.  Each cell is
independent, so this module turns the grid into picklable
:class:`SweepTask` records and maps them over a ``multiprocessing`` pool:

* **Deterministic seeding** — every task carries its device seed
  explicitly (default: the serial harness's seed for every cell), so a
  parallel sweep reproduces the serial outcomes bit for bit regardless of
  scheduling order or worker count.
* **Result caching** — with ``cache_dir`` set, each finished cell is
  pickled under a SHA-256 key derived from (spec, scheme, config, seed);
  repeated sweeps skip completed cells, so an interrupted full-scale run
  resumes where it stopped.
* **Spawn safety** — workers rebuild their workload from the suite
  parameters (``fig15_suite`` is deterministic), so the tasks stay tiny
  and the module works under both ``fork`` and ``spawn`` start methods.

Run a sweep from the command line::

    python -m repro.harness.parallel --scale 0.1 --processes 8
"""

from __future__ import annotations

import argparse
import hashlib
import multiprocessing
import os
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import asdict, dataclass, replace
from dataclasses import fields as dataclass_fields
from typing import Dict, List, Optional, Sequence, Tuple

from .. import diskcache as _diskcache
from ..compiler import cache as compile_cache_mod
from ..compiler import schemes as scheme_registry
from ..compiler.driver import SCHEMES, compile_circuit, run_circuit
from ..errors import ReproError
from ..fastpath import fastpath_enabled, replay_tier
from ..noise.model import NoiseModel, derive_seed
from ..obs import log as obs_log
from ..obs import metrics as _metrics
from ..obs import trace as _trace
from ..sim.config import SimulationConfig
from . import registry
from .runner import BenchmarkOutcome
from .spec import SweepSpec
from .tables import render_figure15

_log = obs_log.get_logger("repro.harness")

_CACHE_HITS = _metrics.counter(
    "repro_sweep_cache_hits_total", "sweep cells served from the cache")
_CACHE_MISSES = _metrics.counter(
    "repro_sweep_cache_misses_total", "sweep cells actually executed")
_CELLS_RUN = _metrics.counter(
    "repro_sweep_cells_run_total", "run_cell invocations")
_PHASE_SECONDS = {
    phase: _metrics.histogram(
        "repro_cell_phase_seconds", "wall-clock per sweep-cell phase",
        labels={"phase": phase})
    for phase in ("compile", "simulate", "noise")}

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
        """Write every failing cell's traceback to ``stream`` (the shared
        CLI error report of both ``parallel`` and ``sweep``)."""
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
    #: Fast-path escape hatch captured at task-build time.  Workers apply
    #: it for the duration of the cell, so a differential sweep's mode
    #: reaches every pool worker regardless of start method or pool
    #: lifetime — ``fastpath_enabled()`` is read per process at object
    #: creation, and an env var set after a long-lived pool was forked
    #: would otherwise be silently ignored.  None inherits the worker's
    #: ambient environment.  Deliberately *not* part of ``cache_key``:
    #: results are bit-identical across modes by contract.
    no_fastpath: Optional[bool] = None
    #: Replay tier captured at task-build time (same contract).
    replay_tier: Optional[str] = None
    #: Directory of the persistent compile cache
    #: (:class:`repro.compiler.cache.CompileCache`); None compiles
    #: in-process only.  Like the fast-path flags, deliberately *not*
    #: part of ``cache_key``: the cached compilation is bit-identical to
    #: a fresh one by contract (and tested for).
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
            "no_fastpath": self.no_fastpath,
            "replay_tier": self.replay_tier,
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
    no_fastpath = not fastpath_enabled()
    tier = replay_tier()
    return [SweepTask(spec_name=cell.workload, scheme=cell.scheme,
                      scale=cell.scale,
                      substitution_fraction=spec.substitution_fraction,
                      device_seed=spec.device_seed, shots=cell.shots,
                      module=registry.origin_module(cell.workload),
                      scheme_module=scheme_registry.origin_module(
                          cell.scheme),
                      config=spec.config, noise=spec.noise,
                      noise_shots=spec.noise_shots,
                      no_fastpath=no_fastpath, replay_tier=tier)
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
        """Rebuild a cell result from :meth:`to_dict` output."""
        if not isinstance(data, dict):
            raise ReproError("cell result must be a JSON object, got "
                             "{}".format(type(data).__name__))
        known = {field.name for field in dataclass_fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ReproError(
                "unknown cell-result fields {}; known: {}".format(
                    sorted(unknown), sorted(known)))
        kwargs = dict(data)
        kwargs["lifetimes_ns"] = {int(qubit): ns for qubit, ns
                                  in kwargs.get("lifetimes_ns", {}).items()}
        kwargs["shot_makespan_cycles"] = tuple(
            kwargs.get("shot_makespan_cycles", ()))
        try:
            return cls(**kwargs)
        except TypeError as exc:
            raise ReproError("bad cell result: {}".format(exc)) from None


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
    ``/complete`` report; the obs histograms only record when timing
    instrumentation is enabled.  When tracing is active the cell runs
    with TELF recording on and its simulated-cycle events are merged
    into the live trace next to the wall-clock spans.

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
        with _task_environment(task):
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
    if _metrics.enabled():
        for phase, hist in _PHASE_SECONDS.items():
            hist.observe(phases[phase])
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


#: Cell-identity -> CompilationResult.  Compilation is deterministic and
#: independent of device seed, replay tier and noise model, so warm
#: repeats of a cell — ``--verify-parallel`` reruns, differential-mode
#: sweeps, benchmark iterations — skip the lowering/emit pipeline (about
#: a third of a cold sweep's wall-clock).  The compiled programs are
#: treated as read-only by the simulator, which already reuses one
#: compilation across every shot of a cell.  The limit must cover a
#: whole sweep grid (paper tag: 12 workloads x 5 schemes = 60 cells) or
#: warm repeats thrash the memo and recompile every cell.
_CELL_COMPILATIONS: Dict[tuple, object] = {}
_CELL_COMPILATIONS_LIMIT = 256

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
    config = task.config or SimulationConfig()
    key = (task.spec_name, task.scheme, repr(task.scale),
           repr(task.substitution_fraction), mesh_kind,
           tuple(sorted(asdict(config).items())))
    entry = _CELL_COMPILATIONS.get(key)
    if entry is None:
        if len(_CELL_COMPILATIONS) >= _CELL_COMPILATIONS_LIMIT:
            _CELL_COMPILATIONS.clear()
        if task.compile_cache_dir:
            entry = compile_cache_mod.cached_compile(
                circuit, scheme=task.scheme, config=task.config,
                mesh_kind=mesh_kind,
                cache=_compile_cache_for(task.compile_cache_dir))
        else:
            entry = compile_circuit(
                circuit, scheme=task.scheme, config=task.config,
                mesh_kind=mesh_kind)
        _CELL_COMPILATIONS[key] = entry
    return entry


def clear_cell_caches() -> None:
    """Drop the per-process circuit and compilation memos (benchmarks
    that want cold-start numbers, and tests)."""
    _CELL_CIRCUITS.clear()
    _CELL_COMPILATIONS.clear()


@contextmanager
def _task_environment(task: SweepTask):
    """Apply the task's captured fast-path flags for the cell's duration.

    Restores the previous environment afterwards, so in-process (serial)
    sweeps leave the caller's environment untouched."""
    updates = {}
    if task.no_fastpath is not None:
        updates["REPRO_NO_FASTPATH"] = "1" if task.no_fastpath else None
    if task.replay_tier is not None:
        updates["REPRO_REPLAY_TIER"] = task.replay_tier
    if not updates:
        yield
        return
    saved = {name: os.environ.get(name) for name in updates}
    try:
        for name, value in updates.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value
        yield
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


def _gc_batched(tasks: Sequence[SweepTask], every: int = 8):
    """Yield tasks with the cyclic GC paused between collections.

    A sweep cell allocates millions of short-lived tuples and a couple of
    reference cycles (core <-> system); letting the generational collector
    walk the whole heap every few ten-thousand allocations costs 15-25% of
    serial sweep wall-clock.  Pausing the collector and doing one explicit
    ``gc.collect`` every ``every`` cells keeps memory bounded while taking
    the collector off the hot path.  The cycles held between collections
    are at most two systems per cell: shot 0's, plus one reused lane
    system for multishot cells (:mod:`repro.sim.lanes` rewinds it per
    lane instead of building one per shot).  The collector's previous
    state is restored even when a cell raises.
    """
    import gc

    was_enabled = gc.isenabled()
    if not was_enabled:
        yield from tasks
        return
    gc.disable()
    try:
        for index, task in enumerate(tasks):
            if index and index % every == 0:
                # Generation-1 pass: frees the previous cells' system
                # graphs (young cycles) without walking the long-lived
                # heap of caches and registries.
                gc.collect(1)
            yield task
    finally:
        gc.enable()
        gc.collect()


def _guarded_run_cell(task: SweepTask):
    """Pool adapter: never raises, returns (task, result|None, error|None).

    Exceptions are rendered to tracebacks in the worker — exception
    objects are not reliably picklable, strings always are."""
    try:
        return task, run_cell(task), None
    except Exception:
        return task, None, traceback.format_exc()


#: Re-exported from :mod:`repro.diskcache` (the store machinery moved
#: there so the compile cache shares it); kept importable from here —
#: tests and the service store address them through this module.
ORPHAN_TMP_SECONDS = _diskcache.ORPHAN_TMP_SECONDS
_pid_of_tmp = _diskcache._pid_of_tmp
_pid_alive = _diskcache._pid_alive


class SweepCache(_diskcache.PickleDirStore):
    """On-disk pickle cache of finished sweep cells, keyed by content hash.

    All mechanics — atomic temp+rename puts, broad-except gets (corrupt
    entry = miss, recompute), single-flight orphan-temp reclaim on open —
    live in :class:`repro.diskcache.PickleDirStore`, shared with the
    compile cache (:class:`repro.compiler.cache.CompileCache`); this
    subclass only narrows the value type to :class:`CellResult`.
    """

    def get(self, key: str) -> Optional[CellResult]:
        """Load a cached cell; corrupt or missing entries return None."""
        return super().get(key)

    def put(self, key: str, value: CellResult) -> None:
        """Store a cell atomically (temp file + rename)."""
        super().put(key, value)


def build_tasks(scale: float,
                schemes: Sequence[str],
                substitution_fraction: float = 0.25,
                config: Optional[SimulationConfig] = None,
                device_seed: int = 1234,
                spec_names: Optional[Sequence[str]] = None,
                shots: int = 1) -> List[SweepTask]:
    """The (workload x scheme) grid as picklable tasks, in suite order.

    Defaults to the paper's Figure-15 workloads (registry tag
    ``"paper"``); ``spec_names`` selects any registered workloads —
    including the extra families — in registry order.
    """
    if spec_names is not None:
        known = registry.workload_names()
        unknown = set(spec_names) - set(known)
        if unknown:
            raise ValueError("unknown workloads: {} (registered: {})".format(
                sorted(unknown), known))
        # Caller order wins, matching runner.suite(names=...).
        names = list(dict.fromkeys(spec_names))
    else:
        names = registry.workload_names(tags=("paper",))
    no_fastpath = not fastpath_enabled()
    tier = replay_tier()
    return [SweepTask(spec_name=name, scheme=scheme, scale=scale,
                      substitution_fraction=substitution_fraction,
                      device_seed=device_seed, shots=shots,
                      module=registry.origin_module(name),
                      scheme_module=scheme_registry.origin_module(scheme),
                      config=config,
                      no_fastpath=no_fastpath, replay_tier=tier)
            for name in names for scheme in schemes]


@dataclass(frozen=True)
class CacheStats:
    """Hit/miss tally of one sweep's cache lookups.

    ``compile_hits``/``compile_misses`` count persistent compile-cache
    lookups *in this process* — exact for in-process (``processes=1``)
    sweeps, zero for pool workers (their counters live in the worker
    processes; use the cache line in each worker's log, or run the
    gate serially, when the exact tally matters).
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

    This is the single execution core behind the serial runner path
    (``processes=1`` runs in-process), :func:`run_suite_parallel` and the
    ``repro.harness.sweep`` CLI — one code path is what makes the
    serial/parallel bit-identity guarantee structural rather than tested-
    for.  Failing cells do not abort the sweep: every healthy cell runs
    (and is cached) first, then a :class:`SweepExecutionError` carrying
    all failures is raised.
    """
    cache = SweepCache(cache_dir) if cache_dir else None
    if compile_cache_dir:
        # An explicit dir overrides only tasks that did not already
        # carry one (tasks are the wire format; a task-level dir wins).
        tasks = [replace(task, compile_cache_dir=compile_cache_dir)
                 if task.compile_cache_dir is None else task
                 for task in tasks]
    compile_before = compile_cache_mod.compile_cache_totals()
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
            context = multiprocessing.get_context(start_method)
            # chunksize=1: cell runtimes vary by orders of magnitude
            # across workloads, so fine-grained dispatch load-balances.
            pool = context.Pool(workers)
            finished = pool.imap(_guarded_run_cell, misses, chunksize=1)
        try:
            for task, cell, error in finished:
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
    compile_after = compile_cache_mod.compile_cache_totals()
    compile_hits = compile_after["hits"] - compile_before["hits"]
    compile_misses = compile_after["misses"] - compile_before["misses"]
    if compile_hits or compile_misses:
        stats = replace(stats, compile_hits=compile_hits,
                        compile_misses=compile_misses)
        (_log.info if verbose else _log.debug)(
            "compile_cache", hits=compile_hits, misses=compile_misses)
    return results, stats


def run_suite_parallel(scale: float = 1.0,
                       schemes: Sequence[str] = ("bisp", "lockstep"),
                       substitution_fraction: float = 0.25,
                       config: Optional[SimulationConfig] = None,
                       device_seed: int = 1234,
                       processes: Optional[int] = None,
                       start_method: Optional[str] = None,
                       cache_dir: Optional[str] = None,
                       compile_cache_dir: Optional[str] = None,
                       spec_names: Optional[Sequence[str]] = None,
                       verbose: bool = False) -> List[BenchmarkOutcome]:
    """Run the Figure-15 sweep with cells fanned out across processes.

    Returns one :class:`BenchmarkOutcome` per workload, in suite order —
    the same list (same seeds, same numbers) the serial
    :func:`~repro.harness.runner.run_suite` produces.

    ``processes=None`` uses every core; ``processes=1`` (or a single-cell
    grid) runs in-process, which is handy under debuggers.  ``cache_dir``
    enables the on-disk result cache; ``start_method`` picks the
    multiprocessing context (``"fork"``, ``"spawn"``, ...).
    """
    tasks = build_tasks(scale, schemes,
                        substitution_fraction=substitution_fraction,
                        config=config, device_seed=device_seed,
                        spec_names=spec_names)
    results, _ = run_tasks(tasks, processes=processes,
                           start_method=start_method, cache_dir=cache_dir,
                           compile_cache_dir=compile_cache_dir,
                           verbose=verbose)
    ordered_names = []
    for task in tasks:
        if task.spec_name not in ordered_names:
            ordered_names.append(task.spec_name)
    outcomes = []
    for name in ordered_names:
        cells = [results[(name, scheme, scale, 1)] for scheme in schemes]
        outcome = BenchmarkOutcome(
            name=name, num_qubits=cells[0].num_qubits,
            num_ops=cells[0].num_ops, feedback_ops=cells[0].feedback_ops)
        for scheme, cell in zip(schemes, cells):
            outcome.makespan_cycles[scheme] = cell.makespan_cycles
            outcome.stall_cycles[scheme] = cell.sync_stall_cycles
            outcome.lifetimes_ns[scheme] = cell.lifetimes_ns
        if verbose:
            print("{:>16s}: ".format(name) + "  ".join(
                "{}={}".format(s, outcome.makespan_cycles[s])
                for s in schemes))
        outcomes.append(outcome)
    return outcomes


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI: run a (possibly scaled) Figure-15 sweep in parallel."""
    parser = argparse.ArgumentParser(
        description="Parallel Figure-15 sweep over (workload x scheme)")
    parser.add_argument("--scale", type=float, default=0.1,
                        help="workload scale factor (1.0 = paper sizes)")
    parser.add_argument("--schemes", nargs="+",
                        default=["bisp", "lockstep"],
                        choices=SCHEMES,
                        help="synchronization schemes to sweep")
    parser.add_argument("--processes", type=int, default=None,
                        help="worker processes (default: all cores)")
    parser.add_argument("--start-method", default=None,
                        choices=("fork", "spawn", "forkserver"),
                        help="multiprocessing start method")
    parser.add_argument("--cache-dir", default=None,
                        help="directory for the on-disk result cache")
    parser.add_argument("--compile-cache", default=None,
                        help="directory for the persistent compile cache "
                             "(shared across sweep/service workers)")
    parser.add_argument("--seed", type=int, default=1234,
                        help="device seed used for every cell")
    parser.add_argument("--substitution-fraction", type=float, default=0.25)
    parser.add_argument("--workloads", nargs="+", default=None,
                        help="restrict to these workload names")
    obs_log.add_log_arguments(parser)
    args = parser.parse_args(argv)
    obs_log.configure_from_args(args)
    try:
        outcomes = run_suite_parallel(
            scale=args.scale, schemes=tuple(args.schemes),
            substitution_fraction=args.substitution_fraction,
            device_seed=args.seed, processes=args.processes,
            start_method=args.start_method, cache_dir=args.cache_dir,
            compile_cache_dir=args.compile_cache,
            spec_names=args.workloads, verbose=True)
    except ValueError as exc:
        parser.error(str(exc))
    except SweepExecutionError as exc:
        # Surface every failing cell and exit non-zero — a smoke run that
        # "passes" while cells die is worse than no smoke run at all.
        exc.render(sys.stderr)
        return 1
    if set(args.schemes) >= {"bisp", "lockstep"}:
        print()
        print(render_figure15(outcomes))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
