"""Declarative sweep CLI: run a :class:`~repro.harness.spec.SweepSpec`
and emit a machine-readable ``BENCH_<name>.json`` artifact.

The grid defaults to *every* registered workload (the paper's Figure-15
families plus all self-registered extras) under *every* registered
synchronization scheme (see ``--list-schemes``)::

    python -m repro.harness.sweep --scale 0.05 --out /tmp/bench

CI-oriented switches:

* ``--processes N`` fans cells over a process pool; results are
  bit-identical to ``--processes 1`` (one execution core, fixed seeds),
  and ``--verify-parallel`` runs both and proves it on the spot.
* ``--baseline FILE --max-regression 0.25`` regression-gates the run
  against a checked-in artifact (simulated ``makespan_cycles`` per cell
  — deterministic, unlike wall-clock on shared runners).
* ``--cache-dir DIR`` reuses the on-disk cell cache; ``--require-cached``
  fails the run if any cell missed (the CI warm-cache check), and
  ``--count-cells`` prints the grid size the expected hit count is
  derived from.
* ``--spec FILE`` loads the whole grid from a JSON spec instead of
  flags; ``--print-spec`` shows the effective spec and exits.
* ``--noise <preset|file>`` attaches a Monte-Carlo
  :class:`~repro.noise.model.NoiseModel`: every cell additionally runs
  ``--noise-shots`` Pauli-frame (or noisy-statevector) samples seeded
  from its grid coordinates and reports ``fidelity_empirical`` with a
  binomial confidence interval next to the closed-form
  ``fidelity_proxy`` (BENCH schema v2).

Everything outside the artifact's ``volatile`` block is deterministic
for a fixed spec and seed; wall-clock timing is only recorded under
``--timing-meta``, keeping default artifacts byte-comparable.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

from dataclasses import replace

from ..compiler import schemes as scheme_registry
from ..errors import ReproError
from ..fidelity import circuit_fidelity
from ..noise.model import resolve_noise_model
from ..obs import log as obs_log
from ..obs import trace as obs_trace
from ..sim.config import SimulationConfig
from .parallel import (CacheStats, CellResult, SweepExecutionError,
                       SweepTask, run_tasks, tasks_from_spec)
from .runner import outcomes_from_rows
from .spec import SweepSpec
from .benchjson import (compare_benches, load_bench, make_bench, write_bench)
from .tables import render_figure15, render_scheme_matrix

#: T1 = T2 value (us) behind the per-cell ``fidelity_proxy`` column — the
#: midpoint of the paper's 30..300 us sweep (section 6.4.5).
FIDELITY_T1_US = 150.0

_log = obs_log.get_logger("repro.sweep")


def sweep_rows(tasks: Sequence[SweepTask],
               results: Dict[Tuple[str, str, float, int], CellResult]
               ) -> List[Dict[str, object]]:
    """Flatten executed cells into schema-shaped BENCH result rows."""
    rows = []
    for task in tasks:
        cell = results[task.key()]
        config = task.config or SimulationConfig()
        shot_makespans = cell.shot_makespan_cycles or \
            (cell.makespan_cycles,)
        row = {
            "workload": cell.spec_name,
            "scheme": cell.scheme,
            "scale": task.scale,
            "shots": cell.shots,
            "num_qubits": cell.num_qubits,
            "num_ops": cell.num_ops,
            "feedback_ops": cell.feedback_ops,
            "makespan_cycles": cell.makespan_cycles,
            "sync_stall_cycles": cell.sync_stall_cycles,
            "runtime_ns": config.ns(cell.makespan_cycles),
            "mean_shot_makespan_cycles":
                sum(shot_makespans) / len(shot_makespans),
            "max_shot_makespan_cycles": max(shot_makespans),
            "fidelity_proxy": circuit_fidelity(cell.lifetimes_ns,
                                               t1_us=FIDELITY_T1_US),
        }
        if cell.fidelity_empirical is not None:
            row.update({
                "fidelity_empirical": cell.fidelity_empirical,
                "fidelity_ci_low": cell.fidelity_ci_low,
                "fidelity_ci_high": cell.fidelity_ci_high,
                "noise_method": cell.noise_method,
                "noise_shots": cell.noise_shots,
                "noise_seed": cell.noise_seed,
            })
        rows.append(row)
    return rows


def run_sweep(spec: SweepSpec,
              processes: Optional[int] = None,
              start_method: Optional[str] = None,
              cache_dir: Optional[str] = None,
              compile_cache_dir: Optional[str] = None,
              verbose: bool = False
              ) -> Tuple[List[Dict[str, object]], CacheStats]:
    """Execute ``spec`` and return (BENCH rows, cache stats).

    The single entry point the CLI, tests and CI all use; ``processes=1``
    is the serial runner, anything else the multiprocessing fan-out —
    same cells, same seeds, same rows either way.
    """
    tasks = tasks_from_spec(spec)
    results, stats = run_tasks(tasks, processes=processes,
                               start_method=start_method,
                               cache_dir=cache_dir,
                               compile_cache_dir=compile_cache_dir,
                               verbose=verbose)
    return sweep_rows(tasks, results), stats


def split_names(values: Optional[Sequence[str]]) -> Optional[List[str]]:
    """Flatten repeated/comma-separated name flags:
    ``--schemes oracle,lockstep_window`` == ``--schemes oracle
    lockstep_window``."""
    if not values:
        return None
    return [name for value in values for name in value.split(",") if name]


def add_spec_arguments(parser: argparse.ArgumentParser) -> None:
    """Register the grid/spec flags shared by every sweep front end
    (this CLI and ``python -m repro.service submit``): one flag
    vocabulary, one :class:`SweepSpec` builder (:func:`spec_from_args`),
    so a grid submitted to the service means exactly what the same
    flags mean offline."""
    parser.add_argument("--spec", default=None,
                        help="load the sweep spec from this JSON file "
                             "(overrides the grid flags)")
    parser.add_argument("--workloads", nargs="+", default=None,
                        help="registered workload names (default: all)")
    parser.add_argument("--tags", nargs="+", default=None,
                        help="restrict to workloads with any of these tags")
    parser.add_argument("--schemes", nargs="+", default=None,
                        help="registered synchronization schemes, space- "
                             "or comma-separated (default: every "
                             "registered scheme; see --list-schemes)")
    parser.add_argument("--scale", nargs="+", type=float, default=[1.0],
                        help="workload scale factor(s) (1.0 = paper sizes)")
    parser.add_argument("--shots", nargs="+", type=int, default=[1],
                        help="shots-per-cell value(s)")
    parser.add_argument("--substitution-fraction", type=float, default=0.25)
    parser.add_argument("--seed", type=int, default=1234,
                        help="device seed used for every cell")
    parser.add_argument("--noise", default=None, metavar="PRESET|FILE",
                        help="Monte-Carlo noise model: a preset name "
                             "(e.g. depolarizing_1e3) or a NoiseModel "
                             "JSON file; adds fidelity_empirical to "
                             "every cell")
    parser.add_argument("--noise-shots", type=int, default=None,
                        help="Monte-Carlo shots behind each cell's "
                             "empirical fidelity (default 256, or the "
                             "--spec file's value)")


def spec_from_args(args) -> SweepSpec:
    if args.spec is not None:
        with open(args.spec) as handle:
            spec = SweepSpec.from_json(handle.read())
        # --noise and --noise-shots each override the spec file
        # independently; a flag the user did not pass leaves the spec's
        # value untouched (argparse defaults must not clobber it).
        if args.noise is not None:
            spec = replace(spec, noise=resolve_noise_model(args.noise))
        if args.noise_shots is not None:
            spec = replace(spec, noise_shots=args.noise_shots)
        return spec
    kwargs = {}
    if args.noise_shots is not None:
        # Omitted flag -> SweepSpec's own default stays authoritative.
        kwargs["noise_shots"] = args.noise_shots
    workloads = split_names(args.workloads)
    tags = split_names(args.tags)
    schemes = split_names(args.schemes)
    return SweepSpec(
        workloads=tuple(workloads) if workloads else None,
        tags=tuple(tags) if tags else None,
        schemes=tuple(schemes) if schemes else None,
        scales=tuple(args.scale),
        shots=tuple(args.shots),
        substitution_fraction=args.substitution_fraction,
        device_seed=args.seed,
        noise=(resolve_noise_model(args.noise)
               if args.noise is not None else None),
        **kwargs)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Declarative (workload x scheme x scale x shots) sweep "
                    "over the workload registry, with BENCH JSON artifacts")
    add_spec_arguments(parser)
    parser.add_argument("--list-schemes", action="store_true",
                        help="print the registered schemes (name, tags, "
                             "description) and exit")
    parser.add_argument("--processes", type=int, default=None,
                        help="worker processes (default: all cores; "
                             "1 = serial in-process)")
    parser.add_argument("--start-method", default=None,
                        choices=("fork", "spawn", "forkserver"))
    parser.add_argument("--cache-dir", default=None,
                        help="directory for the on-disk cell cache")
    parser.add_argument("--compile-cache", default=None,
                        help="directory for the persistent compile cache "
                             "(cells skip lowering/emit on a warm hit; "
                             "results are bit-identical either way)")
    parser.add_argument("--out", default=None, metavar="DIR",
                        help="write BENCH_<name>.json into DIR")
    parser.add_argument("--name", default="sweep",
                        help="artifact name (file: BENCH_<name>.json)")
    parser.add_argument("--baseline", default=None, metavar="FILE",
                        help="regression-gate against this BENCH artifact")
    parser.add_argument("--max-regression", type=float, default=0.25,
                        help="allowed per-cell makespan growth vs the "
                             "baseline (fraction, default 0.25)")
    parser.add_argument("--timing-meta", action="store_true",
                        help="record wall-clock in the artifact's volatile "
                             "block (off by default: keeps artifacts "
                             "byte-identical across runs)")
    parser.add_argument("--count-cells", action="store_true",
                        help="print the grid size and exit")
    parser.add_argument("--print-spec", action="store_true",
                        help="print the effective spec JSON and exit")
    parser.add_argument("--require-cached", action="store_true",
                        help="fail if any cell missed the cache "
                             "(CI warm-cache check)")
    parser.add_argument("--verify-parallel", action="store_true",
                        help="run serially AND in parallel, fail unless "
                             "the rows are identical")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the text table")
    parser.add_argument("--trace", default=None, metavar="FILE",
                        help="export a Chrome trace-event JSON of the "
                             "sweep (wall-clock spans + TELF cycle "
                             "events; open in Perfetto).  Forces serial "
                             "in-process execution")
    obs_log.add_log_arguments(parser)
    args = parser.parse_args(argv)
    obs_log.configure_from_args(args)

    try:
        if args.list_schemes:
            for scheme in scheme_registry.all_schemes():
                tags = ",".join(scheme.tags) or "-"
                print("{:<18s} {:<14s} {}".format(scheme.name, tags,
                                                  scheme.description))
            return 0
        spec = spec_from_args(args)
        if args.print_spec:
            print(spec.to_json(indent=2))
            return 0
        if args.count_cells:
            print(spec.num_cells())
            return 0

        if args.trace:
            # Spans collected inside pool workers would never reach this
            # process's buffer — a traced sweep runs serially in-process.
            if args.processes not in (None, 1):
                _log.warning("trace_forces_serial",
                             requested_processes=args.processes)
            args.processes = 1
            obs_trace.start_tracing()

        started = time.perf_counter()
        try:
            rows, stats = run_sweep(spec, processes=args.processes,
                                    start_method=args.start_method,
                                    cache_dir=args.cache_dir,
                                    compile_cache_dir=args.compile_cache,
                                    verbose=not args.quiet)
        finally:
            if args.trace:
                obs_trace.stop_tracing()
        wall_seconds = time.perf_counter() - started

        if args.trace:
            trace_doc = obs_trace.export(args.trace)
            _log.info("trace_written", path=args.trace,
                      events=len(trace_doc["traceEvents"]))

        if args.verify_parallel:
            serial_rows, _ = run_sweep(spec, processes=1)
            if serial_rows != rows:
                sys.stderr.write(
                    "error: serial and parallel sweeps disagree\n")
                for serial_row, row in zip(serial_rows, rows):
                    if serial_row != row:
                        sys.stderr.write("  serial:   {!r}\n"
                                         "  parallel: {!r}\n".format(
                                             serial_row, row))
                return 1
            (_log.info if not args.quiet else _log.debug)(
                "verify_parallel_ok", cells=len(rows))

        if not args.quiet:
            for row in rows:
                line = ("{workload:>18s}/{scheme:<8s} scale={scale:<5g} "
                        "shots={shots:<3d} makespan={makespan_cycles}"
                        .format(**row))
                if "fidelity_empirical" in row:
                    line += (" fidelity={fidelity_empirical:.4f} "
                             "[{fidelity_ci_low:.4f}, "
                             "{fidelity_ci_high:.4f}] ({noise_method})"
                             .format(**row))
                print(line)
            swept = spec.resolved_schemes()
            if len(args.scale) == 1 and len(args.shots) == 1:
                outcomes = outcomes_from_rows(rows, ("bisp", "lockstep"))
                if outcomes and {"bisp", "lockstep"} <= set(swept):
                    print()
                    print(render_figure15(outcomes))
                matrix = outcomes_from_rows(rows, swept)
                if matrix and len(swept) > 2:
                    print()
                    print(render_scheme_matrix(matrix, schemes=swept))

        volatile = None
        if args.timing_meta:
            volatile = {"wall_seconds": wall_seconds,
                        "processes": args.processes}
        cache_block = {"hits": stats.hits, "misses": stats.misses}
        if args.compile_cache:
            # Outside ``results_sha256`` by design: the digest must stay
            # byte-identical with and without a compile cache.
            cache_block["compile_hits"] = stats.compile_hits
            cache_block["compile_misses"] = stats.compile_misses
        doc = make_bench(args.name, rows, kind="sweep",
                         spec=spec.to_dict(),
                         cache=cache_block,
                         volatile=volatile)
        if args.out:
            path = write_bench(args.out, doc)
            (_log.info if not args.quiet else _log.debug)(
                "artifact_written", path=path,
                results_sha256=doc["results_sha256"])

        if args.require_cached and stats.misses:
            sys.stderr.write(
                "error: expected a fully warm cache, but {} of {} cell(s) "
                "missed\n".format(stats.misses, stats.hits + stats.misses))
            return 1

        if args.baseline:
            baseline = load_bench(args.baseline)
            violations = compare_benches(
                baseline, doc, max_regression=args.max_regression)
            if violations:
                sys.stderr.write("error: regression gate failed:\n")
                for violation in violations:
                    sys.stderr.write("  {}\n".format(violation))
                return 1
            (_log.info if not args.quiet else _log.debug)(
                "regression_gate_ok",
                baseline_cells=len(baseline["results"]),
                max_regression=args.max_regression)
    except SweepExecutionError as exc:
        exc.render(sys.stderr)
        return 1
    except (ReproError, OSError) as exc:
        sys.stderr.write("error: {}\n".format(exc))
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
