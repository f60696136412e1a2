"""Observability overhead benchmark: what instrumentation costs.

Quantifies the two-tier cost model of :mod:`repro.obs` on the sweep hot
path, for the fast interpreter and the ``legacy`` stepwise one
(``ReferenceCore`` from ``tests/core/reference_core.py``):

* **off** — ``REPRO_OBS`` disabled: counters still tick (they are
  always-on by design) but :func:`repro.obs.metrics.timed` and
  :func:`repro.obs.trace.span` are single flag checks.
* **on** — timing histograms live: each sweep cell pays a handful of
  ``perf_counter`` pairs (per phase, per compiler pass).

Both modes must produce byte-identical sweep rows (the invariance the
obs test suite freezes against the pre-observability digest); the
enabled-over-disabled wall-clock ratio is recorded per interpreter and
gated by ``REPRO_OBS_MAX_OVERHEAD`` (default 0.25 — generous for shared
CI runners; the local number is low single-digit percent).  Wall-clocks
land in ``volatile``; the deterministic rows carry cell counts and
identity bits so the digest gate stays meaningful.

A second benchmark exports a traced sweep cell (wall spans + merged
TELF sim track) and schema-validates it — the same contract the CI
obs-smoke job checks end to end.

``BENCH_obs.json`` is written via the shared ``bench_recorder``
fixture; ``REPRO_SCALE`` / ``REPRO_BENCH_DIR`` as usual.
"""

import dataclasses
import os
import time

from repro.harness.parallel import (clear_cell_caches, run_cell_timed,
                                    run_tasks, tasks_from_spec)
from repro.harness.spec import SweepSpec
from repro.isa import decoded
from repro.obs import metrics, trace

from .conftest import interpreter

#: Enabled-over-disabled overhead ceiling per interpreter (ratio - 1).
MAX_OVERHEAD = float(os.environ.get("REPRO_OBS_MAX_OVERHEAD", "0.25"))

#: min-of-N timing repeats per mode (first warm pass not counted).
REPEATS = 3

TIERS = ("legacy", "vector")


def _sweep_spec(scale):
    return SweepSpec(workloads=("bv_n400", "repetition_d25"),
                     schemes=("bisp", "lockstep"),
                     scales=(float(scale),), shots=(1,))


def _timed_sweep(tasks):
    """Minimum wall-clock of REPEATS warm serial sweeps + final rows."""
    results, _ = run_tasks(tasks, processes=1)  # warm the compile memo
    best = float("inf")
    for _ in range(REPEATS):
        started = time.perf_counter()
        results, _ = run_tasks(tasks, processes=1)
        best = min(best, time.perf_counter() - started)
    rows = [dataclasses.asdict(results[task.key()]) for task in tasks]
    return rows, best


def test_instrumentation_overhead(bench_recorder, scale):
    spec = _sweep_spec(scale)
    print("\n=== observability overhead (scale={}, min of {}) ===".format(
        scale, REPEATS))
    try:
        for tier in TIERS:
            with interpreter(tier):
                clear_cell_caches()
                decoded.clear_decode_caches()
                decoded.reset_replay_totals()
                tasks = tasks_from_spec(spec)
                metrics.set_enabled(False)
                rows_off, off_seconds = _timed_sweep(tasks)
                metrics.set_enabled(True)
                rows_on, on_seconds = _timed_sweep(tasks)
            # Only the fast path replays fast blocks.
            replays = decoded.replay_totals()["vector"]
            assert (replays == 0) == (tier == "legacy"), (tier, replays)
            overhead = on_seconds / off_seconds - 1.0
            identical = int(rows_on == rows_off)
            print("{:>7s}: off {:.3f}s   on {:.3f}s   overhead {:+.1%}"
                  .format(tier, off_seconds, on_seconds, overhead))
            bench_recorder.add(
                "obs_overhead_{}_scale_{:g}".format(tier, float(scale)),
                cells=len(tasks), scale=float(scale),
                identical=identical,
                makespan_sum=sum(r["makespan_cycles"] for r in rows_on))
            bench_recorder.note_volatile(**{
                "{}_off_seconds".format(tier): off_seconds,
                "{}_on_seconds".format(tier): on_seconds,
                "{}_overhead".format(tier): overhead,
            })
            # Identity is the hard requirement; the ratio is the gate.
            assert rows_on == rows_off, tier
            assert overhead <= MAX_OVERHEAD, (tier, off_seconds,
                                              on_seconds)
    finally:
        metrics.set_enabled(None)


def test_traced_cell_exports_valid_trace(bench_recorder, scale, tmp_path):
    spec = SweepSpec(workloads=("bv_n400",), schemes=("bisp",),
                     scales=(float(scale),), shots=(1,))
    (task,) = tasks_from_spec(spec)
    trace.start_tracing()
    try:
        cell, timings = run_cell_timed(task)
    finally:
        trace.stop_tracing()
    path = tmp_path / "cell-trace.json"
    doc = trace.export(str(path))
    problems = trace.validate_trace(doc)
    events = doc["traceEvents"]
    lanes = {(e["pid"], e["tid"]) for e in events}
    sim_events = [e for e in events if e.get("cat") == "sim"]
    wall_spans = [e for e in events if e["ph"] == "B"]
    print("\n=== traced cell ({} @ scale {}) ===".format(
        task.spec_name, scale))
    print("{} events, {} lanes ({} sim instants, {} wall spans), "
          "cell total {:.3f}s".format(
              len(events), len(lanes), len(sim_events),
              len(wall_spans), timings["total"]))
    bench_recorder.add(
        "obs_trace_cell_scale_{:g}".format(float(scale)),
        scale=float(scale), valid=int(not problems),
        events=len(events), lanes=len(lanes),
        sim_events=len(sim_events), wall_spans=len(wall_spans),
        makespan_cycles=cell.makespan_cycles)
    assert problems == [], problems
    # The merged timeline must carry both clock domains.
    assert sim_events, "no TELF events on the sim track"
    assert wall_spans, "no wall-clock spans"
    assert any(e["name"] == "simulate" for e in wall_spans)
