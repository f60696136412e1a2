"""Observability benchmark: one traced sweep cell, exported and checked.

Exports a traced sweep cell (wall-clock spans for cell, compile, lower,
each pass, simulate and noise, plus the merged TELF sim track) and
schema-validates it — the same contract the CI obs-smoke job checks end
to end.  That traced and untraced sweeps give identical rows is pinned
by ``tests/obs/test_invariance.py`` against the pre-observability
digest, for both interpreters.

``BENCH_obs.json`` is written via the shared ``bench_recorder``
fixture; ``REPRO_SCALE`` / ``REPRO_BENCH_DIR`` as usual.
"""

from repro.harness.parallel import run_cell_timed, tasks_from_spec
from repro.harness.spec import SweepSpec
from repro.obs import trace


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
