"""Observability invariance: instrumentation never changes results.

``FROZEN_DIGEST`` is the sweep ``results_sha256`` captured on the build
*before* the observability layer existed (``repro.obs`` never imported,
no counters in the hot path) — the strongest form of the "obs never
imported" reference, frozen as a constant.  Both interpreters (the fast
path and the stepwise ``ReferenceCore``), untraced and traced, must
still produce it bit-for-bit: the counters are pure additions, spans
only read clocks, and a traced cell's TELF recording only observes, so
none of them may perturb simulated time, fidelity, or row ordering.
"""

import pytest

import repro.sim.system
from repro.harness.benchjson import make_bench
from repro.harness.spec import SweepSpec
from repro.harness.sweep import run_sweep
from repro.obs import metrics, trace

from reference_core import ReferenceCore

#: results_sha256 of SPEC on the pre-observability build (all paths).
FROZEN_DIGEST = \
    "4edc5b650a7c3f827a8210eb4b2eb145a7a2ad0b16fc34f815a0397f949826ea"

SPEC = SweepSpec(workloads=("bv_n400", "repetition_d25"),
                 schemes=("bisp", "lockstep"),
                 scales=(0.05,), shots=(1, 2))

INTERPRETERS = ("fast", "legacy")


def _digest():
    rows, _ = run_sweep(SPEC, processes=1)
    doc = make_bench("invariance", rows, kind="sweep",
                     spec=SPEC.to_dict())
    return doc["results_sha256"]


def _traced_digest(monkeypatch):
    """The sweep digest with span tracing on around it; every cell must
    open a balanced ``cell`` span, so tracing really was live.  The run
    buffers into a test-local list, so no event outlives the test."""
    monkeypatch.setattr(trace, "_EVENTS", [])
    trace.start_tracing()
    try:
        digest = _digest()
    finally:
        trace.stop_tracing()
    events = trace.trace_events()
    assert trace.validate_events(events) == []
    cells = [e for e in events if e["ph"] == "B" and e["name"] == "cell"]
    assert len(cells) == len(SPEC.cells())
    return digest


def _interpreter_digest(interpreter, traced, monkeypatch):
    """The sweep digest with every ControlSystem built on
    ``interpreter``."""
    if interpreter == "legacy":
        monkeypatch.setattr(repro.sim.system, "HISQCore", ReferenceCore)
    return _traced_digest(monkeypatch) if traced else _digest()


@pytest.mark.parametrize("interpreter", INTERPRETERS)
class TestDigestInvariance:
    def test_untraced_matches_pre_obs_build(self, interpreter, monkeypatch):
        assert not trace.tracing_active()
        assert _interpreter_digest(interpreter, False, monkeypatch) == \
            FROZEN_DIGEST

    def test_traced_matches_pre_obs_build(self, interpreter, monkeypatch):
        assert _interpreter_digest(interpreter, True, monkeypatch) == \
            FROZEN_DIGEST


def test_counters_move_untraced():
    """Counters are always on: they advance on an untraced sweep (CI
    gates read them)."""
    assert not trace.tracing_active()
    cells = metrics.counter("repro_sweep_cells_run_total")
    sims = metrics.counter("repro_simulations_total")
    cells_before, sims_before = cells.value, sims.value
    _digest()
    assert cells.value - cells_before == len(SPEC.cells())
    assert sims.value > sims_before
