"""Observability-off invariance: instrumentation never changes results.

``FROZEN_DIGEST`` is the sweep ``results_sha256`` captured on the build
*before* the observability layer existed (``repro.obs`` never imported,
no counters in the hot path) — the strongest form of the "obs never
imported" reference, frozen as a constant.  Both interpreters (the fast
path and the stepwise ``ReferenceCore``) x instrumentation state must
still produce it bit-for-bit: the counters are pure additions, the
timing histograms only read clocks, and neither may perturb simulated
time, fidelity, or row ordering.
"""

import pytest

import repro.sim.system
from repro.harness.benchjson import make_bench
from repro.harness.spec import SweepSpec
from repro.harness.sweep import run_sweep
from repro.isa import decoded
from repro.obs import metrics

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


def _interpreter_digest(interpreter, monkeypatch):
    """The sweep digest with every ControlSystem built on
    ``interpreter``; only the fast side may replay fast blocks."""
    if interpreter == "legacy":
        monkeypatch.setattr(repro.sim.system, "HISQCore", ReferenceCore)
    decoded.reset_replay_totals()
    digest = _digest()
    totals = decoded.replay_totals()
    replays = totals["vector"] + totals["block"]
    assert (replays == 0) == (interpreter == "legacy"), totals
    return digest


@pytest.fixture(autouse=True)
def _obs_reset():
    yield
    metrics.set_enabled(None)


@pytest.mark.parametrize("interpreter", INTERPRETERS)
class TestDigestInvariance:
    def test_disabled_matches_pre_obs_build(self, interpreter, monkeypatch):
        metrics.set_enabled(False)
        assert _interpreter_digest(interpreter, monkeypatch) == \
            FROZEN_DIGEST

    def test_enabled_matches_pre_obs_build(self, interpreter, monkeypatch):
        metrics.set_enabled(True)
        assert _interpreter_digest(interpreter, monkeypatch) == \
            FROZEN_DIGEST


def test_enabled_actually_observes_timings():
    """Guard against the gate being stuck off: with REPRO_OBS forced on
    a sweep must land samples in the phase histograms."""
    metrics.set_enabled(True)
    hist = metrics.histogram("repro_cell_phase_seconds",
                             labels={"phase": "simulate"})
    before = hist.count
    assert _digest() == FROZEN_DIGEST
    assert hist.count > before


def test_counters_move_with_obs_disabled():
    """Counters are the always-on tier: they advance even with timing
    instrumentation off (CI gates read them)."""
    metrics.set_enabled(False)
    cells = metrics.counter("repro_sweep_cells_run_total")
    sims = metrics.counter("repro_simulations_total")
    cells_before, sims_before = cells.value, sims.value
    _digest()
    assert cells.value - cells_before == len(SPEC.cells())
    assert sims.value > sims_before
