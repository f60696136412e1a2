"""Retired switches are read nowhere.

``REPRO_NO_FASTPATH`` used to select the stepwise HISQ interpreter and
``REPRO_NO_LANES`` the per-shot lane replay; both references now live
next to the tests that compare against them (``tests/core/
reference_core.py``, ``simulate_shot``).  ``REPRO_OBS`` used to turn on
timing histograms beside the trace spans, which now carry that timing.
Each path has one implementation, so setting a retired switch — even to
a value a strict parser would reject — must change nothing.
"""

import subprocess
import sys

import pytest

from repro.compiler.driver import compile_circuit
from repro.harness.benchjson import load_bench, make_bench
from repro.harness.spec import SweepSpec
from repro.harness.sweep import run_sweep
from repro.isa import decoded
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.stabilizer import run_stabilizer
from repro.quantum.statevector import StatevectorBackend, run_multishot
from repro.sim import lanes
from repro.testing import (random_clifford_circuit, random_dynamic_circuit,
                           subprocess_env)

#: Small recv-bearing grid: single- and multishot cells, both schemes.
SWEEP = SweepSpec(workloads=("bv_n400", "repetition_d25"),
                  schemes=("bisp", "lockstep"), scales=(0.02,),
                  shots=(1, 2))


def _sweep_digest():
    rows, _ = run_sweep(SWEEP, processes=1)
    return make_bench("retired", rows, kind="sweep",
                      spec=SWEEP.to_dict())["results_sha256"]


def _stabilizer_sample():
    circuit = random_clifford_circuit(70, 60, seed=5, feedback=True)
    backend, cbits = run_stabilizer(circuit, seed=17)
    return cbits, backend.canonical_stabilizers()


def _multishot_sample():
    return run_multishot(random_dynamic_circuit(4, 40, 8), 16,
                         seed=3).tolist()


def _statevector_sample():
    backend = StatevectorBackend(4, seed=9)
    cbits = backend.run_circuit(random_dynamic_circuit(4, 40, 9))
    return list(cbits), backend.state.tolist()


class TestRetiredSwitches:
    @pytest.mark.parametrize("value", ["1", "bogus"])
    def test_sweep_ignores_no_fastpath(self, value, monkeypatch):
        """The sweep keeps its default digest and still replays fast
        blocks under any ``REPRO_NO_FASTPATH`` value."""
        monkeypatch.delenv("REPRO_NO_FASTPATH", raising=False)
        want = _sweep_digest()
        monkeypatch.setenv("REPRO_NO_FASTPATH", value)
        decoded.reset_replay_totals()
        assert _sweep_digest() == want
        assert decoded.replay_totals()["vector"] > 0

    @pytest.mark.parametrize("value", ["1", "bogus"])
    def test_sweep_cli_ignores_obs(self, value, tmp_path):
        """``REPRO_OBS`` neither fails the sweep CLI nor changes its
        digest.  The CLI runs in a fresh process: the switch used to be
        parsed once per process, on first use."""
        env = subprocess_env()
        env["REPRO_OBS"] = value
        proc = subprocess.run(
            [sys.executable, "-m", "repro.harness.sweep",
             "--workloads", *SWEEP.workloads, "--schemes", *SWEEP.schemes,
             "--scale", *map(str, SWEEP.scales),
             "--shots", *map(str, SWEEP.shots), "--processes", "1",
             "--quiet", "--out", str(tmp_path), "--name", "retired"],
            env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        doc = load_bench(str(tmp_path / "BENCH_retired.json"))
        assert doc["results_sha256"] == _sweep_digest()

    @pytest.mark.parametrize("value", ["1", "nope..."])
    def test_retired_lanes_switch_is_ignored(self, value, monkeypatch):
        circuit = QuantumCircuit(3, 3, name="static")
        circuit.h(0)
        circuit.cx(0, 1)
        circuit.cx(1, 2)
        compilation = compile_circuit(circuit)
        want = lanes.run_extra_shots(compilation, 1234, 3)
        monkeypatch.setenv("REPRO_NO_LANES", value)
        got = lanes.run_extra_shots(compilation, 1234, 3)
        assert got == want
        assert got[1] == "fastforward"

    @pytest.mark.parametrize("sample", [_stabilizer_sample,
                                        _multishot_sample,
                                        _statevector_sample],
                             ids=["stabilizer", "multishot", "statevector"])
    def test_quantum_backends_never_read_it(self, sample, monkeypatch):
        monkeypatch.delenv("REPRO_NO_FASTPATH", raising=False)
        want = sample()
        monkeypatch.setenv("REPRO_NO_FASTPATH", "bogus")
        assert sample() == want
        monkeypatch.setenv("REPRO_NO_FASTPATH", "1")
        assert sample() == want
