"""Strict parsing of the fast-path environment switch.

``REPRO_NO_FASTPATH`` is the escape hatch differential tests rely on; a
spelling that silently parses as "fast path enabled" (the pre-fix
behavior of ``=on`` and values with surrounding whitespace) would run
the wrong interpreter while claiming a differential check.  Every
recognized spelling is enumerated here, and anything else must raise.
It is also the *only* switch: the other fast paths (lane fast-forward,
the bit-packed tableau, batched multishot sampling) follow the program
alone, whatever the environment says.
"""

import pytest

from repro.compiler.driver import compile_circuit
from repro.errors import ReproError
from repro.fastpath import env_flag, fastpath_enabled
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.stabilizer import run_stabilizer
from repro.quantum.statevector import StatevectorBackend, run_multishot
from repro.sim import lanes
from repro.testing import random_clifford_circuit, random_dynamic_circuit

DISABLING = ["1", "true", "yes", "on", "y", "t", "enabled",
             "TRUE", "Yes", "ON", "EnAbLeD", " 1 ", "\ttrue\n", "1 "]
ENABLING = ["", "0", "false", "no", "off", "n", "f", "disabled",
            "FALSE", "No", "OFF", " 0 ", "  "]
GARBAGE = ["2", "maybe", "ja", "enable", "o", "none", "null", "-1"]


class TestNoFastpathParsing:
    @pytest.mark.parametrize("value", DISABLING)
    def test_truthy_spellings_disable(self, value, monkeypatch):
        monkeypatch.setenv("REPRO_NO_FASTPATH", value)
        assert not fastpath_enabled()

    @pytest.mark.parametrize("value", ENABLING)
    def test_falsy_spellings_enable(self, value, monkeypatch):
        monkeypatch.setenv("REPRO_NO_FASTPATH", value)
        assert fastpath_enabled()

    def test_unset_enables(self, monkeypatch):
        monkeypatch.delenv("REPRO_NO_FASTPATH", raising=False)
        assert fastpath_enabled()

    @pytest.mark.parametrize("value", GARBAGE)
    def test_garbage_raises(self, value, monkeypatch):
        monkeypatch.setenv("REPRO_NO_FASTPATH", value)
        with pytest.raises(ReproError, match="REPRO_NO_FASTPATH"):
            fastpath_enabled()

    def test_error_names_variable_and_value(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_FASTPATH", "bogus")
        with pytest.raises(ReproError, match="bogus"):
            env_flag("REPRO_NO_FASTPATH")


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


class TestOneSwitch:
    """Nothing but the HISQ interpreter reads a fast-path switch.

    A value :func:`env_flag` rejects would raise at any read, so a run
    that succeeds under it proves the switch is never consulted.
    """

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
