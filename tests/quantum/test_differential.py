"""Differential-testing backbone for the quantum simulators.

Two independent implementations constrain each other:

* seeded random Clifford circuits must yield the same measurement
  *statistics* on the dense statevector backend and the stabilizer
  (CHP tableau) backend — deterministic bits must agree exactly, random
  bits must agree in distribution;
* batched multi-shot statevector execution must match a per-shot loop
  of :class:`StatevectorBackend` runs **bit for bit** under a fixed
  seed, for static, dynamic and Clifford circuits alike.
"""

import numpy as np
import pytest

from repro.quantum.stabilizer import StabilizerBackend
from repro.quantum.statevector import (BatchedStatevectorBackend,
                                       StatevectorBackend,
                                       measurement_counts, run_multishot)
from repro.testing import random_clifford_circuit, random_dynamic_circuit

CLIFFORD_CASES = [(2, 30, 11), (3, 40, 12), (4, 60, 13), (5, 80, 14),
                  (6, 90, 15)]


def _shot_loop(circuit, shots, seed, forced_outcomes=None):
    """The per-shot reference: shot ``s`` runs on its own
    :class:`StatevectorBackend` seeded by ``SeedSequence([seed, s])``."""
    out = np.zeros((shots, circuit.num_clbits), dtype=np.int8)
    for s in range(shots):
        backend = StatevectorBackend(
            circuit.num_qubits, seed=np.random.SeedSequence([seed, s]))
        out[s] = backend.run_circuit(circuit, forced_outcomes=forced_outcomes)
    return out


def _deterministic_bits(circuit, shots, seed):
    """Classical bits that came out identical across every shot."""
    rows = run_multishot(circuit, shots, seed=seed)
    same = (rows == rows[0]).all(axis=0)
    return same, rows


class TestStatevectorVsStabilizer:
    """Same Clifford circuit, two formalisms, one distribution."""

    @pytest.mark.parametrize("num_qubits,depth,seed", CLIFFORD_CASES)
    def test_deterministic_bits_agree(self, num_qubits, depth, seed):
        """Bits that are deterministic must match across backends exactly.

        A bit is called deterministic when 64 statevector shots agree on
        it; the stabilizer backend must then produce that same value on
        every one of its shots.
        """
        circuit = random_clifford_circuit(num_qubits, depth, seed)
        assert circuit.is_clifford
        same, rows = _deterministic_bits(circuit, 64, seed=seed)
        reference = rows[0]
        for shot in range(16):
            backend = StabilizerBackend(circuit.num_qubits,
                                        seed=seed * 1000 + shot)
            bits = backend.run_circuit(circuit)
            for b in range(circuit.num_clbits):
                if same[b]:
                    assert bits[b] == reference[b], (
                        "deterministic cbit {} differs on shot {}".format(
                            b, shot))

    @pytest.mark.parametrize("num_qubits,depth,seed", CLIFFORD_CASES[:3])
    def test_marginal_frequencies_agree(self, num_qubits, depth, seed):
        """Per-bit marginals agree within sampling error.

        Clifford measurement probabilities are always 0, 1/2 or 1, so
        400 shots separate the three cases with huge margin (binomial
        std at p=1/2 is ~0.025).
        """
        shots = 400
        circuit = random_clifford_circuit(num_qubits, depth, seed)
        sv = run_multishot(circuit, shots, seed=seed)
        st = np.zeros_like(sv)
        for shot in range(shots):
            backend = StabilizerBackend(circuit.num_qubits,
                                        seed=seed * 7919 + shot)
            st[shot] = backend.run_circuit(circuit)
        sv_freq = sv.mean(axis=0)
        st_freq = st.mean(axis=0)
        # Each true marginal is 0, 1/2 or 1: snap both to the grid and
        # require the same cell.
        for b in range(circuit.num_clbits):
            assert abs(sv_freq[b] - st_freq[b]) < 0.15, (
                "cbit {} marginal: sv={:.3f} stab={:.3f}".format(
                    b, sv_freq[b], st_freq[b]))
            snapped_sv = min((0.0, 0.5, 1.0), key=lambda p: abs(p - sv_freq[b]))
            snapped_st = min((0.0, 0.5, 1.0), key=lambda p: abs(p - st_freq[b]))
            assert snapped_sv == snapped_st

    def test_ghz_distribution_exact_shape(self):
        """GHZ: both backends produce only all-zeros / all-ones strings."""
        from repro.circuits.ghz import build_ghz
        circuit = build_ghz(4)
        circuit.num_clbits = 4
        for q in range(4):
            circuit.measure(q, q)
        sv_counts = measurement_counts(
            run_multishot(circuit, 200, seed=3))
        assert set(sv_counts) <= {"0000", "1111"}
        st_rows = []
        for shot in range(200):
            backend = StabilizerBackend(4, seed=shot)
            st_rows.append(backend.run_circuit(circuit))
        st_counts = measurement_counts(np.array(st_rows))
        assert set(st_counts) <= {"0000", "1111"}
        for counts in (sv_counts, st_counts):
            assert abs(counts.get("0000", 0) - 100) < 50


class TestBatchedVsShotLoop:
    """The batched (shots, 2**n) path against the reference loop."""

    @pytest.mark.parametrize("num_qubits,depth,seed",
                             [(2, 25, 21), (3, 40, 22), (4, 60, 23),
                              (5, 70, 24)])
    def test_dynamic_circuits_bit_for_bit(self, num_qubits, depth, seed):
        circuit = random_dynamic_circuit(num_qubits, depth, seed)
        rows = run_multishot(circuit, 48, seed=seed)
        assert np.array_equal(rows, _shot_loop(circuit, 48, seed))

    @pytest.mark.parametrize("num_qubits,depth,seed", CLIFFORD_CASES[:3])
    def test_clifford_circuits_bit_for_bit(self, num_qubits, depth, seed):
        circuit = random_clifford_circuit(num_qubits, depth, seed)
        rows = run_multishot(circuit, 48, seed=seed)
        assert np.array_equal(rows, _shot_loop(circuit, 48, seed))

    def test_teleportation_feedback_bit_for_bit(self):
        """The Figure-14 long-range CNOT gadget, feedback included."""
        from repro.quantum.teleport import build_long_range_cnot_circuit
        circuit = build_long_range_cnot_circuit(5)
        circuit.measure(0, circuit.num_clbits - 2)
        circuit.measure(5, circuit.num_clbits - 1)
        rows = run_multishot(circuit, 64, seed=99)
        assert np.array_equal(rows, _shot_loop(circuit, 64, 99))

    def test_forced_outcomes_match(self):
        """Forced-FIFO post-selection follows the same semantics."""
        from repro.quantum import QuantumCircuit
        circuit = QuantumCircuit(2, 2)
        circuit.h(0)
        circuit.measure(0, 0)
        circuit.x(1, condition=(0, 1))
        circuit.measure(1, 1)
        forced = {0: [1]}
        rows = run_multishot(circuit, 8, seed=5, forced_outcomes=forced)
        assert np.array_equal(
            rows, _shot_loop(circuit, 8, 5, forced_outcomes=forced))
        assert (rows[:, 0] == 1).all() and (rows[:, 1] == 1).all()

    def test_states_match_shot_zero(self):
        """Not just bits: shot s's statevector equals the loop backend's."""
        circuit = random_dynamic_circuit(3, 30, seed=31)
        shots = 6
        backend = BatchedStatevectorBackend(3, shots, seed=31)
        backend.run_circuit(circuit)
        for s in range(shots):
            single = StatevectorBackend(
                3, seed=np.random.SeedSequence([31, s]))
            single.run_circuit(circuit)
            assert np.array_equal(single.state, backend.states[s])

    def test_shot_count_and_dtype(self):
        circuit = random_dynamic_circuit(2, 10, seed=41)
        rows = run_multishot(circuit, 17, seed=0)
        assert rows.shape == (17, circuit.num_clbits)
        assert rows.dtype == np.int8
