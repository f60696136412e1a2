"""Packed (uint64-word) vs byte-per-qubit stabilizer tableau differential.

:class:`~repro.quantum.stabilizer.StabilizerBackend` is bit-packed; the
uint8 layout in ``reference_tableau.py`` is the reference.  Both must
draw identically from the RNG and agree on every outcome, collapse and
canonical form — including across the 64-qubit word boundary (n = 64,
65, 130).
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reference_tableau import ReferenceTableau
from repro.quantum.stabilizer import StabilizerBackend, run_stabilizer
from repro.testing import random_clifford_circuit


def _apply_random_ops(packed, plain, rng, steps):
    outcomes = ([], [])
    n = packed.num_qubits
    for _ in range(steps):
        roll = rng.random()
        if roll < 0.22:
            q = rng.randrange(n)
            packed.h(q)
            plain.h(q)
        elif roll < 0.4:
            q = rng.randrange(n)
            packed.s(q)
            plain.s(q)
        elif roll < 0.62:
            a, b = rng.randrange(n), rng.randrange(n)
            if a != b:
                packed.cx(a, b)
                plain.cx(a, b)
        elif roll < 0.72:
            a, b = rng.randrange(n), rng.randrange(n)
            if a != b:
                packed.cz(a, b)
                plain.cz(a, b)
        elif roll < 0.78:
            a, b = rng.randrange(n), rng.randrange(n)
            if a != b:
                packed.swap(a, b)
                plain.swap(a, b)
        elif roll < 0.9:
            q = rng.randrange(n)
            outcomes[0].append(packed.measure(q))
            outcomes[1].append(plain.measure(q))
        else:
            q = rng.randrange(n)
            outcomes[0].append(packed.reset(q))
            outcomes[1].append(plain.reset(q))
    return outcomes


class TestPackedDifferential:
    @pytest.mark.parametrize("num_qubits", [1, 2, 5, 17, 63, 64, 65, 130])
    def test_random_ops_identical(self, num_qubits):
        rng = random.Random(num_qubits * 7919)
        seed = rng.randrange(1 << 30)
        packed = StabilizerBackend(num_qubits, seed=seed)
        plain = ReferenceTableau(num_qubits, seed=seed)
        got, want = _apply_random_ops(packed, plain, rng, steps=150)
        assert got == want
        assert packed.canonical_stabilizers() == \
            plain.canonical_stabilizers()

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**20),
           num_qubits=st.integers(min_value=2, max_value=9))
    def test_random_dynamic_circuits(self, seed, num_qubits):
        circuit = random_clifford_circuit(num_qubits, 40, seed=seed,
                                          feedback=True)
        packed = StabilizerBackend(num_qubits, seed=seed)
        plain = ReferenceTableau(num_qubits, seed=seed)
        assert packed.run_circuit(circuit) == plain.run_circuit(circuit)
        assert packed.canonical_stabilizers() == \
            plain.canonical_stabilizers()

    def test_rotations_and_paulis(self):
        packed = StabilizerBackend(70, seed=3)
        plain = ReferenceTableau(70, seed=3)
        for backend in (packed, plain):
            backend.apply_gate("rz", (65,), (np.pi / 2,))
            backend.apply_gate("cp", (1, 66), (np.pi,))
            backend.apply_pauli("XZY", (0, 64, 69))
        assert packed.canonical_stabilizers() == \
            plain.canonical_stabilizers()

    def test_forced_outcomes_agree(self):
        packed = StabilizerBackend(66, seed=11)
        plain = ReferenceTableau(66, seed=11)
        for backend in (packed, plain):
            backend.h(65)
            assert backend.measure(65, forced=1) == 1
            assert backend.measure(65) == 1  # collapsed
        # Deterministic qubit: forcing the wrong outcome raises on both.
        from repro.errors import QuantumStateError
        for backend in (packed, plain):
            with pytest.raises(QuantumStateError):
                backend.measure(0, forced=1)

    def test_ghz_across_word_boundary(self):
        n = 80
        packed = StabilizerBackend(n, seed=42)
        plain = ReferenceTableau(n, seed=42)
        for backend in (packed, plain):
            backend.h(0)
            for q in range(1, n):
                backend.cx(q - 1, q)
        a = packed.measure_all()
        b = plain.measure_all()
        assert a == b
        assert set(a) in ({0}, {1})  # GHZ collapses to all-0 or all-1


class TestPackedDefaults:
    def test_default_is_packed(self):
        backend = StabilizerBackend(70, seed=1)
        assert not hasattr(backend, "x") and not hasattr(backend, "z")
        assert backend.xw.shape == backend.zw.shape == (141, 2)
        assert backend.xw.dtype == backend.zw.dtype == np.uint64

    @pytest.mark.parametrize("value", ["1", "bogus"])
    def test_no_fastpath_keeps_packed_layout(self, value, monkeypatch):
        """The retired ``REPRO_NO_FASTPATH`` switch leaves the tableau
        packed and its outcomes unchanged, whatever its value."""
        circuit = random_clifford_circuit(66, 40, seed=4, feedback=True)
        monkeypatch.delenv("REPRO_NO_FASTPATH", raising=False)
        want = StabilizerBackend(66, seed=4).run_circuit(circuit)
        monkeypatch.setenv("REPRO_NO_FASTPATH", value)
        backend = StabilizerBackend(66, seed=4)
        assert backend.xw.dtype == np.uint64
        assert backend.run_circuit(circuit) == want
        plain = ReferenceTableau(66, seed=4)
        plain.run_circuit(circuit)
        assert backend.canonical_stabilizers() == \
            plain.canonical_stabilizers()

    def test_reference_is_byte_layout(self):
        """The reference really is the uint8 layout: no word arrays, one
        byte per qubit, and only the layout methods overridden."""
        plain = ReferenceTableau(70, seed=1)
        assert not hasattr(plain, "xw") and not hasattr(plain, "zw")
        assert plain.x.shape == plain.z.shape == (141, 70)
        assert plain.x.dtype == plain.z.dtype == np.uint8
        overridden = {name for name in vars(ReferenceTableau)
                      if callable(getattr(ReferenceTableau, name))}
        assert overridden == {"__init__", "_row_bits", "h", "s", "cx",
                              "_rowsum", "measure"}

    def test_run_stabilizer_facade(self):
        circuit = random_clifford_circuit(5, 30, seed=9, feedback=True)
        backend, cbits = run_stabilizer(circuit, seed=123)
        backend2 = ReferenceTableau(5, seed=123)
        assert cbits == backend2.run_circuit(circuit)
        assert backend.canonical_stabilizers() == \
            backend2.canonical_stabilizers()
