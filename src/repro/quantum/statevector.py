"""Dense statevector simulator (small circuits, exact verification).

Used to verify logical correctness of compiled HISQ programs on up to
~14 qubits — e.g. that a teleportation-based long-range CNOT produces the
same state as a direct CNOT (Figure 14).

Two execution modes share the same gate kernels:

* :class:`StatevectorBackend` — one shot over a ``(2**n,)`` state, with
  mid-circuit measurement and feedback.
* :class:`BatchedStatevectorBackend` — ``shots`` independent states in a
  ``(shots, 2**n)`` array; each gate is applied once across all shots, with
  per-shot branching only at measurements.  Shot ``s`` consumes the RNG
  stream seeded by ``(seed, s)``, so its classical bits are bit-for-bit
  identical to running the per-shot loop with the same seeds.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..errors import QuantumStateError
from .circuit import QuantumCircuit
from .gates import gate_matrix

_MAX_QUBITS = 22

# -- shared gate kernels ------------------------------------------------------
#
# Both backends funnel through these, so the batched path computes the
# exact same floats as the per-shot loop.  The 2-qubit kernel addresses
# the four basis-state blocks (00/01/10/11 on control/target) through
# strided views of the state tensor instead of the old moveaxis +
# ascontiguousarray reshuffle, which copied the whole state twice per
# gate; the ubiquitous cx/cz/swap gates take a fused permutation/phase
# shortcut that never materializes a matrix product.  ``state`` may be
# ``(2**n,)`` or ``(shots, 2**n)``; the kernels broadcast over leading
# axes.


def _apply_1q_kernel(state: np.ndarray, matrix: np.ndarray,
                     qubit: int) -> None:
    """In-place 1-qubit gate on the last axis of ``state``."""
    psi = state.reshape(state.shape[:-1] + (-1, 1 << (qubit + 1)))
    lo = psi[..., :1 << qubit]
    hi = psi[..., 1 << qubit:]
    new_lo = matrix[0, 0] * lo + matrix[0, 1] * hi
    new_hi = matrix[1, 0] * lo + matrix[1, 1] * hi
    psi[..., :1 << qubit] = new_lo
    psi[..., 1 << qubit:] = new_hi


def _apply_2q_kernel(state: np.ndarray, matrix: np.ndarray, n: int,
                     control: int, target: int,
                     name: Optional[str] = None) -> None:
    """In-place 2-qubit gate (control = most significant of the 4)."""
    psi = state.reshape(state.shape[:-1] + (2,) * n)
    offset = state.ndim - 1
    axis_c = offset + n - 1 - control
    axis_t = offset + n - 1 - target

    def block(c_bit: int, t_bit: int):
        index = [slice(None)] * psi.ndim
        index[axis_c] = c_bit
        index[axis_t] = t_bit
        return tuple(index)

    # The disjoint-block swaps below are safe: basic-slice views with
    # different fixed indices on axis_c/axis_t never alias.
    if name == "cx":
        i10, i11 = block(1, 0), block(1, 1)
        flipped = psi[i10].copy()
        psi[i10] = psi[i11]
        psi[i11] = flipped
        return
    if name == "cz":
        psi[block(1, 1)] *= -1.0
        return
    if name in ("cp", "crz"):  # diagonal: only the |11> block picks a phase
        psi[block(1, 1)] *= matrix[3, 3]
        return
    if name == "swap":
        i01, i10 = block(0, 1), block(1, 0)
        crossed = psi[i01].copy()
        psi[i01] = psi[i10]
        psi[i10] = crossed
        return
    s00 = psi[block(0, 0)]
    s01 = psi[block(0, 1)]
    s10 = psi[block(1, 0)]
    s11 = psi[block(1, 1)]
    m = matrix
    n00 = m[0, 0] * s00 + m[0, 1] * s01 + m[0, 2] * s10 + m[0, 3] * s11
    n01 = m[1, 0] * s00 + m[1, 1] * s01 + m[1, 2] * s10 + m[1, 3] * s11
    n10 = m[2, 0] * s00 + m[2, 1] * s01 + m[2, 2] * s10 + m[2, 3] * s11
    n11 = m[3, 0] * s00 + m[3, 1] * s01 + m[3, 2] * s10 + m[3, 3] * s11
    psi[block(0, 0)] = n00
    psi[block(0, 1)] = n01
    psi[block(1, 0)] = n10
    psi[block(1, 1)] = n11


def _measure_inplace(state: np.ndarray, rng, qubit: int,
                     forced: Optional[int] = None) -> int:
    """Projectively measure ``qubit`` of a 1-D ``state``; collapse in place."""
    psi = state.reshape(-1, 1 << (qubit + 1))
    hi = psi[:, 1 << qubit:]
    p1 = float(np.sum(np.abs(hi) ** 2))
    if forced is None:
        outcome = int(rng.random() < p1)
    else:
        outcome = int(forced)
        prob = p1 if outcome else 1.0 - p1
        if prob < 1e-12:
            raise QuantumStateError(
                "cannot post-select outcome {} with probability 0".format(
                    outcome))
    if outcome:
        psi[:, :1 << qubit] = 0.0
        norm = np.sqrt(p1)
    else:
        psi[:, 1 << qubit:] = 0.0
        norm = np.sqrt(1.0 - p1)
    state /= norm
    return outcome


def _shot_seed(seed: Optional[int], shot: int):
    """Seed of shot ``shot``'s private RNG stream (None stays entropic)."""
    if seed is None:
        return None
    return np.random.SeedSequence([int(seed), int(shot)])


class StatevectorBackend:
    """State-vector simulation with mid-circuit measurement.

    Qubit 0 is the least-significant bit of the basis-state index.
    """

    def __init__(self, num_qubits: int, seed=None):
        if not 1 <= num_qubits <= _MAX_QUBITS:
            raise QuantumStateError(
                "statevector backend supports 1..{} qubits, got {}".format(
                    _MAX_QUBITS, num_qubits))
        self.num_qubits = num_qubits
        self.rng = np.random.default_rng(seed)
        self.state = np.zeros(1 << num_qubits, dtype=complex)
        self.state[0] = 1.0

    # -- core operations ------------------------------------------------------

    def apply_gate(self, name: str, qubits: Sequence[int],
                   params: Tuple[float, ...] = ()) -> None:
        """Apply gate ``name`` to ``qubits`` (control first for 2q gates)."""
        name = name.lower()
        if name == "delay":
            return
        matrix = gate_matrix(name, params)
        if len(qubits) == 1:
            self._apply_1q(matrix, qubits[0])
        elif len(qubits) == 2:
            self._apply_2q(matrix, qubits[0], qubits[1], name=name)
        else:
            raise QuantumStateError(
                "gates on {} qubits unsupported".format(len(qubits)))

    def _apply_1q(self, matrix: np.ndarray, qubit: int) -> None:
        self._check(qubit)
        _apply_1q_kernel(self.state, matrix, qubit)

    def _apply_2q(self, matrix: np.ndarray, control: int, target: int,
                  name: Optional[str] = None) -> None:
        self._check(control)
        self._check(target)
        if control == target:
            raise QuantumStateError("control equals target")
        _apply_2q_kernel(self.state, matrix, self.num_qubits, control, target,
                         name=name)

    def _check(self, qubit: int) -> None:
        if not 0 <= qubit < self.num_qubits:
            raise QuantumStateError("qubit {} out of range".format(qubit))

    def probability_one(self, qubit: int) -> float:
        """P(measuring |1>) on ``qubit``."""
        self._check(qubit)
        psi = self.state.reshape(-1, 1 << (qubit + 1))
        hi = psi[:, 1 << qubit:]
        return float(np.sum(np.abs(hi) ** 2))

    def measure(self, qubit: int, forced: Optional[int] = None) -> int:
        """Projectively measure ``qubit``; collapse and return the outcome.

        ``forced`` post-selects an outcome (must have nonzero probability).
        """
        self._check(qubit)
        return _measure_inplace(self.state, self.rng, qubit, forced)

    def reset(self, qubit: int) -> int:
        """Measure then flip to |0> if needed; returns the measured bit."""
        outcome = self.measure(qubit)
        if outcome:
            self.apply_gate("x", (qubit,))
        return outcome

    # -- convenience ----------------------------------------------------------

    def run_circuit(self, circuit: QuantumCircuit,
                    forced_outcomes: Optional[Dict[int, list]] = None) -> list:
        """Execute a (possibly dynamic) circuit; return classical bits.

        ``forced_outcomes`` maps qubit -> list of outcomes consumed FIFO
        (useful for deterministic tests of feedback paths).
        """
        if circuit.num_qubits != self.num_qubits:
            raise QuantumStateError("circuit/backend qubit count mismatch")
        cbits = [0] * circuit.num_clbits
        forced = {q: list(v) for q, v in (forced_outcomes or {}).items()}
        for op in circuit:
            if op.is_barrier:
                continue
            if op.is_conditional:
                bit, value = op.condition
                if cbits[bit] != value:
                    continue
            if op.is_reset:
                self.reset(op.qubits[0])
                continue
            if op.is_measurement:
                qubit = op.qubits[0]
                want = forced.get(qubit)
                outcome = self.measure(
                    qubit, forced=want.pop(0) if want else None)
                if op.cbit is not None:
                    cbits[op.cbit] = outcome
            else:
                self.apply_gate(op.name, op.qubits, op.params)
        return cbits

    def fidelity(self, other: "StatevectorBackend") -> float:
        """|<self|other>|^2."""
        if other.num_qubits != self.num_qubits:
            raise QuantumStateError("qubit count mismatch")
        return float(abs(np.vdot(self.state, other.state)) ** 2)

    def probabilities(self) -> np.ndarray:
        """Probability of each computational basis state."""
        return np.abs(self.state) ** 2


class BatchedStatevectorBackend:
    """``shots`` statevectors evolved together in a ``(shots, 2**n)`` array.

    Unitary gates are applied once across all shots (vectorized over the
    batch axis); measurements sample and collapse per shot with independent
    RNG streams.  Classically conditioned gates apply only to the shot rows
    whose classical bits satisfy the condition.

    With ``seed`` fixed, shot ``s`` reproduces exactly the classical bits of
    ``StatevectorBackend(n, seed=SeedSequence([seed, s]))`` running the same
    circuit — the batched and per-shot paths are bit-for-bit interchangeable.
    """

    def __init__(self, num_qubits: int, shots: int, seed: Optional[int] = None):
        if not 1 <= num_qubits <= _MAX_QUBITS:
            raise QuantumStateError(
                "statevector backend supports 1..{} qubits, got {}".format(
                    _MAX_QUBITS, num_qubits))
        if shots < 1:
            raise QuantumStateError("need at least one shot")
        self.num_qubits = num_qubits
        self.shots = shots
        self.rngs = [np.random.default_rng(_shot_seed(seed, s))
                     for s in range(shots)]
        self.states = np.zeros((shots, 1 << num_qubits), dtype=complex)
        self.states[:, 0] = 1.0

    # -- core operations ------------------------------------------------------

    def _check(self, qubit: int) -> None:
        if not 0 <= qubit < self.num_qubits:
            raise QuantumStateError("qubit {} out of range".format(qubit))

    def apply_gate(self, name: str, qubits: Sequence[int],
                   params: Tuple[float, ...] = (),
                   active: Optional[np.ndarray] = None) -> None:
        """Apply gate ``name``; ``active`` restricts to a shot-row mask."""
        name = name.lower()
        if name == "delay":
            return
        matrix = gate_matrix(name, params)
        for q in qubits:
            self._check(q)
        if len(qubits) == 2 and qubits[0] == qubits[1]:
            raise QuantumStateError("control equals target")
        if len(qubits) > 2:
            raise QuantumStateError(
                "gates on {} qubits unsupported".format(len(qubits)))
        if active is not None and bool(active.all()):
            active = None
        if active is None:
            target = self.states
        else:
            target = self.states[active]  # gather (copy)
        if len(qubits) == 1:
            _apply_1q_kernel(target, matrix, qubits[0])
        else:
            _apply_2q_kernel(target, matrix, self.num_qubits,
                             qubits[0], qubits[1], name=name)
        if active is not None:
            self.states[active] = target  # scatter back

    def measure(self, qubit: int,
                forced: Optional[Sequence[Optional[int]]] = None,
                active: Optional[np.ndarray] = None) -> np.ndarray:
        """Measure ``qubit`` on every active shot; returns int8 outcomes.

        ``forced`` is an optional per-shot sequence (``None`` entries
        sample).  Inactive shots are untouched and report 0.
        """
        self._check(qubit)
        outcomes = np.zeros(self.shots, dtype=np.int8)
        for s in range(self.shots):
            if active is not None and not active[s]:
                continue
            want = forced[s] if forced is not None else None
            outcomes[s] = _measure_inplace(self.states[s], self.rngs[s],
                                           qubit, want)
        return outcomes

    def reset(self, qubit: int,
              active: Optional[np.ndarray] = None) -> np.ndarray:
        """Measure then flip each active shot back to |0>."""
        outcomes = self.measure(qubit, active=active)
        flip = outcomes.astype(bool)
        if active is not None:
            flip &= active
        if flip.any():
            self.apply_gate("x", (qubit,), active=flip)
        return outcomes

    def apply_pauli(self, pauli: str, qubits: Sequence[int],
                    active: Optional[np.ndarray] = None) -> None:
        """Apply a Pauli string to ``qubits`` on the active shot rows."""
        for label, qubit in zip(pauli.upper(), qubits):
            if label != "I":
                self.apply_gate(label.lower(), (qubit,), active=active)

    # -- convenience ----------------------------------------------------------

    def run_circuit(self, circuit: QuantumCircuit,
                    forced_outcomes: Optional[Dict[int, list]] = None
                    ) -> np.ndarray:
        """Execute a (possibly dynamic) circuit across all shots.

        Returns an ``(shots, num_clbits)`` int8 array of classical bits.
        ``forced_outcomes`` maps qubit -> FIFO outcome list, consumed
        independently by every shot (mirroring the per-shot loop).
        """
        if circuit.num_qubits != self.num_qubits:
            raise QuantumStateError("circuit/backend qubit count mismatch")
        cbits = np.zeros((self.shots, circuit.num_clbits), dtype=np.int8)
        forced = {q: [list(v) for _ in range(self.shots)]
                  for q, v in (forced_outcomes or {}).items()}
        for op in circuit:
            if op.is_barrier:
                continue
            active = None
            if op.is_conditional:
                bit, value = op.condition
                active = cbits[:, bit] == value
                if not active.any():
                    continue
            if op.is_reset:
                self.reset(op.qubits[0], active=active)
                continue
            if op.is_measurement:
                qubit = op.qubits[0]
                want = forced.get(qubit)
                per_shot = None
                if want is not None:
                    per_shot = [fifo.pop(0) if fifo and
                                (active is None or active[s]) else None
                                for s, fifo in enumerate(want)]
                outcomes = self.measure(qubit, forced=per_shot, active=active)
                if op.cbit is not None:
                    if active is None:
                        cbits[:, op.cbit] = outcomes
                    else:
                        cbits[active, op.cbit] = outcomes[active]
            else:
                self.apply_gate(op.name, op.qubits, op.params, active=active)
        return cbits

    def probabilities(self) -> np.ndarray:
        """Per-shot probability of each basis state, shape (shots, 2**n)."""
        return np.abs(self.states) ** 2


def run_statevector(circuit: QuantumCircuit, seed=None,
                    forced_outcomes: Optional[Dict[int, list]] = None):
    """Run ``circuit`` on a fresh backend; return (backend, classical bits)."""
    backend = StatevectorBackend(circuit.num_qubits, seed=seed)
    cbits = backend.run_circuit(circuit, forced_outcomes=forced_outcomes)
    return backend, cbits


def run_multishot(circuit: QuantumCircuit, shots: int,
                  seed: Optional[int] = None,
                  forced_outcomes: Optional[Dict[int, list]] = None
                  ) -> np.ndarray:
    """Sample ``shots`` executions; returns (shots, num_clbits) int8 bits.

    Each gate is applied once to a ``(shots, 2**n)`` array
    (:class:`BatchedStatevectorBackend`); under a fixed ``seed``, shot
    ``s`` owns the RNG stream seeded by ``(seed, s)``.
    """
    backend = BatchedStatevectorBackend(circuit.num_qubits, shots, seed=seed)
    return backend.run_circuit(circuit, forced_outcomes=forced_outcomes)


def measurement_counts(cbits: np.ndarray) -> Dict[str, int]:
    """Histogram of classical-bit rows as bitstrings (cbit 0 leftmost)."""
    rows = np.asarray(cbits)
    counts: Dict[str, int] = {}
    for row in rows:
        key = "".join(str(int(b)) for b in row)
        counts[key] = counts.get(key, 0) + 1
    return counts
