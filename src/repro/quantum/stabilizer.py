"""Stabilizer (CHP) simulator — Aaronson & Gottesman tableau algorithm.

Scales to thousands of qubits for Clifford dynamic circuits, which covers
the long-range CNOT teleportation construction (Figure 14) and the
surface-code / lattice-surgery circuits (section 6.4.2): measurements and
classically conditioned Paulis are exactly what the formalism handles.

The tableau is bit-packed: the X/Z blocks are ``uint64`` words, 64
qubits per word.  Clifford generators touch one word-column across all
``2n + 1`` rows, rowsums are whole-word XOR/AND expressions with
table-driven popcounts, and the anticommuting-row elimination inside
``measure`` is vectorized across rows — no per-qubit Python work and no
``astype`` churn anywhere on the hot path.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..errors import QuantumStateError
from .circuit import QuantumCircuit

#: 16-bit popcount table: popcount of an arbitrary array = table lookup
#: over its uint16 view, then sum.  Built by unpacking the bits of every
#: uint16, not by a per-value loop: this module loads in every sweep and
#: service process, noisy or not.
_POP16 = np.unpackbits(np.arange(1 << 16, dtype=np.uint16).view(np.uint8)
                       ).reshape(-1, 16).sum(axis=1, dtype=np.uint8)


def _popcount(words: np.ndarray) -> int:
    """Total set bits in a contiguous uint64 array."""
    return int(_POP16[words.view(np.uint16)].sum())


class StabilizerBackend:
    """CHP tableau with n destabilizer + n stabilizer rows + 1 scratch row."""

    def __init__(self, num_qubits: int, seed: Optional[int] = None):
        if num_qubits < 1:
            raise QuantumStateError("need at least one qubit")
        n = num_qubits
        self.num_qubits = n
        self.rng = np.random.default_rng(seed)
        self.r = np.zeros(2 * n + 1, dtype=np.uint8)
        words = (n + 63) >> 6
        self.xw = np.zeros((2 * n + 1, words), dtype=np.uint64)
        self.zw = np.zeros((2 * n + 1, words), dtype=np.uint64)
        one = np.uint64(1)
        for i in range(n):
            self.xw[i, i >> 6] = one << np.uint64(i & 63)      # X_i
            self.zw[n + i, i >> 6] = one << np.uint64(i & 63)  # Z_i

    def _row_bits(self, row: int) -> Tuple[np.ndarray, np.ndarray]:
        """Row ``row``'s X and Z bits as per-qubit uint8 arrays."""
        qubits = np.arange(self.num_qubits)
        words, shifts = qubits >> 6, (qubits & 63).astype(np.uint64)
        one = np.uint64(1)
        return (((self.xw[row, words] >> shifts) & one).astype(np.uint8),
                ((self.zw[row, words] >> shifts) & one).astype(np.uint8))

    # -- Clifford primitives ---------------------------------------------------

    def _check(self, qubit: int) -> None:
        if not 0 <= qubit < self.num_qubits:
            raise QuantumStateError("qubit {} out of range".format(qubit))

    def h(self, a: int) -> None:
        self._check(a)
        word, bit = a >> 6, np.uint64(a & 63)
        xcol = self.xw[:, word]
        zcol = self.zw[:, word]
        xa = (xcol >> bit) & np.uint64(1)
        za = (zcol >> bit) & np.uint64(1)
        self.r ^= (xa & za).astype(np.uint8)
        diff = (xa ^ za) << bit
        xcol ^= diff
        zcol ^= diff

    def s(self, a: int) -> None:
        self._check(a)
        word, bit = a >> 6, np.uint64(a & 63)
        xa = (self.xw[:, word] >> bit) & np.uint64(1)
        za = (self.zw[:, word] >> bit) & np.uint64(1)
        self.r ^= (xa & za).astype(np.uint8)
        self.zw[:, word] ^= xa << bit

    def cx(self, a: int, b: int) -> None:
        self._check(a)
        self._check(b)
        if a == b:
            raise QuantumStateError("control equals target")
        one = np.uint64(1)
        wa, ba = a >> 6, np.uint64(a & 63)
        wb, bb = b >> 6, np.uint64(b & 63)
        xa = (self.xw[:, wa] >> ba) & one
        za = (self.zw[:, wa] >> ba) & one
        xb = (self.xw[:, wb] >> bb) & one
        zb = (self.zw[:, wb] >> bb) & one
        self.r ^= (xa & zb & (xb ^ za ^ one)).astype(np.uint8)
        self.xw[:, wb] ^= xa << bb
        self.zw[:, wa] ^= zb << ba

    # -- derived gates ----------------------------------------------------------

    def sdg(self, a: int) -> None:
        self.s(a)
        self.s(a)
        self.s(a)

    def zgate(self, a: int) -> None:
        self.s(a)
        self.s(a)

    def xgate(self, a: int) -> None:
        self.h(a)
        self.zgate(a)
        self.h(a)

    def ygate(self, a: int) -> None:
        self.zgate(a)
        self.xgate(a)

    def sx(self, a: int) -> None:
        self.h(a)
        self.s(a)
        self.h(a)

    def cz(self, a: int, b: int) -> None:
        self.h(b)
        self.cx(a, b)
        self.h(b)

    def swap(self, a: int, b: int) -> None:
        self.cx(a, b)
        self.cx(b, a)
        self.cx(a, b)

    _GATE_METHODS = {
        "i": None, "delay": None, "h": "h", "s": "s", "sdg": "sdg",
        "x": "xgate", "y": "ygate", "z": "zgate", "sx": "sx", "cx": "cx",
        "cz": "cz", "swap": "swap",
    }

    def apply_gate(self, name: str, qubits, params: Tuple[float, ...] = ()
                   ) -> None:
        """Apply a Clifford gate by name."""
        name = name.lower()
        if name in ("rz", "u1", "cp", "crz"):
            self._apply_rotation(name, qubits, params)
            return
        method = self._GATE_METHODS.get(name, "missing")
        if method == "missing":
            raise QuantumStateError(
                "gate {!r} is not Clifford-simulable".format(name))
        if method is None:
            return
        getattr(self, method)(*qubits)

    def _apply_rotation(self, name, qubits, params) -> None:
        import math
        (theta,) = params
        if name in ("rz", "u1"):
            steps = theta / (math.pi / 2)
            k = round(steps)
            if abs(steps - k) > 1e-9:
                raise QuantumStateError(
                    "{}({}) is not Clifford".format(name, theta))
            for _ in range(k % 4):
                self.s(qubits[0])
        else:  # cp / crz: Clifford only for multiples of pi (powers of CZ)
            steps = theta / math.pi
            k = round(steps)
            if abs(steps - k) > 1e-9:
                raise QuantumStateError(
                    "{}({}) is not Clifford".format(name, theta))
            if k % 2:
                self.cz(qubits[0], qubits[1])

    def apply_pauli(self, pauli: str, qubits) -> None:
        """Apply a Pauli string (e.g. ``"XZ"``) to ``qubits`` in order."""
        gates = {"X": self.xgate, "Y": self.ygate, "Z": self.zgate}
        for label, qubit in zip(pauli.upper(), qubits):
            if label != "I":
                gates[label](qubit)

    # -- measurement --------------------------------------------------------------

    def _rowsum(self, h: int, i: int) -> None:
        """Row h *= row i with correct phase bookkeeping (CHP rowsum)."""
        xi, zi = self.xw[i], self.zw[i]
        xh, zh = self.xw[h], self.zw[h]
        nxi = ~xi
        nzi = ~zi
        nxh = ~xh
        nzh = ~zh
        plus = ((xi & zi & zh & nxh) | (xi & nzi & zh & xh) |
                (nxi & zi & xh & nzh))
        minus = ((xi & zi & xh & nzh) | (xi & nzi & zh & nxh) |
                 (nxi & zi & xh & zh))
        total = (2 * int(self.r[h]) + 2 * int(self.r[i]) +
                 _popcount(plus) - _popcount(minus))
        self.r[h] = (total % 4) // 2
        xh ^= xi
        zh ^= zi

    def _rowsum_many(self, targets: np.ndarray, i: int) -> None:
        """Vectorized ``rowsum(t, i)`` for every row t in ``targets``."""
        xi, zi = self.xw[i], self.zw[i]
        xh = self.xw[targets]
        zh = self.zw[targets]
        nxi = ~xi
        nzi = ~zi
        nxh = ~xh
        nzh = ~zh
        plus = ((xi & zi) & (zh & nxh)) | ((xi & nzi) & (zh & xh)) | \
               ((nxi & zi) & (xh & nzh))
        minus = ((xi & zi) & (xh & nzh)) | ((xi & nzi) & (zh & nxh)) | \
                ((nxi & zi) & (xh & zh))
        counts = (_POP16[plus.view(np.uint16)].sum(axis=1,
                                                   dtype=np.int64) -
                  _POP16[minus.view(np.uint16)].sum(axis=1,
                                                    dtype=np.int64))
        totals = (2 * (self.r[targets].astype(np.int64) + int(self.r[i])) +
                  counts)
        self.r[targets] = ((totals % 4) // 2).astype(np.uint8)
        self.xw[targets] = xh ^ xi
        self.zw[targets] = zh ^ zi

    def measure(self, a: int, forced: Optional[int] = None) -> int:
        """Z-basis measurement of qubit ``a`` with collapse."""
        self._check(a)
        n = self.num_qubits
        one = np.uint64(1)
        word, bit = a >> 6, np.uint64(a & 63)
        xcol = (self.xw[:2 * n, word] >> bit) & one
        stab_rows = np.nonzero(xcol[n:])[0]
        if stab_rows.size:
            # Random outcome: anticommuting stabilizer exists.
            p = int(stab_rows[0]) + n
            if forced is None:
                outcome = int(self.rng.integers(0, 2))
            else:
                outcome = int(forced)
            xcol[p] = 0
            targets = np.nonzero(xcol)[0]
            if targets.size:
                self._rowsum_many(targets, p)
            self.xw[p - n] = self.xw[p]
            self.zw[p - n] = self.zw[p]
            self.r[p - n] = self.r[p]
            self.xw[p] = 0
            self.zw[p] = 0
            self.zw[p, word] = one << bit
            self.r[p] = outcome
            return outcome
        # Deterministic outcome.
        scratch = 2 * n
        self.xw[scratch] = 0
        self.zw[scratch] = 0
        self.r[scratch] = 0
        for i in np.nonzero(xcol[:n])[0]:
            self._rowsum(scratch, int(i) + n)
        outcome = int(self.r[scratch])
        if forced is not None and int(forced) != outcome:
            raise QuantumStateError(
                "cannot force outcome {}: measurement of qubit {} is "
                "deterministically {}".format(forced, a, outcome))
        return outcome

    def reset(self, a: int) -> int:
        """Measure qubit ``a``; flip to |0> if the outcome was 1."""
        outcome = self.measure(a)
        if outcome:
            self.xgate(a)
        return outcome

    # -- convenience ----------------------------------------------------------------

    def run_circuit(self, circuit: QuantumCircuit,
                    forced_outcomes: Optional[Dict[int, list]] = None) -> list:
        """Execute a (dynamic, Clifford) circuit; return classical bits."""
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

    def measure_all(self) -> List[int]:
        """Measure every qubit in order; returns the outcome list."""
        return [self.measure(q) for q in range(self.num_qubits)]

    def canonical_stabilizers(self) -> List[str]:
        """Canonical (row-reduced) generator strings, e.g. ``+XZI``.

        Two backends describe the same state iff their canonical stabilizer
        lists are equal — used to verify teleported-CNOT equivalence at
        sizes far beyond statevector reach.
        """
        n = self.num_qubits
        rows = []
        for i in range(n, 2 * n):
            xr, zr = self._row_bits(i)
            rows.append((xr, zr, int(self.r[i])))
        rows = self._gauss(rows)
        out = []
        for xr, zr, phase in rows:
            text = "-" if phase else "+"
            for q in range(n):
                text += {(0, 0): "I", (1, 0): "X",
                         (1, 1): "Y", (0, 1): "Z"}[(int(xr[q]), int(zr[q]))]
            out.append(text)
        return out

    def _gauss(self, rows):
        """Gaussian elimination of Pauli rows with phase tracking."""
        n = self.num_qubits
        rows = list(rows)
        pivot = 0
        # X block first, then Z block (standard canonical form).
        for kind in ("x", "z"):
            for q in range(n):
                candidates = [idx for idx in range(pivot, len(rows))
                              if (rows[idx][0][q] if kind == "x"
                                  else (rows[idx][1][q] and not rows[idx][0][q]))]
                if not candidates:
                    continue
                rows[pivot], rows[candidates[0]] = (rows[candidates[0]],
                                                    rows[pivot])
                for idx in range(len(rows)):
                    if idx == pivot:
                        continue
                    match = (rows[idx][0][q] if kind == "x"
                             else (rows[idx][1][q] and not rows[idx][0][q]))
                    if match:
                        rows[idx] = self._row_mult(rows[idx], rows[pivot])
                pivot += 1
        return rows

    @staticmethod
    def _row_mult(row_a, row_b):
        """Multiply Pauli rows a*b with phase tracking (mod 4 -> sign)."""
        xa, za, ra = row_a
        xb, zb, rb = row_b
        # Branch-free uint8 mask algebra (the per-qubit form of _rowsum):
        # a's (x, z) selects the case, b's bits decide the i-exponent sign.
        nxa = xa ^ 1
        nza = za ^ 1
        nxb = xb ^ 1
        nzb = zb ^ 1
        plus = xa & za & zb & nxb
        plus |= xa & nza & zb & xb
        plus |= nxa & za & xb & nzb
        minus = xa & za & xb & nzb
        minus |= xa & nza & zb & nxb
        minus |= nxa & za & xb & zb
        total = 2 * ra + 2 * rb + int(plus.sum()) - int(minus.sum())
        return (xa ^ xb, za ^ zb, (total % 4) // 2)


def run_stabilizer(circuit: QuantumCircuit, seed: Optional[int] = None,
                   forced_outcomes: Optional[Dict[int, list]] = None):
    """Run ``circuit`` on a fresh stabilizer backend."""
    backend = StabilizerBackend(circuit.num_qubits, seed=seed)
    cbits = backend.run_circuit(circuit, forced_outcomes=forced_outcomes)
    return backend, cbits
