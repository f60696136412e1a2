"""Byte-per-qubit CHP tableau: the reference for the bit-packed backend.

:class:`ReferenceTableau` stores the X/Z blocks as one ``uint8`` per
qubit and implements the Clifford generators, the CHP rowsum and
measurement straight from Aaronson & Gottesman, "Improved simulation of
stabilizer circuits" (PRA 70, 052328, 2004).  Everything else — derived
gates, rotations, Paulis, channels, ``run_circuit`` and the canonical
form — is inherited from :class:`~repro.quantum.stabilizer.
StabilizerBackend`, so a differential test compares exactly the layout
and nothing more.  Both draw identically from the RNG.

``tests/quantum/test_packed_tableau.py`` imports it by module name and
``benchmarks/bench_hotpath.py`` loads it by file path.
"""

from typing import Optional, Tuple

import numpy as np

from repro.errors import QuantumStateError
from repro.quantum.stabilizer import StabilizerBackend


class ReferenceTableau(StabilizerBackend):
    """CHP tableau with one ``uint8`` per qubit in the X and Z blocks."""

    def __init__(self, num_qubits: int, seed: Optional[int] = None):
        if num_qubits < 1:
            raise QuantumStateError("need at least one qubit")
        n = num_qubits
        self.num_qubits = n
        self.rng = np.random.default_rng(seed)
        self.r = np.zeros(2 * n + 1, dtype=np.uint8)
        self.x = np.zeros((2 * n + 1, n), dtype=np.uint8)
        self.z = np.zeros((2 * n + 1, n), dtype=np.uint8)
        for i in range(n):
            self.x[i, i] = 1          # destabilizers X_i
            self.z[n + i, i] = 1      # stabilizers Z_i

    def _row_bits(self, row: int) -> Tuple[np.ndarray, np.ndarray]:
        return self.x[row].copy(), self.z[row].copy()

    def h(self, a: int) -> None:
        self._check(a)
        self.r ^= self.x[:, a] & self.z[:, a]
        self.x[:, a], self.z[:, a] = self.z[:, a].copy(), self.x[:, a].copy()

    def s(self, a: int) -> None:
        self._check(a)
        self.r ^= self.x[:, a] & self.z[:, a]
        self.z[:, a] ^= self.x[:, a]

    def cx(self, a: int, b: int) -> None:
        self._check(a)
        self._check(b)
        if a == b:
            raise QuantumStateError("control equals target")
        self.r ^= self.x[:, a] & self.z[:, b] & (self.x[:, b] ^ self.z[:, a]
                                                 ^ 1)
        self.x[:, b] ^= self.x[:, a]
        self.z[:, a] ^= self.z[:, b]

    def _rowsum(self, h: int, i: int) -> None:
        xi, zi = self.x[i], self.z[i]
        xh, zh = self.x[h], self.z[h]
        # Branch-free uint8 mask algebra: +1 and -1 phase contributions
        # are disjoint bit masks.
        nxi = xi ^ 1
        nzi = zi ^ 1
        nxh = xh ^ 1
        nzh = zh ^ 1
        plus = xi & zi & zh & nxh
        plus |= xi & nzi & zh & xh
        plus |= nxi & zi & xh & nzh
        minus = xi & zi & xh & nzh
        minus |= xi & nzi & zh & nxh
        minus |= nxi & zi & xh & zh
        total = (2 * int(self.r[h]) + 2 * int(self.r[i]) +
                 int(plus.sum()) - int(minus.sum()))
        self.r[h] = (total % 4) // 2
        xh ^= xi
        zh ^= zi

    def measure(self, a: int, forced: Optional[int] = None) -> int:
        self._check(a)
        n = self.num_qubits
        stab_rows = np.nonzero(self.x[n:2 * n, a])[0]
        if stab_rows.size:
            # Random outcome: anticommuting stabilizer exists.
            p = int(stab_rows[0]) + n
            if forced is None:
                outcome = int(self.rng.integers(0, 2))
            else:
                outcome = int(forced)
            for i in range(2 * n):
                if i != p and self.x[i, a]:
                    self._rowsum(i, p)
            self.x[p - n] = self.x[p]
            self.z[p - n] = self.z[p]
            self.r[p - n] = self.r[p]
            self.x[p] = 0
            self.z[p] = 0
            self.z[p, a] = 1
            self.r[p] = outcome
            return outcome
        # Deterministic outcome.
        scratch = 2 * n
        self.x[scratch] = 0
        self.z[scratch] = 0
        self.r[scratch] = 0
        for i in range(n):
            if self.x[i, a]:
                self._rowsum(scratch, i + n)
        outcome = int(self.r[scratch])
        if forced is not None and int(forced) != outcome:
            raise QuantumStateError(
                "cannot force outcome {}: measurement of qubit {} is "
                "deterministically {}".format(forced, a, outcome))
        return outcome
