"""Qubit -> controller mapping.

The intra-layer mesh mirrors the qubit device topology (Insight #2), so a
block mapping of qubits onto a line/grid of controllers keeps device
neighbors on controller neighbors.
"""

from __future__ import annotations

from ..errors import CompilationError


class QubitMap:
    """Block mapping: qubit q lives on controller q // qubits_per_controller."""

    def __init__(self, num_qubits: int, qubits_per_controller: int = 1):
        if num_qubits < 1:
            raise CompilationError("need at least one qubit")
        if qubits_per_controller < 1:
            raise CompilationError("qubits_per_controller must be >= 1")
        self.num_qubits = num_qubits
        self.qubits_per_controller = qubits_per_controller

    @property
    def num_controllers(self) -> int:
        return -(-self.num_qubits // self.qubits_per_controller)

    def controller_of(self, qubit: int) -> int:
        """Controller address owning ``qubit``."""
        if not 0 <= qubit < self.num_qubits:
            raise CompilationError("qubit {} out of range".format(qubit))
        return qubit // self.qubits_per_controller

    def local_index(self, qubit: int) -> int:
        """Index of ``qubit`` among its controller's qubits (port base)."""
        return qubit % self.qubits_per_controller
