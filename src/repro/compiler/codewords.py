"""Codeword-table management.

HISQ decouples instructions from quantum semantics: a codeword's meaning
lives in a per-board configuration table (section 3.1.2).  The compiler
allocates codewords on demand — one per distinct hardware action per port —
and the same table is installed into the simulator's device bridge.
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..sim.device import GateAction, MarkerAction, MeasureAction


class CodewordAllocator:
    """Allocates (port, codeword) pairs for one controller."""

    def __init__(self, address: int):
        self.address = address
        self.table: Dict[Tuple[int, int], object] = {}
        self._next: Dict[int, int] = {}
        self._memo: Dict[tuple, Tuple[int, int]] = {}

    def _key(self, port: int, action) -> tuple:
        cls = action.__class__
        if cls is GateAction or isinstance(action, GateAction):
            return ("gate", port, action.name, action.qubits, action.params,
                    action.half, action.total_halves)
        if cls is MeasureAction or isinstance(action, MeasureAction):
            return ("meas", port, action.qubit)
        if cls is MarkerAction or isinstance(action, MarkerAction):
            return ("marker", port, action.tag)
        raise TypeError("unknown action {!r}".format(action))

    def allocate(self, port: int, action) -> int:
        """Return the codeword for ``action`` on ``port`` (idempotent)."""
        key = self._key(port, action)
        hit = self._memo.get(key)
        if hit is not None:
            return hit[1]
        codeword = self._next.get(port, 1)  # codeword 0 reserved = no-op
        self._next[port] = codeword + 1
        self.table[(port, codeword)] = action
        self._memo[key] = (port, codeword)
        return codeword


#: Port-numbering convention for architecture simulations: each local qubit
#: gets a drive port (2k) and a measurement-trigger port (2k + 1).
def drive_port(local_qubit: int) -> int:
    return 2 * local_qubit


def measure_port(local_qubit: int) -> int:
    return 2 * local_qubit + 1
