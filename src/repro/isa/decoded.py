"""HISQ pre-decode: one dense operand tuple per instruction.

Executing a compiled :class:`~repro.isa.program.Program` instruction by
instruction pays a Python dispatch (mnemonic string compares, dataclass
attribute loads) per instruction per shot.  HISQ is a fixed-format ISA,
so every :class:`~repro.isa.instructions.Instruction` carries its own
``step``, one ``(opcode, rd, rs1, rs2, imm, imm2)`` tuple with an integer
opcode, built when the instruction is.  Decoding a program collects
those steps into a list, which the HISQ core's pipeline loop
(:meth:`repro.core.node.HISQCore._pipeline_run`) dispatches on.

Nothing is cached: every :func:`decode_program` call is one ``map`` over
the program's current instructions, so a decode always reflects the
program as it is and holds nothing alive after its core is dropped.  A
core decodes once, at :meth:`~repro.core.node.HISQCore.load`.
"""

from __future__ import annotations

from operator import attrgetter, itemgetter
from typing import Dict

from ..obs import metrics as _metrics
from .opcodes import OP_RECV

#: Kinds of TCU item, the ``kind`` of the ``(position, kind, a, b)``
#: tuples in the TCU queue (:mod:`repro.core.node` documents each kind's
#: ``a`` and ``b``).
ITEM_CW = 0
ITEM_SYNC_N = 1
ITEM_SYNC_R = 2
ITEM_SEND = 3
ITEM_RESYNC = 4

_step = attrgetter("step")
_opcode = itemgetter(0)


class DecodedProgram:
    """Dense decoded form of one HISQ program."""

    __slots__ = ("steps", "n", "has_recv")

    def __init__(self, instructions):
        self.steps = steps = list(map(_step, instructions))
        self.n = len(steps)
        #: Whether any instruction blocks on a message receive — programs
        #: without one have device-seed-independent timing, which is what
        #: lane fast-forward (:mod:`repro.sim.lanes`) keys on.
        self.has_recv = OP_RECV in map(_opcode, steps)


#: Decode tally (always live; an int add each).
DECODE_MISSES = _metrics.counter(
    "repro_decode_misses_total", "programs decoded")


def decode_program(program) -> DecodedProgram:
    """Decoded form of ``program``'s current instructions."""
    DECODE_MISSES.value += 1
    return DecodedProgram(program.instructions)


def decode_cache_stats() -> Dict[str, int]:
    """Decode tally (diagnostics): ``misses`` counts every decode.

    ``pin_hits`` and ``content_hits`` are always 0: decodes are neither
    pinned per program nor cached by content.  They stay only because
    the end-to-end benchmark's ledger (``benchmarks/e2e/layers.py``)
    sums them; ROADMAP item 1, the benchmark change that re-records the
    ledger, drops them."""
    return {"pin_hits": 0, "content_hits": 0,
            "misses": DECODE_MISSES.value}


# ---------------------------------------------------------------------------
# Retired replay accounting.
# ---------------------------------------------------------------------------


def replay_totals() -> Dict[str, int]:
    """Zeros in the shape of the retired fast-block replay counters.

    The HISQ core has one pipeline loop and replays no fast blocks, so
    every count is 0.  Kept only because the end-to-end benchmark's
    ledger (``benchmarks/e2e/layers.py``) imports it; ROADMAP item 1,
    the benchmark change that re-records the ledger, drops it."""
    return {"vector": 0, "block": 0, "vector_items": 0}
