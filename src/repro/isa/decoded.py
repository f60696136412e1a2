"""HISQ pre-decode: one dense operand tuple per instruction.

Executing a compiled :class:`~repro.isa.program.Program` instruction by
instruction pays a Python dispatch (mnemonic string compares, dataclass
attribute loads) per instruction per shot.  This module decodes a program
*once* into ``steps`` — one ``(opcode, rd, rs1, rs2, imm, imm2)`` tuple
per instruction, with integer opcodes — which the HISQ core's pipeline
loop (:meth:`repro.core.node.HISQCore._pipeline_run`) dispatches on.

Decodes are cached and shared by program *content* alone: the key is the
identity of every instruction, so recompilations of identical circuits
across sweep cells and worker processes decode once, and an edited
program, even one edited in place without changing its length, gets a
fresh decode.  The cache holds strong references to the instructions it
decoded, which makes the id-based keys safe against id reuse.  A core
decodes once, at :meth:`~repro.core.node.HISQCore.load`.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Tuple

from ..obs import metrics as _metrics

# ---------------------------------------------------------------------------
# Opcodes (ordered roughly by runtime frequency in compiled programs).
# ---------------------------------------------------------------------------

OP_WAITI = 0
OP_CW_II = 1
OP_SYNC = 2
OP_SW = 3
OP_LW = 4
OP_SEND = 5
OP_RECV = 6
OP_BEQ = 7
OP_BNE = 8
OP_HALT = 9
OP_NOP = 10
OP_SEND_I = 11
OP_WAITR = 12
OP_CW_IR = 13
OP_CW_RI = 14
OP_CW_RR = 15
OP_ADDI = 16
OP_ADD = 17
OP_SUB = 18
OP_AND = 19
OP_OR = 20
OP_XOR = 21
OP_ANDI = 22
OP_ORI = 23
OP_XORI = 24
OP_SLT = 25
OP_SLTU = 26
OP_SLTI = 27
OP_SLTIU = 28
OP_SLL = 29
OP_SRL = 30
OP_SRA = 31
OP_SLLI = 32
OP_SRLI = 33
OP_SRAI = 34
OP_LUI = 35
OP_AUIPC = 36
OP_BLT = 37
OP_BGE = 38
OP_BLTU = 39
OP_BGEU = 40
OP_JAL = 41
OP_JALR = 42

OPCODES: Dict[str, int] = {
    "waiti": OP_WAITI, "cw.i.i": OP_CW_II, "sync": OP_SYNC, "sw": OP_SW,
    "lw": OP_LW, "send": OP_SEND, "recv": OP_RECV, "beq": OP_BEQ,
    "bne": OP_BNE, "halt": OP_HALT, "nop": OP_NOP, "send.i": OP_SEND_I,
    "waitr": OP_WAITR, "cw.i.r": OP_CW_IR, "cw.r.i": OP_CW_RI,
    "cw.r.r": OP_CW_RR, "addi": OP_ADDI, "add": OP_ADD, "sub": OP_SUB,
    "and": OP_AND, "or": OP_OR, "xor": OP_XOR, "andi": OP_ANDI,
    "ori": OP_ORI, "xori": OP_XORI, "slt": OP_SLT, "sltu": OP_SLTU,
    "slti": OP_SLTI, "sltiu": OP_SLTIU, "sll": OP_SLL, "srl": OP_SRL,
    "sra": OP_SRA, "slli": OP_SLLI, "srli": OP_SRLI, "srai": OP_SRAI,
    "lui": OP_LUI, "auipc": OP_AUIPC, "blt": OP_BLT, "bge": OP_BGE,
    "bltu": OP_BLTU, "bgeu": OP_BGEU, "jal": OP_JAL, "jalr": OP_JALR,
}

#: Opcodes that check the TCU queue for space before executing (stepwise
#: pipelines stall on these when the queue is full).
CW_OPS = frozenset((OP_CW_II, OP_CW_IR, OP_CW_RI, OP_CW_RR))

#: Kinds of TCU item, the ``kind`` of the ``(position, kind, a, b)``
#: tuples in the TCU queue (:mod:`repro.core.node` documents each kind's
#: ``a`` and ``b``).
ITEM_CW = 0
ITEM_SYNC_N = 1
ITEM_SYNC_R = 2
ITEM_SEND = 3
ITEM_RESYNC = 4


#: id(instruction) -> (instruction, step tuple).  Compiled programs are
#: built from interned instructions, so the same objects recur across
#: programs and sweep cells; memoizing the step tuple per object skips
#: five attribute loads + tuple build per repeat.  The value pins the
#: instruction, making the id key safe against reuse.
_STEP_MEMO_LIMIT = 1 << 16
_step_memo: Dict[int, tuple] = {}


def _step_of(instr) -> Tuple[int, int, int, int, int, int]:
    entry = _step_memo.get(id(instr))
    if entry is not None:
        return entry[1]
    step = (OPCODES[instr.mnemonic], instr.rd, instr.rs1, instr.rs2,
            instr.imm, instr.imm2)
    if len(_step_memo) >= _STEP_MEMO_LIMIT:
        _step_memo.clear()
    _step_memo[id(instr)] = (instr, step)
    return step


class DecodedProgram:
    """Dense decoded form of one HISQ program.

    Programs with equal content share one instance, so it holds program
    content only.
    """

    __slots__ = ("instructions", "n", "steps", "has_recv")

    def __init__(self, instructions: Tuple):
        self.instructions = instructions  # strong ref (pins content ids)
        self.n = len(instructions)
        # Decode via the per-object step memo (bulk map + listcomp; the
        # interner makes repeats hit).
        entries = list(map(_step_memo.get, map(id, instructions)))
        steps = [entry[1] if entry is not None else _step_of(instr)
                 for entry, instr in zip(entries, instructions)]
        self.steps = steps
        #: Whether any instruction blocks on a message receive — programs
        #: without one have device-seed-independent timing, which is what
        #: lane fast-forward (:mod:`repro.sim.lanes`) keys on.
        self.has_recv = any(step[0] == OP_RECV for step in steps)

    @classmethod
    def from_artifact(cls, instructions: Tuple, steps: List[tuple],
                      has_recv: bool) -> "DecodedProgram":
        """Assemble a decoded program from already-decoded parts.

        Used by the persistent compile cache's warm load, which derives
        ``steps`` from its instruction pool and must not re-run
        ``__init__``'s decode pass."""
        decoded = cls.__new__(cls)
        decoded.instructions = instructions
        decoded.n = len(instructions)
        decoded.steps = steps
        decoded.has_recv = has_recv
        return decoded


# ---------------------------------------------------------------------------
# Decode cache.
# ---------------------------------------------------------------------------

_BY_CONTENT_LIMIT = 8192

#: tuple(id of every instruction) -> decoded.  The decoded object holds
#: strong references to those exact instruction objects, so a key match
#: implies the instructions *are* the cached ones (ids cannot be reused
#: while they are alive).  Interned instructions make recompilations of
#: the same circuit hit this across sweep cells and repeated sweeps.
_by_content: "OrderedDict[tuple, DecodedProgram]" = OrderedDict()

#: Decode-cache outcome counters (always live; an int add each).
DECODE_CONTENT_HITS = _metrics.counter(
    "repro_decode_content_hits_total",
    "decode_program calls satisfied by the content cache")
DECODE_MISSES = _metrics.counter(
    "repro_decode_misses_total", "programs decoded from scratch")


def decode_program(program) -> DecodedProgram:
    """Decoded (and cached) form of ``program``'s current instructions."""
    instructions = program.instructions
    content_key = tuple(map(id, instructions))
    decoded = _by_content.get(content_key)
    if decoded is None:
        DECODE_MISSES.value += 1
        decoded = DecodedProgram(tuple(instructions))
        _by_content[content_key] = decoded
        if len(_by_content) > _BY_CONTENT_LIMIT:
            _by_content.popitem(last=False)
    else:
        DECODE_CONTENT_HITS.value += 1
        _by_content.move_to_end(content_key)
    return decoded


def _prime_decoded(decoded: DecodedProgram) -> None:
    """Install ``decoded`` in the content cache without decoding.

    The compile cache's warm load (:mod:`repro.compiler.cache`) builds
    each decode and its programs from one instruction pool, so a program
    whose list is ``list(decoded.instructions)`` finds it by content."""
    _by_content[tuple(map(id, decoded.instructions))] = decoded
    if len(_by_content) > _BY_CONTENT_LIMIT:
        _by_content.popitem(last=False)


def clear_decode_caches() -> None:
    """Drop all cached decodes (tests and memory-pressure hooks)."""
    _by_content.clear()
    _step_memo.clear()


def decode_cache_stats() -> Dict[str, int]:
    """Sizes and hit/miss tallies of the decode cache (diagnostics).

    ``pin_hits`` is always 0: decodes are no longer pinned per program
    object.  It stays only because the end-to-end benchmark's ledger
    (``benchmarks/e2e/layers.py``) sums it; ROADMAP item 1, the
    benchmark change that re-records the ledger, drops it."""
    return {"by_content": len(_by_content), "step_memo": len(_step_memo),
            "pin_hits": 0,
            "content_hits": DECODE_CONTENT_HITS.value,
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
