"""HISQ pre-decode: dense operand tuples plus basic-block fast-forward data.

Executing a compiled :class:`~repro.isa.program.Program` instruction by
instruction pays a Python dispatch (mnemonic string compares, dataclass
attribute loads) per instruction per shot.  This module decodes a program
*once* into

* ``steps`` — one ``(opcode, rd, rs1, rs2, imm, imm2)`` tuple per
  instruction, with integer opcodes, for table-driven stepwise execution,
  and
* *fast blocks* — maximal straight-line runs of deterministic, register-free
  timeline instructions (``nop``/``waiti``/``cw.i.i``/``sync``/``send.i``)
  precompiled into position-offset item templates, which the core's
  fast-forward path replays in bulk instead of dispatching per instruction
  (classic trace pre-decode from sampled architecture simulation).

Decodes are cached and shared: per :class:`Program` *object* (the common
case — every extra shot reloads the same compiled binaries) and per
program *content* (so recompilations of identical circuits across sweep
cells and worker processes decode once).  The caches hold strong
references to the instruction sequences they decoded, which makes the
id-based content keys safe against id reuse.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

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

#: Instructions eligible for fast-forward replay: deterministic effect on
#: (position, TCU queue) only — no registers, memory, branches or blocking.
_FAST_OPS = frozenset((OP_WAITI, OP_CW_II, OP_SYNC, OP_SEND_I, OP_NOP))
_IS_FAST = [op in _FAST_OPS for op in range(64)]

#: Minimum run length worth the replay-entry overhead.
MIN_FAST_BLOCK = 4

#: Kinds of TCU item, in fast-block item columns and in the
#: ``(position, kind, a, b)`` tuples of the TCU queue
#: (:mod:`repro.core.queues` documents each kind's ``a`` and ``b``).
#: Only the first four occur inside a fast block.
ITEM_CW = 0
ITEM_SYNC_N = 1
ITEM_SYNC_R = 2
ITEM_SEND = 3
ITEM_RESYNC = 4


class FastBlock:
    """Precompiled replay data for one straight-line fast run.

    All arrays are indexed by the instruction's offset inside the block:

    ``pos_cum[i]``
        Timeline-position advance accumulated *before* instruction ``i``
        (``pos_cum[n]`` is the whole block's advance).
    ``pushes[i]``
        Number of TCU items among the first ``i`` instructions — doubles
        as the index into the item columns for slicing.
    ``item_kinds`` / ``item_off`` / ``item_a`` / ``item_b``
        One TCU item per item-pushing instruction, in program order, as
        structure-of-arrays columns: its kind (``ITEM_*``), its position
        offset inside the block and its two operands.  The executor
        admits a slice and extends the TCU queue with one
        ``(entry position + offset, kind, a, b)`` tuple per item of the
        slice — the same items stepwise execution would push one by one.
    ``cw_idx`` / ``cw_pushes``
        Offsets of codeword instructions and their ``pushes`` values, for
        the queue-space admission check (only ``cw.*`` stalls on a full
        queue; ``sync``/``send.i`` push unconditionally).
    """

    __slots__ = ("start", "n", "pos_cum", "pushes", "cw_idx", "cw_pushes",
                 "cw_last", "item_kinds", "item_a", "item_b", "item_off")

    def __init__(self, start: int, n: int, pos_cum: List[int],
                 pushes: List[int], cw_idx: List[int], cw_pushes: List[int],
                 item_kinds: List[int], item_a: List[int],
                 item_b: List[int], item_off: List[int]):
        self.start = start
        self.n = n
        self.pos_cum = pos_cum
        self.pushes = pushes
        self.cw_idx = cw_idx
        self.cw_pushes = cw_pushes
        #: Highest ``pushes`` value among codeword instructions (-1 if the
        #: block has none): lets the executor admit a whole block with one
        #: comparison instead of a bisect.
        self.cw_last = cw_pushes[-1] if cw_pushes else -1
        self.item_kinds = item_kinds
        self.item_a = item_a
        self.item_b = item_b
        self.item_off = item_off

    def replay_end(self, start: int, budget: int, free: int) -> int:
        """Largest offset ``e`` such that replaying ``[start, e)`` is
        *exactly* equivalent to stepwise execution.

        ``budget`` is the remaining instruction budget of this scheduler
        activation; ``free`` is the TCU queue's free space right now.  The
        admission rule is conservative (it ignores TCU pops that stepwise
        execution might interleave): every codeword instruction in the
        slice must find the queue non-full even if nothing is popped
        meanwhile.  Falling short just means the tail executes stepwise,
        which re-checks the live queue state per instruction.
        """
        e = start + budget
        if e > self.n:
            e = self.n
        cw_idx = self.cw_idx
        if cw_idx:
            lo = bisect_left(cw_idx, start)
            hi = bisect_left(cw_idx, e)
            if lo < hi:
                threshold = self.pushes[start] + free - 1
                if self.cw_pushes[hi - 1] > threshold:
                    k = bisect_right(self.cw_pushes, threshold, lo, hi)
                    e = cw_idx[k]
        return e


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
    content only; how often its fast blocks replay is counted process
    wide (:func:`replay_totals`).
    """

    __slots__ = ("instructions", "n", "steps", "fast_block", "has_recv")

    def __init__(self, instructions: Tuple):
        self.instructions = instructions  # strong ref (pins content ids)
        n = len(instructions)
        self.n = n
        # Decode via the per-object step memo (bulk map + listcomp; the
        # interner makes repeats hit), then scan the opcode column for
        # fast runs — replay arrays are only built for runs that qualify.
        entries = list(map(_step_memo.get, map(id, instructions)))
        steps = [entry[1] if entry is not None else _step_of(instr)
                 for entry, instr in zip(entries, instructions)]
        self.steps = steps
        is_fast = _IS_FAST
        flags = [is_fast[step[0]] for step in steps]
        fast_block: List[Optional[FastBlock]] = [None] * n
        runs = []
        run_start = -1
        index = 0
        for flag in flags:
            if flag:
                if run_start < 0:
                    run_start = index
            elif run_start >= 0:
                if index - run_start >= MIN_FAST_BLOCK:
                    runs.append((run_start, index))
                run_start = -1
            index += 1
        if run_start >= 0 and index - run_start >= MIN_FAST_BLOCK:
            runs.append((run_start, index))
        for start, end in runs:
            block = self._build_block(steps, start, end)
            fast_block[start:end] = [block] * (end - start)
        self.fast_block = fast_block
        #: Whether any instruction blocks on a message receive — programs
        #: without one have device-seed-independent timing, which is what
        #: lane fast-forward (:mod:`repro.sim.lanes`) keys on.
        self.has_recv = any(step[0] == OP_RECV for step in steps)

    @classmethod
    def from_artifact(cls, instructions: Tuple, steps: List[tuple],
                      fast_block: List[Optional[FastBlock]],
                      has_recv: bool) -> "DecodedProgram":
        """Assemble a decoded program from already-decoded parts.

        Used by the persistent compile cache's warm load, which stores
        ``steps``/``fast_block`` explicitly and must not re-run
        ``__init__``'s decode pass."""
        decoded = cls.__new__(cls)
        decoded.instructions = instructions
        decoded.n = len(instructions)
        decoded.steps = steps
        decoded.fast_block = fast_block
        decoded.has_recv = has_recv
        return decoded

    @staticmethod
    def _build_block(steps, start: int, end: int) -> FastBlock:
        position = 0
        pos_cum = [0]
        pushes = [0]
        kinds: List[int] = []
        offsets: List[int] = []
        a_col: List[int] = []
        b_col: List[int] = []
        cw_idx: List[int] = []
        cw_pushes: List[int] = []
        for offset, pc in enumerate(range(start, end)):
            op, _, _, _, imm, imm2 = steps[pc]
            if op == OP_WAITI:
                position += imm
            elif op != OP_NOP:
                if op == OP_CW_II:
                    cw_idx.append(offset)
                    cw_pushes.append(len(kinds))
                    kinds.append(ITEM_CW)
                elif op == OP_SYNC:
                    kinds.append(ITEM_SYNC_R if imm2 else ITEM_SYNC_N)
                else:  # OP_SEND_I
                    kinds.append(ITEM_SEND)
                offsets.append(position)
                a_col.append(imm)
                b_col.append(imm2)
            pos_cum.append(position)
            pushes.append(len(kinds))
        return FastBlock(start, end - start, pos_cum, pushes, cw_idx,
                         cw_pushes, kinds, a_col, b_col, offsets)


# ---------------------------------------------------------------------------
# Decode caches.
# ---------------------------------------------------------------------------

_BY_CONTENT_LIMIT = 8192

#: tuple(id of every instruction) -> decoded.  The decoded object holds
#: strong references to those exact instruction objects, so a key match
#: implies the instructions *are* the cached ones (ids cannot be reused
#: while they are alive).  Interned instructions make recompilations of
#: the same circuit hit this across sweep cells and repeated sweeps.
_by_content: "OrderedDict[tuple, DecodedProgram]" = OrderedDict()

#: Decode-cache outcome counters (always live; an int add each).
DECODE_PIN_HITS = _metrics.counter(
    "repro_decode_pin_hits_total",
    "decode_program calls satisfied by the per-program pin")
DECODE_CONTENT_HITS = _metrics.counter(
    "repro_decode_content_hits_total",
    "decode_program calls satisfied by the content cache")
DECODE_MISSES = _metrics.counter(
    "repro_decode_misses_total", "programs decoded from scratch")


def decode_program(program, trust_pin: bool = True) -> DecodedProgram:
    """Decoded (and cached) form of ``program``.

    The result is also pinned on the program object itself (dropped from
    pickles by :class:`~repro.isa.program.Program`), so every extra shot
    reloading the same compiled binary skips even the content lookup.
    The pin is validated by list identity + length, which misses a
    same-length in-place element replacement — callers that must pick up
    arbitrary edits (``HISQCore.start``) pass ``trust_pin=False`` to
    force the content-level lookup, whose id-tuple key catches every
    element swap.
    """
    instructions = program.instructions
    if trust_pin:
        cached = getattr(program, "_decoded_cache", None)
        if cached is not None and cached[0] is instructions and \
                cached[1] == len(instructions):
            DECODE_PIN_HITS.value += 1
            return cached[2]
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
    program._decoded_cache = (instructions, len(instructions), decoded)
    return decoded


def _prime_decoded(program, decoded: DecodedProgram, content_key: tuple
                   ) -> None:
    """Install ``decoded`` in both cache levels without any checks.

    ``content_key`` must be ``tuple(map(id, program.instructions))`` for
    instructions the decoded object pins.  The compile cache's warm load
    (:mod:`repro.compiler.cache`) builds program and decode from one
    instruction pool, so the aliasing holds by construction and the key
    is shared across programs that reuse a decode."""
    _by_content[content_key] = decoded
    if len(_by_content) > _BY_CONTENT_LIMIT:
        _by_content.popitem(last=False)
    program._decoded_cache = (program.instructions,
                              len(program.instructions), decoded)


def clear_decode_caches() -> None:
    """Drop all cached decodes (tests and memory-pressure hooks)."""
    _by_content.clear()
    _step_memo.clear()


def decode_cache_stats() -> Dict[str, int]:
    """Sizes and hit/miss tallies of the decode caches (diagnostics)."""
    return {"by_content": len(_by_content), "step_memo": len(_step_memo),
            "pin_hits": DECODE_PIN_HITS.value,
            "content_hits": DECODE_CONTENT_HITS.value,
            "misses": DECODE_MISSES.value}


# ---------------------------------------------------------------------------
# Replay accounting.
# ---------------------------------------------------------------------------

#: Process-wide replay counters, bumped by the HISQ interpreter
#: (:class:`~repro.core.node.HISQCore`).  ``vector`` counts admitted
#: slices of four or more items, ``vector_items`` the items in them, and
#: ``block`` the shorter slices; every slice enters the TCU queue the
#: same way, so the four-item threshold only labels the counts.  These
#: live in the observability registry but are always on: the perf-smoke
#: digest gate, the benchmark ledger and the fast-forward tests read
#: them through :func:`replay_totals`.
REPLAY_VECTOR = _metrics.counter(
    "repro_replay_vector_batches_total",
    "admitted fast-block slices of four or more TCU items")
REPLAY_VECTOR_ITEMS = _metrics.counter(
    "repro_replay_vector_items_total",
    "TCU items in admitted fast-block slices of four or more items")
REPLAY_BLOCK = _metrics.counter(
    "repro_replay_block_batches_total",
    "admitted fast-block slices of one to three TCU items")


def replay_totals() -> Dict[str, int]:
    """Copy of the process-wide replay counters."""
    return {"vector": REPLAY_VECTOR.value, "block": REPLAY_BLOCK.value,
            "vector_items": REPLAY_VECTOR_ITEMS.value}


def reset_replay_totals() -> None:
    """Zero the process-wide replay counters (benchmarks, tests)."""
    REPLAY_VECTOR.value = 0
    REPLAY_BLOCK.value = 0
    REPLAY_VECTOR_ITEMS.value = 0
