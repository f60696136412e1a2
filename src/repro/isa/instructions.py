"""Instruction objects for HISQ programs.

An :class:`Instruction` is a decoded, executable representation: mnemonic
plus resolved integer operands, and the dense ``step`` tuple the HISQ
core's pipeline loop dispatches on.  The assembler produces these from
text and the encoder maps them to/from 32-bit words.  Convenience
constructors are provided for programmatic code generation (the compiler
uses them heavily).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import AssemblyError
from .opcodes import FORMATS, OPCODES, Fmt, is_branch, is_quantum


@dataclass(frozen=True)
class Instruction:
    """One HISQ instruction with fully resolved operands.

    Attributes
    ----------
    mnemonic:
        Lower-case mnemonic, e.g. ``"addi"`` or ``"cw.i.i"``.
    rd, rs1, rs2:
        Register indices (0-31) where applicable.
    imm:
        Immediate operand: ALU immediate, branch/jump offset (in
        instructions), wait duration (cycles), codeword/port immediates,
        sync target, or message source/destination.
    imm2:
        Second immediate where needed: ``cw.i.i`` codeword, ``sync`` delta.
    label:
        Optional source label this instruction carried (for listings).
    step:
        Derived, not passed: ``(opcode, rd, rs1, rs2, imm, imm2)`` with
        the integer opcode of :data:`~repro.isa.opcodes.OPCODES`.  HISQ
        is a fixed-format ISA, so this tuple depends on the instruction
        alone; :func:`repro.isa.decoded.decode_program` collects it.
    """

    mnemonic: str
    rd: int = 0
    rs1: int = 0
    rs2: int = 0
    imm: int = 0
    imm2: int = 0
    label: str = field(default="", compare=False)
    step: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        opcode = OPCODES.get(self.mnemonic)
        if opcode is None:
            raise AssemblyError("unknown mnemonic {!r}".format(self.mnemonic))
        for name in ("rd", "rs1", "rs2"):
            value = getattr(self, name)
            if not 0 <= value < 32:
                raise AssemblyError(
                    "{} out of range in {}: {}".format(name, self.mnemonic, value))
        object.__setattr__(self, "step", (opcode, self.rd, self.rs1,
                                          self.rs2, self.imm, self.imm2))

    @property
    def fmt(self) -> Fmt:
        """Operand format of this instruction."""
        return FORMATS[self.mnemonic]

    @property
    def is_quantum(self) -> bool:
        """True if executed through the timing control unit."""
        return is_quantum(self.mnemonic)

    @property
    def is_branch(self) -> bool:
        """True for branches and jumps."""
        return is_branch(self.mnemonic)

    def text(self) -> str:
        """Render back to canonical assembly text."""
        fmt = self.fmt
        m = self.mnemonic
        if fmt is Fmt.R:
            return "{} ${},${},${}".format(m, self.rd, self.rs1, self.rs2)
        if fmt is Fmt.I:
            return "{} ${},${},{}".format(m, self.rd, self.rs1, self.imm)
        if fmt is Fmt.LOAD:
            return "{} ${},{}(${})".format(m, self.rd, self.imm, self.rs1)
        if fmt is Fmt.STORE:
            return "{} ${},{}(${})".format(m, self.rs2, self.imm, self.rs1)
        if fmt is Fmt.B:
            return "{} ${},${},{}".format(m, self.rs1, self.rs2, self.imm)
        if fmt is Fmt.U:
            return "{} ${},{}".format(m, self.rd, self.imm)
        if fmt is Fmt.J:
            return "{} ${},{}".format(m, self.rd, self.imm)
        if fmt is Fmt.WAIT_I:
            return "{} {}".format(m, self.imm)
        if fmt is Fmt.WAIT_R:
            return "{} ${}".format(m, self.rs1)
        if fmt is Fmt.CW:
            port = "${}".format(self.rs1) if m[3] == "r" else str(self.imm)
            cw = "${}".format(self.rs2) if m[5] == "r" else str(self.imm2)
            return "{} {},{}".format(m, port, cw)
        if fmt is Fmt.SYNC:
            if self.imm2:
                return "sync {},{}".format(self.imm, self.imm2)
            return "sync {}".format(self.imm)
        if fmt is Fmt.SEND:
            if m == "send.i":
                return "send.i {},{}".format(self.imm, self.imm2)
            return "send {},${}".format(self.imm, self.rs1)
        if fmt is Fmt.RECV:
            return "recv ${},{}".format(self.rd, self.imm)
        return m

    def __str__(self):
        return self.text()


# ---------------------------------------------------------------------------
# Interned construction (used by the compiler's code generator).
#
# Compiled programs repeat the same few instruction shapes hundreds of
# thousands of times (the same wait durations, the same codeword/port pairs,
# the same spill slots).  Instruction is frozen, so identical instances can
# be shared: ``interned`` caches by operand tuple and skips the dataclass
# construction (seven ``object.__setattr__`` calls plus validation) on every
# repeat.  Only label-less instructions are interned — the assembler's
# labeled instructions keep going through the plain constructor.
# ---------------------------------------------------------------------------

_INTERN_LIMIT = 1 << 16
_interned_instructions: dict = {}


def interned(mnemonic: str, rd: int = 0, rs1: int = 0, rs2: int = 0,
             imm: int = 0, imm2: int = 0) -> Instruction:
    """A shared, label-less :class:`Instruction` with the given operands."""
    key = (mnemonic, rd, rs1, rs2, imm, imm2)
    instr = _interned_instructions.get(key)
    if instr is None:
        if len(_interned_instructions) >= _INTERN_LIMIT:
            _interned_instructions.clear()
        instr = Instruction(mnemonic, rd, rs1, rs2, imm, imm2)
        _interned_instructions[key] = instr
    return instr


def nop() -> Instruction:
    """No-operation (encoded as addi $0,$0,0)."""
    return interned("nop")


def halt() -> Instruction:
    """Stop the classical pipeline."""
    return interned("halt")


def addi(rd: int, rs1: int, imm: int) -> Instruction:
    return interned("addi", rd, rs1, 0, imm)


def add(rd: int, rs1: int, rs2: int) -> Instruction:
    return interned("add", rd, rs1, rs2)


def lui(rd: int, imm: int) -> Instruction:
    return interned("lui", rd, 0, 0, imm)


def beq(rs1: int, rs2: int, off: int) -> Instruction:
    return interned("beq", 0, rs1, rs2, off)


def bne(rs1: int, rs2: int, off: int) -> Instruction:
    return interned("bne", 0, rs1, rs2, off)


def jal(rd: int, off: int) -> Instruction:
    return interned("jal", rd, 0, 0, off)


def waiti(cycles: int) -> Instruction:
    """Advance the timeline cursor by ``cycles`` (immediate)."""
    return interned("waiti", 0, 0, 0, cycles)


def waitr(rs1: int) -> Instruction:
    """Advance the timeline cursor by the value of register ``rs1``."""
    return interned("waitr", 0, rs1)


def cw_ii(port: int, codeword: int) -> Instruction:
    """Send immediate codeword to immediate port at the current position."""
    return interned("cw.i.i", 0, 0, 0, port, codeword)


def cw_ir(port: int, rs2: int) -> Instruction:
    """Send register codeword to immediate port."""
    return interned("cw.i.r", 0, 0, rs2, port)


def cw_ri(rs1: int, codeword: int) -> Instruction:
    """Send immediate codeword to register-selected port."""
    return interned("cw.r.i", 0, rs1, 0, 0, codeword)


def cw_rr(rs1: int, rs2: int) -> Instruction:
    """Send register codeword to register-selected port."""
    return interned("cw.r.r", 0, rs1, rs2)


def sync(tgt: int, delta: int = 0) -> Instruction:
    """Book a synchronization point with neighbor/router ``tgt``.

    ``delta`` is only meaningful for router (region) targets: the
    compile-time deterministic distance, in cycles, from the booking
    position to the synchronization point (paper section 4.3).
    """
    return interned("sync", 0, 0, 0, tgt, delta)


def send(dst: int, rs1: int) -> Instruction:
    """Send the value of ``rs1`` to controller ``dst`` via the message unit."""
    return interned("send", 0, rs1, 0, dst)


def send_i(dst: int, value: int) -> Instruction:
    """Send an immediate value to controller ``dst``."""
    return interned("send.i", 0, 0, 0, dst, value)


def recv(rd: int, src: int) -> Instruction:
    """Block until a message from ``src`` arrives; write it to ``rd``."""
    return interned("recv", rd, 0, 0, src)
