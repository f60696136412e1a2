"""Mnemonic and operand-format tables for the HISQ instruction set.

HISQ (Hardware Instruction Set for Quantum computing) is an extension of the
RISC-V 32I base integer instruction set (paper section 3.1).  The base set is
stripped of interrupt and fence functionality; the quantum extension adds:

``waiti`` / ``waitr``
    Advance the timing-control-unit timeline cursor by an immediate /
    register-specified number of cycles (QuMA-style queue-based timing).

``cw.x.y <port>, <codeword>``
    Enqueue "send codeword to port" at the current timeline position, where
    ``x``/``y`` are each ``i`` (immediate) or ``r`` (register).

``sync <tgt>`` / ``sync <tgt>, <delta>``
    Book a synchronization point with a nearest-neighbor controller (no
    delta) or with an ancestor router (delta = deterministic distance, in
    cycles, from the booking position to the synchronization point).

``send <dst>, <rs>`` / ``recv <rd>, <src>``
    Classical messaging between controllers, executed by the message unit.
"""

from __future__ import annotations

import enum


class Fmt(enum.Enum):
    """Operand formats used by the assembler and encoder."""

    R = "rd,rs1,rs2"          # register-register ALU
    I = "rd,rs1,imm"          # register-immediate ALU / jalr
    LOAD = "rd,imm(rs1)"      # lw
    STORE = "rs2,imm(rs1)"    # sw
    B = "rs1,rs2,off"         # branches
    U = "rd,imm"              # lui / auipc
    J = "rd,off"              # jal
    WAIT_I = "imm"            # waiti
    WAIT_R = "rs1"            # waitr
    CW = "port,codeword"      # cw.{i,r}.{i,r}
    SYNC = "tgt[,delta]"      # sync
    SEND = "dst,rs"           # send / send.i
    RECV = "rd,src"           # recv
    NONE = ""                 # halt / nop


#: RV32I subset retained by HISQ (fence / ecall / csr excluded, section 3.1.1).
RV32I_R = ("add", "sub", "sll", "slt", "sltu", "xor", "srl", "sra", "or", "and")
RV32I_I = ("addi", "slti", "sltiu", "xori", "ori", "andi", "slli", "srli",
           "srai", "jalr")
RV32I_B = ("beq", "bne", "blt", "bge", "bltu", "bgeu")
RV32I_U = ("lui", "auipc")

#: Quantum-control extension mnemonics.
CW_MNEMONICS = ("cw.i.i", "cw.i.r", "cw.r.i", "cw.r.r")
WAIT_MNEMONICS = ("waiti", "waitr")

#: Mnemonic -> operand format for every legal HISQ instruction.
FORMATS: dict[str, Fmt] = {}
FORMATS.update({m: Fmt.R for m in RV32I_R})
FORMATS.update({m: Fmt.I for m in RV32I_I})
FORMATS.update({m: Fmt.B for m in RV32I_B})
FORMATS.update({m: Fmt.U for m in RV32I_U})
FORMATS["lw"] = Fmt.LOAD
FORMATS["sw"] = Fmt.STORE
FORMATS["jal"] = Fmt.J
FORMATS["waiti"] = Fmt.WAIT_I
FORMATS["waitr"] = Fmt.WAIT_R
FORMATS.update({m: Fmt.CW for m in CW_MNEMONICS})
FORMATS["sync"] = Fmt.SYNC
FORMATS["send"] = Fmt.SEND
FORMATS["send.i"] = Fmt.SEND
FORMATS["recv"] = Fmt.RECV
FORMATS["halt"] = Fmt.NONE
FORMATS["nop"] = Fmt.NONE

# ---------------------------------------------------------------------------
# Integer opcodes, the first element of every instruction's ``step``
# (:attr:`repro.isa.instructions.Instruction.step`), ordered roughly by
# runtime frequency in compiled programs.
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

#: Mnemonic -> integer opcode; names the same mnemonics as :data:`FORMATS`.
OPCODES: dict[str, int] = {
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

#: Opcodes that check the TCU queue for space before executing (the
#: pipeline stalls on these when the queue is full).
CW_OPS = frozenset((OP_CW_II, OP_CW_IR, OP_CW_RI, OP_CW_RR))


def is_quantum(mnemonic: str) -> bool:
    """Return True for instructions handled by the timing control unit."""
    return mnemonic in WAIT_MNEMONICS or mnemonic in CW_MNEMONICS or (
        mnemonic in ("sync", "send", "send.i"))


def is_branch(mnemonic: str) -> bool:
    """Return True for control-flow instructions (branches and jumps)."""
    return mnemonic in RV32I_B or mnemonic in ("jal", "jalr")
