"""Stepwise HISQ interpreter: the reference for the decoded fast path.

:class:`ReferenceCore` runs the classical pipeline one
:class:`~repro.isa.instructions.Instruction` at a time, dispatching on
its mnemonic, with no pre-decode and no fast-block replay: each timed
instruction pushes its own ``(position, kind, a, b)`` item
(:mod:`repro.core.queues`).  A received message always re-arms the TCU
timer through a queued ``ITEM_RESYNC`` item.  Everything else — the TCU
loop, sync booking, MsgU delivery, counters and TELF — is inherited from
:class:`~repro.core.node.HISQCore`, so a differential test compares
exactly the interpreter and nothing more.

Bare cores are built directly (``ReferenceCore(name, address, engine,
telf)``); a whole system runs on it with
``monkeypatch.setattr(repro.sim.system, "HISQCore", ReferenceCore)``.
``tests/conftest.py`` puts this directory on ``sys.path`` so suites
elsewhere in the tree import it by module name;
``benchmarks/conftest.py`` loads it by file path.
"""

from repro.core.config import CENTRAL_ADDRESS
from repro.core.node import HISQCore
from repro.errors import ExecutionError
from repro.isa.decoded import (ITEM_CW, ITEM_RESYNC, ITEM_SEND, ITEM_SYNC_N,
                               ITEM_SYNC_R)
from repro.isa.registers import to_signed


class ReferenceCore(HISQCore):
    """HISQ core whose pipeline interprets mnemonics one by one."""

    def load(self, program) -> None:
        """Install a program and reset execution state (no decode)."""
        self.program = program
        self.reset()

    def start(self, at: int = 0) -> None:
        """Schedule the pipeline at cycle ``at``; the loop reads
        ``program.instructions`` live, so edits after load apply."""
        if self._started:
            raise ExecutionError("{}: already started".format(self.name))
        self._started = True
        self.engine.at(at, self._pipeline_entry)

    def _pipeline_run(self) -> None:
        """Per-instruction interpreter."""
        if self._halted or self._pipeline_blocked:
            return
        cost = 0
        for _ in range(self.config.batch_limit):
            if not 0 <= self.pc < len(self.program.instructions):
                self._halted = True
                self._tcu_kick()
                break
            instr = self.program.instructions[self.pc]
            if instr.mnemonic.startswith("cw.") and self._queue.full:
                # Pipeline stalls until the TCU drains one entry; the
                # accumulated cost is folded into the stall accounting.
                self._pipeline_blocked = True
                stall_from = self.engine.now + cost

                def resume(stall_from=stall_from):
                    self._pipeline_blocked = False
                    self.pipeline_stall_cycles += max(
                        0, self.engine.now - stall_from)
                    self._pipeline_run()

                self._queue.wait_for_space(
                    lambda: self.engine.after(0, resume))
                return
            if instr.mnemonic == "recv":
                # Flush accumulated cost, then block on the message unit.
                self.engine.after(
                    cost + self.config.classical_cpi,
                    lambda rd=instr.rd, src=instr.imm: self._do_recv(rd, src))
                self.pc += 1
                self.instructions_executed += 1
                self._pipeline_blocked = True
                return
            self._execute(instr)
            cost += self.config.classical_cpi
            self.instructions_executed += 1
            if self._halted:
                self._tcu_kick()
                return
        else:
            self.engine.after(max(cost, 1), self._pipeline_run)
            return

    def _do_recv(self, rd: int, src: int) -> None:
        self._recv_rd = rd
        self._recv_src = src
        self.message_unit.receive(src, self._delivered_cb)

    def _delivered(self, source, value) -> None:
        """A blocked receive's message arrived: write back and queue the
        resync behind whatever the TCU still holds."""
        self.regs.write(self._recv_rd, value)
        earliest = self.engine.now + self.config.feedback_resync_cycles
        self._tcu_enqueue((self.position, ITEM_RESYNC, earliest,
                           self._recv_src == CENTRAL_ADDRESS))
        self._pipeline_blocked = False
        self.engine.after(self.config.classical_cpi, self._pipeline_entry)

    def _execute(self, instr) -> None:
        m = instr.mnemonic
        regs = self.regs
        next_pc = self.pc + 1
        if m == "nop":
            pass
        elif m == "halt":
            self._halted = True
        elif m == "addi":
            regs.write(instr.rd, regs.read(instr.rs1) + instr.imm)
        elif m == "add":
            regs.write(instr.rd, regs.read(instr.rs1) + regs.read(instr.rs2))
        elif m == "sub":
            regs.write(instr.rd, regs.read(instr.rs1) - regs.read(instr.rs2))
        elif m == "and":
            regs.write(instr.rd, regs.read(instr.rs1) & regs.read(instr.rs2))
        elif m == "or":
            regs.write(instr.rd, regs.read(instr.rs1) | regs.read(instr.rs2))
        elif m == "xor":
            regs.write(instr.rd, regs.read(instr.rs1) ^ regs.read(instr.rs2))
        elif m == "andi":
            regs.write(instr.rd, regs.read(instr.rs1) & (instr.imm & 0xFFFFFFFF))
        elif m == "ori":
            regs.write(instr.rd, regs.read(instr.rs1) | (instr.imm & 0xFFFFFFFF))
        elif m == "xori":
            regs.write(instr.rd, regs.read(instr.rs1) ^ (instr.imm & 0xFFFFFFFF))
        elif m == "slt":
            regs.write(instr.rd, int(regs.read_signed(instr.rs1) <
                                     regs.read_signed(instr.rs2)))
        elif m == "sltu":
            regs.write(instr.rd, int(regs.read(instr.rs1) <
                                     regs.read(instr.rs2)))
        elif m == "slti":
            regs.write(instr.rd, int(regs.read_signed(instr.rs1) < instr.imm))
        elif m == "sltiu":
            regs.write(instr.rd, int(regs.read(instr.rs1) <
                                     (instr.imm & 0xFFFFFFFF)))
        elif m == "sll":
            regs.write(instr.rd,
                       regs.read(instr.rs1) << (regs.read(instr.rs2) & 0x1F))
        elif m == "srl":
            regs.write(instr.rd,
                       regs.read(instr.rs1) >> (regs.read(instr.rs2) & 0x1F))
        elif m == "sra":
            regs.write(instr.rd, regs.read_signed(instr.rs1) >>
                       (regs.read(instr.rs2) & 0x1F))
        elif m == "slli":
            regs.write(instr.rd, regs.read(instr.rs1) << (instr.imm & 0x1F))
        elif m == "srli":
            regs.write(instr.rd, regs.read(instr.rs1) >> (instr.imm & 0x1F))
        elif m == "srai":
            regs.write(instr.rd,
                       regs.read_signed(instr.rs1) >> (instr.imm & 0x1F))
        elif m == "lui":
            regs.write(instr.rd, instr.imm << 12)
        elif m == "auipc":
            regs.write(instr.rd, (instr.imm << 12) + self.pc * 4)
        elif m == "lw":
            addr = (regs.read(instr.rs1) + instr.imm) & 0xFFFFFFFF
            if addr % 4:
                raise ExecutionError("{}: misaligned load at {:#x}".format(
                    self.name, addr))
            regs.write(instr.rd, self.memory.get(addr, 0))
        elif m == "sw":
            addr = (regs.read(instr.rs1) + instr.imm) & 0xFFFFFFFF
            if addr % 4:
                raise ExecutionError("{}: misaligned store at {:#x}".format(
                    self.name, addr))
            self.memory[addr] = regs.read(instr.rs2)
        elif m == "beq":
            if regs.read(instr.rs1) == regs.read(instr.rs2):
                next_pc = self.pc + instr.imm
        elif m == "bne":
            if regs.read(instr.rs1) != regs.read(instr.rs2):
                next_pc = self.pc + instr.imm
        elif m == "blt":
            if regs.read_signed(instr.rs1) < regs.read_signed(instr.rs2):
                next_pc = self.pc + instr.imm
        elif m == "bge":
            if regs.read_signed(instr.rs1) >= regs.read_signed(instr.rs2):
                next_pc = self.pc + instr.imm
        elif m == "bltu":
            if regs.read(instr.rs1) < regs.read(instr.rs2):
                next_pc = self.pc + instr.imm
        elif m == "bgeu":
            if regs.read(instr.rs1) >= regs.read(instr.rs2):
                next_pc = self.pc + instr.imm
        elif m == "jal":
            regs.write(instr.rd, self.pc + 1)
            next_pc = self.pc + instr.imm
        elif m == "jalr":
            regs.write(instr.rd, self.pc + 1)
            next_pc = (regs.read(instr.rs1) + instr.imm) & 0xFFFFFFFF
        elif m == "waiti":
            self.position += instr.imm
        elif m == "waitr":
            self.position += to_signed(regs.read(instr.rs1))
        elif m == "cw.i.i":
            self._tcu_enqueue((self.position, ITEM_CW, instr.imm,
                               instr.imm2))
        elif m == "cw.i.r":
            self._tcu_enqueue((self.position, ITEM_CW, instr.imm,
                               regs.read(instr.rs2)))
        elif m == "cw.r.i":
            self._tcu_enqueue((self.position, ITEM_CW, regs.read(instr.rs1),
                               instr.imm2))
        elif m == "cw.r.r":
            self._tcu_enqueue((self.position, ITEM_CW, regs.read(instr.rs1),
                               regs.read(instr.rs2)))
        elif m == "sync":
            if instr.imm2:
                self._tcu_enqueue((self.position, ITEM_SYNC_R, instr.imm,
                                   instr.imm2))
            else:
                self._tcu_enqueue((self.position, ITEM_SYNC_N, instr.imm, 0))
        elif m == "send":
            self._tcu_enqueue((self.position, ITEM_SEND, instr.imm,
                               regs.read(instr.rs1)))
        elif m == "send.i":
            self._tcu_enqueue((self.position, ITEM_SEND, instr.imm,
                               instr.imm2))
        else:
            raise ExecutionError("{}: cannot execute {!r}".format(self.name,
                                                                  m))
        self.pc = next_pc
