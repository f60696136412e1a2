"""The HISQ core: classical pipeline + TCU + SyncU + MsgU (Figure 3a).

Execution model
---------------
The classical pipeline executes RV32I instructions at ``classical_cpi``
cycles each and *runs ahead* of real time, pushing timed items (codeword
emissions, syncs, message transmissions) into the TCU's item queue tagged
with their timeline position (``wait`` advances the position cursor).  The
TCU issues items at precise wall-clock times through an
:class:`~repro.core.timer.AbsoluteTimer` that maps positions to wall-clock;
sync stalls and feedback triggers shift the mapping forward.

The only pipeline-blocking operations are ``recv`` (feedback) and a full
codeword queue; the only TCU-blocking operations are the two BISP
conditions (countdown + neighbor signal, or booked time-point + router Tm).

The core talks to the outside world through a *fabric* object provided by
the system builder (:mod:`repro.sim.system`) with four methods:
``sync_signal``, ``send_booking``, ``send_message``, ``emit_codeword``.

Fast path
---------
Programs are pre-decoded (:mod:`repro.isa.decoded`) into dense opcode
tuples plus *fast blocks*: maximal straight-line runs of deterministic
timeline instructions.  The pipeline replays a fast block's precompiled
item columns in bulk — an admitted slice of four or more items becomes
one lazily-drained :class:`~repro.core.queues.ReplayBatch` instead of a
per-instruction fetch/decode/dispatch — and falls back to stepwise
execution at branches, feedback receives, device interactions and
whenever the TCU queue could fill.  Replay is engineered to be *exactly*
equivalent to stepwise execution: same instruction counts per scheduler
activation (so continuations land on the same cycles), same queue
contents, same TELF traces, counters and stall accounting.  Setting
``REPRO_NO_FASTPATH=1`` disables pre-decode and runs the original
per-instruction interpreter (the debugging escape hatch; differential
tests assert both paths agree).
"""

from __future__ import annotations

from typing import Optional

from ..errors import ExecutionError, TimingViolation
from ..fastpath import fastpath_enabled
from ..isa.decoded import REPLAY_BLOCK, REPLAY_VECTOR, REPLAY_VECTOR_ITEMS
from ..isa.decoded import (CW_OPS, OP_ADD, OP_ADDI, OP_AND, OP_ANDI,
                           OP_AUIPC, OP_BEQ, OP_BGE, OP_BGEU, OP_BLT,
                           OP_BLTU, OP_BNE, OP_CW_II, OP_CW_IR, OP_CW_RI,
                           OP_CW_RR, OP_HALT, OP_JAL, OP_JALR, OP_LUI,
                           OP_LW, OP_NOP, OP_OR, OP_ORI, OP_RECV, OP_SEND,
                           OP_SEND_I, OP_SLL, OP_SLLI, OP_SLT, OP_SLTI,
                           OP_SLTIU, OP_SLTU, OP_SRA, OP_SRAI, OP_SRL,
                           OP_SRLI, OP_SUB, OP_SW, OP_SYNC, OP_WAITI,
                           OP_WAITR, OP_XOR, OP_XORI, decode_program)
from ..isa.instructions import Instruction
from ..isa.program import Program
from ..isa.registers import RegisterFile, to_signed
from .config import CENTRAL_ADDRESS, CoreConfig
from .message_unit import MessageUnit
from .queues import (EmitCodeword, ItemQueue, ReplayBatch, Resync,
                     SendMessage, SyncNearby, SyncRegion)
from .sync_unit import SyncUnit
from .timer import AbsoluteTimer




#: opcode -> does this instruction stall on a full TCU queue?
_IS_CW = [False] * 64
for _op in CW_OPS:
    _IS_CW[_op] = True


class HISQCore:
    """One control or readout board's digital part."""

    def __init__(self, name: str, address: int, engine, telf,
                 config: Optional[CoreConfig] = None,
                 program: Optional[Program] = None,
                 strict_timing: bool = False,
                 fast: Optional[bool] = None):
        self.name = name
        self.address = address
        self.engine = engine
        self.telf = telf
        #: Raw TELF sink, or None when recording is disabled (skips even
        #: the per-event tuple construction on the hot path).
        self._telf_raw = telf._raw if getattr(telf, "enabled", True) \
            else None
        self.config = config or CoreConfig()
        #: Raise TimingViolation instead of counting it (used in tests).
        self.strict_timing = strict_timing
        #: Fast-path switch fixed by the owning system, which reads it
        #: once for all its cores; None re-reads the environment per load.
        self._fast = fast

        self.regs = RegisterFile()
        self.sync_unit = SyncUnit(name)
        self.message_unit = MessageUnit(name)
        self.fabric = None  # wired by the system builder
        self._queue = ItemQueue(self.config.event_queue_depth)
        #: Prebound continuation callbacks (skip per-event bound-method
        #: creation and the fast/legacy dispatch hop).
        self._tcu_loop_cb = self._tcu_loop
        self._do_recv_cb = self._do_recv_pending
        self._delivered_cb = self._delivered
        self.load(program or Program(name=name))

    def _refresh_fast_ctx(self) -> None:
        """Pre-assemble the fast interpreter's per-activation constants."""
        decoded = self._decoded
        queue = self._queue
        if decoded is None:
            self._fast_ctx = None
            return
        self._fast_ctx = (
            decoded.steps, decoded.n, decoded.fast_block, _IS_CW,
            self.config.classical_cpi, self.config.batch_limit,
            queue, queue._items.append, queue.push, queue.depth, decoded)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def load(self, program: Program) -> None:
        """Install a program and reset execution state."""
        self.program = program
        fast = self._fast if self._fast is not None else fastpath_enabled()
        self._decoded = decode_program(program) if fast else None
        self._pipeline_entry = (self._pipeline_run_fast
                                if self._decoded is not None
                                else self._pipeline_run_legacy)
        self._refresh_fast_ctx()
        self.reset()

    def reset(self) -> None:
        """Return every piece of run state to its initial value: registers,
        memory, cursors, timer, TCU queue, SyncU, MsgU, pending waits and
        statistics.  The program and its decode are retained."""
        self.regs.reset()
        self.memory = {}
        self.pc = 0
        self.position = 0  # pipeline-side timeline cursor (cycles)
        self.timer = AbsoluteTimer()
        self.sync_unit.reset()
        self.message_unit.reset()
        self._queue.reset()
        self._tcu_busy = False
        self._sync_state = None
        self._halted = False
        self._pipeline_blocked = False
        self._started = False
        self._recv_rd = 0
        self._recv_src = 0

        # Statistics.
        self.instructions_executed = 0
        self.codewords_emitted = 0
        self.syncs_completed = 0
        self.messages_sent = 0
        self.timing_violations = 0
        self.pipeline_stall_cycles = 0
        self.last_event_time = 0

    def start(self, at: int = 0) -> None:
        """Schedule the pipeline to begin executing at cycle ``at``."""
        if self._started:
            raise ExecutionError("{}: already started".format(self.name))
        if self._decoded is not None:
            # Re-validate: picks up in-place program edits since load()
            # (trust_pin=False catches same-length element swaps too).
            self._decoded = decode_program(self.program, trust_pin=False)
            self._refresh_fast_ctx()
        self._started = True
        self.engine.at(at, self._pipeline_entry)

    @property
    def halted(self) -> bool:
        """True once the pipeline has stopped fetching."""
        return self._halted

    @property
    def drained(self) -> bool:
        """True when the pipeline halted and the TCU has no pending work."""
        return self._halted and len(self._queue) == 0 and \
            self._sync_state is None

    @property
    def stall_cycles(self) -> int:
        """Total wall-clock cycles the TCU timer spent paused."""
        return self.timer.stall_cycles

    def counters(self) -> dict:
        """Per-core statistics snapshot."""
        return {
            "instructions": self.instructions_executed,
            "codewords": self.codewords_emitted,
            "syncs": self.syncs_completed,
            "sync_stall": self.timer.stall_cycles,
            "messages": self.messages_sent,
            "violations": self.timing_violations,
            "pipeline_stall": self.pipeline_stall_cycles,
            "last_event": self.last_event_time,
        }

    @property
    def queue_high_water(self) -> int:
        """Peak logical TCU-queue depth (observability only — the exact
        trajectory differs between the fast and legacy interpreters, so
        this stays out of the differentially compared :meth:`counters`
        dict)."""
        return self._queue.high_water

    # ------------------------------------------------------------------
    # Classical pipeline
    # ------------------------------------------------------------------

    def _pipeline_run(self) -> None:
        if self._decoded is not None:
            self._pipeline_run_fast()
        else:
            self._pipeline_run_legacy()

    def _pipeline_run_legacy(self) -> None:
        """Original per-instruction interpreter (REPRO_NO_FASTPATH=1)."""
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
                # Pipeline stalls until the TCU drains one entry.
                self._pipeline_blocked = True
                stall_from = self.engine.now + cost

                def resume(stall_from=stall_from):
                    self._pipeline_blocked = False
                    self.pipeline_stall_cycles += max(
                        0, self.engine.now - stall_from)
                    self._pipeline_run()

                self._queue.wait_for_space(
                    lambda: self.engine.after(0, resume))
                if cost:
                    pass  # cost is folded into the stall accounting
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

    def _pipeline_run_fast(self) -> None:
        """Decoded interpreter with basic-block fast-forward.

        Byte-identical to :meth:`_pipeline_run_legacy` in every observable
        (queue contents, counters, TELF, continuation timing): the loop
        consumes the same per-activation instruction budget, and block
        replay is only admitted when stepwise execution could not have
        stalled inside the replayed slice (see
        :meth:`repro.isa.decoded.FastBlock.replay_end`).
        """
        if self._halted or self._pipeline_blocked:
            return
        (steps, nsteps, fast_block, is_cw, cpi, budget,
         queue, append_item, push_item, depth, decoded) = self._fast_ctx
        regs = self.regs
        engine = self.engine
        pc = self.pc
        position = self.position
        cost = 0
        executed = 0
        while budget > 0:
            if not 0 <= pc < nsteps:
                self._halted = True
                self.pc = pc
                self.position = position
                self.instructions_executed += executed
                self._tcu_kick()
                return
            block = fast_block[pc]
            if block is not None:
                j = pc - block.start
                free = depth - queue._count
                pushes_j = block.pushes[j]
                # Whole-tail admission with one comparison; partial
                # replays go through the bisect-based replay_end.
                if budget >= block.n - j and \
                        block.cw_last - pushes_j < free:
                    e = block.n
                else:
                    e = block.replay_end(j, budget, free)
                if e > j:
                    lo = pushes_j
                    hi = block.pushes[e]
                    base = position - block.pos_cum[j]
                    k = hi - lo
                    if k:
                        if k >= 4:
                            # Resolve every position of the slice in one
                            # bulk add and enqueue a single lazily-drained
                            # batch (k logical items).
                            if k >= 16:
                                positions = (
                                    base + block.item_off_np[lo:hi]).tolist()
                            else:
                                off = block.item_off
                                positions = [base + off[i]
                                             for i in range(lo, hi)]
                            append_item(ReplayBatch(
                                positions, block.item_kinds, block.item_a,
                                block.item_b, lo, hi))
                            decoded.vector_replays += 1
                            decoded.vector_items += k
                            REPLAY_VECTOR.value += 1
                            REPLAY_VECTOR_ITEMS.value += k
                        else:
                            # Too short to batch: one NamedTuple per item.
                            kinds = block.item_kinds
                            offs = block.item_off
                            a_col = block.item_a
                            b_col = block.item_b
                            for i in range(lo, hi):
                                kind = kinds[i]
                                if kind == 0:
                                    append_item(EmitCodeword(
                                        base + offs[i], a_col[i], b_col[i]))
                                elif kind == 1:
                                    append_item(SyncNearby(base + offs[i],
                                                           a_col[i]))
                                elif kind == 2:
                                    append_item(SyncRegion(
                                        base + offs[i], a_col[i], b_col[i]))
                                else:
                                    append_item(SendMessage(
                                        base + offs[i], a_col[i], b_col[i]))
                            REPLAY_BLOCK.value += 1
                        queue._count += k
                        if queue._count > queue.high_water:
                            queue.high_water = queue._count
                    consumed = e - j
                    pc += consumed
                    position = base + block.pos_cum[e]
                    executed += consumed
                    cost += consumed * cpi
                    budget -= consumed
                    if k:
                        self.pc = pc
                        self.position = position
                        self._tcu_kick()
                    continue
                # else: the next codeword cannot fit — execute it stepwise
                # below, which re-checks the live queue and stalls exactly
                # like the legacy loop.
            op, rd, rs1, rs2, imm, imm2 = steps[pc]
            if is_cw[op] and queue._count >= depth:
                self.pc = pc
                self.position = position
                self.instructions_executed += executed
                self._pipeline_blocked = True
                stall_from = engine.now + cost

                def resume(stall_from=stall_from):
                    self._pipeline_blocked = False
                    self.pipeline_stall_cycles += max(
                        0, self.engine.now - stall_from)
                    self._pipeline_run()

                self._queue.wait_for_space(
                    lambda: engine.after(0, resume))
                return
            if op == OP_RECV:
                # Only one receive can be outstanding (the pipeline blocks
                # on it), so the operands ride on the core instead of a
                # fresh closure per recv.
                self._recv_rd = rd
                self._recv_src = imm
                engine.after(cost + cpi, self._do_recv_cb)
                self.pc = pc + 1
                self.position = position
                self.instructions_executed += executed + 1
                self._pipeline_blocked = True
                return
            # -- stepwise decoded execution --------------------------------
            next_pc = pc + 1
            if op == OP_WAITI:
                position += imm
            elif op == OP_CW_II:
                push_item(EmitCodeword(position, imm, imm2))
                self.pc = next_pc
                self.position = position
                self._tcu_kick()
            elif op == OP_SYNC:
                if imm2:
                    push_item(SyncRegion(position, imm, imm2))
                else:
                    push_item(SyncNearby(position, imm))
                self.pc = next_pc
                self.position = position
                self._tcu_kick()
            elif op == OP_SW:
                addr = (regs.read(rs1) + imm) & 0xFFFFFFFF
                if addr % 4:
                    raise ExecutionError(
                        "{}: misaligned store at {:#x}".format(self.name,
                                                               addr))
                self.memory[addr] = regs.read(rs2)
            elif op == OP_LW:
                addr = (regs.read(rs1) + imm) & 0xFFFFFFFF
                if addr % 4:
                    raise ExecutionError(
                        "{}: misaligned load at {:#x}".format(self.name,
                                                              addr))
                regs.write(rd, self.memory.get(addr, 0))
            elif op == OP_SEND:
                push_item(SendMessage(position, imm, regs.read(rs1)))
                self.pc = next_pc
                self.position = position
                self._tcu_kick()
            elif op == OP_BEQ:
                if regs.read(rs1) == regs.read(rs2):
                    next_pc = pc + imm
            elif op == OP_BNE:
                if regs.read(rs1) != regs.read(rs2):
                    next_pc = pc + imm
            elif op == OP_HALT:
                self._halted = True
            elif op == OP_NOP:
                pass
            elif op == OP_SEND_I:
                push_item(SendMessage(position, imm, imm2))
                self.pc = next_pc
                self.position = position
                self._tcu_kick()
            elif op == OP_WAITR:
                position += to_signed(regs.read(rs1))
            elif op == OP_CW_IR:
                push_item(EmitCodeword(position, imm, regs.read(rs2)))
                self.pc = next_pc
                self.position = position
                self._tcu_kick()
            elif op == OP_CW_RI:
                push_item(EmitCodeword(position, regs.read(rs1), imm2))
                self.pc = next_pc
                self.position = position
                self._tcu_kick()
            elif op == OP_CW_RR:
                push_item(EmitCodeword(position, regs.read(rs1),
                                       regs.read(rs2)))
                self.pc = next_pc
                self.position = position
                self._tcu_kick()
            elif op == OP_ADDI:
                regs.write(rd, regs.read(rs1) + imm)
            elif op == OP_ADD:
                regs.write(rd, regs.read(rs1) + regs.read(rs2))
            elif op == OP_SUB:
                regs.write(rd, regs.read(rs1) - regs.read(rs2))
            elif op == OP_AND:
                regs.write(rd, regs.read(rs1) & regs.read(rs2))
            elif op == OP_OR:
                regs.write(rd, regs.read(rs1) | regs.read(rs2))
            elif op == OP_XOR:
                regs.write(rd, regs.read(rs1) ^ regs.read(rs2))
            elif op == OP_ANDI:
                regs.write(rd, regs.read(rs1) & (imm & 0xFFFFFFFF))
            elif op == OP_ORI:
                regs.write(rd, regs.read(rs1) | (imm & 0xFFFFFFFF))
            elif op == OP_XORI:
                regs.write(rd, regs.read(rs1) ^ (imm & 0xFFFFFFFF))
            elif op == OP_SLT:
                regs.write(rd, int(regs.read_signed(rs1) <
                                   regs.read_signed(rs2)))
            elif op == OP_SLTU:
                regs.write(rd, int(regs.read(rs1) < regs.read(rs2)))
            elif op == OP_SLTI:
                regs.write(rd, int(regs.read_signed(rs1) < imm))
            elif op == OP_SLTIU:
                regs.write(rd, int(regs.read(rs1) < (imm & 0xFFFFFFFF)))
            elif op == OP_SLL:
                regs.write(rd, regs.read(rs1) << (regs.read(rs2) & 0x1F))
            elif op == OP_SRL:
                regs.write(rd, regs.read(rs1) >> (regs.read(rs2) & 0x1F))
            elif op == OP_SRA:
                regs.write(rd, regs.read_signed(rs1) >>
                           (regs.read(rs2) & 0x1F))
            elif op == OP_SLLI:
                regs.write(rd, regs.read(rs1) << (imm & 0x1F))
            elif op == OP_SRLI:
                regs.write(rd, regs.read(rs1) >> (imm & 0x1F))
            elif op == OP_SRAI:
                regs.write(rd, regs.read_signed(rs1) >> (imm & 0x1F))
            elif op == OP_LUI:
                regs.write(rd, imm << 12)
            elif op == OP_AUIPC:
                regs.write(rd, (imm << 12) + pc * 4)
            elif op == OP_BLT:
                if regs.read_signed(rs1) < regs.read_signed(rs2):
                    next_pc = pc + imm
            elif op == OP_BGE:
                if regs.read_signed(rs1) >= regs.read_signed(rs2):
                    next_pc = pc + imm
            elif op == OP_BLTU:
                if regs.read(rs1) < regs.read(rs2):
                    next_pc = pc + imm
            elif op == OP_BGEU:
                if regs.read(rs1) >= regs.read(rs2):
                    next_pc = pc + imm
            elif op == OP_JAL:
                regs.write(rd, pc + 1)
                next_pc = pc + imm
            elif op == OP_JALR:
                regs.write(rd, pc + 1)
                next_pc = (regs.read(rs1) + imm) & 0xFFFFFFFF
            else:
                raise ExecutionError("{}: cannot execute opcode {}".format(
                    self.name, op))
            pc = next_pc
            cost += cpi
            budget -= 1
            executed += 1
            if self._halted:
                self.pc = pc
                self.position = position
                self.instructions_executed += executed
                self._tcu_kick()
                return
        self.pc = pc
        self.position = position
        self.instructions_executed += executed
        engine.after(max(cost, 1), self._pipeline_entry)

    def _do_recv(self, rd: int, src: int) -> None:
        self._recv_rd = rd
        self._recv_src = src
        self.message_unit.receive(src, self._delivered_cb)

    def _do_recv_pending(self) -> None:
        """Prebound continuation of a scheduled recv (operands on self)."""
        self.message_unit.receive(self._recv_src, self._delivered_cb)

    def _delivered(self, source, value) -> None:
        """A blocked receive's message arrived: write back and resync."""
        self.regs.write(self._recv_rd, value)
        # External trigger: the TCU timer may not pass the current
        # position before the trigger arrival plus re-arm latency.
        # Broadcasts from the lock-step central controller re-arm the
        # timer *exactly* (common time base for all controllers).
        exact = self._recv_src == CENTRAL_ADDRESS
        earliest = self.engine.now + self.config.feedback_resync_cycles
        position = self.position
        if self._decoded is not None and self._sync_state is None \
                and not self._queue._items:
            # TCU idle: apply the resync inline — exactly what _tcu_loop
            # would do with this single queued item, minus the queue
            # round trip.
            timer = self.timer
            if position < timer.position:
                self._violation(
                    "item at position {} is behind the timer cursor "
                    "{}".format(position, timer.position))
                position = timer.position
            if exact:
                timer.realign_to(position, earliest)
            else:
                timer.advance_to(position,
                                 max(timer.wall_of(position), earliest))
        else:
            self._tcu_enqueue(Resync(position, earliest, exact=exact))
        self._pipeline_blocked = False
        self.engine.after(self.config.classical_cpi, self._pipeline_entry)

    def _execute(self, instr: Instruction) -> None:
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
            self._tcu_enqueue(EmitCodeword(self.position, instr.imm,
                                           instr.imm2))
        elif m == "cw.i.r":
            self._tcu_enqueue(EmitCodeword(self.position, instr.imm,
                                           regs.read(instr.rs2)))
        elif m == "cw.r.i":
            self._tcu_enqueue(EmitCodeword(self.position,
                                           regs.read(instr.rs1), instr.imm2))
        elif m == "cw.r.r":
            self._tcu_enqueue(EmitCodeword(self.position,
                                           regs.read(instr.rs1),
                                           regs.read(instr.rs2)))
        elif m == "sync":
            if instr.imm2:
                self._tcu_enqueue(SyncRegion(self.position, instr.imm,
                                             instr.imm2))
            else:
                self._tcu_enqueue(SyncNearby(self.position, instr.imm))
        elif m == "send":
            self._tcu_enqueue(SendMessage(self.position, instr.imm,
                                          regs.read(instr.rs1)))
        elif m == "send.i":
            self._tcu_enqueue(SendMessage(self.position, instr.imm,
                                          instr.imm2))
        else:
            raise ExecutionError("{}: cannot execute {!r}".format(self.name,
                                                                  m))
        self.pc = next_pc

    # ------------------------------------------------------------------
    # Timing control unit
    # ------------------------------------------------------------------

    def _tcu_enqueue(self, item) -> None:
        self._queue.push(item)
        self._tcu_kick()

    def _tcu_kick(self) -> None:
        if self._tcu_busy:
            return
        self._tcu_busy = True
        self._tcu_loop()

    def _violation(self, why: str) -> None:
        if self.strict_timing:
            raise TimingViolation("{}: {}".format(self.name, why))
        self.timing_violations += 1

    def _tcu_loop(self) -> None:
        """Drain timed items in order, respecting an active sync fence.

        While a sync is in flight (booked but not completed), the timer
        keeps advancing and items *below* the fence position — the
        deterministic tasks hoisted over (Insight #1) — are emitted at
        their nominal times.  Items at or beyond the fence wait for the
        sync to resolve; the resolution shifts the position->wall mapping
        by the stall, which is exactly BISP's synchronization overhead.
        """
        engine = self.engine
        queue = self._queue
        items_dq = queue._items
        popleft = items_dq.popleft
        depth = queue.depth
        tcu_cb = self._tcu_loop_cb
        timer = self.timer
        telf_raw = self._telf_raw
        name = self.name
        while True:
            if not items_dq:
                self._tcu_busy = False
                return
            item = items_dq[0]
            cls = item.__class__
            if cls is ReplayBatch:
                # Head element of a replay batch: same issue logic as a
                # plain item, read straight from the block's SoA columns.
                cur = item.cursor
                position = item.positions[cur]
                idx = item.lo + cur
                kind = item.kinds[idx]
            else:
                position = item[0]
                kind = -1
            if position < timer.position:
                self._violation(
                    "item at position {} is behind the timer cursor "
                    "{}".format(position, timer.position))
                position = timer.position
            if self._sync_state is not None:
                if position >= self._sync_state["fence"] or \
                        cls is SyncNearby or cls is SyncRegion or \
                        kind == 1 or kind == 2:
                    # Blocked until the in-flight sync resolves.
                    self._tcu_busy = False
                    return
            if cls is Resync:
                popleft()
                queue._count -= 1
                waiter = queue._space_waiter
                if waiter is not None and queue._count < depth:
                    queue._space_waiter = None
                    waiter()
                if item.exact:
                    timer.realign_to(position, item.earliest_wall)
                else:
                    target = max(timer.wall_of(position),
                                 item.earliest_wall)
                    timer.advance_to(position, target)
                continue
            # Inline wall_of/advance_to: ``position`` is already
            # clamped to the cursor, so ``wall_of`` cannot raise and any
            # excess of the (clamped) target over nominal is stall time.
            now = engine.now
            target = timer.wall + (position - timer.position)
            if target < now:
                self._violation(
                    "item at position {} is {} cycles late".format(
                        position, now - target))
                timer.stall_cycles += now - target
                target = now
            elif target > now:
                engine.at(target, tcu_cb)
                return
            timer.position = position
            timer.wall = target
            if cls is ReplayBatch:
                # Consume one logical item: advance the cursor, drop the
                # batch when drained, and wake a space-waiter exactly as a
                # per-item pop would.
                a = item.a[idx]
                b = item.b[idx]
                item.cursor = cur + 1
                if idx + 1 == item.hi:
                    popleft()
                queue._count -= 1
                waiter = queue._space_waiter
                if waiter is not None and queue._count < depth:
                    queue._space_waiter = None
                    waiter()
                if kind == 0:
                    self.codewords_emitted += 1
                    self.last_event_time = target
                    if telf_raw is not None:
                        telf_raw.append((target, name, "cw", a, b, ""))
                    if self.fabric is not None:
                        self.fabric.emit_codeword(self, a, b)
                    continue
                if kind == 3:
                    self.messages_sent += 1
                    self.last_event_time = target
                    if telf_raw is not None:
                        telf_raw.append((target, name, "msg_tx", a, b, ""))
                    self.fabric.send_message(self, a, b)
                    continue
                if kind == 1:
                    self._book_nearby_sync(SyncNearby(position, a),
                                           position, target)
                    continue
                self._book_region_sync(SyncRegion(position, a, b),
                                       position, target)
                continue
            if cls is EmitCodeword:
                popleft()
                queue._count -= 1
                waiter = queue._space_waiter
                if waiter is not None and queue._count < depth:
                    queue._space_waiter = None
                    waiter()
                self.codewords_emitted += 1
                self.last_event_time = target
                if telf_raw is not None:
                    telf_raw.append((target, name, "cw", item[1], item[2],
                                     ""))
                if self.fabric is not None:
                    self.fabric.emit_codeword(self, item[1], item[2])
                continue
            if cls is SendMessage:
                popleft()
                queue._count -= 1
                waiter = queue._space_waiter
                if waiter is not None and queue._count < depth:
                    queue._space_waiter = None
                    waiter()
                self.messages_sent += 1
                self.last_event_time = target
                if telf_raw is not None:
                    telf_raw.append((target, name, "msg_tx", item[1],
                                     item[2], ""))
                self.fabric.send_message(self, item[1], item[2])
                continue
            if cls is SyncNearby:
                queue.pop()
                self._book_nearby_sync(item, position, target)
                continue
            if cls is SyncRegion:
                queue.pop()
                self._book_region_sync(item, position, target)
                continue
            raise ExecutionError("{}: unknown TCU item {!r}".format(
                name, item))

    # -- BISP nearby (booking + two conditions, Figure 4) ------------------

    def _book_nearby_sync(self, item: SyncNearby, position: int,
                          booking_wall: int) -> None:
        self.timer.advance_to(position, booking_wall)
        countdown = self.fabric.sync_signal(self, item.target)
        self.telf.log(booking_wall, self.name, "sync_book", port=item.target,
                      value=countdown)
        self._sync_state = {
            "kind": "nearby",
            "item": item,
            "fence": position + countdown,
            "booking_wall": booking_wall,
            "booked_time": booking_wall + countdown,
        }
        # Condition I: the N-cycle countdown completes.
        self.engine.at(booking_wall + countdown, self._nearby_count_done)

    def _nearby_count_done(self) -> None:
        # Condition II: the neighbor's signal must have been received.
        item = self._sync_state["item"]
        self.sync_unit.wait_for_signal(item.target, self._finish_sync)

    # -- BISP region (booked time-point + router Tm, section 4.3) ----------

    def _book_region_sync(self, item: SyncRegion, position: int,
                          booking_wall: int) -> None:
        self.timer.advance_to(position, booking_wall)
        booked_time = booking_wall + item.delta
        self.fabric.send_booking(self, item.group, booked_time)
        self.telf.log(booking_wall, self.name, "sync_book", port=item.group,
                      value=booked_time)
        self._sync_state = {
            "kind": "region",
            "item": item,
            "fence": position + item.delta,
            "booking_wall": booking_wall,
            "booked_time": booked_time,
        }
        self.sync_unit.wait_for_time_point(self._region_tm_received)

    def _region_tm_received(self, tm: int) -> None:
        state = self._sync_state
        arrival = self.engine.now
        if tm < state["booked_time"]:
            self._violation(
                "router Tm {} earlier than booked time {}".format(
                    tm, state["booked_time"]))
            tm = state["booked_time"]
        if arrival > tm:
            self._violation(
                "router Tm notification arrived at {} after Tm {}".format(
                    arrival, tm))
        resume = max(tm, arrival)
        if resume > self.engine.now:
            self.engine.at(resume, self._finish_sync)
        else:
            self._finish_sync()

    # -- shared completion ---------------------------------------------------

    def _finish_sync(self) -> None:
        state = self._sync_state
        self._sync_state = None
        resume = self.engine.now
        target_port = (state["item"].target
                       if state["kind"] == "nearby" else state["item"].group)
        self.timer.advance_to(state["fence"], resume)
        self.syncs_completed += 1
        self.last_event_time = resume
        self.telf.log(resume, self.name, "sync_done", port=target_port,
                      value=resume - state["booked_time"])
        self._tcu_kick()

    # ------------------------------------------------------------------

    def deliver_message(self, source: int, value: int) -> None:
        """Entry point used by the fabric to hand a message to the MsgU."""
        telf_raw = self._telf_raw
        if telf_raw is not None:
            telf_raw.append((self.engine.now, self.name, "msg_rx", source,
                             value, ""))
        self.message_unit.deliver(source, value)

    def __repr__(self):
        return "HISQCore({!r}, addr={}, pc={}, pos={})".format(
            self.name, self.address, self.pc, self.position)
