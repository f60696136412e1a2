"""The HISQ core: classical pipeline + TCU + SyncU + MsgU (Figure 3a).

Execution model
---------------
The classical pipeline executes RV32I instructions at ``classical_cpi``
cycles each and *runs ahead* of real time, pushing timed items (codeword
emissions, syncs, message transmissions) into the TCU's item queue tagged
with their timeline position (``wait`` advances the position cursor).  The
TCU issues items at precise wall-clock times (QuMA-style queue-based event
timing, paper section 3.2) through an
:class:`~repro.core.timer.AbsoluteTimer` that maps positions to wall-clock;
sync stalls and feedback triggers shift the mapping forward.  Every timing
parameter the core reads (``classical_cpi``, ``event_queue_depth``,
``feedback_resync_cycles``) comes from the system's
:class:`~repro.sim.config.SimulationConfig`.

The only pipeline-blocking operations are ``recv`` (feedback) and a full
codeword queue; the only TCU-blocking operations are the two BISP
conditions (countdown + neighbor signal, or booked time-point + router Tm).

The core talks to the outside world through a *fabric* object provided by
the system builder (:mod:`repro.sim.system`) with four methods:
``sync_signal``, ``send_booking``, ``send_message``, ``emit_codeword``.

TCU items
---------
The item queue is core state: a FIFO the pipeline appends to and the TCU
loop pops.  A codeword instruction stalls the pipeline while the queue
holds ``event_queue_depth`` items (the 1024-entry event queue of Table
1), until the TCU pops one.  Every item is one plain tuple ``(position,
kind, a, b)``; ``kind`` is an ``ITEM_*`` constant of
:mod:`repro.isa.decoded`:

``ITEM_CW``
    Send codeword ``b`` to port ``a``.
``ITEM_SYNC_N``
    Book neighbor-level synchronization with controller ``a`` (``b`` is 0).
``ITEM_SYNC_R``
    Book region-level synchronization through sync group ``a``; ``b`` is
    the compile-time distance, in cycles, from the booking position to
    the synchronization point (paper section 4.3).
``ITEM_SEND``
    Transmit value ``b`` to controller ``a``.
``ITEM_RESYNC``
    External-trigger resynchronization after a blocking feedback receive:
    the TCU timer may not pass ``position`` before wall-clock cycle ``a``
    (the trigger arrival plus re-arm latency).  With the exact flag ``b``
    set (lock-step central trigger), the timer re-arms so that
    ``position`` maps to exactly ``a`` — the broadcast arrival becomes the
    common time base of all controllers.

Pipeline loop
-------------
:meth:`HISQCore.load` decodes the program once (:mod:`repro.isa.decoded`)
into the list of its instructions' ``(opcode, rd, rs1, rs2, imm, imm2)``
step tuples, and the core runs that decode: an edit to the program after
``load`` takes effect at the next ``load``.  A core that was never
loaded holds an empty program and decodes nothing.  One loop dispatches
on the opcode: up to :data:`BATCH_LIMIT` instructions per scheduler
activation.  Each timed item goes through one push, which also starts
an idle TCU, so the TCU loop reads, pops and issues every item in one
place.  An activation ends early at a full codeword queue (the pipeline
stalls until the TCU pops), at ``halt``, and at ``recv``: the receive
registers with the MsgU at once, and a message that is already waiting,
or arrives before the recv completes ``cost + cpi`` cycles later, is
held until that cycle.
Counters, TELF traces, stall accounting and makespans match the
per-instruction interpreter ``ReferenceCore`` in
``tests/core/reference_core.py``, which schedules its receive as an
event; the differential suites run both.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from ..errors import ExecutionError, TimingViolation
from ..isa.decoded import (ITEM_CW, ITEM_RESYNC, ITEM_SEND, ITEM_SYNC_N,
                           ITEM_SYNC_R, decode_program)
from ..isa.opcodes import (CW_OPS, OP_ADD, OP_ADDI, OP_AND, OP_ANDI,
                           OP_AUIPC, OP_BEQ, OP_BGE, OP_BGEU, OP_BLT,
                           OP_BLTU, OP_BNE, OP_CW_II, OP_CW_IR, OP_CW_RI,
                           OP_CW_RR, OP_HALT, OP_JAL, OP_JALR, OP_LUI,
                           OP_LW, OP_NOP, OP_OR, OP_ORI, OP_RECV, OP_SEND,
                           OP_SEND_I, OP_SLL, OP_SLLI, OP_SLT, OP_SLTI,
                           OP_SLTIU, OP_SLTU, OP_SRA, OP_SRAI, OP_SRL,
                           OP_SRLI, OP_SUB, OP_SW, OP_SYNC, OP_WAITI,
                           OP_WAITR, OP_XOR, OP_XORI)
from ..isa.program import Program
from ..isa.registers import RegisterFile, to_signed
from ..sim.config import SimulationConfig
from .config import CENTRAL_ADDRESS
from .message_unit import MessageUnit
from .sync_unit import SyncUnit
from .timer import AbsoluteTimer


#: Most classical instructions one pipeline activation executes.  It
#: bounds the work of one engine event, never timing: the next activation
#: lands on the cycle the executed instructions cost.
BATCH_LIMIT = 256

#: opcode -> does this instruction stall on a full TCU queue?
_IS_CW = [False] * 64
for _op in CW_OPS:
    _IS_CW[_op] = True


class HISQCore:
    """One control or readout board's digital part."""

    def __init__(self, name: str, address: int, engine, telf,
                 config: Optional[SimulationConfig] = None,
                 strict_timing: bool = False):
        self.name = name
        self.address = address
        self.engine = engine
        self.telf = telf
        #: Raw TELF sink, or None when recording is disabled (skips even
        #: the per-event tuple construction on the hot path).
        self._telf_raw = telf._raw if getattr(telf, "enabled", True) \
            else None
        self.config = config or SimulationConfig()
        #: Raise TimingViolation instead of counting it (used in tests).
        self.strict_timing = strict_timing

        self.regs = RegisterFile()
        self.sync_unit = SyncUnit(name)
        self.message_unit = MessageUnit(name)
        self.fabric = None  # wired by the system builder
        #: The TCU item queue; reset() clears it in place, because the
        #: pipeline loop's context holds it.
        self._items = deque()
        #: Prebound continuation callbacks (skip per-event bound-method
        #: creation; a subclass's override is what gets bound).
        self._pipeline_entry = self._pipeline_run
        self._tcu_loop_cb = self._tcu_loop
        self._delivered_cb = self._delivered
        # Empty until load(): an empty program has nothing to decode.
        self._install(Program(name=name), [])

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def load(self, program: Program) -> None:
        """Install a program, decode it and reset execution state.

        The core runs this decode: edits to ``program`` after ``load``
        take effect at the next ``load``."""
        self._install(program, decode_program(program).steps)

    def _install(self, program: Program, steps: list) -> None:
        self.program = program
        # The pipeline loop's per-activation constants.
        self._fast_ctx = (steps, len(steps), _IS_CW,
                          self.config.classical_cpi, self._push,
                          self._items, self.config.event_queue_depth)
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
        self._items.clear()
        #: Callback of a pipeline stalled on a full queue, run once the
        #: TCU pops below the depth.
        self._space_waiter = None
        #: Longest the queue has been after a push (observability only:
        #: the trajectory differs between the decoded and the reference
        #: interpreter, so it stays out of :meth:`counters`).
        self.queue_high_water = 0
        self._tcu_busy = False
        self._sync_state = None
        self._halted = False
        self._pipeline_blocked = False
        self._started = False
        self._recv_rd = 0
        self._recv_src = 0
        #: Cycle the outstanding recv completes; a message that reaches
        #: the MsgU earlier is held until then (:meth:`_delivered`).
        self._recv_ready = 0

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
        self._started = True
        self.engine.at(at, self._pipeline_entry)

    @property
    def halted(self) -> bool:
        """True once the pipeline has stopped fetching."""
        return self._halted

    @property
    def drained(self) -> bool:
        """True when the pipeline halted and the TCU has no pending work."""
        return self._halted and not self._items and \
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

    # ------------------------------------------------------------------
    # Classical pipeline
    # ------------------------------------------------------------------

    def _pipeline_run(self) -> None:
        """Decoded interpreter: one activation of the classical pipeline.

        Consumes the same per-activation instruction budget as the
        per-instruction reference, so continuations land on the same
        cycles and every observable (queue contents, counters, TELF,
        continuation timing) is byte-identical to it.
        """
        if self._halted or self._pipeline_blocked:
            return
        steps, nsteps, is_cw, cpi, push_item, items, depth = self._fast_ctx
        regs = self.regs
        engine = self.engine
        pc = self.pc
        position = self.position
        cost = 0
        executed = 0
        budget = BATCH_LIMIT
        while budget > 0:
            if not 0 <= pc < nsteps:
                self._halted = True
                self.pc = pc
                self.position = position
                self.instructions_executed += executed
                self._tcu_kick()
                return
            op, rd, rs1, rs2, imm, imm2 = steps[pc]
            if is_cw[op] and len(items) >= depth:
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

                self._space_waiter = lambda: engine.after(0, resume)
                return
            if op == OP_RECV:
                # Only one receive can be outstanding (the pipeline blocks
                # on it), so the operands ride on the core instead of a
                # fresh closure per recv.  The recv completes after the
                # activation's accumulated cost plus its own cycle; it
                # registers with the MsgU now, and _delivered holds an
                # earlier message until then.
                self._recv_rd = rd
                self._recv_src = imm
                self._recv_ready = engine.now + cost + cpi
                self.pc = pc + 1
                self.position = position
                self.instructions_executed += executed + 1
                self._pipeline_blocked = True
                self.message_unit.receive(imm, self._delivered_cb)
                return
            next_pc = pc + 1
            if op == OP_WAITI:
                position += imm
            elif op == OP_CW_II:
                push_item((position, ITEM_CW, imm, imm2))
            elif op == OP_SYNC:
                push_item((position, ITEM_SYNC_R if imm2 else ITEM_SYNC_N,
                           imm, imm2))
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
                push_item((position, ITEM_SEND, imm, regs.read(rs1)))
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
                push_item((position, ITEM_SEND, imm, imm2))
            elif op == OP_WAITR:
                position += to_signed(regs.read(rs1))
            elif op == OP_CW_IR:
                push_item((position, ITEM_CW, imm, regs.read(rs2)))
            elif op == OP_CW_RI:
                push_item((position, ITEM_CW, regs.read(rs1), imm2))
            elif op == OP_CW_RR:
                push_item((position, ITEM_CW, regs.read(rs1),
                           regs.read(rs2)))
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

    def _delivered(self, source, value) -> None:
        """A blocked receive's message arrived: write back and resync.

        A message that was already waiting when the recv executed, or
        that arrives before the recv completes, is held until the
        recv's completion cycle and handled then."""
        if self.engine.now < self._recv_ready:
            self.engine.at(self._recv_ready,
                           lambda: self._delivered(source, value))
            return
        self.regs.write(self._recv_rd, value)
        # External trigger: the TCU timer may not pass the current
        # position before the trigger arrival plus re-arm latency.
        # Broadcasts from the lock-step central controller re-arm the
        # timer *exactly* (common time base for all controllers).
        exact = self._recv_src == CENTRAL_ADDRESS
        earliest = self.engine.now + self.config.feedback_resync_cycles
        position = self.position
        if self._sync_state is None and not self._items:
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
            self._push((position, ITEM_RESYNC, earliest, exact))
        self._pipeline_blocked = False
        self.engine.after(self.config.classical_cpi, self._pipeline_entry)

    # ------------------------------------------------------------------
    # Timing control unit
    # ------------------------------------------------------------------

    def _push(self, item) -> None:
        """Append a timed item to the queue (the caller has checked for
        space), track the peak depth and start the TCU if it is idle."""
        items = self._items
        items.append(item)
        if len(items) > self.queue_high_water:
            self.queue_high_water = len(items)
        if not self._tcu_busy:
            self._tcu_busy = True
            self._tcu_loop()

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
        items = self._items
        popleft = items.popleft
        depth = self.config.event_queue_depth
        tcu_cb = self._tcu_loop_cb
        timer = self.timer
        telf_raw = self._telf_raw
        name = self.name
        while items:
            position, kind, a, b = items[0]
            if position < timer.position:
                self._violation(
                    "item at position {} is behind the timer cursor "
                    "{}".format(position, timer.position))
                position = timer.position
            if self._sync_state is not None and (
                    position >= self._sync_state["fence"] or
                    kind == ITEM_SYNC_N or kind == ITEM_SYNC_R):
                # Blocked until the in-flight sync resolves.
                break
            if kind != ITEM_RESYNC:
                # Inline wall_of/advance_to: ``position`` is already
                # clamped to the cursor, so ``wall_of`` cannot raise and
                # any excess of the (clamped) target over nominal is stall
                # time.
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
            popleft()
            waiter = self._space_waiter
            if waiter is not None and len(items) < depth:
                self._space_waiter = None
                waiter()
            if kind == ITEM_CW:
                self.codewords_emitted += 1
                self.last_event_time = target
                if telf_raw is not None:
                    telf_raw.append((target, name, "cw", a, b, ""))
                if self.fabric is not None:
                    self.fabric.emit_codeword(self, a, b)
            elif kind == ITEM_SEND:
                self.messages_sent += 1
                self.last_event_time = target
                if telf_raw is not None:
                    telf_raw.append((target, name, "msg_tx", a, b, ""))
                self.fabric.send_message(self, a, b)
            elif kind == ITEM_SYNC_N:
                self._book_nearby_sync(a, position, target)
            elif kind == ITEM_SYNC_R:
                self._book_region_sync(a, b, position, target)
            elif b:
                timer.realign_to(position, a)
            else:
                timer.advance_to(position, max(timer.wall_of(position), a))
        self._tcu_busy = False

    # -- BISP nearby (booking + two conditions, Figure 4) ------------------

    def _book_nearby_sync(self, target: int, position: int,
                          wall: int) -> None:
        countdown = self.fabric.sync_signal(self, target)
        self.telf.log(wall, self.name, "sync_book", port=target,
                      value=countdown)
        self._sync_state = {
            "port": target,
            "fence": position + countdown,
            "booked_time": wall + countdown,
        }
        # Condition I: the N-cycle countdown completes.
        self.engine.at(wall + countdown, self._nearby_count_done)

    def _nearby_count_done(self) -> None:
        # Condition II: the neighbor's signal must have been received.
        self.sync_unit.wait_for_signal(self._sync_state["port"],
                                       self._finish_sync)

    # -- BISP region (booked time-point + router Tm, section 4.3) ----------

    def _book_region_sync(self, group: int, delta: int, position: int,
                          wall: int) -> None:
        booked_time = wall + delta
        self.fabric.send_booking(self, group, booked_time)
        self.telf.log(wall, self.name, "sync_book", port=group,
                      value=booked_time)
        self._sync_state = {
            "port": group,
            "fence": position + delta,
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
        self.timer.advance_to(state["fence"], resume)
        self.syncs_completed += 1
        self.last_event_time = resume
        self.telf.log(resume, self.name, "sync_done", port=state["port"],
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
