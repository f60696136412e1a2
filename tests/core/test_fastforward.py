"""Decoded pipeline vs stepwise reference differential suite.

The decoded pipeline loop (:meth:`repro.core.node.HISQCore._pipeline_run`,
which dispatches on pre-decoded opcode tuples and registers a ``recv``
with the MsgU as soon as it executes) must be *exactly* equivalent to
the per-instruction interpreter: same makespans, same per-core counters,
same TELF traces, same stall accounting — across every registered
synchronization scheme, a sample of registry workloads, randomized ISA
programs, and messages that reach a receiver before, on and after the
cycle its ``recv`` completes.  :class:`reference_core.ReferenceCore` is
that stepwise interpreter, the reference behavior here; it schedules
each receive as an engine event.  Lane-parallel multishot is checked
against a fresh simulation per shot at the end.
"""

import random

import pytest

import repro.sim.system
from repro.compiler import schemes as scheme_registry
from repro.compiler.driver import (run_circuit, shot_device_seed,
                                   simulate_shot)
from repro.core.config import ANY_SOURCE, CENTRAL_ADDRESS
from repro.core.message_unit import MessageUnit
from repro.core.node import HISQCore
from repro.harness import registry
from repro.isa import decoded
from repro.isa.assembler import assemble
from repro.sim import ControlSystem, SimulationConfig, lanes
from repro.sim.engine import Engine
from repro.sim.telf import TelfLog
from repro.testing import random_clifford_circuit

from reference_core import ReferenceCore


def _fingerprint(result):
    """Everything observable about one timing run."""
    system = result.system
    return {
        "makespan": result.makespan_cycles,
        "per_core": {name: dict(counters) for name, counters in
                     result.stats.per_core.items()},
        "sync_stall": result.stats.sync_stall_cycles,
        "violations": result.stats.timing_violations,
        "telf": list(system.telf._raw),
        "skew_events": system.device.gate_skew_events,
        "unmapped": system.unmapped_codewords,
    }


def _run(circuit, scheme, monkeypatch, reference, **kwargs):
    with monkeypatch.context() as patch:
        if reference:
            patch.setattr(repro.sim.system, "HISQCore", ReferenceCore)
        result = run_circuit(circuit, scheme=scheme, backend=None,
                             record_gate_log=False, **kwargs)
    return _fingerprint(result)


class TestWorkloadDifferential:
    """Every registered scheme x a sample of registry workloads."""

    WORKLOADS = ("bv_n400", "logical_t_n432", "qft_n300", "repetition_d25")

    @pytest.mark.parametrize("scheme", scheme_registry.scheme_names())
    @pytest.mark.parametrize("workload", WORKLOADS)
    def test_fastforward_matches_stepwise(self, scheme, workload,
                                          monkeypatch):
        spec = registry.get_workload(workload).spec(0.04, 0.25)
        circuit = spec.circuit()
        fast = _run(circuit, scheme, monkeypatch, reference=False,
                    mesh_kind=spec.mesh_kind)
        slow = _run(circuit, scheme, monkeypatch, reference=True,
                    mesh_kind=spec.mesh_kind)
        assert fast == slow

    @pytest.mark.parametrize("qubits,depth,seed",
                             [(8, 60, 20260730), (8, 60, 20260808),
                              (12, 40, 20261016)])
    def test_random_dynamic_circuit_all_schemes(self, qubits, depth, seed,
                                                monkeypatch):
        circuit = random_clifford_circuit(qubits, depth, seed=seed,
                                          feedback=True)
        for scheme in scheme_registry.scheme_names():
            fast = _run(circuit, scheme, monkeypatch, reference=False)
            slow = _run(circuit, scheme, monkeypatch, reference=True)
            assert fast == slow, scheme


def _random_program(seed: int) -> str:
    """Randomized single-core HISQ program exercising the decoded paths.

    Mixes timeline ops (waits, codeword emissions), ALU work, memory
    spills and bounded branch loops — everything the fast interpreter
    dispatches except the fabric-dependent sync/send/recv ops (covered by
    the workload differential above).
    """
    rng = random.Random(seed)
    lines = []
    # A bounded countdown loop: $1 iterations of a small body.
    lines.append("addi $1,$0,{}".format(rng.randint(1, 5)))
    for _ in range(rng.randint(5, 40)):
        roll = rng.random()
        if roll < 0.35:
            lines.append("waiti {}".format(rng.randint(1, 50)))
        elif roll < 0.7:
            lines.append("cw.i.i {},{}".format(rng.randint(0, 3),
                                               rng.randint(1, 200)))
        elif roll < 0.78:
            lines.append("addi $2,$2,{}".format(rng.randint(-4, 9)))
        elif roll < 0.84:
            lines.append("sw $2,{}($0)".format(4 * rng.randint(0, 7)))
            lines.append("lw $3,{}($0)".format(4 * rng.randint(0, 7)))
        elif roll < 0.9:
            lines.append("slli $4,$2,2")
            lines.append("xor $5,$4,$2")
        else:
            lines.append("nop")
    # Loop tail: decrement and branch back a few instructions (the
    # assembler takes byte offsets, 4 per instruction).
    body_len = min(rng.randint(2, 6), len(lines) - 1)
    lines.append("addi $1,$1,-1")
    lines.append("bne $1,$0,-{}".format(4 * body_len))
    lines.append("halt")
    return "\n".join(lines)


def _run_bare(source: str, reference: bool, depth: int = 1024):
    engine = Engine()
    telf = TelfLog()
    core_class = ReferenceCore if reference else HISQCore
    core = core_class("c0", 0, engine, telf,
                      config=SimulationConfig(event_queue_depth=depth))
    core.load(assemble(source))
    core.start()
    engine.run(until=2_000_000)
    return {
        "counters": core.counters(),
        "regs": core.regs.snapshot(),
        "memory": dict(core.memory),
        "pc": core.pc,
        "position": core.position,
        "queue_len": len(core._items),
        "telf": list(telf._raw),
        "events": engine.events_processed,
        "now": engine.now,
    }


def _emission_program(seed: int) -> str:
    """Randomized program biased toward long emission runs, which
    tiny queues must split with pipeline stalls."""
    rng = random.Random(seed)
    lines = []
    lines.append("addi $1,$0,{}".format(rng.randint(1, 5)))
    for _ in range(rng.randint(8, 50)):
        roll = rng.random()
        if roll < 0.3:
            lines.append("waiti {}".format(rng.randint(1, 50)))
        elif roll < 0.75:
            lines.append("cw.i.i {},{}".format(rng.randint(0, 3),
                                               rng.randint(1, 200)))
        elif roll < 0.82:
            lines.append("cw.i.i {},{}".format(rng.randint(4, 7),
                                               rng.randint(1, 200)))
        elif roll < 0.88:
            lines.append("addi $2,$2,{}".format(rng.randint(-4, 9)))
        else:
            lines.append("nop")
    body_len = min(rng.randint(2, 6), len(lines) - 1)
    lines.append("addi $1,$1,-1")
    lines.append("bne $1,$0,-{}".format(4 * body_len))
    lines.append("halt")
    return "\n".join(lines)


def _short_slice_program(seed: int) -> str:
    """Randomized program of short timeline runs carrying one to three
    codewords each (padded with waits and nops, and split by ALU
    work)."""
    rng = random.Random(seed)
    lines = ["addi $1,$0,{}".format(rng.randint(1, 4))]
    for _ in range(rng.randint(3, 12)):
        run = ["cw.i.i {},{}".format(rng.randint(0, 7), rng.randint(1, 200))
               for _ in range(rng.randint(1, 3))]
        length = rng.randint(4, 7)
        while len(run) < length:
            run.append("waiti {}".format(rng.randint(1, 40))
                       if rng.random() < 0.7 else "nop")
        rng.shuffle(run)
        lines.extend(run)
        lines.append("addi $2,$2,{}".format(rng.randint(-4, 9)))
    body_len = min(rng.randint(2, 9), len(lines) - 1)
    lines.append("addi $1,$1,-1")
    lines.append("bne $1,$0,-{}".format(4 * body_len))
    lines.append("halt")
    return "\n".join(lines)


class TestRandomProgramProperty:
    """Property: decoded execution == stepwise execution, instruction-exact."""

    @pytest.mark.parametrize("seed", range(25))
    def test_random_programs(self, seed):
        source = _random_program(seed)
        fast = _run_bare(source, reference=False)
        slow = _run_bare(source, reference=True)
        assert fast == slow

    @pytest.mark.parametrize("seed", range(8))
    def test_random_programs_tiny_queue(self, seed):
        """Queue-full stalls must account identically in both modes."""
        source = _random_program(1000 + seed)
        fast = _run_bare(source, reference=False, depth=2)
        slow = _run_bare(source, reference=True, depth=2)
        assert fast == slow

    def test_burst_emissions_tiny_queue(self):
        """Back-to-back codewords through a depth-2 queue stall the
        pipeline at exactly the reference's instructions."""
        lines = []
        for i in range(40):
            lines.append("cw.i.i 0,{}".format(i + 1))
            if i % 2 == 0:
                lines.append("waiti 100")
        lines.append("halt")
        source = "\n".join(lines)
        fast = _run_bare(source, reference=False, depth=2)
        slow = _run_bare(source, reference=True, depth=2)
        assert fast == slow
        assert fast["counters"]["pipeline_stall"] > 0

    @pytest.mark.parametrize("depth", (2, 1024))
    @pytest.mark.parametrize("seed", range(15))
    def test_emission_runs(self, seed, depth):
        """Long emission runs; depth-2 queues force the pipeline to
        stall inside them, and accounting must still agree."""
        source = _emission_program(2000 + seed)
        fast = _run_bare(source, reference=False, depth=depth)
        slow = _run_bare(source, reference=True, depth=depth)
        assert fast == slow

    @pytest.mark.parametrize("depth", (2, 1024))
    @pytest.mark.parametrize("seed", range(8))
    def test_short_slices(self, seed, depth):
        """Short timeline runs split by ALU work."""
        source = _short_slice_program(3000 + seed)
        fast = _run_bare(source, reference=False, depth=depth)
        slow = _run_bare(source, reference=True, depth=depth)
        assert fast == slow


class TestPinnedGrid:
    """Deterministic work counts of a small grid, pinned exactly."""

    def test_events_and_makespans_pinned(self, monkeypatch):
        """Summed engine events and makespans of every scheme on two
        registry workloads at scale 0.05, plus one 4-shot recv-bearing
        cell whose lanes all replay.  A change that adds or drops engine
        events moves the count even when every timing still agrees with
        the stepwise reference."""
        events = []
        run = ControlSystem.run

        def counted_run(system, *args, **kwargs):
            stats = run(system, *args, **kwargs)
            events.append(stats.events_processed)
            return stats

        monkeypatch.setattr(ControlSystem, "run", counted_run)
        makespans = 0
        for workload in ("bv_n400", "logical_t_n432"):
            spec = registry.get_workload(workload).spec(0.05)
            circuit = spec.circuit()
            for scheme in scheme_registry.scheme_names():
                result = run_circuit(circuit, scheme=scheme, backend=None,
                                     record_gate_log=False,
                                     mesh_kind=spec.mesh_kind)
                makespans += result.makespan_cycles
        spec = registry.get_workload("qft_n300").spec(0.05)
        result = run_circuit(spec.circuit(), scheme="lockstep", backend=None,
                             record_gate_log=False, shots=4,
                             mesh_kind=spec.mesh_kind)
        assert result.lane_mode == "replay"
        makespans += sum(result.shot_makespans)
        assert makespans == 73071
        assert sum(events) == 28232


#: What each receive-hold program's ``recv`` names as its source: one
#: concrete sender, any sender, or the lock-step central broadcast.
RECV_SOURCES = ("concrete", "any", "central")


def _recv_programs(source: str, pad: int, seed: int) -> dict:
    """Assembly per controller of a 3-core line: senders ``waiti`` a
    random time and then send; each receiver runs ``pad`` ALU
    instructions before its first ``recv``, so sweeping ``pad`` moves the
    recv's completion cycle across the message's arrival."""
    rng = random.Random(seed)

    def sender(destination, value):
        return ["waiti {}".format(rng.randint(0, 24)),
                "send.i {},{}".format(destination, value),
                "waiti {}".format(rng.randint(1, 5)), "cw.i.i 0,1", "halt"]

    def receiver(src, recvs):
        lines = []
        if rng.random() < 0.5:
            # Items still queued at the TCU: the resync goes through it.
            lines += ["waiti {}".format(rng.randint(1, 30)), "cw.i.i 0,2"]
        lines += ["addi $3,$3,1"] * pad
        for _ in range(recvs):
            lines += ["recv $5,{}".format(src), "cw.i.r 1,$5",
                      "waiti {}".format(rng.randint(0, 6))]
        return lines + ["cw.i.i 2,9", "halt"]

    if source == "concrete":
        programs = {0: sender(2, 11), 2: receiver(0, 1)}
    elif source == "any":
        # Two messages for two receives: the second is often already
        # waiting when its recv executes.
        programs = {0: sender(2, 11), 1: sender(2, 12),
                    2: receiver(ANY_SOURCE, 2)}
    else:
        programs = {0: sender(CENTRAL_ADDRESS, 11),
                    1: receiver(CENTRAL_ADDRESS, 1),
                    2: receiver(CENTRAL_ADDRESS, 1)}
    return {address: "\n".join(lines)
            for address, lines in programs.items()}


def _run_recv_system(programs: dict) -> dict:
    system = ControlSystem(3, mesh_kind="line", record_gate_log=False)
    for address, source in programs.items():
        system.load_program(address, assemble(source))
    stats = system.run()
    return {
        "makespan": stats.makespan_cycles,
        "per_core": {name: dict(counters) for name, counters in
                     stats.per_core.items()},
        "telf": list(system.telf._raw),
        "regs": {address: core.regs.snapshot()
                 for address, core in system.cores.items()},
    }


class TestRecvHold:
    """A ``recv`` registers with the MsgU when it executes; a message
    that is already waiting, or arrives before the cycle the recv
    completes, is held until that cycle.  Neither benchmark grid reaches
    the hold (every message there arrives later), so these programs aim
    messages before, on and after the completion cycle and compare each
    run with ``ReferenceCore``, which registers the receive from a
    scheduled event."""

    @pytest.mark.parametrize("source", RECV_SOURCES)
    def test_matches_reference(self, source, monkeypatch):
        handed = {}
        receiving = []
        delivered = HISQCore._delivered
        receive = MessageUnit.receive

        def spy_delivered(core, src, value):
            # Classify each message on its first hand-over to the core.
            key = (core.name, value)
            if key not in handed:
                lag = core.engine.now - core._recv_ready
                handed[key] = ("waiting" if receiving else
                               "before" if lag < 0 else
                               "on" if lag == 0 else "after")
            delivered(core, src, value)

        def spy_receive(unit, src, callback):
            receiving.append(unit)
            try:
                receive(unit, src, callback)
            finally:
                receiving.pop()

        monkeypatch.setattr(HISQCore, "_delivered", spy_delivered)
        monkeypatch.setattr(MessageUnit, "receive", spy_receive)
        seen = set()
        for pad in range(48):
            programs = _recv_programs(source, pad, seed=pad)
            handed.clear()
            fast = _run_recv_system(programs)
            seen.update(handed.values())
            with monkeypatch.context() as patch:
                patch.setattr(repro.sim.system, "HISQCore", ReferenceCore)
                slow = _run_recv_system(programs)
            assert fast == slow, (source, pad)
        assert {"before", "on", "after"} <= seen, seen
        if source == "any":
            assert "waiting" in seen, seen

    @pytest.mark.parametrize("arrival", (0, 3, 4, 5, 6, 9))
    def test_bare_core_events(self, arrival):
        """A bare core whose recv completes at cycle 5 (four ALU
        instructions, then the recv's own cycle) gets its message at
        ``arrival``.  The decoded core schedules no registration event,
        so it runs one event fewer than the reference, unless the
        message arrived before cycle 5 and was held by one event."""
        runs = {}
        for core_class in (HISQCore, ReferenceCore):
            engine = Engine()
            telf = TelfLog()
            core = core_class("c0", 0, engine, telf)
            core.load(assemble("addi $3,$3,1\n" * 4 +
                               "recv $5,7\ncw.i.r 0,$5\nhalt"))
            engine.at(arrival, lambda core=core: core.deliver_message(7, 42))
            core.start()
            engine.run()
            runs[core_class] = (core, engine)
        (fast, fast_engine), (slow, slow_engine) = runs.values()
        assert fast._recv_ready == 5
        assert fast.counters() == slow.counters()
        assert fast.regs.snapshot() == slow.regs.snapshot()
        assert fast.telf._raw == slow.telf._raw
        assert (fast_engine.now, fast.drained) == (slow_engine.now, True)
        held = int(arrival < fast._recv_ready)
        assert slow_engine.events_processed - \
            fast_engine.events_processed == 1 - held


class TestLaneDifferential:
    """Every multishot lane, fast-forwarded or replayed, against one
    fresh :func:`~repro.compiler.driver.simulate_shot` per shot."""

    @pytest.mark.parametrize("workload", ("qft_n300", "bv_n400"))
    @pytest.mark.parametrize("subst", (0.0, 0.25))
    def test_lanes_match_replay(self, workload, subst):
        spec = registry.get_workload(workload).spec(0.04, subst)
        circuit = spec.circuit()
        for scheme in scheme_registry.scheme_names():
            result = run_circuit(circuit, scheme=scheme, backend=None,
                                 record_gate_log=False, shots=4,
                                 device_seed=12345,
                                 mesh_kind=spec.mesh_kind)
            oracle = [simulate_shot(result.compilation,
                                    shot_device_seed(12345, s))
                      for s in range(4)]
            assert result.shot_stats == oracle, (scheme, workload)
            expected = ("fastforward"
                        if lanes.static_timing(result.compilation)
                        else "replay")
            assert result.lane_mode == expected, (scheme, workload)

    def test_static_detection(self):
        static_spec = registry.get_workload("qft_n300").spec(0.04, 0.0)
        dynamic_spec = registry.get_workload("qft_n300").spec(0.04, 0.25)
        static = run_circuit(static_spec.circuit(), scheme="bisp",
                             backend=None, record_gate_log=False)
        dynamic = run_circuit(dynamic_spec.circuit(), scheme="bisp",
                              backend=None, record_gate_log=False)
        assert lanes.static_timing(static.compilation)
        assert not lanes.static_timing(dynamic.compilation)

    def test_fastforward_engages_on_static_set(self):
        """qft at zero substitution compiles recv-free under bisp — the
        lane engine must actually fan it out, not fall back to replay."""
        lanes.reset_lane_totals()
        spec = registry.get_workload("qft_n300").spec(0.04, 0.0)
        result = run_circuit(spec.circuit(), scheme="bisp", backend=None,
                             record_gate_log=False, shots=5,
                             mesh_kind=spec.mesh_kind)
        assert result.lane_mode == "fastforward"
        assert lanes.lane_totals()["fastforward"] == 4
        assert len(result.shot_stats) == 5
        seeds = {s["device_seed"] for s in result.shot_stats}
        assert len(seeds) == 5

    def test_reference_core_keeps_lanes(self, monkeypatch):
        """The reference swaps the interpreter, not the lane mode: a
        static set still fast-forwards, to the same stats."""
        spec = registry.get_workload("qft_n300").spec(0.04, 0.0)
        circuit = spec.circuit()
        fast = run_circuit(circuit, scheme="bisp", backend=None,
                           record_gate_log=False, shots=3,
                           mesh_kind=spec.mesh_kind)
        monkeypatch.setattr(repro.sim.system, "HISQCore", ReferenceCore)
        lanes.reset_lane_totals()
        slow = run_circuit(circuit, scheme="bisp", backend=None,
                           record_gate_log=False, shots=3,
                           mesh_kind=spec.mesh_kind)
        assert slow.lane_mode == "fastforward"
        assert lanes.lane_totals() == {"fastforward": 2, "replayed": 0}
        assert slow.shot_stats == fast.shot_stats


def _append_emission(program):
    program.instructions.pop()  # drop halt
    program.extend(assemble("cw.i.i 0,7\nhalt").instructions)


def _swap_emission_for_wait(program):
    # Same length, one element replaced in place.
    program.instructions[3] = assemble("waiti 11\nhalt").instructions[0]


#: edit -> (source, edit function, (codewords, position) of the program as
#: loaded, the same after the edit).
EDITS = {
    "append": ("waiti 5\nhalt", _append_emission, (0, 5), (1, 5)),
    "swap": ("waiti 5\ncw.i.i 0,1\nwaiti 9\ncw.i.i 0,2\nhalt",
             _swap_emission_for_wait, (2, 14), (1, 25)),
}


class TestDecodeOnLoad:
    def test_reference_never_decodes(self):
        """The stepwise reference interprets the program as written:
        building, loading and running it decodes nothing."""
        before = decoded.decode_cache_stats()["misses"]
        engine = Engine()
        core = ReferenceCore("c0", 0, engine, TelfLog())
        core.load(assemble("waiti 5\ncw.i.i 0,1\nhalt"))
        core.start()
        engine.run(until=10_000)
        assert core.counters()["codewords"] == 1
        assert decoded.decode_cache_stats()["misses"] == before

    def test_unloaded_core_decodes_nothing(self):
        """A core holds an empty program until load(); building it makes
        no decode_program call, and started anyway it halts at once."""
        def calls():
            stats = decoded.decode_cache_stats()
            return stats["pin_hits"] + stats["content_hits"] + stats["misses"]

        before = calls()
        engine = Engine()
        core = HISQCore("c0", 0, engine, TelfLog())
        assert len(core.program) == 0 and calls() == before
        core.start()
        engine.run(until=10)
        assert core.halted and core.drained
        assert core.counters()["instructions"] == 0

    @pytest.mark.parametrize("edit", sorted(EDITS))
    def test_start_runs_program_as_loaded(self, edit):
        """A core runs the decode load() made: an edit between load()
        and start() does not reach the pipeline."""
        source, apply_edit, as_loaded, _ = EDITS[edit]
        program = assemble(source)
        engine = Engine()
        core = HISQCore("c0", 0, engine, TelfLog())
        core.load(program)
        apply_edit(program)
        core.start()
        engine.run(until=10_000)
        assert (core.counters()["codewords"], core.position) == as_loaded

    @pytest.mark.parametrize("edit", sorted(EDITS))
    def test_second_load_picks_up_edit(self, edit):
        """Loading the edited program again runs the edit, a same-length
        in-place swap included."""
        source, apply_edit, _, edited = EDITS[edit]
        program = assemble(source)
        engine = Engine()
        core = HISQCore("c0", 0, engine, TelfLog())
        core.load(program)
        apply_edit(program)
        core.load(program)
        core.start()
        engine.run(until=10_000)
        assert (core.counters()["codewords"], core.position) == edited
