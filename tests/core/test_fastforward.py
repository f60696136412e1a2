"""Fast-forward vs stepwise differential suite.

The pre-decoded fast path (basic-block replay in
:meth:`repro.core.node.HISQCore._pipeline_run`, which extends the TCU
queue with an admitted slice's ``(position, kind, a, b)`` items in one
call) must be *exactly* equivalent to
the per-instruction interpreter: same makespans, same per-core counters,
same TELF traces, same stall accounting — across every registered
synchronization scheme, a sample of registry workloads, and randomized
ISA programs.  :class:`reference_core.ReferenceCore` is that stepwise
interpreter, the reference behavior here; every reference run checks
that no fast block replayed.  Lane-parallel multishot is checked against
a fresh simulation per shot at the end.
"""

import random

import pytest

import repro.sim.system
from repro.compiler import schemes as scheme_registry
from repro.compiler.driver import (run_circuit, shot_device_seed,
                                   simulate_shot)
from repro.core.config import CoreConfig
from repro.core.node import HISQCore
from repro.harness import registry
from repro.isa import decoded
from repro.isa.assembler import assemble
from repro.isa.decoded import decode_program
from repro.sim import lanes
from repro.sim.engine import Engine
from repro.sim.telf import TelfLog
from repro.testing import random_clifford_circuit

from reference_core import ReferenceCore

#: replay_totals() of a run that replayed no fast block.
NO_REPLAY = {"vector": 0, "block": 0, "vector_items": 0}


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
    decoded.reset_replay_totals()
    with monkeypatch.context() as patch:
        if reference:
            patch.setattr(repro.sim.system, "HISQCore", ReferenceCore)
        result = run_circuit(circuit, scheme=scheme, backend=None,
                             record_gate_log=False, **kwargs)
    if reference:
        assert decoded.replay_totals() == NO_REPLAY
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
                      config=CoreConfig(event_queue_depth=depth))
    core.load(assemble(source))
    replays = decoded.replay_totals()
    core.start()
    engine.run(until=2_000_000)
    if reference:
        assert decoded.replay_totals() == replays
    return {
        "counters": core.counters(),
        "regs": core.regs.snapshot(),
        "memory": dict(core.memory),
        "pc": core.pc,
        "position": core.position,
        "queue_len": len(core._queue),
        "telf": list(telf._raw),
        "events": engine.events_processed,
        "now": engine.now,
    }


def _emission_program(seed: int) -> str:
    """Randomized program biased toward long emission runs, so replay
    batches actually form (and tiny queues must split them)."""
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
    """Randomized program whose fast blocks carry one to three codewords
    each (padded to block length with waits and nops, and split by ALU
    work), so every admitted slice takes the per-item path."""
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
        pipeline; the replay admission logic must fall back exactly."""
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
        """Long emission runs replay as batches; depth-2 queues force
        replay admission to split them and the pipeline to stall, and
        accounting must still agree."""
        source = _emission_program(2000 + seed)
        fast = _run_bare(source, reference=False, depth=depth)
        slow = _run_bare(source, reference=True, depth=depth)
        assert fast == slow

    @pytest.mark.parametrize("depth", (2, 1024))
    @pytest.mark.parametrize("seed", range(8))
    def test_short_slices(self, seed, depth):
        """Blocks carrying one to three codewords replay as slices of
        under four items, counted under ``block``."""
        source = _short_slice_program(3000 + seed)
        decoded.reset_replay_totals()
        fast = _run_bare(source, reference=False, depth=depth)
        totals = decoded.replay_totals()
        assert totals["block"] > 0
        assert totals["vector"] == totals["vector_items"] == 0
        slow = _run_bare(source, reference=True, depth=depth)
        assert fast == slow


class TestBatchedReplay:
    """The fast path must really replay long slices, not quietly fall
    back to stepwise execution."""

    def test_workload_replay_batches(self):
        """The CI perf-smoke assertion, in miniature."""
        spec = registry.get_workload("bv_n400").spec(0.04, 0.25)
        decoded.clear_decode_caches()
        decoded.reset_replay_totals()
        run_circuit(spec.circuit(), scheme="bisp", backend=None,
                    record_gate_log=False, mesh_kind=spec.mesh_kind)
        totals = decoded.replay_totals()
        assert totals["vector"] > 0
        assert totals["vector_items"] >= 4 * totals["vector"]

    def test_deep_queue_forms_batches(self):
        """With a roomy queue the emission programs replay long slices
        (otherwise the tiny-queue differential proves nothing)."""
        decoded.reset_replay_totals()
        _run_bare(_emission_program(3), reference=False)
        assert decoded.replay_totals()["vector"] > 0

    def test_per_program_counters(self):
        """One program's run moves the process-wide replay counters."""
        decoded.clear_decode_caches()
        source = "\n".join(["waiti 3\ncw.i.i 0,{}".format(i + 1)
                            for i in range(8)]) + "\nhalt"
        engine = Engine()
        core = HISQCore("c0", 0, engine, TelfLog())
        core.load(assemble(source))
        before = decoded.replay_totals()
        core.start()
        engine.run(until=100_000)
        after = decoded.replay_totals()
        assert after["vector"] - before["vector"] > 0
        assert after["vector_items"] - before["vector_items"] > 0
        assert core.counters()["codewords"] == 8

    def test_short_slice_pushes_items(self):
        """A slice of under four items is counted under
        ``replay_totals()["block"]`` and matches the stepwise loop."""
        source = "waiti 1\ncw.i.i 0,1\nwaiti 2\ncw.i.i 0,2\nhalt"
        decoded.clear_decode_caches()
        decoded.reset_replay_totals()
        fast = _run_bare(source, reference=False)
        assert decoded.replay_totals() == {"vector": 0, "block": 1,
                                           "vector_items": 0}
        assert fast == _run_bare(source, reference=True)

    def test_replay_counts_pinned(self):
        """Exact replay counts and summed makespans of a small grid: every
        scheme on two registry workloads at scale 0.05, plus one 4-shot
        recv-bearing cell whose lanes all replay.  A change to slice
        admission moves the counts even when every timing still agrees
        with the stepwise reference."""
        decoded.reset_replay_totals()
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
        assert decoded.replay_totals() == {"vector": 1150, "block": 478,
                                           "vector_items": 8762}
        assert makespans == 73071


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
        decoded.reset_replay_totals()
        slow = run_circuit(circuit, scheme="bisp", backend=None,
                           record_gate_log=False, shots=3,
                           mesh_kind=spec.mesh_kind)
        assert decoded.replay_totals() == NO_REPLAY
        assert slow.lane_mode == "fastforward"
        assert lanes.lane_totals() == {"fastforward": 2, "replayed": 0}
        assert slow.shot_stats == fast.shot_stats


class TestDecodeOnLoad:
    def test_reference_never_decodes(self):
        """The stepwise reference interprets the program as written:
        loading and running it leaves the decode caches untouched."""
        decoded.clear_decode_caches()
        engine = Engine()
        core = ReferenceCore("c0", 0, engine, TelfLog())
        core.load(assemble("waiti 5\ncw.i.i 0,1\nhalt"))
        core.start()
        engine.run(until=10_000)
        assert core.counters()["codewords"] == 1
        assert decoded.decode_cache_stats()["by_content"] == 0

    def test_decode_cache_shared_across_loads(self):
        program = assemble("waiti 5\ncw.i.i 0,1\nwaiti 4\ncw.i.i 0,2\nhalt")
        first = decode_program(program)
        assert decode_program(program) is first

    def test_start_revalidates_after_append(self):
        """Programs edited after load() are re-decoded at start()."""
        program = assemble("waiti 5\nhalt")
        engine = Engine()
        core = HISQCore("c0", 0, engine, TelfLog())
        core.load(program)
        program.instructions.pop()  # drop halt
        program.extend(assemble("cw.i.i 0,7\nhalt").instructions)
        core.start()
        engine.run(until=10_000)
        assert core.counters()["codewords"] == 1

    def test_start_revalidates_same_length_swap(self):
        """Same-length in-place element replacement is caught too."""
        program = assemble("waiti 5\ncw.i.i 0,1\nwaiti 9\ncw.i.i 0,2\nhalt")
        engine = Engine()
        core = HISQCore("c0", 0, engine, TelfLog())
        core.load(program)
        # Swap one emission for a wait without changing the length.
        program.instructions[3] = assemble("waiti 11\nhalt").instructions[0]
        core.start()
        engine.run(until=10_000)
        assert core.counters()["codewords"] == 1
        assert core.position == 25
