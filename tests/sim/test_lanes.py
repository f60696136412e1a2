"""Unit tests for the lane engine (:mod:`repro.sim.lanes`).

End-to-end lane/replay equivalence lives in
tests/core/test_fastforward.py; this file covers the building blocks:
static-timing detection, memoization, fast-forward stat fan-out, seed
derivation, the counters, and the in-place ``ControlSystem.reset`` that
replayed lanes run on (differential against a fresh build per shot).
"""

import dataclasses
import types
from collections import deque

import numpy as np
import pytest

from repro.compiler import schemes as scheme_registry
from repro.compiler.driver import (compile_circuit, run_circuit,
                                   shot_device_seed, simulate_shot)
from repro.core.message_unit import MessageUnit
from repro.core.sync_unit import SyncUnit
from repro.core.timer import AbsoluteTimer
from repro.errors import ExecutionError
from repro.harness import registry
from repro.isa.registers import RegisterFile
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.stabilizer import StabilizerBackend
from repro.sim import lanes
from repro.sim.device import QubitActivity


def _static_circuit():
    """No measurements: `measure` lowers to a `recv` from the
    acquisition unit, which (conservatively) marks timing dynamic."""
    circuit = QuantumCircuit(3, 3, name="static")
    circuit.h(0)
    circuit.cx(0, 1)
    circuit.cx(1, 2)
    circuit.h(2)
    circuit.cx(0, 2)
    return circuit


def _feedback_circuit():
    circuit = QuantumCircuit(3, 3, name="feedback")
    circuit.h(0)
    circuit.measure(0, 0)
    circuit.x(1, condition=(0, 1))
    circuit.cx(1, 2)
    circuit.measure(1, 1)
    circuit.measure(2, 2)
    return circuit


class TestStaticTiming:
    def test_static_circuit_detected(self):
        assert lanes.static_timing(compile_circuit(_static_circuit()))

    def test_feedback_circuit_not_static(self):
        assert not lanes.static_timing(compile_circuit(_feedback_circuit()))

    def test_measurement_alone_not_static(self):
        """Even unconditioned measurement reads the acquisition unit via
        recv; the conservative scan refuses to fast-forward it."""
        circuit = QuantumCircuit(2, 2, name="measured")
        circuit.h(0)
        circuit.cx(0, 1)
        circuit.measure(0, 0)
        circuit.measure(1, 1)
        assert not lanes.static_timing(compile_circuit(circuit))

    def test_result_memoized_on_compilation(self):
        compilation = compile_circuit(_static_circuit())
        assert not hasattr(compilation, "_lanes_static")
        first = lanes.static_timing(compilation)
        assert compilation._lanes_static is first
        compilation.programs = {}  # would change a fresh scan's answer
        assert lanes.static_timing(compilation) is first


class TestRunExtraShots:
    def test_single_shot_is_empty(self):
        compilation = compile_circuit(_static_circuit())
        rest, mode = lanes.run_extra_shots(compilation, 1234, 1)
        assert rest == []

    def test_fastforward_fans_out_reference(self):
        compilation = compile_circuit(_static_circuit())
        first = {"device_seed": 1234, "makespan_cycles": 777,
                 "sync_stall_cycles": 42}
        rest, mode = lanes.run_extra_shots(compilation, 1234, 4,
                                           first=first)
        assert mode == "fastforward"
        assert [s["makespan_cycles"] for s in rest] == [777, 777, 777]
        assert [s["sync_stall_cycles"] for s in rest] == [42, 42, 42]
        assert [s["device_seed"] for s in rest] == \
               [shot_device_seed(1234, s) for s in (1, 2, 3)]

    def test_fastforward_matches_real_replay(self):
        compilation = compile_circuit(_static_circuit())
        fast, mode = lanes.run_extra_shots(compilation, 1234, 3)
        assert mode == "fastforward"
        assert fast == [simulate_shot(compilation, shot_device_seed(1234, s))
                        for s in (1, 2)]

    def test_dynamic_compilation_replays(self):
        compilation = compile_circuit(_feedback_circuit())
        rest, mode = lanes.run_extra_shots(compilation, 1234, 3)
        assert mode == "replay"
        assert len(rest) == 2
        assert all(s["makespan_cycles"] > 0 for s in rest)

    def test_counters(self):
        lanes.reset_lane_totals()
        first = {"device_seed": 1, "makespan_cycles": 1,
                 "sync_stall_cycles": 0}
        lanes.run_extra_shots(compile_circuit(_static_circuit()), 1, 5,
                              first=first)
        lanes.run_extra_shots(compile_circuit(_feedback_circuit()), 1, 3)
        assert lanes.lane_totals() == {"fastforward": 4, "replayed": 2}


class TestSeedDerivation:
    def test_shot_zero_keeps_base_seed(self):
        assert shot_device_seed(1234, 0) == 1234

    def test_distinct_and_deterministic(self):
        seeds = [shot_device_seed(1234, s) for s in range(64)]
        assert len(set(seeds)) == 64
        assert seeds == [shot_device_seed(1234, s) for s in range(64)]
        assert all(0 <= s <= 0x7FFFFFFF for s in seeds)


#: Recv-bearing registry workloads (the ``multishot_dynamic`` set).
DYNAMIC_WORKLOADS = ("logical_t_n864", "repetition_d75", "qaoa_n150",
                     "bv_n1000")
SCALE = 0.05


def _compile(workload, scheme, substitution=0.25):
    spec = registry.get_workload(workload).spec(SCALE, substitution)
    return compile_circuit(spec.circuit(), scheme=scheme,
                           mesh_kind=spec.mesh_kind)


def _timing_only(compilation, seed):
    return compilation.build_system(backend=None, device_seed=seed,
                                    record_gate_log=False, record_telf=False)


def _fingerprint(system, stats):
    """Everything a shot observably produced."""
    return (vars(stats), system.device.lifetimes_ns(),
            {address: (router.bookings_handled, router.broadcasts_sent,
                       router.abandoned_epochs)
             for address, router in system.routers.items()},
            system.abandoned_sync_epochs)


def _fresh_fingerprint(compilation, seed):
    system = _timing_only(compilation, seed)
    return _fingerprint(system, system.run())


#: Run-state objects a component owns outright; their state is compared
#: attribute by attribute.  Any other object is wiring (engine, fabric,
#: programs) and compares by type only.
_OWNED = (SyncUnit, MessageUnit, AbsoluteTimer, QubitActivity)


def _state(value):
    """Identity-free, comparable view of ``value``."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, np.random.Generator):
        return value.bit_generator.state
    if isinstance(value, RegisterFile):
        return value.snapshot()
    if isinstance(value, _OWNED):
        return type(value).__name__, _state(vars(value))
    if isinstance(value, types.MethodType):
        return "method", value.__func__.__qualname__
    if isinstance(value, types.BuiltinMethodType):
        return "builtin", value.__name__, _state(value.__self__)
    if isinstance(value, (list, tuple, deque)):
        return type(value).__name__, [_state(item) for item in value]
    if isinstance(value, dict):
        factory = getattr(value, "default_factory", None)
        return (type(value).__name__, getattr(factory, "__name__", None),
                {key: _state(item) for key, item in value.items()})
    if dataclasses.is_dataclass(value):
        return value
    return type(value).__name__


def _components(system):
    yield "system", system
    yield "engine", system.engine
    yield "device", system.device
    for address, core in system.cores.items():
        yield "core {}".format(address), core
    for address, router in system.routers.items():
        yield "router {}".format(address), router


def _assert_fresh_components(system, fresh):
    """Every component of ``system`` holds the same state as its
    counterpart in the freshly built ``fresh``."""
    for (label, reused), (_, built) in zip(_components(system),
                                           _components(fresh)):
        assert _state(vars(reused)) == _state(vars(built)), label


class TestReusedLanesMatchFreshBuilds:
    """``run_extra_shots`` replays dynamic lanes on one system rewound
    with ``ControlSystem.reset``; a fresh build per shot is the oracle."""

    @pytest.mark.parametrize("scheme", scheme_registry.scheme_names())
    @pytest.mark.parametrize("workload", DYNAMIC_WORKLOADS)
    def test_reset_matches_fresh_build(self, workload, scheme):
        compilation = _compile(workload, scheme)
        assert not lanes.static_timing(compilation)
        system = _timing_only(compilation, 1)
        # A bounded first run strands in-flight state for reset to drop.
        system.run(until=200)
        for seed in (7, 1234):
            system.reset(seed)
            assert _fingerprint(system, system.run()) == \
                _fresh_fingerprint(compilation, seed), seed

    def test_reset_drops_inflight_state(self):
        compilation = _compile("bv_n1000", "bisp")
        system = _timing_only(compilation, 5)
        system.run(until=100)
        cores = system.cores.values()
        assert system.engine.pending
        assert any(core._items for core in cores)
        assert any(core.message_unit._waiter or core.sync_unit._flag_waiter
                   or core.sync_unit._tm_waiter or core._space_waiter
                   for core in cores)
        assert any(router._pending or router._inbound or router._up
                   or router._down for router in system.routers.values())
        system.reset(99)
        _assert_fresh_components(system, _timing_only(compilation, 99))
        assert _fingerprint(system, system.run()) == \
            _fresh_fingerprint(compilation, 99)

    def test_reset_after_full_run_leaves_fresh_components(self):
        compilation = _compile("qaoa_n150", "lockstep")
        system = _timing_only(compilation, 8)
        system.run()
        system.reset(21)
        _assert_fresh_components(system, _timing_only(compilation, 21))

    def test_run_extra_shots_matches_fresh_oracle(self):
        compilation = _compile("qaoa_n150", "bisp")
        rest, mode = lanes.run_extra_shots(compilation, 1234, 5)
        assert mode == "replay"
        assert rest == [simulate_shot(compilation, shot_device_seed(1234, s))
                        for s in range(1, 5)]
        bounded, _ = lanes.run_extra_shots(compilation, 1234, 3, until=150)
        assert bounded == [
            simulate_shot(compilation, shot_device_seed(1234, s), until=150)
            for s in range(1, 3)]

    def test_recv_free_router_state_crosses_reset(self):
        """Recv-free programs (the lane fast-forward class) book region
        syncs through the router cascade too; a reset mid-epoch must drop
        the partial booking buckets."""
        compilation = _compile("qft_n300", "bisp", substitution=0.0)
        assert lanes.static_timing(compilation)
        system = _timing_only(compilation, 3)
        system.run(until=100)
        assert any(router._pending for router in system.routers.values())
        system.reset(4)
        _assert_fresh_components(system, _timing_only(compilation, 4))
        reused = _fingerprint(system, system.run())
        assert reused == _fresh_fingerprint(compilation, 4)
        assert any(router.broadcasts_sent
                   for router in system.routers.values())


class TestResetGuard:
    @pytest.mark.parametrize("stateful,why", [
        ("record_gate_log", "gate log"),
        ("record_telf", "TELF"),
        ("backend", "quantum backend"),
    ])
    def test_stateful_systems_refuse_reset(self, stateful, why):
        compilation = compile_circuit(_feedback_circuit())
        options = {"backend": None, "record_gate_log": False,
                   "record_telf": False}
        options[stateful] = True if stateful != "backend" else \
            StabilizerBackend(compilation.circuit.num_qubits, seed=1)
        system = compilation.build_system(device_seed=1, **options)
        system.run()
        with pytest.raises(ExecutionError, match=why):
            system.reset(2)


class TestRunCircuitIntegration:
    def test_backend_shot_zero_only(self):
        """Extra lanes are timing-only; shot 0 carries any backend, so
        lane fan-out must not disturb shot 0's stats."""
        single = run_circuit(_static_circuit(), backend=None,
                             record_gate_log=False)
        multi = run_circuit(_static_circuit(), backend=None,
                            record_gate_log=False, shots=6)
        assert multi.lane_mode == "fastforward"
        assert multi.shot_stats[0]["makespan_cycles"] == \
               single.makespan_cycles
        assert multi.shot_makespans == [single.makespan_cycles] * 6
