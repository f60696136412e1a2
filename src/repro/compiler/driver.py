"""End-to-end compilation driver: circuit -> HISQ binaries -> simulation.

Synchronization schemes are resolved through the pluggable registry of
:mod:`repro.compiler.schemes` (section 6.4's three-way comparison plus
any scheme registered since).  The core trio:

* ``"bisp"``    — Distributed-HISQ: independent streams, booked syncs
  (hoisted over deterministic work), point-to-point feedback.
* ``"demand"``  — QubiC-2.0-style ablation: identical to BISP but syncs are
  placed immediately before the synchronization point (no booking lead).
* ``"lockstep"``— IBM-style baseline: shared program flow, central
  controller broadcasting every measurement, reserved feedback slots.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..errors import CompilationError
from ..isa.program import Program
from ..network.topology import Topology, build_topology
from ..obs import metrics as _metrics
from ..obs import trace as _trace
from ..quantum.circuit import QuantumCircuit
from ..sim.config import SimulationConfig
from ..sim.system import ControlSystem
from ..sim.telf import ExecutionStats
from .emit import emit_program
from .mapping import QubitMap
from .schemes import get_scheme

_COMPILATIONS = _metrics.counter(
    "repro_compilations_total", "circuits compiled")
_SIMULATIONS = _metrics.counter(
    "repro_simulations_total", "simulation runs (shot 0 of each cell)")
_ENGINE_EVENTS = _metrics.counter(
    "repro_engine_events_total", "discrete events processed")
_QUEUE_HIGH_WATER = _metrics.gauge(
    "repro_queue_depth_high_water",
    "peak logical TCU-queue depth seen by any core")


@dataclass
class CompilationResult:
    """Everything needed to instantiate and run the compiled system."""

    circuit: QuantumCircuit
    scheme: str
    config: SimulationConfig
    qmap: QubitMap
    topology: Topology
    programs: Dict[int, Program]
    codeword_tables: Dict[int, dict]
    sync_groups: Dict[int, List[int]]
    stats: Dict[str, int] = field(default_factory=dict)
    #: Resolved controller-mesh kind the topology was built with
    #: ("interaction" resolves to "custom" + explicit edges).
    mesh_kind: str = "line"
    #: Explicit mesh edges (only for ``mesh_kind="custom"``).
    mesh_edges: Optional[Tuple[Tuple[int, int], ...]] = None

    @property
    def total_instructions(self) -> int:
        return sum(len(p) for p in self.programs.values())

    def build_system(self, backend=None, device_seed: int = 12345,
                     strict_timing: bool = False,
                     record_gate_log: bool = True,
                     record_telf: bool = True) -> ControlSystem:
        """Instantiate a ready-to-run :class:`ControlSystem`.

        The device is noiseless; noisy outcomes are estimated separately
        by :mod:`repro.noise.sampler` from the compiled timing.
        """
        system = ControlSystem(
            self.qmap.num_controllers, config=self.config,
            mesh_kind=self.mesh_kind, topology=self.topology,
            backend=backend,
            device_seed=device_seed, strict_timing=strict_timing,
            record_gate_log=record_gate_log, record_telf=record_telf)
        for address, program in self.programs.items():
            system.load_program(address, program)
        for address, table in self.codeword_tables.items():
            system.set_codeword_table(address, table)
        for group, members in self.sync_groups.items():
            system.register_sync_group(group, members)
        return system


def compile_circuit(circuit: QuantumCircuit, scheme: str = "bisp",
                    config: Optional[SimulationConfig] = None,
                    qubits_per_controller: int = 1,
                    mesh_kind: str = "line") -> CompilationResult:
    """Compile ``circuit`` into per-controller HISQ programs.

    ``scheme`` is a registered scheme name (see
    :mod:`repro.compiler.schemes`) or a :class:`~repro.compiler.schemes.
    Scheme` instance; unknown names raise a :class:`CompilationError`
    listing every registered scheme.
    """
    _COMPILATIONS.value += 1
    with _trace.span("compile", cat="compile"):
        return _compile_circuit(circuit, scheme, config,
                                qubits_per_controller, mesh_kind)


def _compile_circuit(circuit, scheme, config, qubits_per_controller,
                     mesh_kind) -> CompilationResult:
    scheme_obj = get_scheme(scheme)
    config = scheme_obj.effective_config(config or SimulationConfig())
    qmap = QubitMap(circuit.num_qubits, qubits_per_controller)
    mesh_edges = None
    if mesh_kind == "interaction":
        # Mirror the qubit interaction topology (Insight #2): controllers
        # of interacting qubits become mesh neighbors.
        mesh_kind = "custom"
        mesh_edges = sorted({
            tuple(sorted((qmap.controller_of(op.qubits[0]),
                          qmap.controller_of(op.qubits[1]))))
            for op in circuit.two_qubit_ops()})
    topology = build_topology(
        qmap.num_controllers, fanout=config.router_fanout,
        mesh_kind=mesh_kind, mesh_edges=mesh_edges,
        neighbor_link_cycles=config.neighbor_link_cycles,
        router_hop_cycles=config.router_hop_cycles)
    lowered, pass_stats = scheme_obj.lower_and_optimize(
        circuit, qmap, topology, config)
    programs = {}
    for address, items in lowered.streams.items():
        if not items:
            continue
        programs[address] = emit_program("C{}".format(address), items)
    tables = {address: allocator.table
              for address, allocator in lowered.allocators.items()}
    stats = {
        "feedback_ops": lowered.num_feedback_ops,
        "syncs": lowered.num_syncs,
        "messages": lowered.num_messages,
    }
    stats.update(pass_stats)
    return CompilationResult(
        circuit=circuit, scheme=scheme_obj.name, config=config, qmap=qmap,
        topology=topology, programs=programs, codeword_tables=tables,
        sync_groups=lowered.sync_groups, stats=stats,
        mesh_kind=mesh_kind,
        mesh_edges=tuple(mesh_edges) if mesh_edges is not None else None)


@dataclass
class RunResult:
    """Simulation outcome of one compiled circuit."""

    compilation: CompilationResult
    system: ControlSystem
    stats: ExecutionStats
    #: Per-shot summaries when ``run_circuit(..., shots=k)`` with k > 1;
    #: entry 0 is the inline run, entries 1.. are reruns with derived seeds.
    shot_stats: Optional[List[Dict[str, int]]] = None
    #: How extra shots were produced: ``"fastforward"`` (lane engine
    #: fanned one reference lane across all shots — static program set),
    #: ``"replay"`` (one simulation per lane), or None for shots == 1.
    #: See :mod:`repro.sim.lanes`.
    lane_mode: Optional[str] = None

    @property
    def makespan_cycles(self) -> int:
        return self.stats.makespan_cycles

    @property
    def makespan_ns(self) -> float:
        return self.compilation.config.ns(self.stats.makespan_cycles)

    @property
    def shot_makespans(self) -> List[int]:
        """Makespan of every shot (a single-entry list when shots == 1)."""
        if self.shot_stats is None:
            return [self.stats.makespan_cycles]
        return [s["makespan_cycles"] for s in self.shot_stats]


def shot_device_seed(base_seed: int, shot: int) -> int:
    """Deterministic per-shot device seed (shot 0 keeps ``base_seed``)."""
    if shot == 0:
        return base_seed
    return (base_seed + 0x9E3779B1 * shot) & 0x7FFFFFFF


def shot_summary(device_seed: int, stats: ExecutionStats) -> Dict[str, int]:
    """The per-shot record of ``RunResult.shot_stats``."""
    return {
        "device_seed": device_seed,
        "makespan_cycles": stats.makespan_cycles,
        "sync_stall_cycles": stats.sync_stall_cycles,
    }


def simulate_shot(compilation: CompilationResult, device_seed: int,
                  until: Optional[int] = None) -> Dict[str, int]:
    """Run one timing-only shot of a compiled circuit on a freshly built
    system.

    Measurement outcomes are sampled from ``device_seed``, so dynamic
    branches — and therefore makespans — vary shot to shot.
    """
    system = compilation.build_system(backend=None, device_seed=device_seed,
                                      record_gate_log=False,
                                      record_telf=False)
    return shot_summary(device_seed, system.run(until=until))


def run_circuit(circuit: QuantumCircuit, scheme: str = "bisp",
                config: Optional[SimulationConfig] = None,
                backend=None, device_seed: int = 12345,
                qubits_per_controller: int = 1,
                mesh_kind: str = "line",
                until: Optional[int] = None,
                record_gate_log: bool = True,
                record_telf: bool = True,
                shots: int = 1,
                compilation: Optional[CompilationResult] = None
                ) -> RunResult:
    """Compile, simulate and collect statistics in one call.

    ``shots`` > 1 reruns the compiled system with deterministic per-shot
    device seeds (``shot_device_seed``) and collects per-shot summaries in
    ``RunResult.shot_stats``.  Extra shots run through the lane engine
    (:mod:`repro.sim.lanes`): when no compiled program contains a
    ``recv``, all timing-only lanes are provably identical and shot 0 is
    fanned out across them at zero simulation cost
    (``RunResult.lane_mode == "fastforward"``); otherwise every lane
    replays on one timing-only system rewound between shots
    (``"replay"``).  The quantum-state ``backend``, if any, is attached
    to shot 0 only; extra shots are timing-only.  The simulation is
    noiseless: noisy fidelity comes from :mod:`repro.noise.sampler`
    (``estimate_fidelity``) on the compiled circuit's timing.

    A pre-built ``compilation`` (from :func:`compile_circuit`, e.g. the
    sweep harness's per-process memo) skips the compile step; the
    compile-side keyword arguments are then ignored.
    """
    if shots < 1:
        raise CompilationError("shots must be >= 1, got {}".format(shots))
    if compilation is None:
        compilation = compile_circuit(
            circuit, scheme=scheme, config=config,
            qubits_per_controller=qubits_per_controller,
            mesh_kind=mesh_kind)
    system = compilation.build_system(backend=backend,
                                      device_seed=device_seed,
                                      record_gate_log=record_gate_log,
                                      record_telf=record_telf)
    _SIMULATIONS.value += 1
    with _trace.span("simulate", cat="sim", scheme=compilation.scheme):
        stats = system.run(until=until)
    _ENGINE_EVENTS.value += stats.events_processed
    _QUEUE_HIGH_WATER.track_max(stats.max_queue_depth)
    result = RunResult(compilation=compilation, system=system, stats=stats)
    if shots > 1:
        from ..sim.lanes import run_extra_shots
        first = shot_summary(device_seed, stats)
        rest, result.lane_mode = run_extra_shots(
            compilation, device_seed, shots, until=until, first=first)
        result.shot_stats = [first] + rest
    return result
