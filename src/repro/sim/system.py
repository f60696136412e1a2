"""System builder: assemble cores, routers, links and the device bridge.

A :class:`ControlSystem` is the CACTUS-Light top level: it owns the event
engine, instantiates one :class:`~repro.core.node.HISQCore` per controller
over the hybrid topology, one :class:`~repro.network.router.Router` per
tree node, the lock-step baseline's central hub, and a
:class:`~repro.sim.device.QuantumDevice`.  It also implements the *fabric*
interface through which cores and routers exchange signals and messages
with calibrated latencies.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from ..core.config import CENTRAL_ADDRESS, CoreConfig
from ..core.node import HISQCore
from ..errors import ExecutionError, SynchronizationError
# Unused here; benchmarks/e2e/layers.py wraps this binding.
from ..isa.decoded import decode_program  # noqa: F401
from ..isa.program import Program
from ..network.messages import BookingMessage, TimePointMessage
from ..network.router import Router, SyncGroupInfo
from ..network.topology import Topology, build_topology
from .config import SimulationConfig
from .device import QuantumDevice
from .engine import Engine
from .telf import ExecutionStats, TelfLog


class _DeliverMessage:
    """One in-flight classical message (latency varies per source/dest
    pair, so the payload must ride with the event — but as one slotted
    object, not a closure plus captured cells)."""

    __slots__ = ("core", "source", "value")

    def __init__(self, core: HISQCore, source: int, value: int):
        self.core = core
        self.source = source
        self.value = value

    def __call__(self) -> None:
        self.core.deliver_message(self.source, self.value)


class _FanDown:
    """One coalesced Tm broadcast hop: every child of one router in one
    engine event (the cascade used to schedule one event + one lambda
    per child for the same cycle)."""

    __slots__ = ("deliveries",)

    def __init__(self, deliveries):
        self.deliveries = deliveries

    def __call__(self) -> None:
        for callback, arg in self.deliveries:
            callback(arg)


class ControlSystem:
    """A full distributed quantum control system under simulation."""

    def __init__(self, num_controllers: int,
                 config: Optional[SimulationConfig] = None,
                 core_config: Optional[CoreConfig] = None,
                 mesh_kind: str = "line",
                 backend=None,
                 topology: Optional[Topology] = None,
                 device_seed: int = 12345,
                 strict_timing: bool = False,
                 record_gate_log: bool = True,
                 record_telf: bool = True):
        self.config = config or SimulationConfig()
        self.core_config = core_config or CoreConfig(
            event_queue_depth=self.config.event_queue_depth,
            feedback_resync_cycles=self.config.feedback_resync_cycles,
            classical_cpi=self.config.classical_cpi)
        self.engine = Engine()
        self.telf = TelfLog(enabled=record_telf)
        self.topology = topology or build_topology(
            num_controllers, fanout=self.config.router_fanout,
            mesh_kind=mesh_kind,
            neighbor_link_cycles=self.config.neighbor_link_cycles,
            router_hop_cycles=self.config.router_hop_cycles)
        self.cores: Dict[int, HISQCore] = {}
        for address in range(self.topology.num_controllers):
            core = HISQCore("C{}".format(address), address, self.engine,
                            self.telf, config=self.core_config,
                            strict_timing=strict_timing)
            core.fabric = self
            self.cores[address] = core
        self.routers: Dict[int, Router] = {}
        for address in self.topology.routers:
            router = Router("R{}".format(address), address, self.engine,
                            self.telf,
                            process_cycles=self.config.router_process_cycles)
            router.fabric = self
            router.parent_address = self.topology.parent.get(address)
            self.routers[address] = router
        self.device = QuantumDevice(self.engine, self.telf, self.config,
                                    backend=backend, seed=device_seed,
                                    record_gate_log=record_gate_log)
        self.codeword_tables: Dict[int, dict] = {a: {} for a in self.cores}
        self.sync_groups: Dict[int, List[int]] = {}
        self._group_target: Dict[int, int] = {}
        self._reset_run_state()

    def _reset_run_state(self) -> None:
        self._epochs: Dict[tuple, int] = {}
        self.unmapped_codewords = 0
        self.abandoned_sync_epochs = 0

    def reset(self, device_seed: int) -> None:
        """Rewind a timing-only system to cycle 0 for another shot.

        Every piece of run state returns to its initial value in place —
        engine, cores (with their TCU queues, SyncUs and MsgUs), routers,
        the device (reseeded with ``device_seed``) and the system's epoch
        bookkeeping — so the next :meth:`run` matches a freshly built
        system with that seed exactly.  The static wiring stays:
        topology, loaded and decoded programs, codeword tables and sync
        groups.

        Only timing-only systems can be rewound: a quantum backend, gate
        log or TELF record would carry the previous shot's state, so they
        raise :class:`ExecutionError` instead.
        """
        kept = [name for name, on in (
            ("a quantum backend", self.device.backend is not None),
            ("a gate log", self.device.record_gate_log),
            ("TELF recording", self.telf.enabled)) if on]
        if kept:
            raise ExecutionError(
                "cannot reset a system with {}: only timing-only systems "
                "can be rewound".format(", ".join(kept)))
        self.engine.reset()
        for core in self.cores.values():
            core.reset()
        for router in self.routers.values():
            router.reset()
        self.device.reset(device_seed)
        self._reset_run_state()

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------

    def load_program(self, address: int, program: Program) -> None:
        """Install a HISQ binary on controller ``address``."""
        self.cores[address].load(program)

    def set_codeword_table(self, address: int, table: dict) -> None:
        """Install the (port, codeword) -> action table of one board."""
        self.codeword_tables[address] = dict(table)

    def register_sync_group(self, group_id: int,
                            members: Iterable[int]) -> int:
        """Register a region sync group; returns the target router address.

        Configures every router on the members' paths to the lowest common
        ancestor with the expected-children sets and broadcast bounds
        (Figure 8 bookkeeping).
        """
        members = sorted(set(members))
        if len(members) < 2:
            raise SynchronizationError(
                "sync group {} needs at least two members".format(group_id))
        target = self.topology.common_ancestor(members)
        self.sync_groups[group_id] = members
        self._group_target[group_id] = target
        hop = self.config.router_hop_cycles
        process = self.config.router_process_cycles
        # Which routers relay this group, and via which children?
        expected: Dict[int, set] = {}
        for member in members:
            path = self.topology.path_to_ancestor(member, target)
            for child, parent in zip(path, path[1:]):
                expected.setdefault(parent, set()).add(child)
        for router_addr, children in expected.items():
            member_hops = [
                len(self.topology.path_to_ancestor(m, router_addr)) - 1
                for m in members
                if router_addr in self.topology.path_to_ancestor(m, target)]
            down_bound = max(h * hop + max(0, h - 1) * process
                             for h in member_hops)
            self.routers[router_addr].configure_group(SyncGroupInfo(
                group=group_id,
                expected=sorted(children),
                member_children=sorted(children),
                is_destination=(router_addr == target),
                down_bound=down_bound))
        return target

    # ------------------------------------------------------------------
    # Fabric interface (called by cores and routers)
    # ------------------------------------------------------------------

    def sync_signal(self, core: HISQCore, target: int) -> int:
        """Send a 1-bit nearby-sync signal; return the countdown N."""
        if target not in self.cores:
            raise SynchronizationError(
                "{}: sync target {} is not a controller".format(core.name,
                                                                target))
        if not self.topology.are_neighbors(core.address, target):
            raise SynchronizationError(
                "{}: sync target {} is not a mesh neighbor".format(
                    core.name, target))
        latency = self.config.neighbor_link_cycles
        peer = self.cores[target]
        # Uniform latency => deque order is firing order; the payload
        # travels through the SyncUnit's FIFO behind a prebound callback
        # instead of a per-signal closure.
        peer.sync_unit.enqueue_signal(core.address)
        self.engine.after(latency, peer.sync_unit.deliver_signal)
        return latency

    def send_booking(self, core: HISQCore, group: int,
                     time_point: int) -> None:
        """Forward a region-sync booking up the tree toward the target."""
        if group not in self.sync_groups:
            raise SynchronizationError(
                "{}: booking for unregistered group {}".format(core.name,
                                                               group))
        if core.address not in self.sync_groups[group]:
            raise SynchronizationError(
                "{}: not a member of sync group {}".format(core.name, group))
        key = (core.address, group)
        epoch = self._epochs.get(key, 0)
        self._epochs[key] = epoch + 1
        parent = self.topology.parent[core.address]
        router = self.routers[parent]
        router.enqueue_booking(
            BookingMessage(group, epoch, core.address, time_point))
        self.engine.after(self.config.router_hop_cycles,
                          router.deliver_booking)

    def router_to_parent(self, router: Router, message: BookingMessage
                         ) -> None:
        """One hop up the tree."""
        parent = self.routers[router.parent_address]
        parent.enqueue_booking(message)
        self.engine.after(self.config.router_hop_cycles,
                          parent.deliver_booking)

    def router_to_children(self, router: Router, children: List[int],
                           message: TimePointMessage) -> None:
        """Broadcast a Tm one hop down the tree.

        All children sit one uniform hop away, so the fan-out is one
        coalesced engine event delivering in the given (sorted) order —
        identical cycle, identical relative order, N-1 fewer events and
        zero per-child closures."""
        routers = self.routers
        cores = self.cores
        deliveries = [
            (routers[child].receive_time_point, message)
            if child in routers
            else (cores[child].sync_unit.receive_time_point,
                  message.time_point)
            for child in children]
        self.engine.after(self.config.router_hop_cycles,
                          _FanDown(deliveries))

    def send_message(self, core: HISQCore, destination: int,
                     value: int) -> None:
        """Deliver a classical data message with topology-derived latency."""
        if destination == CENTRAL_ADDRESS:
            # Lock-step baseline: the central controller rebroadcasts the
            # value to every controller with a constant latency,
            # independent of system size (section 6.4.3).
            delay = self.config.baseline_broadcast_cycles
            cores = list(self.cores.values())
            self.engine.after(delay, lambda: [
                c.deliver_message(CENTRAL_ADDRESS, value) for c in cores])
            return
        if destination not in self.cores:
            raise ExecutionError(
                "{}: message to unknown controller {}".format(core.name,
                                                              destination))
        latency = self.topology.message_latency_cycles(core.address,
                                                       destination)
        self.engine.after(latency, _DeliverMessage(
            self.cores[destination], core.address, value))

    def emit_codeword(self, core: HISQCore, port: int, codeword: int) -> None:
        """Decode a codeword emission through the board's table."""
        table = self.codeword_tables.get(core.address)
        action = table.get((port, codeword)) if table else None
        if action is None:
            self.unmapped_codewords += 1
            return
        self.device.handle(core, action)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def start_all(self, at: int = 0) -> None:
        """Start every controller that has a program loaded."""
        for core in self.cores.values():
            if len(core.program.instructions):
                core.start(at)

    def drain_sync_state(self) -> int:
        """Drop rendezvous state nothing can complete; return the count.

        Engine-teardown hook: once the event queue has drained, any
        booking bucket still sitting in a router belongs to a
        crashed/aborted member and would otherwise leak for the system's
        lifetime.  (A rendezvous spanning several routers counts once
        per partial bucket; the number is a leak diagnostic, not an
        epoch census.)
        """
        return sum(router.abandon() for router in self.routers.values())

    def run(self, until: Optional[int] = None,
            allow_blocked: bool = False) -> ExecutionStats:
        """Start all cores, run to completion, and collect statistics."""
        self.start_all()
        self.engine.run(until=until)
        if until is None:
            # Bounded runs may legitimately hold in-flight sync state
            # they would complete if resumed; full drains cannot.
            self.abandoned_sync_epochs = self.drain_sync_state()
        blocked = [core.name for core in self.cores.values()
                   if len(core.program.instructions) and not core.drained]
        if blocked and until is None and not allow_blocked:
            raise ExecutionError(
                "deadlock: controllers still blocked after the event queue "
                "drained: {}".format(", ".join(sorted(blocked))))
        stats = ExecutionStats()
        for core in self.cores.values():
            stats.add_core(core.name, **core.counters())
        stats.makespan_cycles = max(
            (core.last_event_time for core in self.cores.values()),
            default=0)
        wheel = self.engine.wheel_stats()
        stats.events_processed = wheel["events_processed"]
        stats.engine_far_events = wheel["far_events"]
        stats.engine_window_advances = wheel["window_advances"]
        stats.engine_max_pending = wheel["max_pending"]
        stats.max_queue_depth = max(
            (core.queue_high_water for core in self.cores.values()),
            default=0)
        return stats

    @property
    def makespan_ns(self) -> float:
        """Wall-clock of the last emitted event, in nanoseconds."""
        last = max((core.last_event_time for core in self.cores.values()),
                   default=0)
        return self.config.ns(last)
