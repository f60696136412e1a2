"""Simulation-wide configuration: durations, latencies, clock grid.

Defaults follow the paper: 250 MHz TCU -> 4 ns cycles (section 6.1); 20 ns
single-qubit gates, 40 ns two-qubit gates, 300 ns measurement (section
6.4.1); decoder latency per round from the Riverlane Collision Clustering
hardware decoder data cited as [2] (section 6.4.2).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class SimulationConfig:
    """Timing parameters shared by the compiler and the simulator."""

    #: TCU cycle duration in nanoseconds (250 MHz).
    cycle_ns: float = 4.0
    #: Single-qubit gate duration (ns).
    single_qubit_gate_ns: float = 20.0
    #: Two-qubit gate duration (ns).
    two_qubit_gate_ns: float = 40.0
    #: Measurement duration (ns).
    measurement_ns: float = 300.0
    #: One-hop link latency between neighboring controllers (cycles).
    neighbor_link_cycles: int = 4
    #: One-hop link latency between a node and its parent router (cycles).
    router_hop_cycles: int = 8
    #: Per-message processing delay inside a router (cycles).
    router_process_cycles: int = 2
    #: Classical pipeline cycles per instruction.
    classical_cpi: int = 1
    #: TCU event-queue capacity (entries); pipeline stalls when full.
    event_queue_depth: int = 1024
    #: Extra cycles consumed when the TCU resynchronizes after feedback.
    feedback_resync_cycles: int = 2
    #: Constant broadcast latency of the lock-step baseline's central
    #: controller (cycles); the paper deliberately keeps this constant and
    #: independent of qubit count (section 6.4.3).
    baseline_broadcast_cycles: int = 25
    #: Surface-code decoder latency per round (cycles), cf. [2].
    decoder_round_cycles: int = 250
    #: Router tree fan-out used when building the hybrid topology.
    router_fanout: int = 8

    def cycles(self, ns: float) -> int:
        """Convert nanoseconds to an integer number of cycles (round up)."""
        q, r = divmod(ns, self.cycle_ns)
        return int(q) + (1 if r > 1e-9 else 0)

    @property
    def single_qubit_gate_cycles(self) -> int:
        return self.cycles(self.single_qubit_gate_ns)

    @property
    def two_qubit_gate_cycles(self) -> int:
        return self.cycles(self.two_qubit_gate_ns)

    @property
    def measurement_cycles(self) -> int:
        return self.cycles(self.measurement_ns)

    def gate_cycles(self, num_qubits: int, is_measurement: bool = False) -> int:
        """Duration of a gate acting on ``num_qubits`` qubits."""
        if is_measurement:
            return self.measurement_cycles
        if num_qubits >= 2:
            return self.two_qubit_gate_cycles
        return self.single_qubit_gate_cycles

    def ns(self, cycles: int) -> float:
        """Convert cycles to nanoseconds."""
        return cycles * self.cycle_ns


#: Shared default configuration instance.
DEFAULT_CONFIG = SimulationConfig()
