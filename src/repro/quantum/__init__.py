"""Quantum substrate: circuit IR, gates, simulators, transforms."""

from .circuit import Operation, QuantumCircuit
from .gates import gate_arity, gate_matrix, is_clifford
from .stabilizer import StabilizerBackend, run_stabilizer
from .statevector import (BatchedStatevectorBackend, StatevectorBackend,
                          measurement_counts, run_multishot, run_statevector)
from .teleport import (append_long_range_cnot, build_long_range_cnot_circuit,
                       build_swap_cnot_circuit, classical_bits_needed)

__all__ = [
    "BatchedStatevectorBackend", "Operation", "QuantumCircuit",
    "StabilizerBackend", "StatevectorBackend", "append_long_range_cnot",
    "build_long_range_cnot_circuit", "build_swap_cnot_circuit",
    "classical_bits_needed", "gate_arity", "gate_matrix", "is_clifford",
    "measurement_counts", "run_multishot", "run_stabilizer",
    "run_statevector",
]
