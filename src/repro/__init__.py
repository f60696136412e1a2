"""Distributed-HISQ: a distributed quantum control architecture.

Full Python reproduction of "Distributed-HISQ: A Distributed Quantum
Control Architecture" (MICRO 2025): the HISQ instruction set and
single-node microarchitecture, the BISP booking-based synchronization
protocol, the hybrid router network, a transaction-level simulator
(CACTUS-Light equivalent), the quantum software stack (dynamic-circuit
compiler), quantum state simulators, analog/qubit-physics models for the
calibration experiments, and the complete evaluation harness.

Quick start::

    from repro import circuits, compiler
    circuit = circuits.build_ghz(5)
    result = compiler.run_circuit(circuit, scheme="bisp")
    print(result.makespan_ns, "ns")

``repro.analog`` (the calibration experiments and their scipy fits) is
not imported with the package: import it explicitly
(``from repro.analog import CalibrationBench``).  Sweeps, pool workers
and service processes each start a fresh interpreter and never use it.
"""

from . import (circuits, compiler, core, fidelity, hardware, harness, isa,
               network, quantum, sim, sync)
from .compiler import compile_circuit, run_circuit
from .quantum import QuantumCircuit
from .sim import ControlSystem, SimulationConfig

__version__ = "1.0.0"

__all__ = [
    "ControlSystem", "QuantumCircuit", "SimulationConfig", "analog",
    "circuits", "compile_circuit", "compiler", "core", "fidelity",
    "hardware", "harness", "isa", "network", "quantum", "run_circuit",
    "sim", "sync",
]
