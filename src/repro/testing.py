"""Shared test/benchmark utilities: deterministic generators and builders.

Hosts the setup helpers that the per-package test modules used to each
define for themselves (bare-core builders, stream lowering, the
environment of child interpreters) plus seeded random-circuit generators
for differential testing.  Importable from tests, benchmarks and example
scripts alike; everything here is deterministic given its ``seed``
argument.
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Tuple

import numpy as np

from .compiler.codegen import LoweredProgram, lower_circuit
from .compiler.mapping import QubitMap
from .core.node import HISQCore
from .isa.assembler import assemble
from .network.topology import build_topology
from .quantum.circuit import QuantumCircuit
from .sim.config import SimulationConfig
from .sim.engine import Engine
from .sim.telf import TelfLog

#: Clifford gate pool for differential statevector/stabilizer tests.
CLIFFORD_1Q = ("h", "s", "sdg", "x", "y", "z", "sx")
CLIFFORD_2Q = ("cx", "cz", "swap")


def make_bare_core(source: str, **config_kwargs) -> Tuple[Engine, HISQCore]:
    """Assemble ``source`` onto a single started core with its own engine
    (``config_kwargs`` are :class:`SimulationConfig` fields)."""
    engine = Engine()
    core = HISQCore("c0", 0, engine, TelfLog(),
                    config=SimulationConfig(**config_kwargs))
    core.load(assemble(source))
    core.start()
    return engine, core


def run_bare_program(source: str, max_cycles: int = 100000) -> HISQCore:
    """Run ``source`` to completion on a bare core; return the core."""
    engine, core = make_bare_core(source)
    engine.run(until=max_cycles)
    return core


def lower_to_streams(circuit: QuantumCircuit, mesh: str = "line",
                     qubits_per_controller: int = 1,
                     config: Optional[SimulationConfig] = None
                     ) -> LoweredProgram:
    """Lower ``circuit`` over a default one-qubit-per-controller layout."""
    qmap = QubitMap(circuit.num_qubits, qubits_per_controller)
    topology = build_topology(qmap.num_controllers, mesh_kind=mesh)
    return lower_circuit(circuit, qmap, topology,
                         config or SimulationConfig())


def subprocess_env() -> Dict[str, str]:
    """The current environment with the directory this ``repro`` was
    imported from first on ``PYTHONPATH``.

    A child interpreter inherits neither pytest's ``pythonpath`` ini
    option nor in-process ``sys.path`` edits, so tests and benchmarks
    that spawn ``python -c "import repro ..."`` pass this as ``env``.
    """
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    current = env.get("PYTHONPATH", "")
    if root not in current.split(os.pathsep):
        env["PYTHONPATH"] = root + (os.pathsep + current if current else "")
    return env


def random_clifford_circuit(num_qubits: int, depth: int, seed: int,
                            measure_fraction: float = 0.08,
                            feedback: bool = True) -> QuantumCircuit:
    """Seeded random Clifford circuit with mid-circuit measurement.

    Every gate is stabilizer-simulable, so the circuit runs on both the
    statevector and the stabilizer backend — the backbone of the
    differential tests.  ``feedback=True`` sprinkles classically
    conditioned X/Z corrections after measurements (dynamic circuits).
    All classical bits are distinct; a final measurement layer closes
    every qubit so the output distribution is fully observable.
    """
    rng = np.random.default_rng(seed)
    num_mid = int(depth * measure_fraction) + 1
    circuit = QuantumCircuit(num_qubits, num_mid + num_qubits,
                             name="clifford_rand_{}".format(seed))
    next_cbit = 0
    for _ in range(depth):
        roll = rng.random()
        if roll < measure_fraction and next_cbit < num_mid:
            qubit = int(rng.integers(num_qubits))
            cbit = next_cbit
            next_cbit += 1
            circuit.measure(qubit, cbit)
            if feedback and rng.random() < 0.5:
                target = int(rng.integers(num_qubits))
                name = "x" if rng.random() < 0.5 else "z"
                circuit.gate(name, target, condition=(cbit, 1))
        elif roll < 0.6 or num_qubits == 1:
            circuit.gate(str(rng.choice(CLIFFORD_1Q)),
                         int(rng.integers(num_qubits)))
        else:
            a, b = rng.choice(num_qubits, size=2, replace=False)
            circuit.gate(str(rng.choice(CLIFFORD_2Q)), int(a), int(b))
    for qubit in range(num_qubits):
        circuit.measure(qubit, num_mid + qubit)
    return circuit


def random_dynamic_circuit(num_qubits: int, depth: int, seed: int
                           ) -> QuantumCircuit:
    """Seeded random *non-Clifford* dynamic circuit (statevector-only).

    Mixes continuous rotations, T gates and entanglers with mid-circuit
    measurement, feedback and resets — exercises every branch of the
    batched multi-shot execution path.
    """
    rng = np.random.default_rng(seed)
    num_mid = max(2, depth // 6)
    circuit = QuantumCircuit(num_qubits, num_mid + num_qubits,
                             name="dynamic_rand_{}".format(seed))
    next_cbit = 0
    for _ in range(depth):
        roll = rng.random()
        if roll < 0.10 and next_cbit < num_mid:
            qubit = int(rng.integers(num_qubits))
            circuit.measure(qubit, next_cbit)
            if rng.random() < 0.6:
                target = int(rng.integers(num_qubits))
                name = str(rng.choice(["x", "z", "h", "s"]))
                circuit.gate(name, target, condition=(next_cbit,
                                                      int(rng.integers(2))))
            next_cbit += 1
        elif roll < 0.16:
            circuit.reset_qubit(int(rng.integers(num_qubits)))
        elif roll < 0.55 or num_qubits == 1:
            qubit = int(rng.integers(num_qubits))
            kind = str(rng.choice(["h", "t", "tdg", "rz", "rx", "ry", "sx"]))
            if kind in ("rz", "rx", "ry"):
                circuit.gate(kind, qubit,
                             params=(float(rng.uniform(0, 2 * np.pi)),))
            else:
                circuit.gate(kind, qubit)
        else:
            a, b = rng.choice(num_qubits, size=2, replace=False)
            kind = str(rng.choice(["cx", "cz", "cp"]))
            if kind == "cp":
                circuit.gate(kind, int(a), int(b),
                             params=(float(rng.uniform(0, 2 * np.pi)),))
            else:
                circuit.gate(kind, int(a), int(b))
    for qubit in range(num_qubits):
        circuit.measure(qubit, num_mid + qubit)
    return circuit
