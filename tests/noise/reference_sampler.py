"""Per-shot noisy stabilizer execution: the reference for the frame sampler.

:func:`run_noisy_stabilizer` runs every shot as its own
:class:`~repro.quantum.stabilizer.StabilizerBackend`, injecting the
sampled Paulis of the same compiled noise program
(:func:`~repro.noise.sampler.compile_noise_program`) and consuming the
same per-shot site uniforms as :func:`~repro.noise.sampler.sample_noisy`.
It is trusted but slow; ``tests/noise/test_sampler.py`` compares the
frame path against it.
"""

from typing import Dict, Optional

import numpy as np

from repro.noise.channels import PauliChannel
from repro.noise.model import NoiseModel, derive_seed
from repro.noise.sampler import (NoiseSamplingError, _shot_uniforms,
                                 compile_noise_program)
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.stabilizer import StabilizerBackend
from repro.sim.config import SimulationConfig


def run_noisy_stabilizer(circuit: QuantumCircuit, model: NoiseModel,
                         shots: int, seed: int = 0,
                         idle_channels: Optional[Dict[int, PauliChannel]]
                         = None,
                         config: Optional[SimulationConfig] = None
                         ) -> np.ndarray:
    """Noisy ``(shots, num_clbits)`` record, one stabilizer run per shot.

    On circuits whose measurements are deterministic in every error
    branch the record matches the frame path's noisy bits *bit for
    bit*; elsewhere the two agree in distribution.
    """
    if not circuit.is_clifford:
        raise NoiseSamplingError(
            "noisy stabilizer execution needs a Clifford circuit")
    steps, num_sites = compile_noise_program(circuit, model,
                                             idle_channels, config)
    out = np.zeros((shots, max(circuit.num_clbits, 1)), dtype=np.int8)
    for s in range(shots):
        uniforms = _shot_uniforms(seed, s, num_sites)
        backend = StabilizerBackend(circuit.num_qubits,
                                    seed=derive_seed("noise-stab", seed, s))
        cbits = [0] * circuit.num_clbits
        for step in steps:
            if step.kind == "error":
                pauli = step.error.channel.sample(
                    float(uniforms[step.error.site]))
                if pauli is not None:
                    backend.apply_pauli(pauli, step.error.qubits)
                continue
            if step.condition is not None:
                bit, value = step.condition
                if cbits[bit] != value:
                    continue
            if step.kind == "reset":
                backend.reset(step.qubits[0])
                continue
            if step.kind == "measure":
                outcome = backend.measure(step.qubits[0])
                if step.flip_site is not None:
                    draw = float(uniforms[step.flip_site.site])
                    if draw < step.flip_site.channel.error_probability:
                        outcome ^= 1
                if step.cbit is not None:
                    cbits[step.cbit] = outcome
                continue
            backend.apply_gate(step.name, step.qubits, step.params)
        out[s, :circuit.num_clbits] = cbits
    return out[:, :circuit.num_clbits]
