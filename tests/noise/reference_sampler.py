"""References for the noisy sampler: per-shot streams, dense injection,
and per-shot noisy stabilizer execution.

* :func:`shot_uniforms` is the per-shot draw contract: one
  ``default_rng`` per shot.  :func:`~repro.noise.sampler._uniform_block`
  must reproduce it row for row.
* :func:`apply_error_dense` bins every shot's draw and XORs each
  present term into the frames; the sparse injection in
  :func:`~repro.noise.sampler._apply_error_to_frames` must match it.
* :func:`run_noisy_stabilizer` runs every shot as its own
  :class:`~repro.quantum.stabilizer.StabilizerBackend`, injecting the
  sampled Paulis of the same compiled noise program
  (:func:`~repro.noise.sampler.compile_noise_program`) and consuming
  the same per-shot site uniforms as
  :func:`~repro.noise.sampler.sample_noisy`.

All three are trusted but slow; ``tests/noise/test_sampler.py`` and
``tests/noise/test_draws.py`` compare the fast paths against them.
"""

from typing import Dict, Optional

import numpy as np

from repro.noise.channels import PAULI_BITS, PauliChannel
from repro.noise.model import NoiseModel, derive_seed
from repro.noise.sampler import NoiseSamplingError, compile_noise_program
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.stabilizer import StabilizerBackend
from repro.sim.config import SimulationConfig


def shot_uniforms(seed: int, shot: int, num_sites: int) -> np.ndarray:
    """Shot ``shot``'s site draws — independent of chunking/order."""
    rng = np.random.default_rng(derive_seed("noise", seed, shot))
    return rng.random(num_sites)


def apply_error_dense(site, draws: np.ndarray, fx: np.ndarray,
                      fz: np.ndarray) -> None:
    """XOR sampled Pauli errors into the frames of every shot."""
    bounds, paulis = site.channel.cumulative()
    if not bounds:
        return
    index = np.searchsorted(bounds, draws, side="right")
    for term in np.unique(index):
        if term >= len(bounds):
            continue  # identity bin
        rows = index == term
        for label, qubit in zip(paulis[term], site.qubits):
            xbit, zbit = PAULI_BITS[label]
            if xbit:
                fx[rows, qubit] ^= 1
            if zbit:
                fz[rows, qubit] ^= 1


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
        uniforms = shot_uniforms(seed, s, num_sites)
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
