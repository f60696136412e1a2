"""Monte-Carlo noise-injection subsystem.

Pauli error channels (:mod:`~repro.noise.channels`), declarative
JSON-round-trippable noise models with named presets
(:mod:`~repro.noise.model`), a Pauli-frame / statevector noisy sampler
(:mod:`~repro.noise.sampler`) and empirical fidelity estimation with
binomial confidence intervals (:mod:`~repro.noise.estimator`).
"""

from .channels import (NoiseChannelError, PauliChannel, depolarizing,
                       idle_channels_from_lifetimes, measurement_flip,
                       pauli_twirled_damping)
from .estimator import (FidelityEstimate, estimate_fidelity,
                        logical_error_rate, record_fidelity,
                        survival_fidelity, wilson_interval)
from .model import (PRESETS, NoiseModel, NoiseModelError, derive_seed,
                    preset, resolve_noise_model)
from .sampler import (NoiseSample, NoiseSamplingError, choose_method,
                      sample_noisy)

__all__ = [
    "FidelityEstimate", "NoiseChannelError", "NoiseModel",
    "NoiseModelError", "NoiseSample", "NoiseSamplingError", "PRESETS",
    "PauliChannel", "choose_method", "depolarizing", "derive_seed",
    "estimate_fidelity", "idle_channels_from_lifetimes",
    "logical_error_rate", "measurement_flip", "pauli_twirled_damping",
    "preset", "record_fidelity", "resolve_noise_model",
    "sample_noisy", "survival_fidelity", "wilson_interval",
]
