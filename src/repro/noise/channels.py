"""Composable Pauli error channels.

Every channel in the subsystem is a *Pauli channel*: a probability
distribution over non-identity Pauli strings on one or two qubits, with
the leftover mass on the identity.  This is the representation the
Pauli-frame sampler needs (errors are XORed into per-shot frames), and
twirling reduces the physically-motivated channels — amplitude damping
(T1) and dephasing (T2) — to exactly this form.

The twirled T1/T2 channel is chosen so that its identity probability
equals :func:`repro.fidelity.decoherence.survival_probability` for the
same duration::

    1 - px - py - pz = (1 + e^{-t/T1} + 2 e^{-t/T2}) / 4

which ties the Monte-Carlo subsystem to the closed-form Figure-16 proxy:
the proxy is the exact zero-error-survival of this channel.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

from ..errors import ReproError

#: (x, z) symplectic bits of each single-qubit Pauli label.
PAULI_BITS: Dict[str, Tuple[int, int]] = {
    "I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1),
}

_BITS_PAULI = {bits: label for label, bits in PAULI_BITS.items()}

#: Numerical slack when checking that probabilities sum to at most one.
_PROB_EPS = 1e-9


class NoiseChannelError(ReproError):
    """Raised when a channel is built from invalid probabilities."""


def _check_pauli_string(pauli: str, num_qubits: int) -> None:
    if len(pauli) != num_qubits:
        raise NoiseChannelError(
            "Pauli string {!r} must have length {}".format(pauli, num_qubits))
    if any(c not in PAULI_BITS for c in pauli):
        raise NoiseChannelError(
            "Pauli string {!r} may only contain I/X/Y/Z".format(pauli))


@dataclass(frozen=True)
class PauliChannel:
    """A stochastic Pauli channel on ``num_qubits`` qubits.

    ``terms`` lists ``(pauli_string, probability)`` pairs for the
    *non-identity* errors; the identity keeps the leftover probability.
    Terms are canonically sorted so equal channels compare equal.
    """

    num_qubits: int
    terms: Tuple[Tuple[str, float], ...]

    def __post_init__(self):
        if self.num_qubits < 1:
            raise NoiseChannelError("channel needs at least one qubit")
        merged: Dict[str, float] = {}
        for pauli, probability in self.terms:
            pauli = pauli.upper()
            _check_pauli_string(pauli, self.num_qubits)
            if pauli == "I" * self.num_qubits:
                raise NoiseChannelError(
                    "identity carries the leftover probability; "
                    "do not list it as a term")
            if probability < -_PROB_EPS:
                raise NoiseChannelError(
                    "negative probability {} for {!r}".format(
                        probability, pauli))
            if probability > 0.0:
                merged[pauli] = merged.get(pauli, 0.0) + float(probability)
        total = sum(merged.values())
        if total > 1.0 + _PROB_EPS:
            raise NoiseChannelError(
                "error probabilities sum to {} > 1".format(total))
        object.__setattr__(self, "terms",
                           tuple(sorted(merged.items())))

    @property
    def error_probability(self) -> float:
        """Total probability of any non-identity Pauli."""
        return sum(p for _, p in self.terms)

    @property
    def identity_probability(self) -> float:
        return 1.0 - self.error_probability

    def cumulative(self) -> Tuple[Tuple[float, ...], Tuple[str, ...]]:
        """(cumulative upper bounds, pauli per bin) for inverse sampling.

        A uniform draw ``u`` selects the first bin whose bound exceeds
        ``u``; draws past the last bound mean "no error".  The bin order
        is the canonical term order, so sampling is deterministic for a
        fixed draw.
        """
        bounds = []
        paulis = []
        acc = 0.0
        for pauli, probability in self.terms:
            acc += probability
            bounds.append(acc)
            paulis.append(pauli)
        return tuple(bounds), tuple(paulis)

    def sample(self, u: float) -> Optional[str]:
        """Map one uniform draw to a Pauli string (None = identity)."""
        acc = 0.0
        for pauli, probability in self.terms:
            acc += probability
            if u < acc:
                return pauli
        return None

    def compose(self, other: "PauliChannel") -> "PauliChannel":
        """The channel "apply ``self``, then ``other``" (independent).

        Pauli products are tracked up to phase (frames ignore phases),
        so composition is a convolution over XORed symplectic bits.
        """
        if other.num_qubits != self.num_qubits:
            raise NoiseChannelError("cannot compose channels on {} and {} "
                                    "qubits".format(self.num_qubits,
                                                    other.num_qubits))
        identity = "I" * self.num_qubits
        first = dict(self.terms)
        first[identity] = self.identity_probability
        second = dict(other.terms)
        second[identity] = other.identity_probability
        combined: Dict[str, float] = {}
        for pauli_a, pa in first.items():
            for pauli_b, pb in second.items():
                product = _pauli_product(pauli_a, pauli_b)
                combined[product] = combined.get(product, 0.0) + pa * pb
        combined.pop(identity, None)
        return PauliChannel(self.num_qubits, tuple(combined.items()))

    def scaled(self, factor: float) -> "PauliChannel":
        """Channel with every error probability multiplied by ``factor``."""
        if factor < 0:
            raise NoiseChannelError("scale factor must be >= 0")
        return PauliChannel(self.num_qubits,
                            tuple((p, factor * prob)
                                  for p, prob in self.terms))


def _pauli_product(a: str, b: str) -> str:
    """Phase-free product of two Pauli strings (symplectic XOR)."""
    out = []
    for ca, cb in zip(a, b):
        xa, za = PAULI_BITS[ca]
        xb, zb = PAULI_BITS[cb]
        out.append(_BITS_PAULI[(xa ^ xb, za ^ zb)])
    return "".join(out)


@functools.lru_cache(maxsize=256)
def depolarizing(probability: float, num_qubits: int = 1) -> PauliChannel:
    """Uniform depolarizing channel: each non-identity Pauli string on
    ``num_qubits`` qubits occurs with ``probability / (4**n - 1)``.

    Cached: a noise program asks for the same few channels at every
    gate slot, and the (frozen) channel is built and validated once.
    """
    if not 0.0 <= probability <= 1.0:
        raise NoiseChannelError(
            "depolarizing probability must be in [0, 1], got {}".format(
                probability))
    if num_qubits not in (1, 2):
        raise NoiseChannelError(
            "depolarizing supports 1 or 2 qubits, got {}".format(num_qubits))
    labels = ["I", "X", "Y", "Z"]
    strings = ([l for l in labels if l != "I"] if num_qubits == 1 else
               [a + b for a in labels for b in labels if a + b != "II"])
    share = probability / len(strings)
    return PauliChannel(num_qubits, tuple((s, share) for s in strings))


def pauli_twirled_damping(duration_ns: float, t1_us: float,
                          t2_us: Optional[float] = None) -> PauliChannel:
    """Pauli twirl of amplitude (T1) + phase (T2) damping over a window.

    Probabilities (standard twirl, ``T2`` defaulting to ``T1``)::

        px = py = (1 - e^{-t/T1}) / 4
        pz      = (1 - e^{-t/T2}) / 2 - (1 - e^{-t/T1}) / 4

    ``T2 <= 2*T1`` guarantees ``pz >= 0``.  The identity probability is
    exactly :func:`repro.fidelity.decoherence.survival_probability`.
    """
    if duration_ns < 0:
        raise NoiseChannelError("negative duration")
    if t1_us <= 0:
        raise NoiseChannelError("T1 must be positive")
    t2_us = t2_us if t2_us is not None else t1_us
    if t2_us <= 0:
        raise NoiseChannelError("T2 must be positive")
    if t2_us > 2 * t1_us + 1e-12:
        raise NoiseChannelError("T2 cannot exceed 2*T1")
    decay_1 = 1.0 - math.exp(-duration_ns / (t1_us * 1000.0))
    decay_2 = 1.0 - math.exp(-duration_ns / (t2_us * 1000.0))
    px = py = decay_1 / 4.0
    pz = max(0.0, decay_2 / 2.0 - decay_1 / 4.0)
    return PauliChannel(1, (("X", px), ("Y", py), ("Z", pz)))


def measurement_flip(probability: float) -> PauliChannel:
    """Classical readout bit-flip, expressed as an X channel on the
    recorded bit (the sampler applies it to the record, not the state)."""
    if not 0.0 <= probability <= 1.0:
        raise NoiseChannelError(
            "flip probability must be in [0, 1], got {}".format(probability))
    return PauliChannel(1, (("X", probability),))


def idle_channels_from_lifetimes(lifetimes_ns: Mapping[int, float],
                                 t1_us: float,
                                 t2_us: Optional[float] = None
                                 ) -> Dict[int, PauliChannel]:
    """Per-qubit idle-decoherence channels from activity windows.

    ``lifetimes_ns`` is the :meth:`QuantumDevice.lifetimes_ns` map (per-
    qubit wall-clock activity window); each qubit gets one twirled T1/T2
    channel integrating its whole window, applied once per shot.  Qubits
    with zero lifetime get no channel.
    """
    out = {}
    for qubit, duration_ns in lifetimes_ns.items():
        if duration_ns <= 0:
            continue
        channel = pauli_twirled_damping(duration_ns, t1_us, t2_us)
        if channel.error_probability > 0:
            out[int(qubit)] = channel
    return out
