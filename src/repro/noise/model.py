"""JSON-round-trippable noise models: per-gate rates, defaults, presets.

A :class:`NoiseModel` pins down *which* channels the sampler injects and
at what rates — depolarizing noise after every gate (with per-gate-name
overrides), readout bit flips, and T1/T2 Pauli-twirled damping driven by
gate durations and per-qubit activity windows.  Like
:class:`~repro.harness.spec.SweepSpec` it is a frozen value with exact
JSON round-tripping (``from_json(m.to_json()) == m``), so noise
configurations live in sweep specs, BENCH artifacts and CLI flags.

Named presets (:data:`PRESETS`) give the CLI and CI stable shorthands,
e.g. ``--noise depolarizing_1e3``.
"""

from __future__ import annotations

import json
import math
import zlib
from dataclasses import dataclass, fields
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import ReproError
from .channels import PauliChannel, depolarizing, measurement_flip, \
    pauli_twirled_damping


class NoiseModelError(ReproError):
    """Raised when a noise model is malformed."""


def finite_real(value) -> bool:
    """A finite non-bool ``int`` or ``float``.  JSON ``true`` decodes to a
    bool, which Python counts as the integer 1, and ``NaN``/``Infinity``
    decode to floats that slip past range checks."""
    return (isinstance(value, int) and not isinstance(value, bool)) or \
        (isinstance(value, float) and math.isfinite(value))


@dataclass(frozen=True)
class NoiseModel:
    """Declarative noise configuration consumed by the sampler.

    ``gate_1q``/``gate_2q`` are depolarizing probabilities applied after
    every 1-/2-qubit gate slot; ``overrides`` replaces the rate for
    specific gate names (e.g. a hot CZ).  ``measure_flip`` flips each
    *recorded* measurement bit.  ``t1_us``/``t2_us``, when set, add
    Pauli-twirled damping: per-qubit over each gate's duration (when the
    caller supplies durations) and over whole activity windows via
    :func:`~repro.noise.channels.idle_channels_from_lifetimes`.
    """

    gate_1q: float = 0.0
    gate_2q: float = 0.0
    measure_flip: float = 0.0
    t1_us: Optional[float] = None
    t2_us: Optional[float] = None
    #: per-gate-name depolarizing overrides, canonically sorted.
    overrides: Tuple[Tuple[str, float], ...] = ()

    def __post_init__(self):
        # Normalize every accepted shape — mapping, pairs, JSON lists —
        # to one canonical sorted tuple, so `==` honors the
        # from_json(to_json(m)) == m contract regardless of input form.
        items = (self.overrides.items()
                 if isinstance(self.overrides, dict) else self.overrides)
        try:
            pairs = [(str(name), rate) for name, rate in items]
        except (TypeError, ValueError) as exc:
            raise NoiseModelError(
                "overrides must map gate names to rates: {}".format(
                    exc)) from None
        for name, rate in pairs:
            # Checked before float() erases the difference: True would
            # otherwise become rate 1.0.
            if not finite_real(rate):
                raise NoiseModelError(
                    "overrides: rate for {!r} must be a finite number, "
                    "got {!r}".format(name, rate))
        normalized = tuple(sorted((name, float(rate))
                                  for name, rate in pairs))
        object.__setattr__(self, "overrides", normalized)
        self.validate()

    def validate(self) -> None:
        for label, rate in (("gate_1q", self.gate_1q),
                            ("gate_2q", self.gate_2q),
                            ("measure_flip", self.measure_flip)):
            if not finite_real(rate) or not 0.0 <= rate <= 1.0:
                raise NoiseModelError(
                    "{} must be a number in [0, 1], got {!r}".format(
                        label, rate))
        names = [name for name, _ in self.overrides]
        if len(set(names)) != len(names):
            raise NoiseModelError(
                "duplicate gate overrides {}".format(names))
        for name, rate in self.overrides:
            if not name:
                raise NoiseModelError("override gate name must be non-empty")
            if not 0.0 <= rate <= 1.0:
                raise NoiseModelError(
                    "override rate for {!r} must be in [0, 1], got {}"
                    .format(name, rate))
        for label, value in (("t1_us", self.t1_us), ("t2_us", self.t2_us)):
            if value is not None and (not finite_real(value)
                                      or value <= 0):
                raise NoiseModelError(
                    "{} must be a finite number > 0, got {!r}".format(
                        label, value))
        if self.t1_us is None and self.t2_us is not None:
            raise NoiseModelError("t2_us requires t1_us")
        if self.t1_us is not None:
            t2 = self.t2_us if self.t2_us is not None else self.t1_us
            if t2 > 2 * self.t1_us + 1e-12:
                raise NoiseModelError(
                    "t2_us cannot exceed 2 * t1_us ({} > {})".format(
                        t2, 2 * self.t1_us))

    # -- channel resolution ------------------------------------------------

    @property
    def is_zero(self) -> bool:
        """True when the model injects no errors at all."""
        return (self.gate_1q == 0.0 and self.gate_2q == 0.0 and
                self.measure_flip == 0.0 and self.t1_us is None and
                all(rate == 0.0 for _, rate in self.overrides))

    def gate_rate(self, name: str, num_qubits: int) -> float:
        """Depolarizing probability for one gate slot."""
        for override, rate in self.overrides:
            if override == name:
                return rate
        return self.gate_2q if num_qubits >= 2 else self.gate_1q

    def gate_channels(self, name: str, qubits: Sequence[int],
                      duration_ns: Optional[float] = None
                      ) -> List[Tuple[Tuple[int, ...], PauliChannel]]:
        """Channels injected at one gate slot, as (qubits, channel) pairs.

        The depolarizing term covers the full gate support; the T1/T2
        damping term (when the model has ``t1_us`` and the caller knows
        the slot duration) acts independently per qubit.
        """
        out: List[Tuple[Tuple[int, ...], PauliChannel]] = []
        rate = self.gate_rate(name, len(qubits))
        if rate > 0.0 and len(qubits) in (1, 2):
            out.append((tuple(qubits), depolarizing(rate, len(qubits))))
        if self.t1_us is not None and duration_ns:
            damping = pauli_twirled_damping(duration_ns, self.t1_us,
                                            self.t2_us)
            if damping.error_probability > 0.0:
                out.extend(((q,), damping) for q in qubits)
        return out

    def measure_channel(self) -> Optional[PauliChannel]:
        """Readout bit-flip channel (applied to the record, not the state)."""
        if self.measure_flip <= 0.0:
            return None
        return measurement_flip(self.measure_flip)

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        return {
            "gate_1q": self.gate_1q,
            "gate_2q": self.gate_2q,
            "measure_flip": self.measure_flip,
            "t1_us": self.t1_us,
            "t2_us": self.t2_us,
            "overrides": {name: rate for name, rate in self.overrides},
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "NoiseModel":
        if not isinstance(data, dict):
            raise NoiseModelError(
                "noise model must be a JSON object, got {}".format(
                    type(data).__name__))
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise NoiseModelError(
                "unknown noise-model fields {}; known: {}".format(
                    sorted(unknown), sorted(known)))
        kwargs = dict(data)
        overrides = kwargs.get("overrides")
        if overrides is not None:
            if not isinstance(overrides, dict):
                raise NoiseModelError("overrides must be an object")
            kwargs["overrides"] = tuple(sorted(overrides.items()))
        try:
            return cls(**kwargs)
        except TypeError as exc:
            raise NoiseModelError(str(exc)) from None

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "NoiseModel":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise NoiseModelError(
                "invalid noise-model JSON: {}".format(exc)) from None
        return cls.from_dict(data)


#: Named configurations for CLI/CI shorthands.  The depolarizing presets
#: follow the usual 10x ratio between 2q and 1q error rates.
PRESETS: Dict[str, NoiseModel] = {
    "zero": NoiseModel(),
    "depolarizing_1e3": NoiseModel(gate_1q=1e-3, gate_2q=1e-2,
                                   measure_flip=1e-3),
    "depolarizing_1e2": NoiseModel(gate_1q=1e-2, gate_2q=1e-1,
                                   measure_flip=1e-2),
    "damping_150us": NoiseModel(t1_us=150.0, t2_us=150.0),
    "readout_1e2": NoiseModel(measure_flip=1e-2),
}


def preset(name: str) -> NoiseModel:
    """Look up a named preset; unknown names raise with the known list."""
    try:
        return PRESETS[name]
    except KeyError:
        raise NoiseModelError(
            "unknown noise preset {!r} (available: {})".format(
                name, sorted(PRESETS))) from None


def resolve_noise_model(source: str) -> NoiseModel:
    """CLI resolution: a preset name, else a path to a JSON model file."""
    if source in PRESETS:
        return PRESETS[source]
    try:
        with open(source) as handle:
            return NoiseModel.from_json(handle.read())
    except OSError:
        raise NoiseModelError(
            "--noise {!r} is neither a preset (available: {}) nor a "
            "readable JSON file".format(source, sorted(PRESETS))) from None


def derive_seed(*parts: object) -> int:
    """crc32-derived 32-bit seed from structured parts.

    ``zlib.crc32``, never ``hash()``: string hashing is salted per
    process, and the serial/parallel/cached bit-identity guarantee needs
    every worker to derive the same per-shot streams.
    """
    return zlib.crc32("/".join(str(p) for p in parts).encode("utf-8")) \
        & 0xFFFFFFFF
