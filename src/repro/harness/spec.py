"""Declarative sweep specifications: the (workload x scheme x scale x
shots) grid as data.

A :class:`SweepSpec` pins down *everything* that determines a sweep's
results — which registered workloads, which synchronization schemes,
which scale factors and shot counts, the substitution fraction, the
device seed and the :class:`~repro.sim.config.SimulationConfig` — as one
JSON-round-trippable value.  The serial runner, the multiprocessing
harness and the ``python -m repro.harness.sweep`` CLI all consume the
same spec, which is what makes "serial and parallel sweeps are
bit-identical" a property you can assert instead of hope for.

``to_json``/``from_json`` are exact inverses (``from_json(s.to_json())
== s``), so specs can live in files, CI configs and BENCH artifacts.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, fields
from typing import Dict, List, Optional, Tuple

from ..compiler import schemes as scheme_registry
from ..compiler.schemes import SchemeRegistryError
from ..errors import ReproError
from ..noise.model import NoiseModel, finite_real
from ..sim.config import SimulationConfig
from . import registry
from .benchjson import valid_name


class SweepSpecError(ReproError):
    """Raised when a sweep specification is malformed."""


def _is_int(value) -> bool:
    """An ``int`` proper: JSON ``true`` decodes to a bool, which Python
    counts as the integer 1."""
    return isinstance(value, int) and not isinstance(value, bool)


#: Inclusive lower bounds on :class:`SimulationConfig` fields; every
#: other field only has to be >= 0.  ``cycle_ns`` divides every
#: duration, so it must also be nonzero.
_CONFIG_FLOORS = {"classical_cpi": 1, "event_queue_depth": 1,
                  "router_fanout": 2}


def _validate_config(config: SimulationConfig) -> None:
    """Type and range of every :class:`SimulationConfig` field: an int
    field takes an ``int``, a float field an ``int`` or ``float``."""
    for spec_field in fields(SimulationConfig):
        name, value = spec_field.name, getattr(config, spec_field.name)
        if isinstance(spec_field.default, float):
            ok, kind = finite_real(value), "a number"
        else:
            ok, kind = _is_int(value), "an integer"
        floor = _CONFIG_FLOORS.get(name, 0)
        if not ok or value < floor or (name == "cycle_ns" and value == 0):
            raise SweepSpecError("config.{} must be {} {} {}, got {!r}".format(
                name, kind, ">" if name == "cycle_ns" else ">=", floor,
                value))


@dataclass(frozen=True)
class SweepCell:
    """One grid point of a sweep."""

    workload: str
    scheme: str
    scale: float
    shots: int

    def key(self) -> Tuple[str, str, float, int]:
        return (self.workload, self.scheme, self.scale, self.shots)


@dataclass(frozen=True)
class SweepSpec:
    """Declarative (workload x scheme x scale x shots) sweep grid.

    ``workloads=None`` means "every registered workload" *resolved at
    execution time* — a spec written before a new family registered will
    pick it up, which is exactly what a CI smoke sweep wants.  ``tags``
    filters that resolution (e.g. ``("paper",)`` for the Figure-15 list).
    ``schemes=None`` works the same way on the scheme axis: every
    scheme registered (in canonical registry order) at the time the
    grid is resolved, so a third-party scheme registered at import time
    joins the sweep with zero spec edits.
    """

    workloads: Optional[Tuple[str, ...]] = None
    tags: Optional[Tuple[str, ...]] = None
    schemes: Optional[Tuple[str, ...]] = None
    scales: Tuple[float, ...] = (1.0,)
    shots: Tuple[int, ...] = (1,)
    substitution_fraction: float = 0.25
    device_seed: int = 1234
    config: Optional[SimulationConfig] = None
    #: optional Monte-Carlo noise model; when set, every cell also runs
    #: ``noise_shots`` noisy samples and reports ``fidelity_empirical``.
    noise: Optional[NoiseModel] = None
    noise_shots: int = 256

    def __post_init__(self):
        # Normalize list inputs (e.g. straight from JSON) to tuples so
        # equality and hashing behave; validate everything else.
        for name in ("workloads", "tags", "schemes", "scales", "shots"):
            value = getattr(self, name)
            if value is not None and not isinstance(value, tuple):
                object.__setattr__(self, name, tuple(value))
        self.validate()

    def validate(self) -> None:
        """Raise :class:`SweepSpecError` on any malformed axis."""
        if self.schemes is not None:
            if not self.schemes:
                raise SweepSpecError(
                    "schemes must be None (= all registered) or non-empty")
            for scheme in self.schemes:
                try:
                    scheme_registry.get_scheme(scheme)
                except SchemeRegistryError as exc:
                    raise SweepSpecError(str(exc)) from None
            if len(set(self.schemes)) != len(self.schemes):
                raise SweepSpecError(
                    "duplicate schemes {}".format(self.schemes))
        if not self.scales:
            raise SweepSpecError("spec needs at least one scale")
        for scale in self.scales:
            if not (finite_real(scale) and 0.0 < scale <= 1.0):
                raise SweepSpecError(
                    "scale must be a number in (0, 1], got {!r}".format(scale))
        if len(set(self.scales)) != len(self.scales):
            raise SweepSpecError("duplicate scales {}".format(self.scales))
        if not self.shots:
            raise SweepSpecError("spec needs at least one shots value")
        for shots in self.shots:
            if not (_is_int(shots) and shots >= 1):
                raise SweepSpecError(
                    "shots must be integers >= 1, got {!r}".format(shots))
        if len(set(self.shots)) != len(self.shots):
            raise SweepSpecError("duplicate shots {}".format(self.shots))
        if not (finite_real(self.substitution_fraction)
                and 0.0 <= self.substitution_fraction <= 1.0):
            raise SweepSpecError(
                "substitution_fraction must be a number in [0, 1], "
                "got {!r}".format(self.substitution_fraction))
        if self.workloads is not None and not self.workloads:
            raise SweepSpecError(
                "workloads must be None (= all registered) or non-empty")
        if self.workloads is not None and \
                len(set(self.workloads)) != len(self.workloads):
            raise SweepSpecError(
                "duplicate workloads {}".format(self.workloads))
        if not (_is_int(self.noise_shots) and self.noise_shots >= 1):
            raise SweepSpecError(
                "noise_shots must be an integer >= 1, got {!r}".format(
                    self.noise_shots))
        if not (_is_int(self.device_seed) and self.device_seed >= 0):
            raise SweepSpecError(
                "device_seed must be an integer >= 0, got {!r}".format(
                    self.device_seed))
        if self.config is not None:
            if not isinstance(self.config, SimulationConfig):
                raise SweepSpecError(
                    "config must be a SimulationConfig or None, got "
                    "{!r}".format(type(self.config).__name__))
            _validate_config(self.config)
        if self.noise is not None and not isinstance(self.noise, NoiseModel):
            raise SweepSpecError(
                "noise must be a NoiseModel or None, got {!r}".format(
                    type(self.noise).__name__))

    def resolved_workloads(self) -> List[str]:
        """Workload names this spec covers, in canonical registry order.

        Explicit ``workloads`` are validated against the registry (typos
        fail loudly, with the registered list in the message).
        """
        if self.workloads is not None:
            for name in self.workloads:
                registry.get_workload(name)  # raises on unknown names
            return list(self.workloads)
        return registry.workload_names(tags=self.tags)

    def resolved_schemes(self) -> List[str]:
        """Scheme names this spec covers, in canonical registry order
        when ``schemes`` is ``None`` (explicit lists keep their order)."""
        if self.schemes is not None:
            return list(self.schemes)
        return scheme_registry.scheme_names()

    def cells(self) -> List[SweepCell]:
        """The full grid in deterministic (workload-major) order."""
        schemes = self.resolved_schemes()
        return [SweepCell(workload=name, scheme=scheme, scale=scale,
                          shots=shots)
                for name in self.resolved_workloads()
                for scale in self.scales
                for shots in self.shots
                for scheme in schemes]

    def num_cells(self) -> int:
        return len(self.cells())

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """Plain-JSON-types dict; ``from_dict`` inverts it exactly."""
        return {
            "workloads": (list(self.workloads)
                          if self.workloads is not None else None),
            "tags": list(self.tags) if self.tags is not None else None,
            "schemes": (list(self.schemes)
                        if self.schemes is not None else None),
            "scales": list(self.scales),
            "shots": list(self.shots),
            "substitution_fraction": self.substitution_fraction,
            "device_seed": self.device_seed,
            "config": asdict(self.config) if self.config is not None
                      else None,
            "noise": self.noise.to_dict() if self.noise is not None
                     else None,
            "noise_shots": self.noise_shots,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "SweepSpec":
        if not isinstance(data, dict):
            raise SweepSpecError("spec must be a JSON object, got {}".format(
                type(data).__name__))
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise SweepSpecError(
                "unknown spec fields {}; known: {}".format(
                    sorted(unknown), sorted(known)))
        kwargs = dict(data)
        config = kwargs.get("config")
        if config is not None:
            if not isinstance(config, dict):
                raise SweepSpecError("config must be an object or null")
            try:
                kwargs["config"] = SimulationConfig(**config)
            except TypeError as exc:
                raise SweepSpecError(
                    "bad config: {}".format(exc)) from None
        noise = kwargs.get("noise")
        if noise is not None:
            try:
                kwargs["noise"] = NoiseModel.from_dict(noise)
            except ReproError as exc:
                raise SweepSpecError("bad noise: {}".format(exc)) from None
        try:
            return cls(**kwargs)
        except TypeError as exc:
            raise SweepSpecError(str(exc)) from None

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SweepSpec":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SweepSpecError("invalid spec JSON: {}".format(exc)) \
                from None
        return cls.from_dict(data)


@dataclass(frozen=True)
class SweepSubmission:
    """A sweep spec plus the service-level metadata that travels with it.

    This is the unit the sweep service (:mod:`repro.service`) accepts:
    *what* to run (the :class:`SweepSpec`) together with *who* is asking
    (``owner`` — the quota key), *how urgently* (``priority`` — lower
    runs first) and what to call the resulting artifact (``name`` —
    becomes ``BENCH_<name>.json`` on fetch, hence the same character
    restriction the BENCH schema enforces).  Like the spec itself it is
    JSON-round-trippable (``from_dict(s.to_dict()) == s``), so the HTTP
    front end, the CLI and the scheduler all exchange the same value.

    ``idempotency_key`` makes retry-safety explicit: a client that
    resubmits after a lost ``/submit`` response sends the same key and
    the scheduler returns the original submission instead of creating a
    duplicate.  :meth:`content_idempotency_key` derives the natural
    key — a sha256 over the submission's canonical JSON — which the
    service client uses by default.
    """

    spec: SweepSpec
    name: str = "sweep"
    owner: str = "anonymous"
    priority: int = 0
    idempotency_key: Optional[str] = None

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        if not isinstance(self.spec, SweepSpec):
            raise SweepSpecError(
                "submission spec must be a SweepSpec, got {!r}".format(
                    type(self.spec).__name__))
        if not valid_name(self.name):
            raise SweepSpecError(
                "submission name must be a non-empty [A-Za-z0-9_]+ "
                "string, got {!r}".format(self.name))
        if not self.owner or not isinstance(self.owner, str):
            raise SweepSpecError(
                "submission owner must be a non-empty string, got "
                "{!r}".format(self.owner))
        if not _is_int(self.priority) or self.priority < 0:
            raise SweepSpecError(
                "submission priority must be an integer >= 0 "
                "(lower runs first), got {!r}".format(self.priority))
        if self.idempotency_key is not None and (
                not isinstance(self.idempotency_key, str)
                or not self.idempotency_key
                or len(self.idempotency_key) > 128):
            raise SweepSpecError(
                "idempotency_key must be a non-empty string of at most "
                "128 characters, got {!r}".format(self.idempotency_key))

    def content_idempotency_key(self) -> str:
        """sha256 over the canonical submission JSON (sans any explicit
        key): byte-equal submissions share one key by construction."""
        base = {"spec": self.spec.to_dict(), "name": self.name,
                "owner": self.owner, "priority": self.priority}
        canonical = json.dumps(base, sort_keys=True,
                               separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def to_dict(self) -> Dict[str, object]:
        data = {"spec": self.spec.to_dict(), "name": self.name,
                "owner": self.owner, "priority": self.priority}
        if self.idempotency_key is not None:
            data["idempotency_key"] = self.idempotency_key
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "SweepSubmission":
        if not isinstance(data, dict):
            raise SweepSpecError(
                "submission must be a JSON object, got {}".format(
                    type(data).__name__))
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise SweepSpecError(
                "unknown submission fields {}; known: {}".format(
                    sorted(unknown), sorted(known)))
        if "spec" not in data:
            raise SweepSpecError("submission needs a spec")
        kwargs = dict(data)
        kwargs["spec"] = SweepSpec.from_dict(kwargs["spec"])
        try:
            return cls(**kwargs)
        except TypeError as exc:
            raise SweepSpecError(str(exc)) from None

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SweepSubmission":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SweepSpecError(
                "invalid submission JSON: {}".format(exc)) from None
        return cls.from_dict(data)
