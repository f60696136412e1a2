"""Deterministic, seeded fault injection: the chaos fabric's core.

A :class:`FaultPlan` is a JSON-round-trippable list of
:class:`FaultRule`\\ s plus one integer seed.  Every injection decision
is a **pure function** of ``(seed, site, fault, token)`` — the token is
a stable identity such as a cell's cache key plus its lease attempt,
never wall-clock or a PRNG stream — so a chaos run is *replayable from
its seed*: the same plan over the same work always selects the same
victims, and a bench can predict from the plan alone exactly which
cells will crash, which store entries will rot and which request
indices will vanish (:meth:`FaultPlan.planned`).

The seeding discipline matches the rest of the repo
(:func:`repro.noise.model.derive_seed` — ``zlib.crc32``, never salted
``hash()``), so decisions agree across processes: the scheduler, every
worker and the bench harness all compute the same verdict for the same
token without sharing any state.

Injection sites consult the **process-global injector**
(:func:`active`), installed either programmatically
(:func:`activate`) or by pointing the strict ``REPRO_CHAOS_PLAN``
environment variable at a plan JSON file — which is also how spawned
worker subprocesses inherit the plan from ``serve --chaos-plan``.
When no plan is active (the default, and the only mode CI's digest
gates run in) every hook is a single ``is None`` check.

Known sites and faults (an unknown pair fails plan validation loudly —
a typo must never silently disable a fault):

====================  ==================================================
``http``              ``drop`` · ``delay`` · ``truncate`` · ``error_500``
                      (response-side, per route x response index)
``worker``            ``delay`` · ``hang`` · ``sigterm`` ·
                      ``crash_before_complete`` · ``crash_after_store``
                      (per cell key x lease attempt)
``scheduler``         ``clock_skew`` · ``duplicate_complete``
``diskcache``         ``torn_write`` · ``corrupt`` · ``enospc``
                      (per store key)
====================  ==================================================
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from ..errors import ReproError
from ..noise.model import derive_seed
from ..obs import log as obs_log
from ..obs import metrics as _metrics

__all__ = [
    "ChaosError", "FaultRule", "FaultPlan", "FaultInjector",
    "KNOWN_FAULTS", "active", "activate", "deactivate", "load_plan",
    "CHAOS_PLAN_ENV",
]

_log = obs_log.get_logger("repro.chaos")

#: Environment variable naming the active plan's JSON file (the way a
#: plan crosses a process boundary into spawned service workers).
CHAOS_PLAN_ENV = "REPRO_CHAOS_PLAN"

#: Every injectable (site, fault) pair.  Validation is strict: a rule
#: naming anything else is rejected, because a silently ignored fault
#: would make a chaos run look stronger than it is.
KNOWN_FAULTS: Dict[str, Tuple[str, ...]] = {
    "http": ("drop", "delay", "truncate", "error_500"),
    "worker": ("delay", "hang", "sigterm",
               "crash_before_complete", "crash_after_store"),
    "scheduler": ("clock_skew", "duplicate_complete"),
    "diskcache": ("torn_write", "corrupt", "enospc"),
}


class ChaosError(ReproError):
    """Malformed fault plan (unknown site/fault, bad rate, bad JSON)."""


@dataclass(frozen=True)
class FaultRule:
    """One fault at one site, fired at ``rate`` per opportunity.

    ``arg`` is the fault-specific magnitude: seconds for ``delay`` /
    ``hang`` / ``clock_skew``, ignored elsewhere.  ``max_injections``
    caps how often this rule fires *per process* (0 = unbounded) — a
    safety budget, not the determinism mechanism.  ``attempts``
    restricts worker faults to specific lease attempts (the standard
    convergence idiom: crash on attempt 1 only, so the retry always
    lands).
    """

    site: str
    fault: str
    rate: float = 1.0
    arg: float = 0.0
    max_injections: int = 0
    attempts: Tuple[int, ...] = ()

    def validate(self) -> None:
        faults = KNOWN_FAULTS.get(self.site)
        if faults is None:
            raise ChaosError("unknown fault site {!r} (known: {})".format(
                self.site, sorted(KNOWN_FAULTS)))
        if self.fault not in faults:
            raise ChaosError(
                "unknown fault {!r} for site {!r} (known: {})".format(
                    self.fault, self.site, list(faults)))
        if not isinstance(self.rate, (int, float)) or \
                not 0.0 < float(self.rate) <= 1.0:
            raise ChaosError(
                "{}/{}: rate must be in (0, 1], got {!r}".format(
                    self.site, self.fault, self.rate))
        if not isinstance(self.arg, (int, float)) or float(self.arg) < 0:
            raise ChaosError(
                "{}/{}: arg must be a number >= 0, got {!r}".format(
                    self.site, self.fault, self.arg))
        if not isinstance(self.max_injections, int) or \
                isinstance(self.max_injections, bool) or \
                self.max_injections < 0:
            raise ChaosError(
                "{}/{}: max_injections must be an integer >= 0, got "
                "{!r}".format(self.site, self.fault, self.max_injections))
        if not all(isinstance(a, int) and not isinstance(a, bool)
                   and a >= 1 for a in self.attempts):
            raise ChaosError(
                "{}/{}: attempts must be lease attempts >= 1, got "
                "{!r}".format(self.site, self.fault, self.attempts))

    def to_dict(self) -> Dict[str, object]:
        data: Dict[str, object] = {"site": self.site, "fault": self.fault,
                                   "rate": self.rate}
        if self.arg:
            data["arg"] = self.arg
        if self.max_injections:
            data["max_injections"] = self.max_injections
        if self.attempts:
            data["attempts"] = list(self.attempts)
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FaultRule":
        if not isinstance(data, dict):
            raise ChaosError("fault rule must be a JSON object, got "
                             "{}".format(type(data).__name__))
        known = {"site", "fault", "rate", "arg", "max_injections",
                 "attempts"}
        unknown = set(data) - known
        if unknown:
            raise ChaosError("unknown fault-rule fields {}; known: "
                             "{}".format(sorted(unknown), sorted(known)))
        kwargs = dict(data)
        kwargs["attempts"] = tuple(kwargs.get("attempts", ()))
        try:
            rule = cls(**kwargs)
        except TypeError as exc:
            raise ChaosError("bad fault rule: {}".format(exc)) from None
        rule.validate()
        return rule


@dataclass(frozen=True)
class FaultPlan:
    """A seed plus the fault rules it drives (JSON-round-trippable)."""

    seed: int
    rules: Tuple[FaultRule, ...] = ()
    name: str = "chaos"

    def validate(self) -> None:
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise ChaosError("plan seed must be an integer, got "
                             "{!r}".format(self.seed))
        for rule in self.rules:
            rule.validate()

    def rules_for(self, site: str, fault: str) -> List[FaultRule]:
        return [rule for rule in self.rules
                if rule.site == site and rule.fault == fault]

    def fires(self, rule: FaultRule, token: Tuple[object, ...]) -> bool:
        """The pure decision: does ``rule`` hit this opportunity?

        ``derive_seed`` maps (plan seed, site, fault, token) to a
        uniform 32-bit value; firing iff it lands under ``rate``
        makes every decision independent, stateless and identical in
        every process that asks.
        """
        draw = derive_seed("chaos", self.seed, rule.site, rule.fault,
                           *token)
        return draw / 4294967296.0 < float(rule.rate)

    def planned(self, site: str, fault: str,
                tokens: Iterable[Tuple[object, ...]]) -> List[tuple]:
        """Pure preview: which of ``tokens`` would be hit (budget-free).

        Benches use this to *predict* a soak's victim set from the seed
        alone — the replayability claim made checkable.
        """
        rules = self.rules_for(site, fault)
        hit = []
        for token in tokens:
            token = tuple(token)
            for rule in rules:
                if rule.attempts:
                    attempt = token[-1]
                    if attempt not in rule.attempts:
                        continue
                if self.fires(rule, token):
                    hit.append(token)
                    break
        return hit

    def to_dict(self) -> Dict[str, object]:
        return {"seed": self.seed, "name": self.name,
                "rules": [rule.to_dict() for rule in self.rules]}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FaultPlan":
        if not isinstance(data, dict):
            raise ChaosError("fault plan must be a JSON object, got "
                             "{}".format(type(data).__name__))
        known = {"seed", "rules", "name"}
        unknown = set(data) - known
        if unknown:
            raise ChaosError("unknown fault-plan fields {}; known: "
                             "{}".format(sorted(unknown), sorted(known)))
        if "seed" not in data:
            raise ChaosError("fault plan needs a seed")
        rules = data.get("rules", [])
        if not isinstance(rules, list):
            raise ChaosError("plan rules must be a list")
        plan = cls(seed=data["seed"],
                   rules=tuple(FaultRule.from_dict(r) for r in rules),
                   name=str(data.get("name", "chaos")))
        plan.validate()
        return plan

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ChaosError("invalid plan JSON: {}".format(exc)) \
                from None
        return cls.from_dict(data)


class FaultInjector:
    """A plan bound to per-process state: budgets, sequence counters
    and injected-fault tallies.

    Decisions themselves stay pure (:meth:`FaultPlan.fires`); the
    injector adds the two things that *are* process-local — the
    ``max_injections`` safety budgets and the per-group sequence
    numbers that identify "the Nth response on this route".  Every
    injection increments ``repro_chaos_injected_total`` (labelled by
    site and fault) in the process's metrics registry and logs a
    structured ``chaos_inject`` event, so a scrape of any chaos-run
    process shows exactly what was done to it.
    """

    def __init__(self, plan: FaultPlan):
        plan.validate()
        self.plan = plan
        self.injected: Dict[Tuple[str, str], int] = {}
        self._seq: Dict[Tuple[object, ...], int] = {}
        self._lock = threading.Lock()
        self._counters: Dict[Tuple[str, str], _metrics.Counter] = {}

    def seq(self, *group: object) -> int:
        """Next 0-based sequence number for ``group`` (e.g. one counter
        per HTTP route: the token for "the Nth /status response")."""
        with self._lock:
            value = self._seq.get(group, 0)
            self._seq[group] = value + 1
            return value

    def decide(self, site: str, fault: str, *token: object,
               attempt: Optional[int] = None) -> Optional[FaultRule]:
        """Fire-or-not for one opportunity; returns the winning rule.

        ``attempt`` (worker faults) both filters ``attempts``-scoped
        rules and joins the decision token, so "crash on attempt 1 of
        cell K" and "attempt 2 of cell K" are independent draws.
        """
        rules = self.plan.rules_for(site, fault)
        if not rules:
            return None
        full_token = token if attempt is None else token + (attempt,)
        for rule in rules:
            if rule.attempts and attempt not in rule.attempts:
                continue
            with self._lock:
                count = self.injected.get((site, fault), 0)
                if rule.max_injections and count >= rule.max_injections:
                    continue
                if not self.plan.fires(rule, full_token):
                    continue
                self.injected[(site, fault)] = count + 1
                counter = self._counters.get((site, fault))
                if counter is None:
                    counter = self._counters[(site, fault)] = \
                        _metrics.counter(
                            "repro_chaos_injected_total",
                            "chaos faults injected in this process",
                            labels={"site": site, "fault": fault})
                counter.inc()
            _log.info("chaos_inject", site=site, fault=fault,
                      token="/".join(str(part) for part in full_token),
                      seed=self.plan.seed)
            return rule
        return None

    def injected_by_site(self) -> Dict[str, int]:
        with self._lock:
            totals: Dict[str, int] = {}
            for (site, _fault), count in self.injected.items():
                totals[site] = totals.get(site, 0) + count
            return totals


def load_plan(path: str) -> FaultPlan:
    """Read and validate a plan JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ChaosError("cannot read chaos plan {}: {}".format(
            path, exc)) from None
    return FaultPlan.from_json(text)


# -- the process-global injector -------------------------------------------

_UNSET = object()
_ACTIVE: object = _UNSET
_ACTIVE_LOCK = threading.Lock()


def active() -> Optional[FaultInjector]:
    """The process's injector, or None (the fast path: no plan active).

    Resolved lazily on first call: an explicit :func:`activate` wins;
    otherwise :data:`CHAOS_PLAN_ENV` names a plan file — which is how a
    spawned worker subprocess picks up ``serve --chaos-plan``.
    """
    global _ACTIVE
    if _ACTIVE is _UNSET:
        with _ACTIVE_LOCK:
            if _ACTIVE is _UNSET:
                path = os.environ.get(CHAOS_PLAN_ENV)
                if path:
                    injector = FaultInjector(load_plan(path))
                    _log.info("chaos_active", source=path,
                              seed=injector.plan.seed,
                              rules=len(injector.plan.rules))
                    _ACTIVE = injector
                else:
                    _ACTIVE = None
    return _ACTIVE  # type: ignore[return-value]


def activate(plan: FaultPlan) -> FaultInjector:
    """Install ``plan`` as this process's injector (tests, the serve
    CLI); returns the injector for counter inspection."""
    global _ACTIVE
    injector = FaultInjector(plan)
    with _ACTIVE_LOCK:
        _ACTIVE = injector
    _log.info("chaos_active", source="activate", seed=plan.seed,
              rules=len(plan.rules))
    return injector


def deactivate() -> None:
    """Drop the active injector; :func:`active` re-reads the env."""
    global _ACTIVE
    with _ACTIVE_LOCK:
        _ACTIVE = _UNSET
