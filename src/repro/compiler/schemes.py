"""Pluggable synchronization-scheme registry + lowering-pass pipeline.

The paper's central experimental variable (section 6.4) is the
*synchronization scheme* — BISP vs demand-driven vs lock-step.  This
module turns the scheme axis into the repo's second extension axis
(mirroring the workload registry of :mod:`repro.harness.registry`):

* A :class:`Scheme` bundles a *lowering* function (circuit -> per-
  controller :class:`~repro.compiler.codegen.LoweredProgram` streams)
  with a declarative pipeline of post-lowering :class:`LoweringPass`
  steps (e.g. BISP's booking hoist) and an optional
  :class:`~repro.sim.config.SimulationConfig` adaptation (e.g. the
  oracle scheme's zero communication latencies).
* Schemes self-register by name through :func:`register_scheme`;
  duplicate names are rejected instead of silently shadowed, and names,
  descriptions and tags are validated at registration time.
* :func:`repro.compiler.driver.compile_circuit` dispatches through
  :func:`get_scheme`, and every harness consumer (sweep specs, the
  sweep CLI, tables, figures) resolves schemes dynamically —
  a scheme registered at import time flows end-to-end into sweeps,
  BENCH artifacts and figures with zero harness edits.
* :func:`scheme_names` is the one list of registered schemes, read from
  the registry at call time.

Registering a new scheme takes ~10 lines in any module::

    from repro.compiler.schemes import LoweringPass, register_scheme
    from repro.compiler.codegen import lower_circuit

    @register_scheme("my_scheme", description="...", tags=("extra",),
                     passes=(LoweringPass("tighten", my_pass),))
    def _lower(circuit, qmap, topology, config):
        return lower_circuit(circuit, qmap, topology, config)

The decorated function receives ``(circuit, qmap, topology, config)``
and returns a :class:`~repro.compiler.codegen.LoweredProgram`; each
pipeline pass then runs in order and may return a statistics dict that
is merged into :attr:`CompilationResult.stats`.  Import the module
before building a sweep (the builtin schemes of
:data:`BUILTIN_SCHEME_MODULES` are imported automatically).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import CompilationError
from ..obs import trace as _trace
from .codegen import LoweredProgram, lower_circuit
from .lockstep_gen import lower_lockstep
from .sync_pass import demand_gaps, hoist_bookings

#: Valid scheme-name shape (same rule as workload names).
_NAME_RE = re.compile(r"[a-z][a-z0-9_]*")


class SchemeRegistryError(CompilationError):
    """Raised on duplicate names, invalid parameters or unknown schemes.

    Subclasses :class:`~repro.errors.CompilationError` so callers that
    guarded ``compile_circuit(scheme=...)`` against compilation errors
    keep working unchanged.
    """


@dataclass(frozen=True)
class LoweringPass:
    """One named step of a scheme's post-lowering pipeline.

    ``run(lowered, config)`` mutates the streams in place and may
    return a statistics dict (merged into ``CompilationResult.stats``)
    or ``None``.
    """

    name: str
    run: Callable[[LoweredProgram, object], Optional[Dict[str, int]]]


@dataclass(frozen=True)
class Scheme:
    """One registered synchronization scheme.

    ``lower`` maps ``(circuit, qmap, topology, config)`` to a
    :class:`~repro.compiler.codegen.LoweredProgram`; ``passes`` then run
    in order.  ``adapt_config`` (if any) rewrites the simulation config
    *before* topology construction and lowering — the adapted config is
    also the one the compiled system simulates under.
    """

    name: str
    description: str
    lower: Callable[..., LoweredProgram]
    passes: Tuple[LoweringPass, ...] = ()
    adapt_config: Optional[Callable] = None
    tags: Tuple[str, ...] = ()

    def effective_config(self, config):
        """The simulation config this scheme compiles and runs under."""
        if self.adapt_config is None:
            return config
        return self.adapt_config(config)

    def lower_and_optimize(self, circuit, qmap, topology, config
                           ) -> Tuple[LoweredProgram, Dict[str, int]]:
        """Run the full pipeline: lower, then every pass in order.

        Returns ``(lowered, pass_stats)`` where ``pass_stats`` merges
        every pass's returned statistics (later passes win on key
        collisions)."""
        with _trace.span("lower", cat="compile", scheme=self.name):
            lowered = self.lower(circuit, qmap, topology, config)
        stats: Dict[str, int] = {}
        for pipeline_pass in self.passes:
            with _trace.span(pipeline_pass.name, cat="compile",
                             scheme=self.name):
                result = pipeline_pass.run(lowered, config)
            if result:
                stats.update(result)
        return lowered, stats


def _validate(scheme: Scheme) -> None:
    if not _NAME_RE.fullmatch(scheme.name):
        raise SchemeRegistryError(
            "scheme name {!r} must match {}".format(scheme.name,
                                                    _NAME_RE.pattern))
    if not scheme.description or not scheme.description.strip():
        raise SchemeRegistryError(
            "{}: scheme needs a non-empty description".format(scheme.name))
    if not callable(scheme.lower):
        raise SchemeRegistryError(
            "{}: lower must be callable".format(scheme.name))
    for pipeline_pass in scheme.passes:
        if not isinstance(pipeline_pass, LoweringPass):
            raise SchemeRegistryError(
                "{}: passes must be LoweringPass instances, got {!r}".format(
                    scheme.name, type(pipeline_pass).__name__))
        if not callable(pipeline_pass.run):
            raise SchemeRegistryError(
                "{}: pass {!r} run hook must be callable".format(
                    scheme.name, pipeline_pass.name))
    if scheme.adapt_config is not None and not callable(scheme.adapt_config):
        raise SchemeRegistryError(
            "{}: adapt_config must be callable or None".format(scheme.name))
    for tag in scheme.tags:
        if not isinstance(tag, str) or not tag:
            raise SchemeRegistryError(
                "{}: tags must be non-empty strings, got {!r}".format(
                    scheme.name, tag))


_REGISTRY: Dict[str, Scheme] = {}
#: (module, sequence) per name — canonical ordering metadata, mirroring
#: the workload registry (see :func:`scheme_names`).
_ORIGIN: Dict[str, Tuple[str, int]] = {}
_SEQUENCE = [0]


def register(scheme: Scheme) -> Scheme:
    """Add a pre-built :class:`Scheme`; rejects duplicates."""
    _validate(scheme)
    if scheme.name in _REGISTRY:
        raise SchemeRegistryError(
            "scheme {!r} is already registered".format(scheme.name))
    _REGISTRY[scheme.name] = scheme
    _SEQUENCE[0] += 1
    _ORIGIN[scheme.name] = (getattr(scheme.lower, "__module__", ""),
                            _SEQUENCE[0])
    return scheme


def register_scheme(name: str, *, description: str,
                    passes: Sequence[LoweringPass] = (),
                    adapt_config: Optional[Callable] = None,
                    tags: Sequence[str] = ()):
    """Decorator: register ``fn(circuit, qmap, topology, config)``."""
    def decorate(fn: Callable[..., LoweredProgram]
                 ) -> Callable[..., LoweredProgram]:
        register(Scheme(name=name, description=description, lower=fn,
                        passes=tuple(passes), adapt_config=adapt_config,
                        tags=tuple(tags)))
        return fn
    return decorate


def unregister(name: str) -> None:
    """Remove a scheme (tests use this to keep the registry clean)."""
    _REGISTRY.pop(name, None)
    _ORIGIN.pop(name, None)


#: Modules whose import populates the registry beyond this module's own
#: core schemes.  Third-party schemes just import their module before
#: compiling/sweeping — sweep tasks record each scheme's origin module
#: and spawn workers re-import it, exactly like workloads.
BUILTIN_SCHEME_MODULES = [
    "repro.schemes.oracle",           # zero-latency idealized anchor
    "repro.schemes.lockstep_window",  # windowed lock-step baseline
]


def ensure_builtin_schemes() -> None:
    """Import every module in :data:`BUILTIN_SCHEME_MODULES` (idempotent:
    re-imports are no-ops, and each module registers at import time)."""
    import importlib
    for module in BUILTIN_SCHEME_MODULES:
        importlib.import_module(module)


def get_scheme(name) -> Scheme:
    """Look up one scheme; unknown names raise with the registered list.

    A :class:`Scheme` instance passes straight through, so callers can
    hand ``compile_circuit`` an unregistered experimental scheme."""
    if isinstance(name, Scheme):
        return name
    ensure_builtin_schemes()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise SchemeRegistryError(
            "unknown scheme {!r} (registered: {})".format(
                name, scheme_names())) from None


def origin_module(name: str) -> str:
    """Module that registered ``name`` (sweep workers import it so
    third-party schemes are rebuildable under ``spawn`` too)."""
    get_scheme(name)  # ensure builtins are loaded / name exists
    return _ORIGIN[name][0]


def _canonical_key(name: str) -> Tuple[int, str, int]:
    """Sort key independent of *import* order: this module's core schemes
    first, then :data:`BUILTIN_SCHEME_MODULES` in list order, then
    third-party modules by name; within a module, source definition
    order."""
    module, sequence = _ORIGIN[name]
    if module == __name__:
        rank = -1
    else:
        try:
            rank = BUILTIN_SCHEME_MODULES.index(module)
        except ValueError:
            rank = len(BUILTIN_SCHEME_MODULES)
    return (rank, module, sequence)


def scheme_names(tags: Optional[Sequence[str]] = None) -> List[str]:
    """Registered names in canonical order, optionally tag-filtered.

    The order is deterministic across processes and import orders — the
    sweep grid, cache layout and BENCH artifacts all depend on that.
    """
    ensure_builtin_schemes()
    wanted = set(tags) if tags is not None else None
    return sorted((name for name, s in _REGISTRY.items()
                   if wanted is None or wanted & set(s.tags)),
                  key=_canonical_key)


def all_schemes(tags: Optional[Sequence[str]] = None) -> List[Scheme]:
    """Registered schemes in canonical order, optionally filtered."""
    return [_REGISTRY[name] for name in scheme_names(tags)]


# ---------------------------------------------------------------------------
# Core schemes (section 6.4): the paper's three-way comparison.
# ---------------------------------------------------------------------------

#: BISP booking pass as a declarative pipeline step.
HOIST_BOOKINGS_PASS = LoweringPass(
    "hoist_bookings",
    lambda lowered, config: hoist_bookings(lowered,
                                           config.neighbor_link_cycles))

#: Demand-driven gap assignment (full latency on every sync).
DEMAND_GAPS_PASS = LoweringPass(
    "demand_gaps",
    lambda lowered, config: demand_gaps(lowered,
                                        config.neighbor_link_cycles))


@register_scheme(
    "bisp",
    description="Distributed-HISQ: independent streams, booked syncs "
                "hoisted over deterministic work, point-to-point feedback",
    passes=(HOIST_BOOKINGS_PASS,),
    tags=("paper",))
def _lower_bisp(circuit, qmap, topology, config) -> LoweredProgram:
    return lower_circuit(circuit, qmap, topology, config)


@register_scheme(
    "demand",
    description="QubiC-2.0-style ablation: BISP streams with syncs placed "
                "immediately before the synchronization point (no booking "
                "lead)",
    passes=(DEMAND_GAPS_PASS,),
    tags=("paper",))
def _lower_demand(circuit, qmap, topology, config) -> LoweredProgram:
    return lower_circuit(circuit, qmap, topology, config)


@register_scheme(
    "lockstep",
    description="IBM-style baseline: shared program flow, central "
                "controller broadcasting every measurement, reserved "
                "feedback slots",
    tags=("paper",))
def _lower_lockstep(circuit, qmap, topology, config) -> LoweredProgram:
    return lower_lockstep(circuit, qmap, topology, config)
