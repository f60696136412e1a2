"""The layer ledger: which public callables a traced run wraps, and the
span accounting that makes the layers add up to the wall clock.

A traced child process wraps every binding in :data:`LAYERS` with a
timing span.  Spans nest on one stack (main thread only), so a layer's
*self* time is its span time minus the spans opened inside it, and the
self times of all layers plus the root's own remainder (``unattributed``)
equal the root span -- the process's wall clock from ready to exit --
exactly, by construction.  Garbage-collector pauses become their own
``python.gc_s`` spans through :data:`gc.callbacks`.

Nothing here touches ``repro.obs.trace``: switching that tracer on makes
the sweep harness record TELF events, which changes the work measured.
The ledger keeps its spans in its own list and exports them as Chrome
trace-event ``X`` events.
"""

from __future__ import annotations

import gc
import importlib
import os
import threading
import time
from typing import Callable, Dict, List, Optional


def _count_circuit(counts: Dict[str, float], circuit) -> None:
    counts["circuits.ops"] = counts.get("circuits.ops", 0) + len(circuit)


def _count_compilation(counts: Dict[str, float], result) -> None:
    counts["compiler.compilations"] = \
        counts.get("compiler.compilations", 0) + 1
    counts["compiler.instructions"] = \
        counts.get("compiler.instructions", 0) + result.total_instructions


def _count_system(counts: Dict[str, float], system) -> None:
    counts["sim.systems"] = counts.get("sim.systems", 0) + 1


#: ``ExecutionStats`` field -> ledger count.
_STATS_COUNTS = (
    ("events_processed", "sim.events"),
    ("instructions_executed", "sim.instructions"),
    ("syncs_completed", "sim.syncs"),
    ("messages_sent", "sim.messages"),
    ("makespan_cycles", "sim.makespan_cycles"),
    ("sync_stall_cycles", "sim.sync_stall_cycles"),
)


def _count_run(counts: Dict[str, float], stats) -> None:
    for field, name in _STATS_COUNTS:
        counts[name] = counts.get(name, 0) + getattr(stats, field)


def _count_noise(counts: Dict[str, float], estimate) -> None:
    counts["noise.cells"] = counts.get("noise.cells", 0) + 1


#: Layer metric -> (bindings, result hook).  A binding is
#: ``module:attribute.path``.  A function imported by name into another
#: module is a separate binding and is listed there too, or calls made
#: through that name go unseen.
LAYERS = (
    ("circuits.build_s",
     ("repro.harness.runner:BenchmarkSpec.circuit",), _count_circuit),
    ("compiler.lower_s",
     ("repro.compiler.schemes:Scheme.lower_and_optimize",), None),
    ("compiler.emit_s", ("repro.compiler.driver:emit_program",), None),
    ("compiler.self_s",
     ("repro.compiler.driver:compile_circuit",
      "repro.harness.parallel:compile_circuit",
      "repro.compiler.cache:compile_circuit"), _count_compilation),
    ("compile_cache.get_s", ("repro.compiler.cache:CompileCache.get",), None),
    ("compile_cache.put_s", ("repro.compiler.cache:CompileCache.put",), None),
    ("decode.s",
     ("repro.core.node:decode_program",
      "repro.sim.system:decode_program",
      "repro.compiler.cache:decode_program"), None),
    ("sim.build_s",
     ("repro.compiler.driver:CompilationResult.build_system",),
     _count_system),
    ("sim.run_s", ("repro.sim.system:ControlSystem.run",), _count_run),
    ("noise.s", ("repro.noise.estimator:estimate_fidelity",), _count_noise),
    ("harness.cell_self_s",
     ("repro.harness.parallel:run_cell_timed",
      "repro.service.worker:run_cell_timed"), None),
    ("harness.assemble_s",
     ("repro.harness.sweep:sweep_rows",
      "repro.harness.sweep:make_bench",
      "repro.harness.sweep:write_bench",
      "repro.service.scheduler:sweep_rows",
      "repro.service.scheduler:make_bench"), None),
    ("store.io_s",
     ("repro.service.store:CellStore.get",
      "repro.service.store:CellStore.put"), None),
    # Worker -> scheduler HTTP: mostly lease long-polls waiting for work.
    ("service.worker_http_s", ("repro.service.client:request",), None),
    # The scheduler's event loop blocked in its selector, i.e. idle.
    ("service.idle_s", ("selectors:DefaultSelector.select",), None),
)

#: Spans the bench records in its own (client) process, around its calls
#: into ``repro.service.client``; not wrappers, so not in :data:`LAYERS`.
CLIENT_LAYERS = ("service.client_s", "service.client_wait_s")

GC_LAYER = "python.gc_s"

#: Every layer whose self time the ledger reports.
LAYER_NAMES = tuple(layer for layer, _, _ in LAYERS) + CLIENT_LAYERS + (
    GC_LAYER,)

#: Spans exported to the Chrome trace per process.  Past this the ledger
#: still accounts every span; it only stops keeping events.
EVENT_LIMIT = 20_000


class LayerTableError(RuntimeError):
    """A :data:`LAYERS` binding does not resolve to a callable."""


def resolve(target: str):
    """``(owner, attribute, callable)`` for a ``module:attr.path``
    binding; raises ImportError/AttributeError/TypeError."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attribute = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    function = getattr(owner, attribute)
    if not callable(function):
        raise TypeError("{} is not callable".format(target))
    return owner, attribute, function


def validate() -> None:
    """Fail loudly unless every binding in :data:`LAYERS` resolves."""
    problems = []
    for layer, targets, _ in LAYERS:
        for target in targets:
            try:
                resolve(target)
            except (ImportError, AttributeError, TypeError) as exc:
                problems.append("{} -> {}: {}: {}".format(
                    layer, target, type(exc).__name__, exc))
    if problems:
        raise LayerTableError("layer table has unresolvable bindings:\n  "
                              + "\n  ".join(problems))


class Ledger:
    """Nested wall-clock spans of one process, on its main thread.

    ``start`` opens the root span, ``finish`` closes it and returns the
    ledger document.  Every clock read is ``time.monotonic``, which is
    system-wide on Linux, so the events of several processes share one
    timeline.
    """

    def __init__(self, label: str):
        self.label = label
        self.pid = os.getpid()
        self.main = threading.get_ident()
        self.stack: List[list] = []
        self.self_s: Dict[str, float] = {}
        self.bindings: Dict[str, List[float]] = {}
        self.counts: Dict[str, float] = {}
        self.events: List[dict] = [
            {"ph": "M", "ts": 0, "pid": self.pid, "tid": 0,
             "name": "process_name", "args": {"name": label}}]

    def start(self) -> None:
        self.stack.append(["process", time.monotonic(), 0.0])

    def enter(self, layer: str) -> None:
        frame = [layer, 0.0, 0.0]
        self.stack.append(frame)
        # Read the clock after the allocation above: a GC pause it
        # triggers belongs to the enclosing span, not to this one.
        frame[1] = time.monotonic()

    def exit(self, binding: Optional[str] = None) -> None:
        end = time.monotonic()
        layer, begin, children = self.stack.pop()
        duration = end - begin
        self.self_s[layer] = self.self_s.get(layer, 0.0) + duration - children
        self.stack[-1][2] += duration
        if binding is not None:
            stat = self.bindings.get(binding)
            if stat is None:
                stat = self.bindings[binding] = [0, 0.0]
            stat[0] += 1
            stat[1] += duration
        if len(self.events) < EVENT_LIMIT:
            self.events.append({"ph": "X", "name": layer, "cat": "ledger",
                                "ts": begin * 1e6, "dur": duration * 1e6,
                                "pid": self.pid, "tid": 0})

    def span(self, layer: str):
        """Context manager form of :meth:`enter`/:meth:`exit`."""
        return _Span(self, layer)

    def finish(self) -> dict:
        end = time.monotonic()
        _, begin, children = self.stack.pop()
        self.events.append({"ph": "X", "name": "process", "cat": "ledger",
                            "ts": begin * 1e6, "dur": (end - begin) * 1e6,
                            "pid": self.pid, "tid": 0})
        return {"label": self.label, "wall_s": end - begin,
                "unattributed_s": end - begin - children,
                "self_s": self.self_s, "counts": self.counts,
                "bindings": self.bindings, "events": self.events}


class _Span:
    __slots__ = ("ledger", "layer")

    def __init__(self, ledger: Ledger, layer: str):
        self.ledger = ledger
        self.layer = layer

    def __enter__(self):
        self.ledger.enter(self.layer)

    def __exit__(self, *exc):
        self.ledger.exit()
        return False


def _wrap(ledger: Ledger, layer: str, binding: str, function: Callable,
          hook: Optional[Callable]) -> Callable:
    get_ident = threading.get_ident
    main = ledger.main

    def wrapped(*args, **kwargs):
        if get_ident() != main or not ledger.stack:
            return function(*args, **kwargs)
        ledger.enter(layer)
        try:
            result = function(*args, **kwargs)
        finally:
            ledger.exit(binding)
        if hook is not None:
            hook(ledger.counts, result)
        return result

    wrapped.__name__ = getattr(function, "__name__", layer)
    wrapped.__qualname__ = getattr(function, "__qualname__", layer)
    wrapped.__doc__ = function.__doc__
    return wrapped


def install(label: str) -> Ledger:
    """Validate the table, wrap every binding and hook the collector.

    Returns the (not yet started) ledger; the caller starts it when the
    process is ready and finishes it at exit."""
    validate()
    ledger = Ledger(label)
    for layer, targets, hook in LAYERS:
        for target in targets:
            owner, attribute, function = resolve(target)
            setattr(owner, attribute,
                    _wrap(ledger, layer, target, function, hook))
    main = ledger.main

    def on_gc(phase, info):
        if threading.get_ident() != main or not ledger.stack:
            return
        if phase == "start":
            ledger.enter(GC_LAYER)
        elif ledger.stack[-1][0] == GC_LAYER:
            ledger.exit()

    gc.callbacks.append(on_gc)
    return ledger


def process_counts() -> Dict[str, float]:
    """The process-wide repro counters the ledger reports, read at exit."""
    from repro.compiler.cache import compile_cache_totals
    from repro.isa.decoded import decode_cache_stats, replay_totals
    from repro.network.sync_plan import sync_plan_totals
    from repro.sim.lanes import lane_totals

    decode = decode_cache_stats()
    replay = replay_totals()
    plans = sync_plan_totals()
    lanes = lane_totals()
    cache = compile_cache_totals()
    return {
        "decode.calls": (decode["pin_hits"] + decode["content_hits"]
                         + decode["misses"]),
        "decode.misses": decode["misses"],
        "replay.vector_batches": replay["vector"],
        "replay.vector_items": replay["vector_items"],
        "replay.block_fallbacks": replay["block"],
        "sync_plan.resolved": plans["resolved"],
        "sync_plan.fallback": plans["fallback"],
        "lanes.fastforward": lanes["fastforward"],
        "lanes.replayed": lanes["replayed"],
        "compile_cache.hits": cache["hits"],
        "compile_cache.misses": cache["misses"],
    }
