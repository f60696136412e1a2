"""Process-wide metrics registry: counters, gauges, histograms.

The observability layer's bookkeeping pillar.  Instruments are created
once (module import time, usually) via the get-or-create constructors
:func:`counter` / :func:`gauge` / :func:`histogram` and then mutated
directly — a :class:`Counter` increment is one attribute add on a
``__slots__`` object, cheap enough for the simulator's admission-batch
granularity (never per event or per queue item).

One cost tier: every instrument is always live.  Counters and gauges
replace what used to be ad-hoc module globals
(``isa.decoded._REPLAY_TOTALS``, ``sim.lanes._LANE_TOTALS``, the
sweep-cache hit tallies) and several CI gates read them; their cost is
an integer add.  The simulator and compiler record no wall-clock here:
where their time goes is what :mod:`repro.obs.trace` spans show, and
the one histogram (the service's lease latency) is observed off the
hot path.

Everything is deterministic where it matters: :func:`MetricsRegistry.
snapshot` returns a name-sorted dict of plain numbers, wall-clock only
ever appears in histogram sums, and :func:`render_prometheus` emits the
text exposition format (``# TYPE`` comments, cumulative ``_bucket``
counts with an ``+Inf`` terminal, ``_sum``/``_count``) used by the
service's ``/metrics`` route.

Stdlib only, and a leaf module on purpose: hot-path modules such as
``isa/decoded.py`` import it at the top level, so it must not pull in
anything heavier than ``repro.errors``.
"""

from __future__ import annotations

import bisect
import threading
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from ..errors import ReproError

__all__ = [
    "Counter", "Gauge", "Histogram", "MetricsRegistry", "REGISTRY",
    "counter", "gauge", "histogram", "register_collector", "snapshot",
    "reset", "render_prometheus", "format_metric_line", "DEFAULT_BUCKETS",
]

#: Default histogram bucket upper bounds, in seconds — spans the repo's
#: observed range from a sub-millisecond lease grant on an idle queue to
#: one that waited out multi-second cold sweep cells.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0)


def _label_suffix(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join('{}="{}"'.format(k, str(v).replace('"', '\\"'))
                     for k, v in sorted(labels.items()))
    return "{" + inner + "}"


class Counter:
    """Monotonic counter.  Mutate via :meth:`inc` or ``.value +=``."""

    __slots__ = ("name", "help", "labels", "value")
    kind = "counter"

    def __init__(self, name: str, help: str = "",
                 labels: Optional[Dict[str, str]] = None):
        self.name = name
        self.help = help
        self.labels = dict(labels or {})
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def reset(self) -> None:
        self.value = 0

    @property
    def key(self) -> str:
        return self.name + _label_suffix(self.labels)

    def sample(self) -> Dict[str, float]:
        return {self.key: self.value}


class Gauge:
    """Last-value (or high-water) gauge."""

    __slots__ = ("name", "help", "labels", "value")
    kind = "gauge"

    def __init__(self, name: str, help: str = "",
                 labels: Optional[Dict[str, str]] = None):
        self.name = name
        self.help = help
        self.labels = dict(labels or {})
        self.value = 0

    def set(self, value) -> None:
        self.value = value

    def track_max(self, value) -> None:
        """Keep the high-water mark (used for queue depths)."""
        if value > self.value:
            self.value = value

    def reset(self) -> None:
        self.value = 0

    @property
    def key(self) -> str:
        return self.name + _label_suffix(self.labels)

    def sample(self) -> Dict[str, float]:
        return {self.key: self.value}


class Histogram:
    """Fixed-bucket histogram over float observations (seconds, depths).

    ``bounds`` are the inclusive upper edges; one implicit ``+Inf``
    bucket terminates the list.  ``counts`` are per-bucket (not
    cumulative) internally; the Prometheus rendering cumulates.
    """

    __slots__ = ("name", "help", "labels", "bounds", "counts", "sum",
                 "count")
    kind = "histogram"

    def __init__(self, name: str, help: str = "",
                 buckets: Iterable[float] = DEFAULT_BUCKETS,
                 labels: Optional[Dict[str, str]] = None):
        self.name = name
        self.help = help
        self.labels = dict(labels or {})
        self.bounds = tuple(sorted(float(b) for b in buckets))
        if not self.bounds:
            raise ReproError("histogram {} needs >= 1 bucket".format(name))
        self.counts = [0] * (len(self.bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect.bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1

    def reset(self) -> None:
        self.counts = [0] * (len(self.bounds) + 1)
        self.sum = 0.0
        self.count = 0

    @property
    def key(self) -> str:
        return self.name + _label_suffix(self.labels)

    def sample(self) -> Dict[str, float]:
        """Deterministic part only: bucket counts and total count.

        The wall-clock ``sum`` is intentionally excluded so snapshots
        stay digest-stable; read ``.sum`` directly when you want it.
        """
        out: Dict[str, float] = {}
        cumulative = 0
        for bound, n in zip(self.bounds, self.counts):
            cumulative += n
            out['{}_bucket{{le="{}"}}'.format(
                self.name + _label_suffix(self.labels), _fmt_bound(bound)
            )] = cumulative
        out['{}_bucket{{le="+Inf"}}'.format(
            self.name + _label_suffix(self.labels))] = self.count
        out[self.key + "_count"] = self.count
        return out


def _fmt_bound(bound: float) -> str:
    return repr(bound) if bound != int(bound) else str(int(bound))


class MetricsRegistry:
    """Name-keyed store of instruments plus pull-time collectors."""

    def __init__(self):
        self._instruments: Dict[str, object] = {}
        self._collectors: List[Callable[[], Dict[str, float]]] = []
        self._lock = threading.Lock()

    def _get_or_create(self, cls, name: str, help: str,
                       labels: Optional[Dict[str, str]], **kwargs):
        key = name + _label_suffix(labels or {})
        with self._lock:
            found = self._instruments.get(key)
            if found is not None:
                if not isinstance(found, cls):
                    raise ReproError(
                        "metric {!r} already registered as {} (wanted {})"
                        .format(key, found.kind, cls.kind))
                return found
            instrument = cls(name, help, labels=labels, **kwargs)
            self._instruments[key] = instrument
            return instrument

    def counter(self, name: str, help: str = "",
                labels: Optional[Dict[str, str]] = None) -> Counter:
        return self._get_or_create(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "",
              labels: Optional[Dict[str, str]] = None) -> Gauge:
        return self._get_or_create(Gauge, name, help, labels)

    def histogram(self, name: str, help: str = "",
                  buckets: Iterable[float] = DEFAULT_BUCKETS,
                  labels: Optional[Dict[str, str]] = None) -> Histogram:
        return self._get_or_create(Histogram, name, help, labels,
                                   buckets=buckets)

    def register_collector(
            self, collect: Callable[[], Dict[str, float]]) -> None:
        """Add a pull-time source merged into every snapshot/render."""
        with self._lock:
            self._collectors.append(collect)

    def instruments(self) -> List[object]:
        with self._lock:
            return [self._instruments[k]
                    for k in sorted(self._instruments)]

    def snapshot(self) -> Dict[str, float]:
        """Name-sorted dict of every sample (deterministic)."""
        merged: Dict[str, float] = {}
        for instrument in self.instruments():
            merged.update(instrument.sample())
        with self._lock:
            collectors = list(self._collectors)
        for collect in collectors:
            merged.update(collect())
        return {k: merged[k] for k in sorted(merged)}

    def reset(self) -> None:
        for instrument in self.instruments():
            instrument.reset()


#: The process-wide registry every ``repro`` module instruments into.
REGISTRY = MetricsRegistry()


def counter(name: str, help: str = "",
            labels: Optional[Dict[str, str]] = None) -> Counter:
    return REGISTRY.counter(name, help, labels)


def gauge(name: str, help: str = "",
          labels: Optional[Dict[str, str]] = None) -> Gauge:
    return REGISTRY.gauge(name, help, labels)


def histogram(name: str, help: str = "",
              buckets: Iterable[float] = DEFAULT_BUCKETS,
              labels: Optional[Dict[str, str]] = None) -> Histogram:
    return REGISTRY.histogram(name, help, buckets, labels)


def register_collector(collect: Callable[[], Dict[str, float]]) -> None:
    REGISTRY.register_collector(collect)


def snapshot() -> Dict[str, float]:
    return REGISTRY.snapshot()


def reset() -> None:
    REGISTRY.reset()


# -- Prometheus text exposition --------------------------------------------

#: Content type of the text exposition format, for HTTP responders.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def format_metric_line(name: str, value,
                       labels: Optional[Dict[str, str]] = None) -> str:
    """One exposition sample line (used by the scheduler's own gauges)."""
    return "{}{} {}".format(name, _label_suffix(labels or {}),
                            _fmt_value(value))


def _fmt_value(value) -> str:
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def render_prometheus(registry: Optional[MetricsRegistry] = None) -> str:
    """The registry in Prometheus text exposition format."""
    registry = REGISTRY if registry is None else registry
    lines: List[str] = []
    seen_types: Dict[str, str] = {}
    for instrument in registry.instruments():
        if seen_types.get(instrument.name) is None:
            if instrument.help:
                lines.append("# HELP {} {}".format(
                    instrument.name, instrument.help))
            lines.append("# TYPE {} {}".format(
                instrument.name, instrument.kind))
            seen_types[instrument.name] = instrument.kind
        if isinstance(instrument, Histogram):
            cumulative = 0
            for bound, n in zip(instrument.bounds, instrument.counts):
                cumulative += n
                label_set = dict(instrument.labels,
                                 le=_fmt_bound(bound))
                lines.append(format_metric_line(
                    instrument.name + "_bucket", cumulative, label_set))
            lines.append(format_metric_line(
                instrument.name + "_bucket", instrument.count,
                dict(instrument.labels, le="+Inf")))
            lines.append(format_metric_line(
                instrument.name + "_sum", instrument.sum,
                instrument.labels))
            lines.append(format_metric_line(
                instrument.name + "_count", instrument.count,
                instrument.labels))
        else:
            lines.append(format_metric_line(
                instrument.name, instrument.value, instrument.labels))
    return "\n".join(lines) + "\n"
