"""Timing Event Logging Format (TELF).

The paper verifies its CACTUS-Light simulator against the FPGA using TELF
traces (section 6.4.1).  Our TELF log records every externally visible
timed event (codeword emission, sync booking/completion, message
departure/arrival, measurement) with its cycle timestamp, and can render
oscilloscope-style ASCII channel traces like Figure 13.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple


@dataclass(frozen=True)
class TelfRecord:
    """One timing event.

    ``kind`` is one of ``cw``, ``sync_book``, ``sync_done``, ``msg_tx``,
    ``msg_rx``, ``meas``, ``stall``; ``unit`` names the emitting component;
    ``port``/``value`` carry the codeword fields where applicable.
    """

    time: int
    unit: str
    kind: str
    port: int = -1
    value: int = 0
    note: str = ""

    def line(self) -> str:
        """Render one canonical TELF text line."""
        return "{:>10d} {:<16s} {:<10s} port={:<4d} value={:<6d} {}".format(
            self.time, self.unit, self.kind, self.port, self.value,
            self.note).rstrip()


class _DropAll(list):
    """A list that silently drops appends (disabled TELF recording)."""

    __slots__ = ()

    def append(self, item):
        pass

    def extend(self, items):
        pass


class TelfLog:
    """Append-only store of :class:`TelfRecord` with query helpers.

    Entries are buffered as plain tuples — ``log`` sits on the simulation
    hot path (one call per emitted codeword, sync and message), and a
    tuple append is several times cheaper than constructing a frozen
    dataclass.  :attr:`records` materializes :class:`TelfRecord` objects
    lazily and caches them, so query helpers and tests see the same API
    as before.

    ``enabled=False`` drops every entry at append time — used by
    timing-only sweep cells (mirroring ``record_gate_log``), whose
    results never read the trace.
    """

    def __init__(self, enabled: bool = True):
        self._raw: List[tuple] = [] if enabled else _DropAll()
        self._materialized: List[TelfRecord] = []

    @property
    def enabled(self) -> bool:
        """False when this log drops entries instead of recording them."""
        return not isinstance(self._raw, _DropAll)

    @property
    def records(self) -> List[TelfRecord]:
        """All records, materialized on demand."""
        done = len(self._materialized)
        if done != len(self._raw):
            self._materialized.extend(
                TelfRecord(*raw) for raw in self._raw[done:])
        return self._materialized

    def log(self, time: int, unit: str, kind: str, port: int = -1,
            value: int = 0, note: str = "") -> None:
        """Append one record."""
        self._raw.append((time, unit, kind, port, value, note))

    def __len__(self):
        return len(self._raw)

    def __iter__(self):
        return iter(self.records)

    def filter(self, unit: Optional[str] = None, kind: Optional[str] = None,
               port: Optional[int] = None) -> List[TelfRecord]:
        """Return records matching all given criteria."""
        out = []
        for rec in self.records:
            if unit is not None and rec.unit != unit:
                continue
            if kind is not None and rec.kind != kind:
                continue
            if port is not None and rec.port != port:
                continue
            out.append(rec)
        return out

    def emissions(self, unit: Optional[str] = None) -> List[TelfRecord]:
        """All codeword emissions, optionally restricted to one unit."""
        return self.filter(unit=unit, kind="cw")

    def dump(self) -> str:
        """Full text dump, time-ordered."""
        return "\n".join(rec.line()
                         for rec in sorted(self.records,
                                           key=lambda r: (r.time, r.unit)))

    # -- Figure-13 style rendering ------------------------------------------

    def ascii_waveform(self, channels: List[Tuple[str, int]], t0: int = 0,
                       t1: Optional[int] = None, resolution: int = 1,
                       width: int = 100) -> str:
        """Render pulse trains as ASCII, one row per (unit, port) channel.

        Each codeword emission paints a ``#`` at its time bucket, evoking the
        oscilloscope traces of Figure 13.
        """
        if t1 is None:
            t1 = max((r.time for r in self.records), default=0) + 1
        span = max(1, t1 - t0)
        resolution = max(resolution, -(-span // width))
        buckets = -(-span // resolution)
        lines = []
        for unit, port in channels:
            row = ["_"] * buckets
            for rec in self.filter(unit=unit, kind="cw", port=port):
                if t0 <= rec.time < t1:
                    row[(rec.time - t0) // resolution] = "#"
            lines.append("{:>16s}.p{:<3d} |{}|".format(unit, port, "".join(row)))
        header = "time {}..{} cycles, {} cycles/char".format(t0, t1, resolution)
        return header + "\n" + "\n".join(lines)


@dataclass
class ExecutionStats:
    """Aggregate counters collected during one simulation run."""

    instructions_executed: int = 0
    codewords_emitted: int = 0
    syncs_completed: int = 0
    sync_stall_cycles: int = 0
    messages_sent: int = 0
    pipeline_stall_cycles: int = 0
    timing_violations: int = 0
    makespan_cycles: int = 0
    #: Engine/queue telemetry (deterministic; filled by ``System.run``).
    events_processed: int = 0
    max_queue_depth: int = 0
    per_core: Dict[str, Dict[str, int]] = field(default_factory=dict)

    def add_core(self, name: str, **counters) -> None:
        """Merge per-core counters into the aggregate."""
        self.per_core[name] = dict(counters)
        self.instructions_executed += counters.get("instructions", 0)
        self.codewords_emitted += counters.get("codewords", 0)
        self.syncs_completed += counters.get("syncs", 0)
        self.sync_stall_cycles += counters.get("sync_stall", 0)
        self.messages_sent += counters.get("messages", 0)
        self.timing_violations += counters.get("violations", 0)
