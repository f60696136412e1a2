"""Span tracing with Chrome trace-event JSON export (Perfetto-loadable).

The wall-clock pillar of the observability layer.  A process collects
events into one flat in-memory list while tracing is active
(:func:`start_tracing` / :func:`stop_tracing`); :func:`span` wraps a
block in a ``B``/``E`` duration pair, :func:`instant` drops a point
event, and :func:`add_telf_events` converts the simulator's TELF log
(simulated cycles) onto a *separate* Perfetto process track so a sweep
cell opens as one timeline: wall-clock spans on the real pid's track,
simulated-cycle instants on the ``sim`` track with ``ts`` equal to the
simulated nanoseconds / 1000 (trace-event ``ts`` is microseconds).

When tracing is inactive every entry point is a flag check and nothing
else — the hot path never pays for an idle tracer.

Export writes ``{"traceEvents": [...]}`` JSON that chrome://tracing and
https://ui.perfetto.dev open directly.  The module is also a CLI::

    python -m repro.obs.trace validate out.json
    python -m repro.obs.trace merge --out all.json w1.json w2.json

``merge`` concatenates event lists from several processes (scheduler +
workers each export their own file; distinct pids give distinct lanes)
and validates the result.  Validation checks the schema the obs-smoke CI
job gates on: every event carries ``ph``/``ts``/``pid``/``tid``/``name``
and ``B``/``E`` events are balanced per ``(pid, tid)`` stack.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterable, List, Optional

__all__ = [
    "start_tracing", "stop_tracing", "tracing_active", "trace_events",
    "span", "instant", "add_events", "add_telf_events", "export",
    "validate_events", "validate_trace", "merge_traces", "main",
    "SIM_PID_OFFSET", "TELF_EVENT_LIMIT",
]

#: Simulated-cycle events go on ``pid + SIM_PID_OFFSET`` so Perfetto
#: renders them as a separate process track next to the wall-clock one.
SIM_PID_OFFSET = 1 << 20

#: Soft cap on buffered events; TELF conversion stops adding past it so
#: an accidental ``--trace`` on a huge sweep cannot exhaust memory.
TELF_EVENT_LIMIT = 500_000

_EVENTS: List[dict] = []
_ACTIVE = False
_T0_NS = 0
_LOCK = threading.Lock()


def tracing_active() -> bool:
    return _ACTIVE


def start_tracing() -> None:
    """Drop buffered events and begin collecting; timestamps are
    relative to this call."""
    global _ACTIVE, _T0_NS
    with _LOCK:
        del _EVENTS[:]
        _T0_NS = time.perf_counter_ns()
        _ACTIVE = True
        pid = os.getpid()
        _EVENTS.append({"ph": "M", "ts": 0, "pid": pid, "tid": 0,
                        "name": "process_name",
                        "args": {"name": "wall:{}".format(pid)}})


def stop_tracing() -> None:
    global _ACTIVE
    _ACTIVE = False


def trace_events() -> List[dict]:
    """A copy of the buffered events."""
    with _LOCK:
        return list(_EVENTS)


def _now_us() -> float:
    return (time.perf_counter_ns() - _T0_NS) / 1000.0


def _tid() -> int:
    return threading.get_ident() & 0x3FFFFFFF


@contextmanager
def span(name: str, cat: str = "wall", **args):
    """A ``B``/``E`` duration pair around the block; no-op when idle."""
    if not _ACTIVE:
        yield
        return
    pid = os.getpid()
    tid = _tid()
    begin = {"ph": "B", "ts": _now_us(), "pid": pid, "tid": tid,
             "name": name, "cat": cat}
    if args:
        begin["args"] = args
    with _LOCK:
        _EVENTS.append(begin)
    try:
        yield
    finally:
        with _LOCK:
            _EVENTS.append({"ph": "E", "ts": _now_us(), "pid": pid,
                            "tid": tid, "name": name, "cat": cat})


def instant(name: str, cat: str = "wall", **args) -> None:
    """A point event on the caller's wall-clock track; no-op when idle."""
    if not _ACTIVE:
        return
    event = {"ph": "i", "s": "t", "ts": _now_us(), "pid": os.getpid(),
             "tid": _tid(), "name": name, "cat": cat}
    if args:
        event["args"] = args
    with _LOCK:
        _EVENTS.append(event)


def add_events(events: Iterable[dict]) -> None:
    """Append pre-built trace events (used by the TELF converter)."""
    with _LOCK:
        _EVENTS.extend(events)


def telf_to_events(records, config=None,
                   pid: Optional[int] = None) -> List[dict]:
    """Convert TELF records to instant events on the sim track.

    ``ts`` maps simulated cycles to microseconds via the clock config
    (``config.ns(cycles) / 1000``) when given, else raw cycle count.
    Units become threads in first-seen order (deterministic for a fixed
    record stream), named via ``thread_name`` metadata.
    """
    pid = (os.getpid() + SIM_PID_OFFSET) if pid is None else pid
    events: List[dict] = [
        {"ph": "M", "ts": 0, "pid": pid, "tid": 0, "name": "process_name",
         "args": {"name": "sim:{}".format(os.getpid())}}]
    tids: Dict[str, int] = {}
    for rec in records:
        tid = tids.get(rec.unit)
        if tid is None:
            tid = len(tids) + 1
            tids[rec.unit] = tid
            events.append({"ph": "M", "ts": 0, "pid": pid, "tid": tid,
                           "name": "thread_name",
                           "args": {"name": rec.unit}})
        ts = (config.ns(rec.time) / 1000.0) if config is not None \
            else float(rec.time)
        event = {"ph": "i", "s": "t", "ts": ts, "pid": pid, "tid": tid,
                 "name": rec.kind, "cat": "sim",
                 "args": {"cycle": rec.time, "port": rec.port,
                          "value": rec.value}}
        if rec.note:
            event["args"]["note"] = rec.note
        events.append(event)
    return events


def add_telf_events(records, config=None) -> int:
    """Merge a TELF log into the live trace (bounded); returns #added."""
    if not _ACTIVE:
        return 0
    with _LOCK:
        room = TELF_EVENT_LIMIT - len(_EVENTS)
    if room <= 0:
        return 0
    events = telf_to_events(records, config=config)
    if len(events) > room:
        events = events[:room]
    add_events(events)
    return len(events)


def export(path: Optional[str] = None) -> dict:
    """The trace document; written as JSON when ``path`` is given."""
    doc = {"traceEvents": trace_events(), "displayTimeUnit": "ms"}
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    return doc


# -- validation and merging ------------------------------------------------

_REQUIRED_KEYS = ("ph", "ts", "pid", "tid", "name")


def validate_events(events: Iterable[dict]) -> List[str]:
    """Schema problems (empty list == valid).

    Checks the obs-smoke contract: required keys on every event, known
    phase codes, numeric timestamps, and balanced ``B``/``E`` pairs per
    ``(pid, tid)`` with matching names (LIFO nesting).
    """
    problems: List[str] = []
    stacks: Dict[tuple, List[str]] = {}
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            problems.append("event {}: not an object".format(i))
            continue
        missing = [k for k in _REQUIRED_KEYS if k not in event]
        if missing:
            problems.append("event {} ({!r}): missing {}".format(
                i, event.get("name"), ",".join(missing)))
            continue
        ph = event["ph"]
        if ph not in ("B", "E", "i", "I", "X", "M", "C"):
            problems.append("event {}: unknown ph {!r}".format(i, ph))
            continue
        if not isinstance(event["ts"], (int, float)):
            problems.append("event {}: non-numeric ts".format(i))
        lane = (event["pid"], event["tid"])
        if ph == "B":
            stacks.setdefault(lane, []).append(event["name"])
        elif ph == "E":
            stack = stacks.get(lane)
            if not stack:
                problems.append(
                    "event {}: E {!r} with empty stack on {}".format(
                        i, event["name"], lane))
            elif stack[-1] != event["name"]:
                problems.append(
                    "event {}: E {!r} does not match open B {!r}".format(
                        i, event["name"], stack[-1]))
                stack.pop()
            else:
                stack.pop()
    for lane, stack in sorted(stacks.items()):
        if stack:
            problems.append("lane {}: {} unclosed span(s): {}".format(
                lane, len(stack), ", ".join(stack)))
    return problems


def validate_trace(doc: dict) -> List[str]:
    """Validate a full trace document (``{"traceEvents": [...]}``)."""
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        return ["document has no traceEvents list"]
    events = doc["traceEvents"]
    if not isinstance(events, list):
        return ["traceEvents is not a list"]
    return validate_events(events)


def merge_traces(docs: Iterable[dict]) -> dict:
    """Concatenate trace documents from several processes.

    Producers already use distinct real pids (plus the sim offset), so a
    plain concatenation yields one multi-lane timeline.
    """
    events: List[dict] = []
    for doc in docs:
        events.extend(doc.get("traceEvents", []))
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def _load(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def main(argv: Optional[List[str]] = None) -> int:
    import argparse
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.trace",
        description="Validate and merge Chrome trace-event JSON files.")
    sub = parser.add_subparsers(dest="command", required=True)
    p_val = sub.add_parser("validate", help="schema-check trace files")
    p_val.add_argument("files", nargs="+")
    p_merge = sub.add_parser(
        "merge", help="concatenate traces into one timeline")
    p_merge.add_argument("files", nargs="+")
    p_merge.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    if args.command == "validate":
        failed = False
        for path in args.files:
            doc = _load(path)
            problems = validate_trace(doc)
            if problems:
                failed = True
                print("{}: INVALID".format(path))
                for problem in problems:
                    print("  - " + problem)
            else:
                events = doc["traceEvents"]
                lanes = {(e["pid"], e["tid"]) for e in events}
                print("{}: OK ({} events, {} lanes)".format(
                    path, len(events), len(lanes)))
        return 1 if failed else 0

    merged = merge_traces(_load(path) for path in args.files)
    problems = validate_trace(merged)
    if problems:
        print("merge result INVALID:")
        for problem in problems:
            print("  - " + problem)
        return 1
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(merged, fh)
    print("wrote {} ({} events)".format(
        args.out, len(merged["traceEvents"])))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
