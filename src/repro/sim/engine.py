"""Discrete-event simulation kernel.

All of CACTUS-Light's moving parts (HISQ cores, routers, links, the quantum
device bridge) are driven by one :class:`Engine`.  Time is an integer number
of TCU cycles (4 ns at the paper's 250 MHz grid); events scheduled for the
same cycle fire in scheduling order, which keeps runs deterministic.

The scheduler is a bucketed heap: a heap of the distinct pending cycles
plus one FIFO of callbacks per cycle.  Control-system traffic piles
several events onto each cycle and keeps only a handful of cycles pending
at once (about 5 on the benchmark grids), so the heap stays tiny and each
event costs one dict lookup and one deque append; only the first event of
a cycle pays a heap push.  FIFO order within a bucket is exactly
scheduling order, so firing order is that of a ``(time, sequence)`` heap.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop as _heappop, heappush as _heappush
from typing import Callable, Dict, List, Optional

from ..errors import ExecutionError


class Engine:
    """A minimal deterministic discrete-event scheduler."""

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        """Drop every pending event and rewind to cycle 0 with zeroed
        tallies: the state of a freshly constructed engine."""
        self._times: List[int] = []           # heap of distinct cycles
        self._buckets: Dict[int, deque] = {}  # cycle -> FIFO of callbacks
        self.now = 0
        self.events_processed = 0

    def at(self, time: int, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` to run at absolute cycle ``time``."""
        if time < self.now:
            raise ExecutionError(
                "cannot schedule in the past: {} < {}".format(time, self.now))
        bucket = self._buckets.get(time)
        if bucket is None:
            self._buckets[time] = deque((callback,))
            _heappush(self._times, time)
        else:
            bucket.append(callback)

    def after(self, delay: int, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` to run ``delay`` cycles from now."""
        if delay < 0:
            raise ExecutionError("negative delay: {}".format(delay))
        # Inlined ``at`` body (this is the hottest scheduling entry point).
        time = self.now + delay
        bucket = self._buckets.get(time)
        if bucket is None:
            self._buckets[time] = deque((callback,))
            _heappush(self._times, time)
        else:
            bucket.append(callback)

    def run(self, until: Optional[int] = None, max_events: int = 50_000_000) -> int:
        """Process events until the queue drains or ``until`` is reached.

        Returns the simulation time after the run.  ``max_events`` guards
        against runaway programs (e.g. the infinite loops of Figure 12 when
        no horizon is given).  ``until`` may not lie before ``now``: the
        clock never runs backwards.
        """
        if until is not None and until < self.now:
            raise ExecutionError(
                "cannot run until cycle {}: the engine is already at "
                "cycle {}".format(until, self.now))
        times = self._times
        buckets = self._buckets
        processed = 0
        while times:
            time = times[0]
            if until is not None and time > until:
                break
            bucket = buckets[time]
            self.now = time
            # Drain the whole cycle.  Callbacks may append to this same
            # bucket via ``after(0, ...)``; the while-loop picks those up in
            # scheduling order before the cycle is considered done.  If a
            # callback raises, the cycle's remaining events must stay
            # reachable — the cycle only leaves the heap once its bucket
            # drains, so a later run() resumes exactly where this one
            # stopped.  Callbacks only push cycles >= ``time``, so the
            # heap's head is still ``time`` when the bucket drains.
            # ``events_processed`` is accumulated in a local and flushed in
            # the finally (callbacks never read it mid-run).
            cycle_events = 0
            popleft = bucket.popleft
            try:
                while bucket:
                    callback = popleft()
                    cycle_events += 1
                    callback()
                    if processed + cycle_events > max_events:
                        raise ExecutionError(
                            "exceeded max_events={} (runaway program?)".format(
                                max_events))
            finally:
                processed += cycle_events
                self.events_processed += cycle_events
                if not bucket:
                    _heappop(times)
                    del buckets[time]
        if until is not None and until > self.now:
            self.now = until
        return self.now

    @property
    def pending(self) -> int:
        """Number of events still queued."""
        return sum(map(len, self._buckets.values()))

    def __repr__(self):
        return "Engine(now={}, pending={})".format(self.now, self.pending)
