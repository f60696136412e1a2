"""Discrete-event simulation kernel.

All of CACTUS-Light's moving parts (HISQ cores, routers, links, the quantum
device bridge) are driven by one :class:`Engine`.  Time is an integer number
of TCU cycles (4 ns at the paper's 250 MHz grid); events scheduled for the
same cycle fire in scheduling order, which keeps runs deterministic.

The scheduler is a *calendar queue* (timing wheel): almost every event a
control system schedules lands within a few hundred cycles of ``now``
(pipeline continuations, TCU emissions separated by gate-length waits,
link hops), so near-future events go into a power-of-two array of per-cycle
slots indexed by ``time & mask`` — O(1) insert, no heap discipline on the
common path.  Slot occupancy is tracked in one ``WHEEL_SIZE``-bit integer,
so finding the next pending cycle is a single shift plus a lowest-set-bit
extraction (both C-speed on machine words), not a linear scan.  Events
beyond the wheel horizon overflow into a heap of (time, bucket) entries and
are swept back into the wheel when the window advances past them.  Each
slot/bucket is a FIFO of callbacks, so scheduling order within a cycle is
exactly FIFO order — the same determinism contract as a (time, sequence)
heap.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop as _heappop, heappush as _heappush
from typing import Callable, Dict, List, Optional

from ..errors import ExecutionError

#: Wheel window size in cycles (power of two).  Events within
#: ``[now, wheel_end)`` live in the wheel; later ones overflow to the heap.
WHEEL_SIZE = 512
_WHEEL_MASK = WHEEL_SIZE - 1


class Engine:
    """A minimal deterministic discrete-event scheduler."""

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        """Drop every pending event and rewind to cycle 0 with zeroed
        tallies: the state of a freshly constructed engine."""
        #: wheel slot ``t & mask`` -> deque of callbacks at cycle ``t``;
        #: within the window the mapping time -> slot is injective, so a
        #: slot is either empty (None) or belongs to exactly one cycle.
        self._wheel: List[Optional[deque]] = [None] * WHEEL_SIZE
        self._occ = 0                         # occupancy bitmap, bit = slot
        self._wheel_end = WHEEL_SIZE          # exclusive horizon
        self._far_times: List[int] = []       # heap of distinct far cycles
        self._far_buckets: Dict[int, deque] = {}
        self._pending = 0
        self.now = 0
        self.events_processed = 0
        # Observability tallies (off the per-event path: far-heap inserts
        # and window re-anchors are the rare branches by construction).
        self.far_events = 0
        self.window_advances = 0
        self.max_pending = 0

    def at(self, time: int, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` to run at absolute cycle ``time``."""
        if time < self.now:
            raise ExecutionError(
                "cannot schedule in the past: {} < {}".format(time, self.now))
        if time < self._wheel_end:
            slot = time & _WHEEL_MASK
            bucket = self._wheel[slot]
            if bucket is None:
                self._wheel[slot] = deque((callback,))
                self._occ |= 1 << slot
            else:
                bucket.append(callback)
        else:
            bucket = self._far_buckets.get(time)
            if bucket is None:
                self._far_buckets[time] = deque((callback,))
                _heappush(self._far_times, time)
            else:
                bucket.append(callback)
            self.far_events += 1
        self._pending += 1

    def after(self, delay: int, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` to run ``delay`` cycles from now."""
        if delay < 0:
            raise ExecutionError("negative delay: {}".format(delay))
        # Inlined ``at`` body (this is the hottest scheduling entry point).
        time = self.now + delay
        if time < self._wheel_end:
            slot = time & _WHEEL_MASK
            bucket = self._wheel[slot]
            if bucket is None:
                self._wheel[slot] = deque((callback,))
                self._occ |= 1 << slot
            else:
                bucket.append(callback)
        else:
            bucket = self._far_buckets.get(time)
            if bucket is None:
                self._far_buckets[time] = deque((callback,))
                _heappush(self._far_times, time)
            else:
                bucket.append(callback)
            self.far_events += 1
        self._pending += 1

    def _advance_window(self) -> None:
        """Re-anchor the (empty) wheel window at the earliest far event.

        Only called immediately before processing that event, so ``now``
        catches up to the new window base at once and insertions never
        lap the wheel.
        """
        base = self._far_times[0]
        self.window_advances += 1
        if self._pending > self.max_pending:
            self.max_pending = self._pending
        self._wheel_end = base + WHEEL_SIZE
        far_times = self._far_times
        far_buckets = self._far_buckets
        wheel = self._wheel
        end = self._wheel_end
        occ = self._occ
        while far_times and far_times[0] < end:
            time = _heappop(far_times)
            slot = time & _WHEEL_MASK
            wheel[slot] = far_buckets.pop(time)
            occ |= 1 << slot
        self._occ = occ

    def run(self, until: Optional[int] = None, max_events: int = 50_000_000) -> int:
        """Process events until the queue drains or ``until`` is reached.

        Returns the simulation time after the run.  ``max_events`` guards
        against runaway programs (e.g. the infinite loops of Figure 12 when
        no horizon is given).
        """
        wheel = self._wheel
        processed = 0
        while self._pending:
            occ = self._occ
            if occ:
                # Next pending cycle: the circular successor of ``now``'s
                # slot.  All wheel events sit in [now, now + WHEEL_SIZE),
                # so the slot order from ``now & mask`` (with one wrap) is
                # exactly time order.
                start = self.now & _WHEEL_MASK
                ahead = occ >> start
                if ahead:
                    delta = (ahead & -ahead).bit_length() - 1
                else:  # wrap around
                    delta = ((occ & -occ).bit_length() - 1) + WHEEL_SIZE - start
                time = self.now + delta
                slot = (start + delta) & _WHEEL_MASK
                if until is not None and time > until:
                    self.now = until
                    return self.now
            else:
                time = self._far_times[0]
                if until is not None and time > until:
                    self.now = until
                    return self.now
                self._advance_window()
                slot = time & _WHEEL_MASK
            bucket = wheel[slot]
            self.now = time
            # Drain the whole cycle.  Callbacks may append to this same
            # bucket via ``after(0, ...)``; the while-loop picks those up in
            # scheduling order before the cycle is considered done.  If a
            # callback raises, the cycle's remaining events must stay
            # reachable — the slot is only cleared once its bucket drains,
            # so a later run() resumes exactly where this one stopped.
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
                self._pending -= cycle_events
                self.events_processed += cycle_events
                if not bucket:
                    wheel[slot] = None
                    self._occ &= ~(1 << slot)
        if until is not None and until > self.now:
            self.now = until
        return self.now

    @property
    def pending(self) -> int:
        """Number of events still queued."""
        return self._pending

    def wheel_stats(self) -> dict:
        """Timing-wheel telemetry, collected post-run by the harness."""
        return {"events_processed": self.events_processed,
                "far_events": self.far_events,
                "window_advances": self.window_advances,
                "max_pending": self.max_pending}

    def __repr__(self):
        return "Engine(now={}, pending={})".format(self.now, self.pending)
