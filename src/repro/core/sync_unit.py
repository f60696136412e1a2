"""Synchronization unit (SyncU) implementing the BISP node behavior.

Nearby synchronization (paper section 4.1/4.2): at booking time B the SyncU
sends a 1-bit signal to the target neighbor and starts an N-cycle countdown
(N = calibrated link latency).  Synchronization completes when both

* **Condition I** — the countdown finishes (wall-clock ``B + N``), and
* **Condition II** — the neighbor's signal has been received

hold.  Signals are latched in per-neighbor counting flags ("stacked boxes"
in Figure 4) and consumed one per sync, so back-to-back syncs pair up FIFO.

Region synchronization (section 4.3): the booking carries the absolute
time-point ``T = B + delta``; the router tree replies with the common start
time ``Tm = max_i T_i`` and the timer resumes precisely at ``Tm``.
"""

from __future__ import annotations

from collections import defaultdict, deque
from typing import Callable, Dict, Optional

from ..errors import SynchronizationError


class SyncUnit:
    """Per-core sync state: neighbor flags and the region Tm buffer."""

    def __init__(self, owner_name: str):
        self.owner_name = owner_name
        self.deliver_signal = self._deliver_signal  # prebound
        self.reset()

    def reset(self) -> None:
        """Drop latched signals, buffered Tm, waiters and tallies."""
        self._flags: Dict[int, int] = defaultdict(int)
        self._flag_waiter: Optional[tuple] = None
        self._tm_buffer: Optional[int] = None
        self._tm_waiter: Optional[Callable[[int], None]] = None
        self.signals_received = 0
        self.tm_received = 0
        #: In-flight neighbor signals behind the prebound delivery
        #: callback (all neighbor links share one calibrated latency,
        #: so FIFO order is engine firing order — no per-signal
        #: closure needed).
        self._inbound_signals = deque()

    # -- nearby synchronization ---------------------------------------------

    def enqueue_signal(self, source: int) -> None:
        """Buffer an in-flight neighbor signal; the fabric schedules
        :attr:`deliver_signal` at its arrival cycle."""
        self._inbound_signals.append(source)

    def _deliver_signal(self) -> None:
        """Engine callback: the oldest in-flight signal arrives."""
        self.receive_signal(self._inbound_signals.popleft())

    def receive_signal(self, source: int) -> None:
        """A neighbor's 1-bit sync signal arrived; latch it, wake a waiter."""
        self._flags[source] += 1
        self.signals_received += 1
        if self._flag_waiter is not None and self._flag_waiter[0] == source:
            _, callback = self._flag_waiter
            if self._flags[source] > 0:
                self._flags[source] -= 1
                self._flag_waiter = None
                callback()

    def try_consume_signal(self, source: int) -> bool:
        """Consume one latched signal from ``source`` if present."""
        if self._flags[source] > 0:
            self._flags[source] -= 1
            return True
        return False

    def wait_for_signal(self, source: int, callback: Callable[[], None]) -> None:
        """Invoke ``callback`` once a signal from ``source`` is available."""
        if self._flag_waiter is not None:
            raise SynchronizationError(
                "{}: SyncU already awaiting a neighbor signal".format(
                    self.owner_name))
        if self.try_consume_signal(source):
            callback()
        else:
            self._flag_waiter = (source, callback)

    # -- region synchronization ----------------------------------------------

    def receive_time_point(self, tm: int) -> None:
        """The router's common start time Tm arrived (Abs. Timer Buffer)."""
        self.tm_received += 1
        if self._tm_waiter is not None:
            waiter, self._tm_waiter = self._tm_waiter, None
            waiter(tm)
        else:
            self._tm_buffer = tm

    def wait_for_time_point(self, callback: Callable[[int], None]) -> None:
        """Invoke ``callback(tm)`` once the router's Tm is available."""
        if self._tm_waiter is not None:
            raise SynchronizationError(
                "{}: SyncU already awaiting a region time-point".format(
                    self.owner_name))
        if self._tm_buffer is not None:
            tm, self._tm_buffer = self._tm_buffer, None
            callback(tm)
        else:
            self._tm_waiter = callback

    def pending_flags(self) -> Dict[int, int]:
        """Latched-but-unconsumed neighbor signals (diagnostics)."""
        return {k: v for k, v in self._flags.items() if v}
