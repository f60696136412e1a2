"""Message unit (MsgU): classical send/recv between controllers.

Supports real-time feedback: measurement results travel from readout boards
to control boards (and syndrome data to decoders) as small classical
messages.  Receives are blocking; per-source FIFO inboxes preserve order.
"""

from __future__ import annotations

from collections import defaultdict, deque
from typing import Callable, Optional

from ..errors import ExecutionError
from .config import ANY_SOURCE


class MessageUnit:
    """Per-core inboxes plus a single blocked-receiver slot."""

    def __init__(self, owner_name: str):
        self.owner_name = owner_name
        self.reset()

    def reset(self) -> None:
        """Drop queued messages, the blocked receiver and the tally."""
        self._inboxes = defaultdict(deque)
        self._order = deque()  # arrival order across sources (for ANY_SOURCE)
        #: Entries in ``_order`` already consumed by a concrete-source
        #: receive, per source.  A concrete pop used to do an O(n)
        #: ``_order.remove(source)``; instead the stale entry stays in
        #: place and the next ANY_SOURCE scan skips it in O(1).  The
        #: invariant: per source, order entries == inbox depth + stale.
        self._stale = defaultdict(int)
        self._waiter: Optional[tuple] = None
        self.delivered = 0

    def deliver(self, source: int, value: int) -> None:
        """A message from ``source`` arrived; enqueue or hand to the waiter."""
        self.delivered += 1
        if self._waiter is not None:
            want_source, callback = self._waiter
            if want_source == ANY_SOURCE or want_source == source:
                self._waiter = None
                callback(source, value)
                return
        self._inboxes[source].append(value)
        self._order.append(source)

    def _pop(self, source: int):
        if source == ANY_SOURCE:
            order = self._order
            stale = self._stale
            while order:
                src = order.popleft()
                if stale[src]:
                    # Consumed out of band by a concrete receive; the
                    # arrival-order slot it occupied is spent.
                    stale[src] -= 1
                    continue
                if self._inboxes[src]:
                    return src, self._inboxes[src].popleft()
            return None
        if self._inboxes[source]:
            # Leave the matching ``_order`` entry in place; mark it
            # stale so ANY_SOURCE scans skip it exactly once.
            self._stale[source] += 1
            return source, self._inboxes[source].popleft()
        return None

    def receive(self, source: int,
                callback: Callable[[int, int], None]) -> None:
        """Invoke ``callback(source, value)`` when a message is available.

        ``source`` may be a concrete controller address or ``ANY_SOURCE``.
        Only one receive may be outstanding (the pipeline is blocked on it).
        """
        if self._waiter is not None:
            raise ExecutionError(
                "{}: MsgU already has a blocked receiver".format(
                    self.owner_name))
        ready = self._pop(source)
        if ready is not None:
            callback(*ready)
        else:
            self._waiter = (source, callback)

    def pending(self, source: Optional[int] = None) -> int:
        """Number of undelivered messages (optionally from one source)."""
        if source is None:
            return sum(len(q) for q in self._inboxes.values())
        return len(self._inboxes[source])
