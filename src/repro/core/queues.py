"""Timed items flowing from the classical pipeline into the TCU.

The pipeline runs ahead of real time and enqueues items tagged with their
*timeline position*; the TCU issues them at precise wall-clock times
(QuMA-style queue-based event timing, paper section 3.2).

Every item is one plain tuple ``(position, kind, a, b)``.  ``kind`` is an
``ITEM_*`` constant of :mod:`repro.isa.decoded`:

``ITEM_CW``
    Send codeword ``b`` to port ``a``.
``ITEM_SYNC_N``
    Book neighbor-level synchronization with controller ``a`` (``b`` is 0).
``ITEM_SYNC_R``
    Book region-level synchronization through sync group ``a``; ``b`` is
    the compile-time distance, in cycles, from the booking position to
    the synchronization point (paper section 4.3).
``ITEM_SEND``
    Transmit value ``b`` to controller ``a``.
``ITEM_RESYNC``
    External-trigger resynchronization after a blocking feedback receive:
    the TCU timer may not pass ``position`` before wall-clock cycle ``a``
    (the trigger arrival plus re-arm latency).  With the exact flag ``b``
    set (lock-step central trigger), the timer re-arms so that
    ``position`` maps to exactly ``a`` — the broadcast arrival becomes the
    common time base of all controllers.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Optional


class ItemQueue:
    """Bounded FIFO between pipeline and TCU with a stall callback.

    The pipeline appends to the deque ``_items`` through :meth:`push`
    and the TCU loop pops its head, waking the registered space-waiter
    once the queue drops below ``depth``.
    """

    def __init__(self, depth: int):
        self.depth = depth
        self._items = deque()
        self.reset()

    def reset(self) -> None:
        """Empty the queue and zero its tallies.  The deque is cleared in
        place: the fast interpreter holds a reference to it."""
        self._items.clear()
        #: Longest the queue has been after a push (observability).
        self.high_water = 0
        self._space_waiter: Optional[Callable[[], None]] = None

    def __len__(self):
        return len(self._items)

    @property
    def full(self) -> bool:
        return len(self._items) >= self.depth

    def push(self, item) -> None:
        """Append an item (caller must check :attr:`full` first)."""
        items = self._items
        items.append(item)
        if len(items) > self.high_water:
            self.high_water = len(items)

    def wait_for_space(self, callback: Callable[[], None]) -> None:
        """Register a callback invoked once space becomes available."""
        self._space_waiter = callback
