"""Timed items flowing from the classical pipeline into the TCU.

The pipeline runs ahead of real time and enqueues items tagged with their
*timeline position*; the TCU issues them at precise wall-clock times
(QuMA-style queue-based event timing, paper section 3.2).

Items are ``NamedTuple``s rather than frozen dataclasses: they are created
once per timed operation on the simulation hot path, and tuple construction
is several times cheaper than a frozen dataclass's ``object.__setattr__``
per field.  Field names and defaults are unchanged; note that (unlike the
former dataclasses) NamedTuples compare equal to plain tuples and to other
item types with the same values, so discriminate by type where it matters
(the TCU loop dispatches on ``item.__class__``).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, NamedTuple, Optional


class EmitCodeword(NamedTuple):
    """Send ``codeword`` to ``port`` when the timeline reaches ``position``."""

    position: int
    port: int
    codeword: int


class SyncNearby(NamedTuple):
    """Book neighbor-level synchronization with controller ``target``."""

    position: int
    target: int


class SyncRegion(NamedTuple):
    """Book region-level synchronization through sync group ``group``.

    ``delta`` is the compile-time distance, in cycles, from the booking
    position to the synchronization point (paper section 4.3).
    """

    position: int
    group: int
    delta: int


class SendMessage(NamedTuple):
    """Transmit ``value`` to controller ``destination`` at ``position``."""

    position: int
    destination: int
    value: int


class Resync(NamedTuple):
    """External-trigger resynchronization after a blocking feedback receive.

    The TCU timer may not pass ``position`` before wall-clock
    ``earliest_wall`` (the trigger arrival plus re-arm latency).  With
    ``exact`` set (lock-step central-trigger), the timer re-arms so that
    ``position`` maps to exactly ``earliest_wall`` — the broadcast arrival
    becomes the common time base of all controllers.
    """

    position: int
    earliest_wall: int
    exact: bool = False


class ReplayBatch:
    """One fast-block slice of four or more items admitted for replay.

    Instead of constructing one NamedTuple per item, the replay path
    enqueues a single batch that *references* the block's structure-of-
    arrays columns (``kinds``/``a``/``b``, block-absolute, shared and
    immutable) plus the slice's resolved timeline positions (the entry
    position plus each item offset of the slice).  The TCU drains
    elements in place by advancing ``cursor``; each element counts as one
    logical queue item for depth/stall accounting (see
    :attr:`ItemQueue.depth` and the ``_count`` bookkeeping), so timing is
    bit-identical to the eager per-item representation.
    """

    __slots__ = ("positions", "kinds", "a", "b", "lo", "hi", "cursor")

    def __init__(self, positions, kinds, a, b, lo, hi):
        #: Resolved timeline positions, indexed 0..len-1 (slice-local).
        self.positions = positions
        #: Block-absolute item columns; element ``i`` of this batch lives
        #: at column index ``lo + i``.
        self.kinds = kinds
        self.a = a
        self.b = b
        self.lo = lo
        self.hi = hi
        #: Next slice-local element to issue (``hi - lo`` when drained).
        self.cursor = 0

    def __len__(self):
        return (self.hi - self.lo) - self.cursor


class ItemQueue:
    """Bounded FIFO between pipeline and TCU with a stall callback.

    ``len()`` and :attr:`full` count *logical* items: a
    :class:`ReplayBatch` occupies as many slots as it has undrained
    elements, so queue-depth stalls behave exactly as if the batch had
    been pushed item by item.  The plain ``push``/``pop`` API never
    creates batches — only the fast interpreter's block replay does, via
    direct ``_items`` access — so a per-instruction interpreter (the
    test reference ``ReferenceCore``) only ever sees plain items.
    """

    def __init__(self, depth: int):
        self.depth = depth
        self._items = deque()
        self.reset()

    def reset(self) -> None:
        """Empty the queue and zero its tallies.  The deque is cleared in
        place: the fast interpreter holds its bound ``append``."""
        self._items.clear()
        #: Logical item count (plain items + undrained batch elements).
        self._count = 0
        #: High-water mark of :attr:`_count` (observability; the fast
        #: interpreter also updates it at batch-admission sites).
        self.high_water = 0
        self._space_waiter: Optional[Callable[[], None]] = None

    def __len__(self):
        return self._count

    @property
    def full(self) -> bool:
        return self._count >= self.depth

    def push(self, item) -> None:
        """Append an item (caller must check :attr:`full` first)."""
        self._items.append(item)
        self._count += 1
        if self._count > self.high_water:
            self.high_water = self._count

    def peek(self):
        """Return the head item or None."""
        return self._items[0] if self._items else None

    def pop(self):
        """Remove and return the head item; wake a pipeline space-waiter."""
        item = self._items.popleft()
        self._count -= 1
        if self._space_waiter is not None and not self.full:
            waiter, self._space_waiter = self._space_waiter, None
            waiter()
        return item

    def wait_for_space(self, callback: Callable[[], None]) -> None:
        """Register a callback invoked once space becomes available."""
        self._space_waiter = callback
