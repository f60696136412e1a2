"""Router for region-level BISP synchronization (paper section 5.2, Figure 8).

Router actions on receiving a booking message:

1. If the message comes from a child, buffer its time-point; once reports
   from *all* children owning group members have arrived, compute the
   maximum time-point.
2. If this router is the sync group's destination, broadcast the common
   start time Tm down to the member children; otherwise forward the
   partial maximum to the parent.

To guarantee the broadcast reaches every member *before* Tm (the meeting
analogy's precondition), the destination router raises Tm to at least
``now + processing + max downstream latency`` — the pre-configured
``down_bound`` of the group.  Any excess over ``max_i T_i`` is exactly the
synchronization overhead of section 4.4.

The event-fabric side is allocation-light: inbound bookings, upward
relays and downward broadcasts each travel through a per-router FIFO
deque plus one *prebound* callback, instead of a fresh lambda closure
per message.  Every class of traffic through one router has a uniform
latency (hop or processing delay), so deque order and engine firing
order provably agree — the payload does not need to ride inside the
closure.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..errors import SynchronizationError
from ..obs import metrics as _metrics
from .messages import BookingMessage, TimePointMessage
from .sync_plan import SYNC_PLAN_FALLBACK

ABANDONED_EPOCHS = _metrics.counter(
    "repro_router_abandoned_epochs_total",
    "incomplete (group, epoch) rendezvous dropped at engine teardown")


@dataclass
class SyncGroupInfo:
    """Static per-router knowledge about one sync group.

    ``expected`` lists the child addresses (controllers or child routers)
    this router must hear from; ``is_destination`` marks the group's target
    ancestor router; ``down_bound`` bounds broadcast latency to the deepest
    member below this router.
    """

    group: int
    expected: List[int]
    member_children: List[int]
    is_destination: bool
    down_bound: int


class Router:
    """One node of the inter-layer tree."""

    def __init__(self, name: str, address: int, engine, telf,
                 process_cycles: int = 2):
        self.name = name
        self.address = address
        self.engine = engine
        self.telf = telf
        self.process_cycles = process_cycles
        self.parent_address: Optional[int] = None
        self.groups: Dict[int, SyncGroupInfo] = {}
        self.fabric = None  # wired by the system builder
        # Prebind the engine callbacks once — scheduling then passes an
        # existing object instead of materializing a bound method (let
        # alone a lambda) per message.
        self.deliver_booking = self.deliver_booking
        self._relay_up = self._relay_up
        self._relay_down = self._relay_down
        self.reset()

    def reset(self) -> None:
        """Drop booking buckets, in-flight payloads and tallies; the
        configured groups and tree wiring stay."""
        self._pending: Dict[tuple, Dict[int, int]] = {}
        #: Payload FIFOs behind the prebound callbacks.  Safe because
        #: each queue's traffic has one uniform engine delay: inbound
        #: bookings all travel one hop, relays and broadcasts all wait
        #: this router's processing delay — insertion order is firing
        #: order.
        self._inbound: deque = deque()
        self._up: deque = deque()
        self._down: deque = deque()
        self.bookings_handled = 0
        self.broadcasts_sent = 0
        #: Incomplete rendezvous dropped by :meth:`abandon` (leak
        #: diagnostics; a healthy drained run ends with 0).
        self.abandoned_epochs = 0

    def configure_group(self, info: SyncGroupInfo) -> None:
        """Register static routing data for one sync group."""
        self.groups[info.group] = info

    # -- prebound fabric callbacks (one per router, not one per message) --

    def enqueue_booking(self, message: BookingMessage) -> None:
        """Buffer an inbound booking for delivery after one hop; the
        caller schedules :meth:`deliver_booking` at the arrival cycle."""
        self._inbound.append(message)

    def deliver_booking(self) -> None:
        """Engine callback: the oldest in-flight booking arrives."""
        self.receive_booking(self._inbound.popleft())

    def _relay_up(self) -> None:
        """Engine callback: forward the oldest finished partial max."""
        self.fabric.router_to_parent(self, self._up.popleft())

    def _relay_down(self) -> None:
        """Engine callback: broadcast the oldest finished Tm."""
        message = self._down.popleft()
        info = self.groups[message.group]
        self.fabric.router_to_children(self, info.member_children, message)

    def receive_booking(self, msg: BookingMessage) -> None:
        """Handle a booking message from a child (Figure 8, left path)."""
        info = self.groups.get(msg.group)
        if info is None:
            raise SynchronizationError(
                "{}: booking for unknown group {}".format(self.name,
                                                          msg.group))
        if msg.origin not in info.expected:
            raise SynchronizationError(
                "{}: unexpected booking origin {} for group {}".format(
                    self.name, msg.origin, msg.group))
        key = (msg.group, msg.epoch)
        bucket = self._pending.setdefault(key, {})
        if msg.origin in bucket:
            raise SynchronizationError(
                "{}: duplicate booking from {} in group {} epoch {}".format(
                    self.name, msg.origin, msg.group, msg.epoch))
        bucket[msg.origin] = msg.time_point
        self.bookings_handled += 1
        if len(bucket) < len(info.expected):
            return
        del self._pending[key]
        partial_max = max(bucket.values())
        ready = self.engine.now + self.process_cycles
        if info.is_destination:
            tm = max(partial_max, ready + info.down_bound)
            self.telf.log(self.engine.now, self.name, "sync_done",
                          port=msg.group, value=tm,
                          note="Tm (overhead {})".format(tm - partial_max))
            SYNC_PLAN_FALLBACK.value += 1
            self._broadcast(msg.group, msg.epoch, tm, info)
        else:
            if self.parent_address is None:
                raise SynchronizationError(
                    "{}: non-destination router without parent".format(
                        self.name))
            self._up.append(BookingMessage(msg.group, msg.epoch,
                                           self.address, partial_max))
            self.engine.after(self.process_cycles, self._relay_up)

    def receive_time_point(self, msg: TimePointMessage) -> None:
        """Handle a Tm broadcast from the parent (Figure 8, right path)."""
        info = self.groups.get(msg.group)
        if info is None:
            raise SynchronizationError(
                "{}: time-point for unknown group {}".format(self.name,
                                                             msg.group))
        self._broadcast(msg.group, msg.epoch, msg.time_point, info)

    def _broadcast(self, group: int, epoch: int, tm: int,
                   info: SyncGroupInfo) -> None:
        self.broadcasts_sent += 1
        self._down.append(TimePointMessage(group, epoch, tm))
        self.engine.after(self.process_cycles, self._relay_down)

    def abandon(self) -> int:
        """Drop every incomplete (group, epoch) rendezvous; return count.

        Called by the system's drain hook at engine teardown: a crashed
        member or aborted program leaves partially filled booking
        buckets that nothing would ever complete, and before this hook
        they leaked for the router's lifetime.  In-flight queue payloads
        are cleared too — their engine events are already gone.
        """
        count = len(self._pending)
        if count:
            self._pending.clear()
            self.abandoned_epochs += count
            ABANDONED_EPOCHS.value += count
        self._inbound.clear()
        self._up.clear()
        self._down.clear()
        return count

    def __repr__(self):
        return "Router({!r}, addr={}, groups={})".format(
            self.name, self.address, sorted(self.groups))
