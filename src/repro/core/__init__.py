"""Single-node HISQ microarchitecture (Figure 3a)."""

from .config import ACQ_ADDRESS, ANY_SOURCE, CENTRAL_ADDRESS, CoreConfig
from .message_unit import MessageUnit
from .node import HISQCore
from .queues import ItemQueue
from .sync_unit import SyncUnit
from .timer import AbsoluteTimer

__all__ = [
    "ACQ_ADDRESS", "ANY_SOURCE", "CENTRAL_ADDRESS", "AbsoluteTimer",
    "CoreConfig", "HISQCore", "ItemQueue", "MessageUnit", "SyncUnit",
]
