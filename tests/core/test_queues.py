"""Item queue capacity, FIFO issue order and wake-up semantics.

Items are plain ``(position, kind, a, b)`` tuples; the TCU loop of a bare
core is what pops them.
"""

from repro.core.config import CoreConfig
from repro.core.node import HISQCore
from repro.core.queues import ItemQueue
from repro.isa.decoded import ITEM_CW
from repro.sim.engine import Engine
from repro.sim.telf import TelfLog


def _bare_core(depth):
    engine = Engine()
    core = HISQCore("c0", 0, engine, TelfLog(),
                    config=CoreConfig(event_queue_depth=depth))
    return engine, core


def _drain(engine, core):
    """Let the core's TCU issue everything queued."""
    core._tcu_kick()
    engine.run()


class TestItemQueue:
    def test_fifo_order(self):
        engine, core = _bare_core(4)
        for i in range(3):
            core._queue.push((i, ITEM_CW, 0, i))
        _drain(engine, core)
        emitted = [(r.time, r.value) for r in core.telf.emissions("c0")]
        assert emitted == [(0, 0), (1, 1), (2, 2)]
        assert len(core._queue) == 0

    def test_full_flag(self):
        queue = ItemQueue(2)
        queue.push((0, ITEM_CW, 0, 0))
        assert not queue.full
        queue.push((1, ITEM_CW, 0, 0))
        assert queue.full
        assert len(queue) == queue.high_water == 2

    def test_space_waiter_called_on_pop(self):
        engine, core = _bare_core(1)
        core._queue.push((0, ITEM_CW, 0, 0))
        called = []
        core._queue.wait_for_space(lambda: called.append(engine.now))
        _drain(engine, core)
        assert called == [0]

    def test_space_waiter_called_once(self):
        engine, core = _bare_core(2)
        core._queue.push((0, ITEM_CW, 0, 0))
        core._queue.push((5, ITEM_CW, 0, 0))
        called = []
        core._queue.wait_for_space(lambda: called.append(engine.now))
        _drain(engine, core)
        assert called == [0]
        assert core.codewords_emitted == 2
