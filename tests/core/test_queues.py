"""TCU item queue: FIFO issue order, depth tracking and wake-up semantics.

The queue is core state: items are plain ``(position, kind, a, b)``
tuples that the core's TCU loop pops.  A push starts an idle TCU, so
each test holds the TCU busy while it fills the queue, as an earlier
item still waiting for its issue cycle would.
"""

from repro.core.node import HISQCore
from repro.isa.decoded import ITEM_CW
from repro.sim.config import SimulationConfig
from repro.sim.engine import Engine
from repro.sim.telf import TelfLog


def _bare_core(depth):
    """A bare core whose TCU is held busy until :func:`_drain`."""
    engine = Engine()
    core = HISQCore("c0", 0, engine, TelfLog(),
                    config=SimulationConfig(event_queue_depth=depth))
    core._tcu_busy = True
    return engine, core


def _drain(engine, core):
    """Release the core's TCU and let it issue everything queued."""
    core._tcu_busy = False
    core._tcu_kick()
    engine.run()


class TestTcuQueue:
    def test_fifo_order(self):
        engine, core = _bare_core(4)
        for i in range(3):
            core._push((i, ITEM_CW, 0, i))
        _drain(engine, core)
        emitted = [(r.time, r.value) for r in core.telf.emissions("c0")]
        assert emitted == [(0, 0), (1, 1), (2, 2)]
        assert not core._items

    def test_depth_and_high_water(self):
        engine, core = _bare_core(2)
        core._push((0, ITEM_CW, 0, 0))
        core._push((1, ITEM_CW, 0, 0))
        assert len(core._items) == core.queue_high_water == 2
        _drain(engine, core)
        assert not core._items and core.queue_high_water == 2
        core.reset()
        assert core.queue_high_water == 0

    def test_space_waiter_called_on_pop(self):
        engine, core = _bare_core(1)
        core._push((0, ITEM_CW, 0, 0))
        called = []
        core._space_waiter = lambda: called.append(engine.now)
        _drain(engine, core)
        assert called == [0]
        assert core._space_waiter is None

    def test_space_waiter_called_once(self):
        engine, core = _bare_core(2)
        core._push((0, ITEM_CW, 0, 0))
        core._push((5, ITEM_CW, 0, 0))
        called = []
        core._space_waiter = lambda: called.append(engine.now)
        _drain(engine, core)
        assert called == [0]
        assert core.codewords_emitted == 2
