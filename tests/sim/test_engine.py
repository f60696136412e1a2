"""Discrete-event engine semantics."""

import heapq
import itertools
import random

import pytest

from repro.errors import ExecutionError
from repro.sim.engine import Engine


class TestEngine:
    def test_events_fire_in_time_order(self):
        engine = Engine()
        order = []
        engine.at(10, lambda: order.append("b"))
        engine.at(5, lambda: order.append("a"))
        engine.run()
        assert order == ["a", "b"]

    def test_same_time_fifo(self):
        engine = Engine()
        order = []
        engine.at(5, lambda: order.append(1))
        engine.at(5, lambda: order.append(2))
        engine.run()
        assert order == [1, 2]

    def test_after_relative(self):
        engine = Engine()
        engine.at(10, lambda: engine.after(5, lambda: None))
        engine.run()
        assert engine.now == 15

    def test_scheduling_in_past_rejected(self):
        engine = Engine()
        engine.at(10, lambda: engine.at(5, lambda: None))
        with pytest.raises(ExecutionError):
            engine.run()

    def test_negative_delay_rejected(self):
        with pytest.raises(ExecutionError):
            Engine().after(-1, lambda: None)

    def test_run_until_stops_early(self):
        engine = Engine()
        fired = []
        engine.at(100, lambda: fired.append(True))
        engine.run(until=50)
        assert engine.now == 50 and not fired
        engine.run()
        assert fired == [True]

    def test_run_until_advances_clock_when_idle(self):
        engine = Engine()
        engine.run(until=123)
        assert engine.now == 123

    def test_run_until_before_now_rejected(self):
        """The clock never runs backwards: a pause before ``now`` is an
        error, and an event between the two cycles is still refused."""
        engine = Engine()
        fired = []
        engine.at(10, lambda: fired.append(10))
        engine.at(200, lambda: fired.append(200))
        assert engine.run(until=100) == 100
        with pytest.raises(ExecutionError, match=r"50\b.*\b100"):
            engine.run(until=50)
        assert engine.now == 100
        with pytest.raises(ExecutionError):
            engine.at(60, lambda: fired.append(60))
        assert engine.run(until=100) == 100
        engine.run()
        assert fired == [10, 200]

    def test_events_processed_counter(self):
        engine = Engine()
        for t in range(5):
            engine.at(t, lambda: None)
        engine.run()
        assert engine.events_processed == 5

    def test_max_events_guard(self):
        engine = Engine()

        def reschedule():
            engine.after(1, reschedule)

        engine.at(0, reschedule)
        with pytest.raises(ExecutionError):
            engine.run(max_events=100)

    def test_cascading_events(self):
        engine = Engine()
        values = []
        engine.at(1, lambda: (values.append(engine.now),
                              engine.after(2, lambda: values.append(engine.now))))
        engine.run()
        assert values == [1, 3]


class TestExceptionResume:
    def test_same_cycle_events_survive_callback_exception(self):
        engine = Engine()
        fired = []
        engine.at(5, lambda: fired.append("a"))

        def boom():
            raise RuntimeError("boom")

        engine.at(5, boom)
        engine.at(5, lambda: fired.append("b"))
        with pytest.raises(RuntimeError):
            engine.run()
        assert fired == ["a"]
        assert engine.pending == 1
        # Newly scheduled same-cycle work joins the orphaned bucket ...
        engine.at(5, lambda: fired.append("c"))
        # ... and a later run() drains both in scheduling order.
        engine.run()
        assert fired == ["a", "b", "c"]
        assert engine.pending == 0


class TestFarFuture:
    """Events hundreds to thousands of cycles ahead keep time order, also
    across ``run(until=)`` pauses and at times equal modulo 512."""

    def test_far_future_order(self):
        engine = Engine()
        fired = []
        times = [0, 1, 512 - 1, 512, 512 + 1, 3 * 512 + 7, 10 * 512]
        for t in reversed(times):
            engine.at(t, lambda t=t: fired.append(t))
        engine.run()
        assert fired == sorted(times)
        assert engine.now == 10 * 512

    def test_far_event_survives_until_pause(self):
        engine = Engine()
        fired = []
        engine.at(5 * 512, lambda: fired.append(engine.now))
        # Stop before the far event: it must stay pending and fire later.
        assert engine.run(until=10) == 10
        assert fired == [] and engine.pending == 1
        # Scheduling near ``now`` after the pause must not corrupt order.
        engine.at(20, lambda: fired.append(engine.now))
        engine.run()
        assert fired == [20, 5 * 512]

    def test_times_equal_modulo_512(self):
        engine = Engine()
        fired = []
        engine.at(3, lambda: fired.append(3))
        engine.at(3 + 512, lambda: fired.append(3 + 512))
        engine.at(3 + 2 * 512, lambda: fired.append(3 + 2 * 512))
        engine.run()
        assert fired == [3, 3 + 512, 3 + 2 * 512]

    def test_callbacks_scheduling_far_ahead(self):
        engine = Engine()
        fired = []

        def hop(depth):
            fired.append(engine.now)
            if depth:
                engine.after(512 + 1, lambda: hop(depth - 1))

        engine.at(0, lambda: hop(4))
        engine.run()
        assert fired == [i * (512 + 1) for i in range(5)]


class ReferenceEngine:
    """The engine's contract as a plain heap of ``(time, seq)`` entries:
    time order, then scheduling order within a cycle."""

    def __init__(self):
        self._heap = []
        self._seq = 0
        self.now = 0
        self.events_processed = 0

    def at(self, time, callback):
        if time < self.now:
            raise ExecutionError("past: {} < {}".format(time, self.now))
        heapq.heappush(self._heap, (time, self._seq, callback))
        self._seq += 1

    def after(self, delay, callback):
        if delay < 0:
            raise ExecutionError("negative delay: {}".format(delay))
        self.at(self.now + delay, callback)

    def run(self, until=None):
        heap = self._heap
        while heap and (until is None or heap[0][0] <= until):
            time, _, callback = heapq.heappop(heap)
            self.now = time
            self.events_processed += 1
            callback()
        if until is not None and until > self.now:
            self.now = until
        return self.now

    @property
    def pending(self):
        return len(self._heap)


class Boom(Exception):
    pass


def random_schedule(engine, seed):
    """Drive ``engine`` through one seeded random schedule and return what
    an observer sees: every firing as ``(cycle, event)`` plus the engine's
    state at each pause.

    Each event's behaviour is a function of its own id, so the schedule
    is the same on any engine that fires events in the same order.
    Events mix ``at`` and ``after`` with delays from 0 to beyond 10,000
    cycles, fan out from inside callbacks (``after(0)`` chains included),
    and the run pauses at ``run(until=)`` with far events pending.  One
    callback raises mid-cycle and a later ``run`` resumes.
    """
    log = []
    marks = []
    ids = itertools.count()

    def delay(rng):
        roll = rng.random()
        if roll < 0.3:
            return 0
        if roll < 0.75:
            return rng.randint(1, 600)
        if roll < 0.95:
            return rng.randint(600, 5000)
        return rng.randint(5000, 12000)

    def event(depth):
        name = next(ids)

        def fire():
            log.append((engine.now, name))
            rng = random.Random(seed * 1_000_003 + name)
            if depth <= 0:
                return
            for _ in range(rng.choice((0, 1, 1, 2))):
                if rng.random() < 0.5:
                    engine.after(delay(rng), event(depth - 1))
                else:
                    engine.at(engine.now + delay(rng), event(depth - 1))
            if rng.random() < 0.15:
                engine.after(0, event(min(depth - 1, 2)))
        return fire

    def boom():
        log.append((engine.now, "boom"))
        raise Boom

    def pause(until=None):
        try:
            marks.append(("run", engine.run(until=until)))
        except Boom:
            marks.append(("boom", engine.now))
        marks.append((engine.now, engine.pending, engine.events_processed))

    rng = random.Random(seed)
    for _ in range(25):
        engine.at(rng.randint(0, 3000), event(7))
    stops = sorted(rng.sample(range(1, 30000), 5))
    for index, until in enumerate(stops):
        if until < engine.now:
            continue
        pause(until)
        # A pause that lands on a pending cycle fires that cycle.
        edge = engine.now + rng.randint(1, 50)
        engine.at(edge, event(1))
        pause(edge)
        engine.at(engine.now, event(3))
        engine.after(rng.randint(600, 15000), event(5))
        if index == 1:
            # Same cycle: one event before the raise, one after it.
            when = engine.now + rng.randint(1, 200)
            engine.at(when, event(2))
            engine.at(when, boom)
            engine.at(when, event(2))
    pause()  # the raise may still be ahead: resume after it
    pause()
    return log, marks


class TestAgainstReference:
    @pytest.mark.parametrize("seed", range(12))
    def test_firing_order_matches_heap_reference(self, seed):
        got = random_schedule(Engine(), seed)
        want = random_schedule(ReferenceEngine(), seed)
        assert got == want
        log, marks = got
        assert any(name == "boom" for _, name in log)
        assert sum(1 for _, name in log if name != "boom") > 200
        assert marks[-1][1] == 0

    def test_schedule_reaches_far_and_same_cycle_work(self):
        log, _ = random_schedule(ReferenceEngine(), 0)
        cycles = [cycle for cycle, _ in log]
        assert max(cycles) > 10_000
        assert len(cycles) - len(set(cycles)) > 20
