"""Sweep execution core: serial parity, caching, spawn safety."""

import gc
import os
import pickle
import subprocess
import sys
import time
from dataclasses import replace

import pytest

from repro.circuits.dynamic import count_feedback_ops
from repro.compiler.driver import CompilationResult, run_circuit
from repro.diskcache import ORPHAN_TMP_SECONDS, PickleDirStore
from repro.errors import ReproError
from repro.harness import fig15_suite
from repro.harness.parallel import (CellResult, SweepTask,
                                    clear_cell_caches, run_cell, run_tasks,
                                    tasks_from_spec)
from repro.harness.runner import outcomes_from_rows
from repro.harness.spec import SweepSpec
from repro.harness.sweep import run_sweep
from repro.sim.config import SimulationConfig

SCALE = 0.02
SCHEMES = ("bisp", "lockstep")
#: The tiny Figure-15 grid behind the session ``tiny_outcomes`` fixture.
TINY_GRID = SweepSpec(tags=("paper",), schemes=SCHEMES, scales=(SCALE,))


#: A well-formed cell result; the wire-format tests break one field.
CELL = CellResult(spec_name="x", scheme="bisp", num_qubits=1, num_ops=1,
                  feedback_ops=0, makespan_cycles=1, sync_stall_cycles=0,
                  lifetimes_ns={0: 1.0})

#: (field, value) that CellResult.from_dict refuses: lifetimes are
#: finite and >= 0 under ASCII qubit indices, fidelities finite and in
#: [0, 1].
BAD_CELL_FIELDS = [
    ("lifetimes_ns", {"0": float("nan")}),
    ("lifetimes_ns", {"0": float("inf")}),
    ("lifetimes_ns", {"0": -1.0}),
    # int() reads this Arabic-Indic digit as 3, colliding with "3".
    ("lifetimes_ns", {"\u0663": 1.0, "3": 2.0}),
    ("fidelity_empirical", float("nan")),
    ("fidelity_empirical", 1.5),
    ("fidelity_ci_low", -0.25),
    ("fidelity_ci_low", float("-inf")),
    ("fidelity_ci_high", float("inf")),
]


def tiny(workloads=("bv_n400",), schemes=("bisp",), **kwargs):
    """A small scale-0.02 sweep spec (one bisp cell by default)."""
    return SweepSpec(workloads=workloads, schemes=schemes, scales=(SCALE,),
                     **kwargs)


def assert_outcomes_equal(left, right):
    assert [o.name for o in left] == [o.name for o in right]
    for a, b in zip(left, right):
        assert a.num_qubits == b.num_qubits
        assert a.num_ops == b.num_ops
        assert a.feedback_ops == b.feedback_ops
        assert a.makespan_cycles == b.makespan_cycles
        assert a.stall_cycles == b.stall_cycles


class TestParity:
    def test_parallel_matches_serial(self, tiny_outcomes):
        rows, _ = run_sweep(TINY_GRID, processes=2)
        assert_outcomes_equal(outcomes_from_rows(rows, SCHEMES),
                              tiny_outcomes)

    def test_workload_filter(self):
        rows, _ = run_sweep(tiny(workloads=("bv_n400", "qft_n30"),
                                 schemes=SCHEMES), processes=1)
        assert [o.name for o in outcomes_from_rows(rows, SCHEMES)] == \
            ["bv_n400", "qft_n30"]


class TestTasks:
    def test_tasks_are_picklable_and_deterministic(self):
        tasks = tasks_from_spec(TINY_GRID)
        assert len(tasks) == 24  # 12 workloads x 2 schemes
        rebuilt = pickle.loads(pickle.dumps(tasks))
        assert rebuilt == tasks
        assert [t.cache_key() for t in rebuilt] == \
               [t.cache_key() for t in tasks]

    def test_cache_key_sensitivity(self):
        base, = tasks_from_spec(tiny())
        other_seed, = tasks_from_spec(tiny(device_seed=999))
        other_config, = tasks_from_spec(
            tiny(config=SimulationConfig(neighbor_link_cycles=9)))
        keys = {base.cache_key(), other_seed.cache_key(),
                other_config.cache_key()}
        assert len(keys) == 3

    def test_run_cell_matches_fresh_run_circuit(self, tiny_outcomes):
        """The fresh-compile oracle: every tiny-grid cell, run cold
        through the sweep core, equals ``run_circuit`` on a freshly built
        circuit -- and so does the memoized serial sweep behind
        ``tiny_outcomes``: no memo, cache or GC pacing may change a
        number."""
        specs = {spec.name: spec for spec in fig15_suite(scale=SCALE)}
        warm = {(o.name, scheme): (o.makespan_cycles[scheme],
                                   o.stall_cycles[scheme])
                for o in tiny_outcomes for scheme in SCHEMES}
        tasks = tasks_from_spec(TINY_GRID)
        assert len(tasks) == len(warm) == 24
        for task in tasks:
            clear_cell_caches()
            cell = run_cell(task)
            spec = specs[task.spec_name]
            circuit = spec.circuit()
            result = run_circuit(circuit, scheme=task.scheme, backend=None,
                                 device_seed=task.device_seed,
                                 mesh_kind=spec.mesh_kind,
                                 record_gate_log=False)
            assert cell.makespan_cycles == result.makespan_cycles, task
            assert cell.sync_stall_cycles == \
                result.stats.sync_stall_cycles, task
            assert cell.lifetimes_ns == \
                result.system.device.lifetimes_ns(), task
            assert cell.num_ops == len(circuit), task
            assert cell.feedback_ops == count_feedback_ops(circuit), task
            assert warm[task.spec_name, task.scheme] == (
                result.makespan_cycles, result.stats.sync_stall_cycles), task


class TestMemory:
    def test_serial_sweep_keeps_no_compilation_alive(self):
        """A sweep compiles each cell once, so nothing holds a cell's
        compilation after the cell: a serial run leaves no
        ``CompilationResult`` behind for the collector to find."""
        def compilations():
            gc.collect()
            return [obj for obj in gc.get_objects()
                    if isinstance(obj, CompilationResult)]

        clear_cell_caches()
        before = compilations()
        run_tasks(tasks_from_spec(SweepSpec(
            workloads=("bv_n400", "qft_n30"), schemes=SCHEMES,
            scales=(0.05,))), processes=1)
        survivors = [obj for obj in compilations()
                     if not any(obj is old for old in before)]
        assert len(survivors) == 0, [obj.scheme for obj in survivors]


class TestCache:
    def test_cache_hit_skips_recompute(self, tmp_path):
        cache_dir = str(tmp_path / "sweep")
        spec = tiny(schemes=SCHEMES)
        first, _ = run_sweep(spec, processes=1, cache_dir=cache_dir)
        cache = PickleDirStore(cache_dir)
        assert len(cache) == 2  # two schemes
        second, stats = run_sweep(spec, processes=1, cache_dir=cache_dir)
        assert (stats.hits, stats.misses) == (2, 0)
        assert second == first

    def test_corrupt_entry_recomputed(self, tmp_path):
        cache_dir = str(tmp_path / "sweep")
        spec = tiny(schemes=SCHEMES)
        run_sweep(spec, processes=1, cache_dir=cache_dir)
        for path in (tmp_path / "sweep").glob("*.pkl"):
            path.write_bytes(b"not a pickle")
        rows, _ = run_sweep(spec, processes=1, cache_dir=cache_dir)
        assert rows[0]["scheme"] == "bisp"
        assert rows[0]["makespan_cycles"] > 0

    def test_roundtrip_value(self, tmp_path):
        cache = PickleDirStore(str(tmp_path))
        task, = tasks_from_spec(tiny())
        cell = run_cell(task)
        cache.put(task.cache_key(), cell)
        assert cache.get(task.cache_key()) == cell
        assert cache.get("0" * 64) is None


@pytest.mark.parallel
class TestSpawn:
    def test_spawn_start_method_smoke(self):
        """Workers must survive pickling under spawn (fresh interpreter)."""
        rows, _ = run_sweep(tiny(schemes=SCHEMES), processes=2,
                            start_method="spawn")
        assert rows[0]["scheme"] == "bisp"
        assert rows[0]["makespan_cycles"] > 0


class TestOrphanTmpSweep:
    """A worker killed between mkstemp and os.replace must not leak its
    temp file forever: opening the cache reclaims it (regression for the
    kill-resume leak)."""

    def _cache_dir(self, tmp_path):
        cache_dir = tmp_path / "sweep"
        cache_dir.mkdir()
        return cache_dir

    def _dead_pid(self):
        proc = subprocess.Popen(["sleep", "0"])
        proc.wait()
        return proc.pid

    def test_dead_writer_tmp_swept_on_open(self, tmp_path):
        cache_dir = self._cache_dir(tmp_path)
        orphan = cache_dir / "tmp-{}-leak.tmp".format(self._dead_pid())
        orphan.write_bytes(b"partial pickle")
        PickleDirStore(str(cache_dir))
        assert not orphan.exists()
        assert list(cache_dir.glob("*.tmp")) == []

    def test_live_writer_fresh_tmp_kept(self, tmp_path):
        """A concurrent live writer's fresh temp file is not clobbered."""
        cache_dir = self._cache_dir(tmp_path)
        live = cache_dir / "tmp-{}-inflight.tmp".format(os.getpid())
        live.write_bytes(b"in flight")
        removed = PickleDirStore(str(cache_dir)).sweep_orphan_tmps()
        assert removed == 0
        assert live.exists()

    def test_stale_tmp_swept_by_age(self, tmp_path):
        """TTL backstop: even a live-looking PID (reuse) loses its claim
        once the temp file is older than ORPHAN_TMP_SECONDS."""
        cache_dir = self._cache_dir(tmp_path)
        cache = PickleDirStore(str(cache_dir))
        stale = cache_dir / "tmp-{}-stale.tmp".format(os.getpid())
        stale.write_bytes(b"ancient")
        old = time.time() - ORPHAN_TMP_SECONDS - 60
        os.utime(stale, (old, old))
        assert cache.sweep_orphan_tmps() == 1
        assert not stale.exists()

    def test_foreign_tmp_name_only_aged_out(self, tmp_path):
        """Temp files without our pid prefix fall back to the TTL test."""
        cache_dir = self._cache_dir(tmp_path)
        foreign = cache_dir / "download.tmp"
        foreign.write_bytes(b"not ours")
        cache = PickleDirStore(str(cache_dir))
        assert foreign.exists()  # fresh: kept
        old = time.time() - ORPHAN_TMP_SECONDS - 60
        os.utime(foreign, (old, old))
        assert cache.sweep_orphan_tmps() == 1
        assert not foreign.exists()

    def test_entries_never_swept(self, tmp_path):
        cache_dir = self._cache_dir(tmp_path)
        cache = PickleDirStore(str(cache_dir))
        task, = tasks_from_spec(tiny())
        cache.put(task.cache_key(), run_cell(task))
        orphan = cache_dir / "tmp-{}-leak.tmp".format(self._dead_pid())
        orphan.write_bytes(b"partial")
        assert PickleDirStore(str(cache_dir)).sweep_orphan_tmps() == 0
        assert cache.get(task.cache_key()) is not None

    def test_put_leaves_no_tmp(self, tmp_path):
        cache = PickleDirStore(str(tmp_path))
        task, = tasks_from_spec(tiny())
        cache.put(task.cache_key(), run_cell(task))
        assert list(tmp_path.glob("*.tmp")) == []

    def test_kill_resume_sweep_leaves_zero_tmps(self, tmp_path):
        """End-to-end: resume a sweep over a cache dir littered with a
        killed worker's orphan; the run completes and no .tmp remains."""
        cache_dir = self._cache_dir(tmp_path)
        orphan = cache_dir / "tmp-{}-killed.tmp".format(self._dead_pid())
        orphan.write_bytes(b"\x80\x04 partial")
        rows, _ = run_sweep(tiny(schemes=SCHEMES), processes=1,
                            cache_dir=str(cache_dir))
        assert rows[0]["makespan_cycles"] > 0
        assert list(cache_dir.glob("*.tmp")) == []
        assert len(list(cache_dir.glob("*.pkl"))) == 2


class TestReclaimLock:
    """Orphan-tmp reclaim is single-flight across concurrent store/cache
    opens: an advisory flock serializes the sweep, and losers skip it
    instead of racing the winner's unlinks (PR-7 satellite fix)."""

    def test_lock_is_exclusive_while_held(self, tmp_path):
        cache = PickleDirStore(str(tmp_path))
        other = PickleDirStore(str(tmp_path))
        with cache._reclaim_lock() as acquired:
            assert acquired
            with other._reclaim_lock() as second:
                assert not second

    def test_lock_released_after_sweep(self, tmp_path):
        cache = PickleDirStore(str(tmp_path))
        with cache._reclaim_lock() as acquired:
            assert acquired
        with cache._reclaim_lock() as again:
            assert again

    def test_contended_sweep_returns_zero_not_raises(self, tmp_path):
        holder = PickleDirStore(str(tmp_path))
        loser = PickleDirStore(str(tmp_path))
        proc = subprocess.Popen(["sleep", "0"])
        proc.wait()
        orphan = tmp_path / "tmp-{}-leak.tmp".format(proc.pid)
        orphan.write_bytes(b"partial")
        with holder._reclaim_lock() as acquired:
            assert acquired
            assert loser.sweep_orphan_tmps() == 0  # skipped, no race
            assert orphan.exists()
        assert loser.sweep_orphan_tmps() == 1
        assert not orphan.exists()

    def test_concurrent_opens_race_clean(self, tmp_path):
        """Many processes opening one littered store at once: the orphan
        is reclaimed and nobody crashes on a vanished tmp file."""
        proc = subprocess.Popen(["sleep", "0"])
        proc.wait()
        for index in range(4):
            orphan = tmp_path / "tmp-{}-leak{}.tmp".format(proc.pid,
                                                           index)
            orphan.write_bytes(b"partial")
        script = ("import sys; sys.path.insert(0, {!r}); "
                  "from repro.diskcache import PickleDirStore; "
                  "PickleDirStore({!r})").format(
                      os.path.join(os.path.dirname(os.path.dirname(
                          os.path.dirname(os.path.abspath(__file__)))),
                          "src"),
                      str(tmp_path))
        procs = [subprocess.Popen([sys.executable, "-c", script])
                 for _ in range(4)]
        assert [p.wait() for p in procs] == [0, 0, 0, 0]
        assert list(tmp_path.glob("*.tmp")) == []


class TestWireSerialization:
    """SweepTask/CellResult JSON wire format (the sweep service ships
    both over HTTP; pickle stays an on-disk-only format)."""

    def test_task_round_trip(self):
        task, = tasks_from_spec(tiny())
        rebuilt = SweepTask.from_dict(task.to_dict())
        assert rebuilt == task
        assert rebuilt.cache_key() == task.cache_key()

    def test_task_round_trip_through_json_text(self):
        import json

        task, = tasks_from_spec(tiny(workloads=("qft_n30",),
                                     schemes=("lockstep",)))
        rebuilt = SweepTask.from_dict(
            json.loads(json.dumps(task.to_dict())))
        assert rebuilt == task

    def test_task_unknown_field_rejected(self):
        task, = tasks_from_spec(tiny())
        data = task.to_dict()
        data["surprise"] = 1
        with pytest.raises(ReproError):
            SweepTask.from_dict(data)

    def test_cell_result_round_trip(self):
        import json

        task, = tasks_from_spec(tiny())
        cell = run_cell(task)
        rebuilt = CellResult.from_dict(
            json.loads(json.dumps(cell.to_dict())))
        assert rebuilt == cell
        assert rebuilt.lifetimes_ns == cell.lifetimes_ns
        assert all(isinstance(k, int) for k in rebuilt.lifetimes_ns)

    @pytest.mark.parametrize(
        "field,value", BAD_CELL_FIELDS,
        ids=["{}={!r}".format(*case) for case in BAD_CELL_FIELDS])
    def test_cell_result_refuses_bad_field(self, field, value):
        """Worker payloads are stored as-is: a NaN, infinite or
        out-of-range number must fail here, not reach a BENCH
        document."""
        data = dict(CELL.to_dict(), **{field: value})
        with pytest.raises(ReproError, match=field):
            CellResult.from_dict(data)

    def test_cell_result_accepts_range_ends(self):
        data = dict(CELL.to_dict(), lifetimes_ns={"0": 0, "1": 2.5},
                    fidelity_empirical=1, fidelity_ci_low=0.0,
                    fidelity_ci_high=1.0)
        assert CellResult.from_dict(data).lifetimes_ns == {0: 0, 1: 2.5}


class TestCompileCachePlumbing:
    """compile_cache_dir: wire format, cache-key exclusion, execution."""

    def test_field_round_trips(self):
        task, = tasks_from_spec(tiny())
        task = replace(task, compile_cache_dir="/tmp/somewhere")
        rebuilt = SweepTask.from_dict(task.to_dict())
        assert rebuilt.compile_cache_dir == "/tmp/somewhere"
        assert rebuilt == task

    def test_not_in_cache_key(self):
        """Cached compilations are bit-identical by contract, so the
        result-cache key must not fragment on the compile-cache dir."""
        task, = tasks_from_spec(tiny())
        warm = replace(task, compile_cache_dir="/tmp/somewhere")
        assert warm.cache_key() == task.cache_key()

    def test_run_tasks_counts_and_matches(self, tmp_path):
        """Serial sweeps report exact compile hit/miss tallies, and a
        warm compile cache reproduces cold results bit-for-bit."""
        tasks = tasks_from_spec(tiny(schemes=SCHEMES))
        cold, cold_stats = run_tasks(
            tasks, processes=1, compile_cache_dir=str(tmp_path))
        assert cold_stats.compile_misses == 2
        assert cold_stats.compile_hits == 0
        warm, warm_stats = run_tasks(
            tasks, processes=1, compile_cache_dir=str(tmp_path))
        assert warm_stats.compile_hits == 2
        assert warm_stats.compile_misses == 0
        assert warm == cold

    @pytest.mark.parallel
    def test_pool_run_tasks_counts(self, tmp_path):
        """Pool sweeps tally the lookups made inside their workers: a
        cold publish misses once per cell, a warm read hits once per
        cell."""
        tasks = tasks_from_spec(tiny(workloads=("bv_n400", "qft_n30"),
                                     schemes=SCHEMES))
        cold, cold_stats = run_tasks(
            tasks, processes=2, compile_cache_dir=str(tmp_path))
        assert (cold_stats.compile_hits, cold_stats.compile_misses) == \
            (0, len(tasks))
        warm, warm_stats = run_tasks(
            tasks, processes=2, compile_cache_dir=str(tmp_path))
        assert (warm_stats.compile_hits, warm_stats.compile_misses) == \
            (len(tasks), 0)
        assert warm == cold

    def test_task_level_dir_wins(self, tmp_path):
        """A task that already carries a dir keeps it when run_tasks is
        handed a different one."""
        task, = tasks_from_spec(tiny())
        pinned = str(tmp_path / "pinned")
        tasks = [replace(task, compile_cache_dir=pinned)]
        run_tasks(tasks, processes=1,
                  compile_cache_dir=str(tmp_path / "other"))
        assert len(list((tmp_path / "pinned").glob("*.pkl"))) == 1
        assert not (tmp_path / "other").exists() or \
            not list((tmp_path / "other").glob("*.pkl"))
