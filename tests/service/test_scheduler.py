"""Scheduler unit tests: dedup, priorities, quotas, leases, resume.

No HTTP and no event loop here — the scheduler is a synchronous state
machine, so tests call its methods directly.  Workers are simulated by
calling ``lease``/``complete`` ourselves, which also makes crash timing
deterministic.
"""

import subprocess
import sys
import time

import pytest

from repro.harness.parallel import SweepTask, run_cell, tasks_from_spec
from repro.harness.spec import SweepSpec, SweepSubmission
from repro.service.scheduler import (LEASE_LATENCY_WINDOW, Scheduler,
                                     ServiceError)
from repro.service.store import CellStore

from repro.testing import subprocess_env
from svc_util import SCALE, serial_bench


def make_scheduler(tmp_path, **kwargs):
    return Scheduler(CellStore(str(tmp_path / "store")), **kwargs)


def drain(scheduler, worker="w0"):
    """Complete every queued/leased cell like a perfect worker would."""
    completed = 0
    while True:
        job = scheduler.lease(worker)
        if job is None:
            return completed
        cell = run_cell(SweepTask.from_dict(job["task"]))
        scheduler.complete(worker, job["key"], job["lease"],
                           result=cell.to_dict())
        completed += 1


class TestSubmit:
    def test_submit_shards_grid(self, tmp_path, tiny_submission):
        scheduler = make_scheduler(tmp_path)
        status = scheduler.submit(tiny_submission)
        assert status["cells_total"] == 4
        assert status["state"] == "running"
        assert status["misses"] == 4
        assert scheduler.queue_depth() == 4

    def test_empty_grid_rejected(self, tmp_path):
        scheduler = make_scheduler(tmp_path)
        spec = SweepSpec(tags=("nope_no_such_tag",), scales=(SCALE,))
        with pytest.raises((ServiceError, ValueError)):
            scheduler.submit(SweepSubmission(spec=spec))

    def test_warm_store_is_instant_done(self, tmp_path, tiny_spec,
                                        tiny_submission):
        scheduler = make_scheduler(tmp_path)
        for task in tasks_from_spec(tiny_spec):
            scheduler.store.put(task.cache_key(), run_cell(task))
        status = scheduler.submit(tiny_submission)
        assert status["state"] == "done"
        assert status["store_hits"] == 4
        assert status["misses"] == 0
        assert scheduler.queue_depth() == 0


class TestDedup:
    def test_overlapping_submissions_share_cells(self, tmp_path,
                                                 tiny_spec, overlap_spec):
        scheduler = make_scheduler(tmp_path)
        first = scheduler.submit(SweepSubmission(
            spec=tiny_spec, name="a", owner="alice"))
        second = scheduler.submit(SweepSubmission(
            spec=overlap_spec, name="b", owner="bob"))
        # bv_n400 x 2 schemes overlaps -> 2 dedup hits on the second.
        assert first["misses"] == 4
        assert second["dedup_hits"] == 2
        assert second["misses"] == 2
        assert scheduler.counters.dedup_hits == 2
        assert scheduler.queue_depth() == 6  # 8 cells, 2 shared

    def test_dedup_complete_settles_both_submissions(self, tmp_path,
                                                     tiny_spec,
                                                     overlap_spec):
        scheduler = make_scheduler(tmp_path)
        a = scheduler.submit(SweepSubmission(spec=tiny_spec, name="a"))
        b = scheduler.submit(SweepSubmission(spec=overlap_spec, name="b"))
        drain(scheduler)
        counters = scheduler.counters
        assert scheduler.status(a["id"])["state"] == "done"
        assert scheduler.status(b["id"])["state"] == "done"
        # 8 requested cells, only 6 executed.
        assert counters.completes == 6
        assert counters.cells_total == 8
        assert counters.hits() == 2
        assert counters.hit_rate() == pytest.approx(2 / 8)

    def test_resubmit_after_done_is_all_store_hits(self, tmp_path,
                                                   tiny_spec):
        scheduler = make_scheduler(tmp_path)
        scheduler.submit(SweepSubmission(spec=tiny_spec))
        drain(scheduler)
        status = scheduler.submit(SweepSubmission(spec=tiny_spec))
        assert status["state"] == "done"
        assert status["store_hits"] == 4


class TestPriorityAndQuota:
    def test_lower_priority_value_leases_first(self, tmp_path, tiny_spec,
                                               overlap_spec):
        scheduler = make_scheduler(tmp_path)
        scheduler.submit(SweepSubmission(
            spec=tiny_spec, name="slow", priority=5))
        scheduler.submit(SweepSubmission(
            spec=overlap_spec, name="urgent", priority=0))
        grants = [scheduler.lease("w0")["key"] for _ in range(2)]
        # The urgent submission's two *fresh* cells (w_state) lease
        # before any priority-5 cell; its two deduped bv cells were
        # raised to priority 0 too, so all grants serve the urgent sweep.
        assert len(set(grants)) == 2

    def test_dedup_raises_existing_job_priority(self, tmp_path, tiny_spec,
                                                overlap_spec):
        scheduler = make_scheduler(tmp_path)
        scheduler.submit(SweepSubmission(
            spec=tiny_spec, name="slow", priority=7))
        scheduler.submit(SweepSubmission(
            spec=overlap_spec, name="urgent", priority=1))
        overlap_keys = {task.cache_key()
                        for task in tasks_from_spec(overlap_spec)}
        assert scheduler.lease("w0")["key"] in overlap_keys

    def test_quota_caps_inflight_leases(self, tmp_path, tiny_spec):
        scheduler = make_scheduler(tmp_path, quotas={"alice": 1})
        scheduler.submit(SweepSubmission(spec=tiny_spec, owner="alice"))
        first = scheduler.lease("w0")
        second = scheduler.lease("w1")  # at quota -> nothing
        scheduler.complete(
            "w0", first["key"], first["lease"],
            result=run_cell(SweepTask.from_dict(first["task"])).to_dict())
        third = scheduler.lease("w1")
        assert first is not None
        assert second is None
        assert third is not None

    def test_quota_does_not_block_other_owners(self, tmp_path, tiny_spec,
                                               overlap_spec):
        scheduler = make_scheduler(tmp_path, quotas={"alice": 1})
        scheduler.submit(SweepSubmission(
            spec=tiny_spec, owner="alice", priority=0))
        scheduler.submit(SweepSubmission(
            spec=overlap_spec, owner="bob", priority=5))
        grants = [scheduler.lease("w{}".format(i)) for i in range(3)]
        # alice gets 1 lease (quota), bob's two fresh cells still flow.
        assert len([g for g in grants if g is not None]) == 3


@pytest.fixture
def one_cell_spec() -> SweepSpec:
    """A single cell, so lease-lifecycle tests always re-lease *it*."""
    return SweepSpec(workloads=("bv_n400",), schemes=("bisp",),
                     scales=(SCALE,), shots=(1,))


class TestLeaseLifecycle:
    def test_expired_lease_is_regranted_once(self, tmp_path,
                                             one_cell_spec):
        scheduler = make_scheduler(tmp_path, lease_ttl=0.01)
        scheduler.submit(SweepSubmission(spec=one_cell_spec))
        first = scheduler.lease("doomed")
        time.sleep(0.03)
        assert scheduler.expire_leases() == 1
        second = scheduler.lease("healthy")
        assert scheduler.counters.leases_expired == 1
        assert second["key"] == first["key"]  # same cell, re-leased
        assert second["attempt"] == 2
        assert second["lease"] != first["lease"]

    def test_max_attempts_fails_the_cell(self, tmp_path, one_cell_spec):
        scheduler = make_scheduler(tmp_path, lease_ttl=0.01,
                                   max_attempts=2)
        submitted = scheduler.submit(SweepSubmission(spec=one_cell_spec))
        doomed_key = None
        for _ in range(2):
            doomed_key = scheduler.lease("doomed")["key"]
            time.sleep(0.03)
            scheduler.expire_leases()
        status = scheduler.status(submitted["id"])
        assert status["state"] == "failed"
        assert status["cells_failed"] == 1
        assert any(key == doomed_key for key in status["errors"])

    def test_late_complete_is_accepted_idempotently(self, tmp_path,
                                                    one_cell_spec):
        scheduler = make_scheduler(tmp_path, lease_ttl=0.01)
        scheduler.submit(SweepSubmission(spec=one_cell_spec))
        stale = scheduler.lease("slow")
        cell = run_cell(SweepTask.from_dict(stale["task"]))
        time.sleep(0.03)
        scheduler.expire_leases()
        fresh = scheduler.lease("fast")
        assert fresh["key"] == stale["key"]
        # The presumed-dead worker reports after all -- same bytes.
        late = scheduler.complete("slow", stale["key"], stale["lease"],
                                  result=cell.to_dict())
        dup = scheduler.complete("fast", fresh["key"], fresh["lease"],
                                 result=cell.to_dict())
        assert late["late"] is True
        assert dup["late"] is True  # job already settled by the late one
        assert scheduler.counters.late_completes >= 1

    def test_failed_cell_reported_not_retried(self, tmp_path, tiny_spec):
        scheduler = make_scheduler(tmp_path)
        submitted = scheduler.submit(SweepSubmission(spec=tiny_spec))
        job = scheduler.lease("w0")
        scheduler.fail("w0", job["key"], job["lease"],
                       error="ValueError: boom")
        resub = scheduler.submit(SweepSubmission(spec=tiny_spec))
        status = scheduler.status(submitted["id"])
        assert status["state"] == "failed"
        assert "boom" in list(status["errors"].values())[0]
        # The failure memo short-circuits resubmissions of the bad cell.
        assert resub["cells_failed"] == 1

    def test_stored_complete_requires_store_entry(self, tmp_path,
                                                  tiny_spec):
        scheduler = make_scheduler(tmp_path)
        scheduler.submit(SweepSubmission(spec=tiny_spec))
        job = scheduler.lease("w0")
        with pytest.raises(ServiceError):
            scheduler.complete("w0", job["key"], job["lease"], stored=True)


class TestWorkSeq:
    """``work_seq`` is the scheduler's whole wake-up contract with the
    HTTP shell: it moves when a lease that returned None could now
    succeed, and only then."""

    def test_moves_on_grantable_work(self, tmp_path, tiny_spec,
                                     one_cell_spec):
        scheduler = make_scheduler(tmp_path, lease_ttl=0.01,
                                   default_quota=1)
        seq = scheduler.work_seq
        scheduler.submit(SweepSubmission(spec=tiny_spec))  # cold: queues
        assert scheduler.work_seq > seq
        first = scheduler.lease("w0")
        assert scheduler.lease("w1") is None  # at quota
        seq = scheduler.work_seq
        scheduler.complete(
            "w0", first["key"], first["lease"],
            result=run_cell(SweepTask.from_dict(first["task"])).to_dict())
        assert scheduler.work_seq > seq  # quota slot freed
        second = scheduler.lease("w1")
        seq = scheduler.work_seq
        scheduler.release("w1", second["key"], second["lease"])
        assert scheduler.work_seq > seq  # job requeued
        scheduler.lease("w2")
        seq = scheduler.work_seq
        time.sleep(0.03)
        assert scheduler.expire_leases() == 1
        assert scheduler.work_seq > seq  # expired lease requeued

    def test_still_on_warm_traffic(self, tmp_path, tiny_spec):
        scheduler = make_scheduler(tmp_path)
        scheduler.submit(SweepSubmission(spec=tiny_spec))
        drain(scheduler)
        seq = scheduler.work_seq
        warm = scheduler.submit(SweepSubmission(spec=tiny_spec))
        assert warm["state"] == "done"
        scheduler.status(warm["id"])
        scheduler.fetch(warm["id"])
        assert scheduler.lease("w0") is None
        assert scheduler.expire_leases() == 0
        assert scheduler.work_seq == seq


class TestFetch:
    def test_fetch_matches_serial_digest(self, tmp_path, tiny_spec):
        scheduler = make_scheduler(tmp_path)
        status = scheduler.submit(SweepSubmission(spec=tiny_spec,
                                                  name="tiny"))
        drain(scheduler)
        doc = scheduler.fetch(status["id"])
        reference = serial_bench(tiny_spec, name="tiny")
        assert doc["results_sha256"] == reference["results_sha256"]
        assert doc["results"] == reference["results"]

    def test_fetch_while_running_rejected(self, tmp_path, tiny_spec):
        scheduler = make_scheduler(tmp_path)
        status = scheduler.submit(SweepSubmission(spec=tiny_spec))
        with pytest.raises(ServiceError):
            scheduler.fetch(status["id"])

    def test_unknown_submission_rejected(self, tmp_path):
        scheduler = make_scheduler(tmp_path)
        with pytest.raises(ServiceError):
            scheduler.status("s999999")
        with pytest.raises(ServiceError):
            scheduler.fetch("s999999")


class TestMetrics:
    def test_metrics_shape(self, tmp_path, tiny_spec):
        scheduler = make_scheduler(tmp_path)
        scheduler.submit(SweepSubmission(spec=tiny_spec))
        scheduler.lease("w0", pid=4321)
        metrics = scheduler.metrics()
        assert metrics["counters"]["leases_granted"] == 1
        assert metrics["queue_depth"] == 3
        assert metrics["leased"] == 1
        assert metrics["workers"]["w0"]["pid"] == 4321
        assert metrics["lease_latency"]["count"] == 1
        assert metrics["submissions"] == {"running": 1, "done": 0,
                                          "failed": 0}

    def test_lease_latency_window_is_bounded(self, tmp_path, tiny_spec):
        """Past the window, the JSON summary keeps counting every grant
        while it holds (and sorts) only the most recent ones."""
        scheduler = make_scheduler(tmp_path)
        scheduler.submit(SweepSubmission(spec=tiny_spec))
        grants = LEASE_LATENCY_WINDOW + 10
        for _ in range(grants):
            job = scheduler.lease("w0")
            scheduler.release("w0", job["key"], job["lease"])
        assert len(scheduler.lease_latencies) == LEASE_LATENCY_WINDOW
        summary = scheduler.metrics()["lease_latency"]
        assert summary["count"] == grants
        assert 0.0 <= summary["p50_s"] <= summary["max_s"]

    def test_counters_to_dict_sums(self, tmp_path):
        scheduler = make_scheduler(tmp_path)
        scheduler.counters.store_hits = 3
        scheduler.counters.dedup_hits = 2
        scheduler.counters.cells_total = 10
        data = scheduler.counters.to_dict()
        assert data["hits"] == 5
        assert data["hit_rate"] == 0.5


def test_worker_import_skips_asyncio():
    """Only the HTTP shell needs an event loop: importing the worker
    (and with it the scheduler package) must not load asyncio."""
    subprocess.run(
        [sys.executable, "-c", "import repro.service.worker, sys; "
         "assert 'asyncio' not in sys.modules"],
        env=subprocess_env(), check=True)
