"""Hardening that survives the chaos fabric: voluntary release,
heartbeats, idempotent submits, fetch requeue, client retry/backoff,
and seeded end-to-end fault soaks over real processes."""

import os
import signal
import subprocess
import sys
import time

import pytest

from repro.chaos import FaultPlan, FaultRule, activate, deactivate
from repro.harness.parallel import SweepTask, run_cell
from repro.harness.spec import SweepSpec, SweepSubmission
from repro.service import client
from repro.service.client import ServiceClientError, backoff_intervals
from repro.service.scheduler import Scheduler, ServiceError
from repro.service.store import CellStore

from repro.testing import subprocess_env
from svc_util import SCALE, free_port, serial_bench


@pytest.fixture(autouse=True)
def _no_leaked_injector():
    deactivate()
    yield
    deactivate()


def make_scheduler(tmp_path, **kwargs):
    return Scheduler(CellStore(str(tmp_path / "store")), **kwargs)


def drain(scheduler, worker="w0"):
    completed = 0
    while True:
        job = scheduler.lease(worker)
        if job is None:
            return completed
        cell = run_cell(SweepTask.from_dict(job["task"]))
        scheduler.complete(worker, job["key"], job["lease"],
                           result=cell.to_dict())
        completed += 1


def rot(path):
    """Flip payload bytes of a stored entry behind the store's back."""
    with open(path, "rb") as handle:
        blob = bytearray(handle.read())
    blob[-6] ^= 0xFF
    with open(path, "wb") as handle:
        handle.write(bytes(blob))


class TestRelease:
    def test_release_requeues_without_burning_attempt(self, tmp_path):
        spec = SweepSpec(workloads=("bv_n400",), schemes=("bisp",),
                         scales=(SCALE,), shots=(1,))
        scheduler = make_scheduler(tmp_path)
        scheduler.submit(SweepSubmission(spec=spec))
        job = scheduler.lease("w0")
        reply = scheduler.release("w0", job["key"], job["lease"],
                                  reason="draining")
        again = scheduler.lease("w1")
        assert reply == {"ok": True, "late": False, "reason": "draining"}
        assert scheduler.counters.releases == 1
        assert again["key"] == job["key"]
        # The voluntary hand-back did not consume a retry attempt.
        assert again["attempt"] == 1
        assert again["lease"] != job["lease"]

    def test_stale_release_is_late_noop(self, tmp_path, tiny_submission):
        scheduler = make_scheduler(tmp_path)
        scheduler.submit(tiny_submission)
        job = scheduler.lease("w0")
        reply = scheduler.release("w0", job["key"], "L99999999")
        assert reply["late"] is True
        assert scheduler.counters.releases == 0
        # The real lease is untouched.
        assert scheduler._jobs[job["key"]].lease_id == job["lease"]


class TestHeartbeat:
    def test_heartbeat_keeps_a_slow_worker_alive(self, tmp_path,
                                                 tiny_submission):
        scheduler = make_scheduler(tmp_path, lease_ttl=0.3)
        scheduler.submit(tiny_submission)
        job = scheduler.lease("slow")
        time.sleep(0.2)
        beat = scheduler.heartbeat("slow", job["key"], job["lease"])
        time.sleep(0.2)
        # 0.4s since the grant, 0.2s since the beat: without the
        # extension this lease would be expired by now.
        assert scheduler.expire_leases() == 0
        assert beat == {"ok": True, "extended": True}
        assert scheduler.counters.heartbeats == 1
        assert "last_heartbeat" in scheduler._workers["slow"]

    def test_silent_worker_still_expires(self, tmp_path,
                                         tiny_submission):
        scheduler = make_scheduler(tmp_path, lease_ttl=0.2)
        scheduler.submit(tiny_submission)
        scheduler.lease("dead")
        time.sleep(0.35)
        assert scheduler.expire_leases() == 1
        assert scheduler.counters.leases_expired == 1

    def test_stale_heartbeat_does_not_extend(self, tmp_path,
                                             tiny_submission):
        scheduler = make_scheduler(tmp_path)
        scheduler.submit(tiny_submission)
        job = scheduler.lease("w0")
        beat = scheduler.heartbeat("w0", job["key"], "L99999999")
        assert beat == {"ok": True, "extended": False}


class TestIdempotentSubmit:
    def test_replay_returns_original_submission(self, tmp_path,
                                                tiny_spec):
        scheduler = make_scheduler(tmp_path)
        submission = SweepSubmission(spec=tiny_spec, name="once",
                                     idempotency_key="idem-1")
        first = scheduler.submit(submission)
        second = scheduler.submit(submission)
        assert second["id"] == first["id"]
        assert second["resubmitted"] is True
        assert second["idempotency_key"] == "idem-1"
        assert "resubmitted" not in first
        assert scheduler.counters.submissions == 1
        assert scheduler.counters.idempotent_replays == 1
        # Cells were charged once, not twice.
        assert scheduler.counters.cells_total == 4

    def test_different_keys_are_distinct_submissions(self, tmp_path,
                                                     tiny_spec):
        scheduler = make_scheduler(tmp_path)
        a = scheduler.submit(SweepSubmission(
            spec=tiny_spec, idempotency_key="idem-a"))
        b = scheduler.submit(SweepSubmission(
            spec=tiny_spec, idempotency_key="idem-b"))
        assert a["id"] != b["id"]

    def test_content_key_is_deterministic(self, tiny_spec, overlap_spec):
        one = SweepSubmission(spec=tiny_spec, name="x")
        two = SweepSubmission(spec=tiny_spec, name="x")
        assert one.content_idempotency_key() == \
            two.content_idempotency_key()
        other = SweepSubmission(spec=overlap_spec, name="x")
        assert other.content_idempotency_key() != \
            one.content_idempotency_key()

    def test_client_attaches_key_only_with_retries(self, tiny_spec):
        calls = {}

        def fake_request(url, method, path, payload=None, **kwargs):
            calls["payload"] = payload
            return {"id": "s000001"}

        original = client.request
        client.request = fake_request
        try:
            client.submit("http://x", SweepSubmission(spec=tiny_spec))
            assert "idempotency_key" not in calls["payload"]
            client.submit("http://x", SweepSubmission(spec=tiny_spec),
                          retries=2)
            assert calls["payload"]["idempotency_key"]
        finally:
            client.request = original


class TestFetchRequeue:
    def test_lost_cell_requeues_and_recovers(self, tmp_path, tiny_spec):
        scheduler = make_scheduler(tmp_path)
        status = scheduler.submit(SweepSubmission(spec=tiny_spec,
                                                  name="tiny"))
        drain(scheduler)
        # Bit-rot one stored cell behind the scheduler's back.
        victim = scheduler._submissions[status["id"]].keys[0]
        rot(os.path.join(scheduler.store.directory, victim + ".pkl"))
        with pytest.raises(ServiceError, match="requeued for recompute"):
            scheduler.fetch(status["id"])
        assert scheduler.status(status["id"])["state"] == "running"
        assert scheduler.counters.fetch_requeues == 1
        drain(scheduler)
        doc = scheduler.fetch(status["id"])
        # The quarantined cell recomputed; the final artifact is intact.
        reference = serial_bench(tiny_spec, name="tiny")
        assert doc["results_sha256"] == reference["results_sha256"]

    def test_submit_verifies_first_sight_of_warm_entries(self, tmp_path,
                                                         tiny_spec):
        warm = make_scheduler(tmp_path)
        warm.submit(SweepSubmission(spec=tiny_spec))
        drain(warm)
        # Rot one entry, then point a *fresh* scheduler (empty
        # verification memo) at the same store.
        store_dir = warm.store.directory
        name = sorted(n for n in os.listdir(store_dir)
                      if n.endswith(".pkl"))[0]
        rot(os.path.join(store_dir, name))
        fresh = Scheduler(CellStore(store_dir))
        status = fresh.submit(SweepSubmission(spec=tiny_spec))
        # Three verified warm hits, one quarantined miss to recompute.
        assert status["store_hits"] == 3
        assert status["misses"] == 1
        assert status["state"] == "running"
        assert fresh.store.corrupt_keys() != []


class TestSchedulerChaos:
    def test_duplicate_complete_is_absorbed(self, tmp_path,
                                            tiny_submission):
        activate(FaultPlan(seed=1, rules=(
            FaultRule(site="scheduler", fault="duplicate_complete",
                      max_injections=10),)))
        scheduler = make_scheduler(tmp_path)
        status = scheduler.submit(tiny_submission)
        drain(scheduler)
        assert scheduler.status(status["id"])["state"] == "done"
        assert scheduler.counters.completes == 4
        # Every complete was delivered twice; the doubles all landed on
        # the idempotent late path.
        assert scheduler.counters.late_completes == 4

    def test_clock_skew_expires_live_leases(self, tmp_path,
                                            tiny_submission):
        activate(FaultPlan(seed=1, rules=(
            FaultRule(site="scheduler", fault="clock_skew",
                      arg=3600.0, max_injections=1),)))
        scheduler = make_scheduler(tmp_path, lease_ttl=120.0)
        scheduler.submit(tiny_submission)
        scheduler.lease("w0")
        # The skewed sweep ages the fresh 120s lease instantly.
        assert scheduler.expire_leases() == 1
        assert scheduler.expire_leases() == 0  # budget spent: once


class TestClientBackoff:
    def test_intervals_are_capped_and_jittered(self):
        import random
        rng = random.Random(7)
        sleeps = backoff_intervals(base=0.1, cap=2.0, rng=rng)
        values = [next(sleeps) for _ in range(12)]
        assert all(0.0 < value <= 2.0 for value in values)
        # Early sleeps are cheap, later ones approach the cap.
        assert values[0] <= 0.1
        assert max(values[6:]) > 1.0

    def test_transient_failures_retry_within_budget(self, monkeypatch):
        attempts = []

        def flaky(url, method, path, payload, timeout):
            attempts.append(path)
            if len(attempts) < 3:
                raise ServiceClientError("torn", transient=True)
            return {"ok": True}

        monkeypatch.setattr(client, "_request_once", flaky)
        monkeypatch.setattr(client.time, "sleep", lambda s: None)
        assert client.request("http://x", "GET", "/healthz",
                              retries=3) == {"ok": True}
        assert len(attempts) == 3

    def test_permanent_rejections_never_retry(self, monkeypatch):
        attempts = []

        def rejected(url, method, path, payload, timeout):
            attempts.append(path)
            raise ServiceClientError("bad submission", status=400,
                                     transient=False)

        monkeypatch.setattr(client, "_request_once", rejected)
        with pytest.raises(ServiceClientError):
            client.request("http://x", "POST", "/submit", retries=5)
        assert len(attempts) == 1

    def test_budget_exhaustion_raises_last_error(self, monkeypatch):
        def always_torn(url, method, path, payload, timeout):
            raise ServiceClientError("torn", transient=True)

        monkeypatch.setattr(client, "_request_once", always_torn)
        monkeypatch.setattr(client.time, "sleep", lambda s: None)
        with pytest.raises(ServiceClientError, match="torn"):
            client.request("http://x", "GET", "/status/s1", retries=2)


class TestFallbackLocal:
    def test_unreachable_service_degrades_to_local_run(self, tmp_path,
                                                       capsys):
        """``submit --fallback local`` against a dead URL produces the
        exact artifact the service would have, from the same store."""
        from repro.harness.benchjson import load_bench
        from repro.service.__main__ import main

        out = tmp_path / "artifacts"
        cache = tmp_path / "store"
        code = main([
            "submit", "--url", "http://127.0.0.1:1",
            "--workloads", "bv_n400", "--schemes", "bisp",
            "--scale", str(SCALE), "--name", "fb",
            "--retries", "0", "--fallback", "local",
            "--cache-dir", str(cache), "--out", str(out)])
        assert code == 0
        captured = capsys.readouterr()
        assert "falling back to the local parallel harness" in \
            captured.err
        doc = load_bench(str(out / "BENCH_fb.json"))
        spec = SweepSpec(workloads=("bv_n400",), schemes=("bisp",),
                         scales=(SCALE,), shots=(1,))
        assert doc["results_sha256"] == \
            serial_bench(spec, name="fb")["results_sha256"]
        # The fallback warmed the shared store for a later service run.
        assert len(CellStore(str(cache))) == 1

    def test_no_fallback_still_fails_loudly(self, tmp_path, capsys):
        from repro.service.__main__ import main

        code = main([
            "submit", "--url", "http://127.0.0.1:1",
            "--workloads", "bv_n400", "--schemes", "bisp",
            "--scale", str(SCALE), "--retries", "0"])
        assert code == 1
        assert "error:" in capsys.readouterr().err


@pytest.mark.slow
class TestEndToEndChaos:
    """Real processes under a seeded plan: crashes, 500s and a
    duplicate complete between submit and byte-identical fetch."""

    def test_seeded_faults_converge_byte_identical(self, tmp_path):
        spec = SweepSpec(workloads=("bv_n400",), schemes=("bisp",),
                         scales=(SCALE,), shots=(1,))
        plan = FaultPlan(seed=20260808, rules=(
            # Attempt 1 of every cell dies post-compute, pre-store.
            FaultRule(site="worker", fault="crash_before_complete",
                      rate=1.0, attempts=(1,), max_injections=2),
            FaultRule(site="scheduler", fault="duplicate_complete",
                      rate=1.0, max_injections=2),
            FaultRule(site="http", fault="error_500", rate=0.05,
                      max_injections=3),
        ))
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(plan.to_json())
        port = free_port()
        url = "http://127.0.0.1:{}".format(port)
        store = tmp_path / "store"
        serve = subprocess.Popen(
            [sys.executable, "-m", "repro.service", "serve",
             "--port", str(port), "--store", str(store),
             "--workers", "2", "--worker-poll", "0.5",
             "--lease-ttl", "2", "--chaos-plan", str(plan_path)],
            env=subprocess_env())
        try:
            client.wait_healthy(url, timeout=60.0)
            sub = client.submit(url, SweepSubmission(
                spec=spec, name="soak"), retries=4)
            status = client.wait_done(url, sub["id"], timeout=120.0)
            assert status["state"] == "done"
            metrics = client.metrics(url)
            doc = client.fetch(url, sub["id"], retries=4)
        finally:
            serve.terminate()
            try:
                serve.wait(timeout=15)
            except subprocess.TimeoutExpired:
                serve.kill()

        counters = metrics["counters"]
        # The injected crash cost (at least) one lease cycle...
        assert counters["leases_granted"] >= 2
        # ...but the sweep still converged to the exact serial bytes.
        reference = serial_bench(spec, name="soak")
        assert doc["results_sha256"] == reference["results_sha256"]
        assert doc["results"] == reference["results"]
        assert CellStore(str(store)).pending_tmps() == 0

    def test_sigterm_drains_gracefully(self, tmp_path):
        """SIGTERM mid-cell: the worker finishes and reports the cell,
        exits 0, and no lease is left to expire."""
        spec = SweepSpec(workloads=("bv_n400",), schemes=("bisp",),
                         scales=(SCALE,), shots=(1,))
        port = free_port()
        url = "http://127.0.0.1:{}".format(port)
        store = tmp_path / "store"
        serve = subprocess.Popen(
            [sys.executable, "-m", "repro.service", "serve",
             "--port", str(port), "--store", str(store),
             "--workers", "0", "--lease-ttl", "30"],
            env=subprocess_env())
        worker = None
        try:
            client.wait_healthy(url, timeout=60.0)
            sub = client.submit(url, SweepSubmission(
                spec=spec, name="drainy"))
            # A worker/delay rule widens the fault window, which gives
            # SIGTERM a wide mid-cell target.
            plan = tmp_path / "delay.json"
            plan.write_text(FaultPlan(seed=1, rules=(
                FaultRule("worker", "delay", rate=1.0,
                          arg=3.0),)).to_json())
            worker = subprocess.Popen(
                [sys.executable, "-m", "repro.service.worker",
                 "--url", url, "--store", str(store),
                 "--worker-id", "drainer", "--poll", "0.5",
                 "--chaos-plan", str(plan)],
                env=subprocess_env())
            deadline = time.monotonic() + 60.0
            while client.metrics(url)["counters"]["leases_granted"] < 1:
                assert time.monotonic() < deadline
                time.sleep(0.05)
            os.kill(worker.pid, signal.SIGTERM)
            assert worker.wait(timeout=60) == 0
            status = client.status(url, sub["id"])
            counters = client.metrics(url)["counters"]
        finally:
            if worker is not None and worker.poll() is None:
                worker.kill()
            serve.terminate()
            try:
                serve.wait(timeout=15)
            except subprocess.TimeoutExpired:
                serve.kill()

        assert status["state"] == "done"
        assert counters["completes"] == 1
        assert counters["leases_expired"] == 0
