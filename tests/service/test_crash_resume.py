"""Crash-resume: SIGKILL a worker mid-cell, watch the sweep finish.

The satellite-3 scenario from the issue, end to end with real
processes:

* the scheduler runs with a short lease TTL,
* worker A is started with a ``worker``/``delay`` chaos rule large
  enough that it is provably *mid-cell* (leased, not yet stored) when
  we ``kill -9`` it,
* the lease expires and the cell is re-leased exactly once to a healthy
  worker B,
* the store never holds a torn write (orphan ``*.tmp`` reclaim from the
  previous PR covers the complementary killed-during-write window),
* the final artifact digest equals an uninterrupted serial run.
"""

import os
import signal
import subprocess
import sys
import time

import pytest

from repro.chaos import FaultPlan, FaultRule
from repro.harness.spec import SweepSpec, SweepSubmission
from repro.service import client
from repro.service.store import CellStore

from repro.testing import subprocess_env
from svc_util import SCALE, free_port, serial_bench

#: Big enough that metrics-poll + SIGKILL always lands inside the
#: delay window, small enough to keep the test quick.
CELL_DELAY_S = 4.0
LEASE_TTL = 1.0


def spawn_worker(url, store, worker_id, chaos_plan=None):
    command = [sys.executable, "-m", "repro.service.worker",
               "--url", url, "--store", str(store),
               "--worker-id", worker_id, "--poll", "0.5"]
    if chaos_plan:
        command += ["--chaos-plan", str(chaos_plan)]
    return subprocess.Popen(command, env=subprocess_env())


@pytest.mark.slow
class TestCrashResume:
    def test_sigkill_mid_cell_resumes_byte_identical(self, tmp_path):
        spec = SweepSpec(workloads=("bv_n400",), schemes=("bisp",),
                         scales=(SCALE,), shots=(1,))
        port = free_port()
        url = "http://127.0.0.1:{}".format(port)
        store = tmp_path / "store"
        # Plant a torn write from a "previous" crashed run: a dead
        # writer's temp file must be reclaimed when the store opens.
        store.mkdir()
        orphan = store / "tmp-4000000-torn.tmp"
        orphan.write_bytes(b"torn")
        serve = subprocess.Popen(
            [sys.executable, "-m", "repro.service", "serve",
             "--port", str(port), "--store", str(store),
             "--workers", "0", "--lease-ttl", str(LEASE_TTL)],
            env=subprocess_env())
        doomed = healthy = None
        try:
            client.wait_healthy(url, timeout=60.0)
            assert not orphan.exists(), "orphan tmp survived store open"

            sub = client.submit(url, SweepSubmission(
                spec=spec, name="resume"))
            assert sub["cells_total"] == 1

            plan = tmp_path / "delay.json"
            plan.write_text(FaultPlan(seed=1, rules=(
                FaultRule("worker", "delay", rate=1.0,
                          arg=CELL_DELAY_S),)).to_json())
            doomed = spawn_worker(url, store, "doomed", chaos_plan=plan)
            deadline = time.monotonic() + 60.0
            while client.metrics(url)["counters"]["leases_granted"] < 1:
                assert time.monotonic() < deadline, \
                    "worker never leased the cell"
                time.sleep(0.05)
            # Provably mid-cell: leased, inside the delay window, no
            # store write yet.
            os.kill(doomed.pid, signal.SIGKILL)
            doomed.wait(timeout=10)
            assert len(CellStore(str(store))) == 0

            healthy = spawn_worker(url, store, "healthy")
            status = client.wait_done(url, sub["id"], timeout=120.0)
            assert status["state"] == "done"

            metrics = client.metrics(url)
            counters = metrics["counters"]
            assert counters["leases_expired"] == 1
            assert counters["leases_granted"] == 2  # re-leased exactly once
            assert counters["completes"] == 1
            assert metrics["workers"]["healthy"]["leases"] == 1

            doc = client.fetch(url, sub["id"])
        finally:
            for process in (healthy, doomed):
                if process is not None and process.poll() is None:
                    process.terminate()
            serve.terminate()
            try:
                serve.wait(timeout=15)
            except subprocess.TimeoutExpired:
                serve.kill()

        # No torn writes anywhere in the store after the whole dance.
        leftovers = [name for name in os.listdir(str(store))
                     if name.endswith(".tmp")]
        assert leftovers == []
        # And the interrupted-then-resumed sweep is byte-identical to an
        # uninterrupted serial run.
        reference = serial_bench(spec, name="resume")
        assert doc["results_sha256"] == reference["results_sha256"]
        assert doc["results"] == reference["results"]

    def test_scheduler_restart_resumes_from_store(self, tmp_path):
        """Kill the *scheduler* after completion; a fresh one over the
        same store resolves the resubmitted sweep without recompute."""
        spec = SweepSpec(workloads=("bv_n400",), schemes=("bisp",),
                         scales=(SCALE,), shots=(1,))
        store = tmp_path / "store"
        submission = SweepSubmission(spec=spec, name="restart")

        def boot(port):
            return subprocess.Popen(
                [sys.executable, "-m", "repro.service", "serve",
                 "--port", str(port), "--store", str(store),
                 "--workers", "1", "--worker-poll", "0.5"],
                env=subprocess_env())

        port = free_port()
        url = "http://127.0.0.1:{}".format(port)
        serve = boot(port)
        try:
            client.wait_healthy(url, timeout=60.0)
            first = client.submit(url, submission)
            client.wait_done(url, first["id"], timeout=120.0)
        finally:
            serve.send_signal(signal.SIGKILL)
            serve.wait(timeout=10)

        port = free_port()
        url = "http://127.0.0.1:{}".format(port)
        serve = boot(port)
        try:
            client.wait_healthy(url, timeout=60.0)
            second = client.submit(url, submission)
            # Warm store: instantly done, zero executions.
            assert second["state"] == "done"
            assert second["store_hits"] == 1
            assert client.metrics(url)["counters"]["completes"] == 0
        finally:
            serve.terminate()
            try:
                serve.wait(timeout=15)
            except subprocess.TimeoutExpired:
                serve.kill()
