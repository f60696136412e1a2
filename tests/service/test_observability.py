"""Service observability: Prometheus scrape format and /status phase
breakdowns.

The scrape-format test is the contract the CI obs-smoke job relies on:
bare ``GET /metrics`` answers Prometheus text exposition (version 0.0.4
content type, ``# TYPE`` lines, cumulative histogram buckets ending in
``+Inf``) while ``?format=json`` keeps the JSON dict the Python client
and the older smoke assertions consume.
"""

import asyncio
import json
import signal
import subprocess
import sys
import time

import pytest

from repro.chaos import FaultPlan, FaultRule
from repro.harness.parallel import SweepTask, run_cell
from repro.harness.spec import SweepSubmission
from repro.obs.metrics import PROMETHEUS_CONTENT_TYPE
from repro.obs.trace import validate_trace
from repro.service import client
from repro.service.http import ServiceServer, http_request
from repro.service.scheduler import Scheduler
from repro.service.store import CellStore
from repro.testing import subprocess_env
from svc_util import free_port, http_request_text


async def _start(tmp_path, **scheduler_kwargs):
    scheduler = Scheduler(CellStore(str(tmp_path / "store")),
                          **scheduler_kwargs)
    server = ServiceServer(scheduler, port=0)
    await server.start()
    return server


class TestPrometheusScrape:
    def test_metrics_default_is_prometheus_text(self, tmp_path,
                                                tiny_spec):
        async def scenario():
            server = await _start(tmp_path)
            try:
                server.scheduler.submit(
                    SweepSubmission(spec=tiny_spec, name="scrape"))
                server.scheduler.lease("w0")
                return await http_request_text(
                    server.host, server.port, "/metrics")
            finally:
                await server.close()

        status, content_type, text = asyncio.run(scenario())
        assert status == 200
        assert content_type == PROMETHEUS_CONTENT_TYPE
        lines = text.splitlines()
        # Scheduler lifetime counters with TYPE metadata.
        assert "# TYPE repro_service_submissions_total counter" in lines
        assert "repro_service_submissions_total 1" in lines
        assert "# TYPE repro_service_cells_total counter" in lines
        assert "repro_service_leases_granted_total 1" in lines
        # Live gauges.
        assert any(line.startswith("repro_service_queue_depth ")
                   for line in lines)
        assert "repro_service_leased 1" in lines
        assert 'repro_service_submission_states{state="running"} 1' \
            in lines
        # The lease-latency histogram renders cumulative buckets
        # terminated by +Inf, plus the _count series.
        assert any(
            line.startswith(
                'repro_service_lease_latency_seconds_bucket{le="+Inf"}')
            for line in lines)
        assert any(
            line.startswith("repro_service_lease_latency_seconds_count")
            for line in lines)
        # Every non-comment line is NAME[{labels}] VALUE.
        for line in lines:
            if not line or line.startswith("#"):
                continue
            name, _, value = line.rpartition(" ")
            assert name and float(value) is not None

    def test_metrics_json_format_preserved(self, tmp_path):
        async def scenario():
            server = await _start(tmp_path)
            try:
                return await http_request(
                    server.host, server.port, "GET",
                    "/metrics?format=json")
            finally:
                await server.close()

        status, metrics = asyncio.run(scenario())
        assert status == 200
        assert metrics["counters"]["submissions"] == 0
        assert "queue_depth" in metrics

    def test_unknown_metrics_format_400(self, tmp_path):
        async def scenario():
            server = await _start(tmp_path)
            try:
                return await http_request(
                    server.host, server.port, "GET",
                    "/metrics?format=xml")
            finally:
                await server.close()

        status, body = asyncio.run(scenario())
        assert status == 400
        assert "unknown metrics format" in body["error"]


class TestPhaseBreakdown:
    def test_complete_timings_surface_in_status(self, tmp_path,
                                                tiny_spec):
        async def scenario():
            server = await _start(tmp_path)
            host, port = server.host, server.port
            try:
                _, sub = await http_request(
                    host, port, "POST", "/submit",
                    SweepSubmission(spec=tiny_spec,
                                    name="timed").to_dict())
                for _ in range(len(tiny_spec.cells())):
                    _, reply = await http_request(
                        host, port, "POST", "/lease",
                        {"worker": "w0"})
                    job = reply["job"]
                    cell = run_cell(SweepTask.from_dict(job["task"]))
                    code, _ = await http_request(
                        host, port, "POST", "/complete",
                        {"worker": "w0", "key": job["key"],
                         "lease": job["lease"],
                         "result": cell.to_dict(),
                         "timings": {"compile": 0.25, "simulate": 0.5,
                                     "noise": 0.125, "total": 1.0}})
                    assert code == 200
                _, status = await http_request(
                    host, port, "GET", "/status/{}".format(sub["id"]))
                return status
            finally:
                await server.close()

        status = asyncio.run(scenario())
        cells = status["cells_total"]
        assert status["state"] == "done"
        assert status["cells_timed"] == cells
        assert status["phase_seconds"]["compile"] == 0.25 * cells
        assert status["phase_seconds"]["simulate"] == 0.5 * cells
        assert status["phase_seconds"]["total"] == 1.0 * cells

    #: Timings a /complete must refuse.  The JSON decoder reads NaN and
    #: +-Infinity as floats and true as a bool, none of which is a
    #: duration that ``phase_seconds`` could add up.
    BAD_TIMINGS = [
        "not-a-dict",
        {"total": float("nan")},
        {"total": float("inf")},
        {"total": float("-inf")},
        {"compile": True},
        {"total": -1.0},
        {"total": "1.0"},
        {"total": None},
    ]

    def test_timings_optional_and_validated(self, tmp_path, tiny_spec):
        async def scenario():
            server = await _start(tmp_path)
            host, port = server.host, server.port
            try:
                _, sub = await http_request(
                    host, port, "POST", "/submit",
                    SweepSubmission(spec=tiny_spec,
                                    name="plain").to_dict())
                _, reply = await http_request(
                    host, port, "POST", "/lease", {"worker": "w0"})
                job = reply["job"]
                complete = {
                    "worker": "w0", "key": job["key"],
                    "lease": job["lease"],
                    "result": run_cell(
                        SweepTask.from_dict(job["task"])).to_dict()}
                refused = [await http_request(
                    host, port, "POST", "/complete",
                    dict(complete, timings=timings))
                    for timings in self.BAD_TIMINGS]
                # Every refusal left the cell leased: a well-formed
                # complete on the same lease lands on time.
                accepted = await http_request(
                    host, port, "POST", "/complete",
                    dict(complete, timings={"compile": 0.5, "total": 1}))
                _, reply = await http_request(
                    host, port, "POST", "/lease", {"worker": "w0"})
                job = reply["job"]
                untimed = await http_request(
                    host, port, "POST", "/complete",
                    {"worker": "w0", "key": job["key"],
                     "lease": job["lease"],
                     "result": run_cell(
                         SweepTask.from_dict(job["task"])).to_dict()})
                _, status = await http_request(
                    host, port, "GET", "/status/{}".format(sub["id"]))
                return refused, accepted, untimed, status
            finally:
                await server.close()

        refused, accepted, untimed, status = asyncio.run(scenario())
        for timings, (code, body) in zip(self.BAD_TIMINGS, refused):
            assert code == 400, timings
            assert "timing" in body["error"], timings
        assert "timings must be an object" in refused[0][1]["error"]
        assert accepted == (200, {"ok": True, "late": False})
        assert untimed == (200, {"ok": True, "late": False})
        assert status["phase_seconds"] == {"compile": 0.5, "total": 1.0}
        assert status["cells_timed"] == 1


@pytest.mark.slow
class TestServeShutdown:
    def test_worker_traces_survive_serve_sigterm(self, tmp_path, tiny_spec):
        """SIGTERM to ``serve --workers 2 --worker-trace``: each worker,
        parked in a /lease long-poll, still gets its reply, drains, and
        exports its trace before serve exits."""
        plan = tmp_path / "delay.json"
        # Every cell sleeps 1.5 s, so both workers must lease one of the
        # four cells: both are then provably past their SIGTERM set-up.
        plan.write_text(FaultPlan(seed=1, rules=(
            FaultRule("worker", "delay", rate=1.0, arg=1.5),)).to_json())
        port = free_port()
        url = "http://127.0.0.1:{}".format(port)
        traces = [tmp_path / "worker-{}.json".format(i) for i in range(2)]
        serve = subprocess.Popen(
            [sys.executable, "-m", "repro.service", "serve",
             "--port", str(port), "--store", str(tmp_path / "store"),
             "--workers", "2", "--worker-poll", "0.5",
             "--worker-trace", str(tmp_path / "worker-{index}.json"),
             "--chaos-plan", str(plan)],
            env=subprocess_env())
        try:
            client.wait_healthy(url, timeout=60.0)
            sub = client.submit(url, SweepSubmission(spec=tiny_spec,
                                                     name="traced"))
            assert client.wait_done(url, sub["id"],
                                    timeout=120.0)["state"] == "done"
            workers = client.metrics(url)["workers"]
            assert len(workers) == 2, workers
            # Both workers are idle in /lease long-polls now.
            started = time.monotonic()
            serve.send_signal(signal.SIGTERM)
            assert serve.wait(timeout=30) == 0
            # Well under the 10 s per-worker kill deadline.
            assert time.monotonic() - started < 8.0
        finally:
            if serve.poll() is None:
                serve.kill()
                serve.wait()
        for path in traces:
            assert path.exists(), "{} was not written".format(path.name)
            doc = json.loads(path.read_text())
            assert validate_trace(doc) == []
            assert any(event["ph"] == "B" for event in doc["traceEvents"])
