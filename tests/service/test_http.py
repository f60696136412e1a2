"""HTTP front end: in-process asyncio tests + full-stack CLI smoke.

The in-process tests drive :class:`ServiceServer` with the matching
``http_request`` client (real sockets on an ephemeral port, no
subprocesses).  ``TestFullStack`` then boots the real thing — ``python
-m repro.service serve`` with two spawned workers — and replays the CI
service-smoke scenario: two overlapping submissions, cross-submission
dedup, artifact byte-identical to the serial sweep.
"""

import asyncio
import os
import subprocess
import sys
import threading

import pytest

from repro.harness.benchjson import validate_bench
from repro.harness.parallel import SweepTask, run_cell
from repro.harness.spec import SweepSpec, SweepSubmission
from repro.service import client
from repro.service.http import ServiceServer, http_request
from repro.service.scheduler import Scheduler
from repro.service.store import CellStore

from repro.testing import subprocess_env
from svc_util import SCALE, free_port, serial_bench


async def start_server(tmp_path, **scheduler_kwargs):
    scheduler = Scheduler(CellStore(str(tmp_path / "store")),
                          **scheduler_kwargs)
    server = ServiceServer(scheduler, port=0)
    await server.start()
    return server


class TestRoutes:
    def test_healthz_and_metrics(self, tmp_path):
        async def scenario():
            server = await start_server(tmp_path)
            try:
                status, body = await http_request(
                    server.host, server.port, "GET", "/healthz")
                mstatus, metrics = await http_request(
                    server.host, server.port, "GET",
                    "/metrics?format=json")
            finally:
                await server.close()
            return status, body, mstatus, metrics

        status, body, mstatus, metrics = asyncio.run(scenario())
        assert (status, body) == (200, {"ok": True})
        assert mstatus == 200
        assert metrics["counters"]["submissions"] == 0

    def test_unknown_route_404(self, tmp_path):
        async def scenario():
            server = await start_server(tmp_path)
            try:
                return await http_request(server.host, server.port,
                                          "GET", "/nope")
            finally:
                await server.close()

        status, body = asyncio.run(scenario())
        assert status == 404
        assert "no route" in body["error"]

    def test_malformed_body_400(self, tmp_path):
        async def scenario():
            server = await start_server(tmp_path)
            try:
                reader, writer = await asyncio.open_connection(
                    server.host, server.port)
                blob = b"not json"
                writer.write(
                    b"POST /submit HTTP/1.1\r\n"
                    b"Content-Length: " +
                    str(len(blob)).encode() + b"\r\n\r\n" + blob)
                await writer.drain()
                raw = await reader.read()
                writer.close()
                return raw
            finally:
                await server.close()

        raw = asyncio.run(scenario())
        assert b"400" in raw.split(b"\r\n", 1)[0]

    def test_bad_submission_400(self, tmp_path):
        async def scenario():
            server = await start_server(tmp_path)
            try:
                return await http_request(
                    server.host, server.port, "POST", "/submit",
                    {"spec": {"workloads": ["no_such_workload"]}})
            finally:
                await server.close()

        status, body = asyncio.run(scenario())
        assert status == 400
        assert "error" in body

    @pytest.mark.parametrize("fields, named", [
        ({"scales": [True]}, "scale"),
        ({"config": {"router_fanout": "8"}}, "config.router_fanout"),
    ], ids=["bool_scale", "string_fanout"])
    def test_bad_spec_value_400(self, tmp_path, fields, named):
        """A spec value of the wrong type is refused up front: ``true``
        as a scale would run at scale 1 under a ``"scale": true`` row,
        and a string fanout would fail every cell on the workers."""
        async def scenario():
            server = await start_server(tmp_path)
            try:
                spec = dict({"workloads": ["bv_n400"], "scales": [SCALE]},
                            **fields)
                return await http_request(
                    server.host, server.port, "POST", "/submit",
                    {"spec": spec})
            finally:
                await server.close()

        status, body = asyncio.run(scenario())
        assert status == 400, body
        assert named in body["error"]

    @pytest.mark.parametrize("seed", [None, -1, "abc", True])
    def test_bad_device_seed_400(self, tmp_path, seed):
        """A seed that is not a non-negative integer is refused up front:
        ``null`` would draw OS entropy in every cell, ``true`` alias 1."""
        async def scenario():
            server = await start_server(tmp_path)
            try:
                return await http_request(
                    server.host, server.port, "POST", "/submit",
                    {"spec": {"workloads": ["bv_n400"], "scales": [SCALE],
                              "device_seed": seed}})
            finally:
                await server.close()

        status, body = asyncio.run(scenario())
        assert status == 400, body
        assert "device_seed" in body["error"]

    def test_nan_noise_lifetime_400(self, tmp_path):
        """The body parser takes ``NaN``; the noise model must refuse it
        instead of running every cell without damping."""
        async def scenario():
            server = await start_server(tmp_path)
            try:
                return await http_request(
                    server.host, server.port, "POST", "/submit",
                    {"spec": {"workloads": ["bv_n400"], "scales": [SCALE],
                              "noise": {"t1_us": float("nan")}}})
            finally:
                await server.close()

        status, body = asyncio.run(scenario())
        assert status == 400, body
        assert "t1_us" in body["error"]

    def test_submission_priority_400(self, tmp_path):
        """Submissions carry no priority: the field is refused by name
        rather than silently ignored."""
        async def scenario():
            server = await start_server(tmp_path)
            try:
                return await http_request(
                    server.host, server.port, "POST", "/submit",
                    {"spec": {"workloads": ["bv_n400"], "scales": [SCALE]},
                     "priority": 0})
            finally:
                await server.close()

        status, body = asyncio.run(scenario())
        assert status == 400, body
        assert "priority" in body["error"]

    def test_blank_fail_error_400_keeps_status_serving(self, tmp_path):
        """``/status`` shows the last line of each failure, so a
        blank error is refused and the cell stays leased."""
        async def scenario():
            server = await start_server(tmp_path)
            host, port = server.host, server.port
            try:
                _, sub = await http_request(
                    host, port, "POST", "/submit",
                    {"spec": {"workloads": ["bv_n400"], "schemes": ["bisp"],
                              "scales": [SCALE]}})
                _, reply = await http_request(
                    host, port, "POST", "/lease", {"worker": "w0"})
                job = reply["job"]
                failed = await http_request(
                    host, port, "POST", "/fail",
                    {"worker": "w0", "key": job["key"],
                     "lease": job["lease"], "error": " \n"})
                status = await http_request(
                    host, port, "GET", "/status/{}".format(sub["id"]))
                return failed, status, server.scheduler.metrics()
            finally:
                await server.close()

        (code, body), (scode, status), metrics = asyncio.run(scenario())
        assert code == 400, body
        assert "blank" in body["error"]
        assert scode == 200, status
        assert (status["state"], status["cells_failed"]) == ("running", 0)
        assert metrics["leased"] == 1

    def test_unknown_submission_404(self, tmp_path):
        async def scenario():
            server = await start_server(tmp_path)
            try:
                return await http_request(server.host, server.port,
                                          "GET", "/status/s999999")
            finally:
                await server.close()

        status, body = asyncio.run(scenario())
        assert status == 404


class TestCompleteValidation:
    """A malformed ``POST /complete`` is a 400 that touches nothing: no
    file outside (or inside) the store, the cell stays pending, and a
    later well-formed complete still lands and fetches."""

    SPEC = SweepSpec(workloads=("bv_n400",), schemes=("bisp",),
                     scales=(SCALE,))

    def _bad_then_good(self, tmp_path, bad_body):
        async def scenario():
            server = await start_server(tmp_path)
            host, port = server.host, server.port
            try:
                _, sub = await http_request(
                    host, port, "POST", "/submit",
                    SweepSubmission(spec=self.SPEC, name="v").to_dict())
                _, reply = await http_request(
                    host, port, "POST", "/lease", {"worker": "w0"})
                job = reply["job"]
                cell = run_cell(SweepTask.from_dict(job["task"]))
                good = {"worker": "w0", "key": job["key"],
                        "lease": job["lease"], "result": cell.to_dict()}
                bad = await http_request(host, port, "POST", "/complete",
                                         dict(good, **bad_body(good)))
                entries = sorted(os.listdir(str(tmp_path / "store")))
                _, pending = await http_request(
                    host, port, "GET", "/status/{}".format(sub["id"]))
                landed, _ = await http_request(host, port, "POST",
                                               "/complete", good)
                fetched, doc = await http_request(
                    host, port, "GET", "/fetch/{}".format(sub["id"]))
                return bad, entries, pending, landed, fetched, doc
            finally:
                await server.close()

        (code, body), entries, pending, landed, fetched, doc = \
            asyncio.run(scenario())
        assert code == 400, body
        assert sorted(os.listdir(str(tmp_path))) == ["store"]
        assert not [name for name in entries if name.endswith(".pkl")]
        assert (pending["state"], pending["cells_done"]) == ("running", 0)
        assert (landed, fetched) == (200, 200)
        reference = serial_bench(self.SPEC, name="v")
        assert doc["results_sha256"] == reference["results_sha256"]
        return body

    def test_path_escaping_key_rejected(self, tmp_path):
        body = self._bad_then_good(
            tmp_path, lambda good: {"key": "../escaped"})
        assert "bad cell key" in body["error"]

    def test_ill_typed_result_rejected(self, tmp_path):
        body = self._bad_then_good(tmp_path, lambda good: {
            "result": dict(good["result"], makespan_cycles="oops")})
        assert "makespan_cycles" in body["error"]


class TestInProcessEndToEnd:
    def test_submit_work_fetch_roundtrip(self, tmp_path, tiny_spec,
                                         tiny_submission):
        async def scenario():
            server = await start_server(tmp_path)
            host, port = server.host, server.port
            try:
                status, sub = await http_request(
                    host, port, "POST", "/submit",
                    tiny_submission.to_dict())
                assert status == 201
                # Act as a worker over the wire until the queue drains.
                while True:
                    _, reply = await http_request(
                        host, port, "POST", "/lease",
                        {"worker": "t0", "max_wait": 0.0})
                    job = reply.get("job")
                    if job is None:
                        break
                    cell = run_cell(SweepTask.from_dict(job["task"]))
                    code, _ = await http_request(
                        host, port, "POST", "/complete",
                        {"worker": "t0", "key": job["key"],
                         "lease": job["lease"],
                         "result": cell.to_dict()})
                    assert code == 200
                _, final = await http_request(
                    host, port, "GET", "/status/{}".format(sub["id"]))
                fcode, doc = await http_request(
                    host, port, "GET", "/fetch/{}".format(sub["id"]))
                return final, fcode, doc
            finally:
                await server.close()

        final, fcode, doc = asyncio.run(scenario())
        assert final["state"] == "done"
        assert fcode == 200
        reference = serial_bench(tiny_spec, name="tiny")
        assert doc["results_sha256"] == reference["results_sha256"]

    def test_concurrent_overlapping_submissions_dedup(self, tmp_path,
                                                      tiny_spec,
                                                      overlap_spec):
        from repro.harness.spec import SweepSubmission

        async def scenario():
            server = await start_server(tmp_path)
            host, port = server.host, server.port
            try:
                results = await asyncio.gather(
                    http_request(host, port, "POST", "/submit",
                                 SweepSubmission(spec=tiny_spec,
                                                 name="a").to_dict()),
                    http_request(host, port, "POST", "/submit",
                                 SweepSubmission(spec=overlap_spec,
                                                 name="b").to_dict()))
                _, metrics = await http_request(host, port, "GET",
                                                "/metrics?format=json")
                return results, metrics
            finally:
                await server.close()

        results, metrics = asyncio.run(scenario())
        assert all(code == 201 for code, _ in results)
        counters = metrics["counters"]
        assert counters["cells_total"] == 8
        assert counters["dedup_hits"] == 2
        assert metrics["queue_depth"] == 6


class TestLeaseWake:
    """What wakes a parked ``/lease``: the shell parks a lease with
    nothing to grant and wakes it when the scheduler records new
    grantable work (a submit, a release, an expiry requeue);
    an idle one answers ``{"job": null}`` once ``max_wait`` runs out."""

    ONE_CELL = SweepSpec(workloads=("bv_n400",), schemes=("bisp",),
                         scales=(SCALE,), shots=(1,))

    @staticmethod
    async def park(server, worker, max_wait=5.0):
        """Start a long-poll and return it once it is provably parked."""
        parked = asyncio.ensure_future(http_request(
            server.host, server.port, "POST", "/lease",
            {"worker": worker, "max_wait": max_wait}))
        await asyncio.sleep(0.2)
        assert not parked.done()
        return parked

    @staticmethod
    async def timed(parked):
        """``(reply, seconds)`` of a parked lease from now on."""
        loop = asyncio.get_running_loop()
        started = loop.time()
        code, reply = await parked
        assert code == 200
        return reply, loop.time() - started

    def test_submit_wakes_parked_lease(self, tmp_path, tiny_submission):
        async def scenario():
            server = await start_server(tmp_path)
            try:
                parked = await self.park(server, "w0")
                await http_request(server.host, server.port, "POST",
                                   "/submit", tiny_submission.to_dict())
                return await self.timed(parked)
            finally:
                await server.close()

        reply, waited = asyncio.run(scenario())
        assert reply["job"] is not None
        assert waited < 2.0

    def test_expiry_requeue_wakes_parked_lease(self, tmp_path):
        async def scenario():
            # The TTL outlasts park()'s 0.2 s proof that the lease parked.
            server = await start_server(tmp_path, lease_ttl=1.0)
            host, port = server.host, server.port
            try:
                await http_request(
                    host, port, "POST", "/submit",
                    SweepSubmission(spec=self.ONE_CELL).to_dict())
                _, first = await http_request(
                    host, port, "POST", "/lease", {"worker": "doomed"})
                parked = await self.park(server, "healthy")
                reply, waited = await self.timed(parked)
                return first["job"], reply, waited
            finally:
                await server.close()

        first, reply, waited = asyncio.run(scenario())
        assert reply["job"]["key"] == first["key"]
        assert reply["job"]["attempt"] == 2
        assert waited < 4.0  # the expiry woke it, not max_wait

    def test_idle_lease_returns_null_after_max_wait(self, tmp_path):
        async def scenario():
            server = await start_server(tmp_path)
            try:
                parked = await self.park(server, "w0", max_wait=0.6)
                return await self.timed(parked)
            finally:
                await server.close()

        reply, waited = asyncio.run(scenario())
        assert reply == {"job": None}
        # 0.2 s of the 0.6 s were spent proving the lease parked.
        assert 0.3 <= waited < 2.0


@pytest.mark.slow
class TestFullStack:
    """The CI service-smoke scenario as a test: real serve subprocess,
    two real workers, overlapping submissions from two client threads."""

    def test_serve_submit_fetch_byte_identity(self, tmp_path, tiny_spec,
                                              overlap_spec):
        port = free_port()
        url = "http://127.0.0.1:{}".format(port)
        store = tmp_path / "store"
        serve = subprocess.Popen(
            [sys.executable, "-m", "repro.service", "serve",
             "--port", str(port), "--store", str(store),
             "--workers", "2", "--worker-poll", "1"],
            env=subprocess_env(), stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT)
        try:
            client.wait_healthy(url, timeout=60.0)

            def submit(spec, name):
                from repro.harness.spec import SweepSubmission

                sub = client.submit(url, SweepSubmission(
                    spec=spec, name=name))
                client.wait_done(url, sub["id"], timeout=180.0)
                doc = client.fetch(url, sub["id"])
                docs[name] = doc

            docs = {}
            threads = [
                threading.Thread(target=submit, args=(tiny_spec, "a")),
                threading.Thread(target=submit, args=(overlap_spec, "b")),
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=240.0)
            metrics = client.metrics(url)
        finally:
            serve.terminate()
            try:
                serve.wait(timeout=15)
            except subprocess.TimeoutExpired:
                serve.kill()

        assert set(docs) == {"a", "b"}
        counters = metrics["counters"]
        # 8 cells across the two sweeps, 2 shared: at most 6 executed
        # (hits can exceed 2 if one sweep finished before the other
        # submitted — then the overlap lands as store hits instead).
        assert counters["cells_total"] == 8
        assert counters["store_hits"] + counters["dedup_hits"] >= 2
        assert counters["completes"] <= 6
        # Byte-identity against the serial offline sweep.
        assert docs["a"]["results_sha256"] == \
            serial_bench(tiny_spec, name="a")["results_sha256"]
        assert docs["b"]["results_sha256"] == \
            serial_bench(overlap_spec, name="b")["results_sha256"]
        # Fetched documents revalidate against the BENCH schema.
        validate_bench(docs["a"])
        validate_bench(docs["b"])
