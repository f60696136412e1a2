"""Fuzzing the HTTP front end: every malformed request gets a clean
4xx/5xx (or a safe close) and the server keeps serving afterwards.

The fuzz payloads are hostile at the *protocol* layer — broken request
lines, lying content-lengths, non-UTF-8 bodies, mid-body disconnects —
which the JSON-level tests in ``test_http.py`` never reach."""

import asyncio
import json

import pytest

from repro.harness.parallel import CellResult
from repro.service.http import (MAX_BODY_BYTES, ServiceServer,
                                http_request)
from repro.service.scheduler import Scheduler
from repro.service.store import CellStore


async def start_server(tmp_path):
    scheduler = Scheduler(CellStore(str(tmp_path / "store")))
    server = ServiceServer(scheduler, port=0)
    await server.start()
    return server


async def raw_exchange(server, blob: bytes, close_early: bool = False
                       ) -> bytes:
    """Write ``blob`` to the server and return whatever comes back
    (b"" when the server just closes)."""
    reader, writer = await asyncio.open_connection(
        server.host, server.port)
    try:
        writer.write(blob)
        await writer.drain()
        if close_early:
            writer.write_eof()
        return await asyncio.wait_for(reader.read(), 10.0)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def still_serving(server) -> None:
    status, body = await http_request(server.host, server.port,
                                      "GET", "/healthz")
    assert (status, body) == (200, {"ok": True})


def status_of(raw: bytes) -> int:
    assert raw, "server closed without responding"
    return int(raw.split(b"\r\n", 1)[0].split(b" ", 2)[1])


def post(path: str, body: dict) -> bytes:
    """A raw POST of ``body`` as JSON, with its true content-length."""
    data = json.dumps(body).encode()
    return "POST {} HTTP/1.1\r\nContent-Length: {}\r\n\r\n".format(
        path, len(data)).encode() + data


#: A well-formed inline result, so only the field under test is wrong.
RESULT = CellResult(spec_name="x", scheme="bisp", num_qubits=1, num_ops=1,
                    feedback_ops=0, makespan_cycles=1, sync_stall_cycles=0,
                    lifetimes_ns={0: 1.0}).to_dict()

FUZZ_REQUESTS = [
    # (label, raw bytes, acceptable statuses)
    ("garbage request line", b"\x00\xff\xfe garbage\r\n\r\n", {400}),
    ("missing version", b"GET\r\n\r\n", {400}),
    ("unknown method", b"BREW /healthz HTTP/1.1\r\n\r\n", {404}),
    ("unknown path", b"GET /../../etc/passwd HTTP/1.1\r\n\r\n", {404}),
    ("post without body", b"POST /submit HTTP/1.1\r\n\r\n", {400}),
    ("malformed json",
     b"POST /submit HTTP/1.1\r\nContent-Length: 8\r\n\r\n{oops!!!", {400}),
    ("json scalar body",
     b"POST /submit HTTP/1.1\r\nContent-Length: 4\r\n\r\n1234", {400}),
    ("non-utf8 body",
     b"POST /submit HTTP/1.1\r\nContent-Length: 4\r\n\r\n\xff\xfe\xfd\xfc",
     {400}),
    ("negative content-length",
     b"POST /submit HTTP/1.1\r\nContent-Length: -5\r\n\r\n", {400}),
    ("non-numeric content-length",
     b"POST /submit HTTP/1.1\r\nContent-Length: lots\r\n\r\n", {400}),
    ("oversized declared body",
     "POST /submit HTTP/1.1\r\nContent-Length: {}\r\n\r\n".format(
         MAX_BODY_BYTES + 1).encode(), {400}),
    ("bad field types",
     b"POST /lease HTTP/1.1\r\nContent-Length: 15\r\n\r\n{\"worker\": 123}",
     {400}),
    # A malformed max_wait can never succeed, so it must not be a 5xx
    # (clients retry those as transient).
    ("string max_wait",
     b"POST /lease HTTP/1.1\r\nContent-Length: 35\r\n\r\n"
     b"{\"worker\": \"w\", \"max_wait\": \"soon\"}", {400}),
    ("null max_wait",
     b"POST /lease HTTP/1.1\r\nContent-Length: 33\r\n\r\n"
     b"{\"worker\": \"w\", \"max_wait\": null}", {400}),
    ("list max_wait",
     b"POST /lease HTTP/1.1\r\nContent-Length: 32\r\n\r\n"
     b"{\"worker\": \"w\", \"max_wait\": [1]}", {400}),
    # Python's JSON decoder reads NaN and +-Infinity as floats and true
    # as a bool, so each arrives looking like a number.
    ("nan max_wait",
     b"POST /lease HTTP/1.1\r\nContent-Length: 32\r\n\r\n"
     b"{\"worker\": \"w\", \"max_wait\": NaN}", {400}),
    ("infinite max_wait",
     b"POST /lease HTTP/1.1\r\nContent-Length: 37\r\n\r\n"
     b"{\"worker\": \"w\", \"max_wait\": Infinity}", {400}),
    ("negative infinite max_wait",
     b"POST /lease HTTP/1.1\r\nContent-Length: 38\r\n\r\n"
     b"{\"worker\": \"w\", \"max_wait\": -Infinity}", {400}),
    ("bool pid",
     b"POST /lease HTTP/1.1\r\nContent-Length: 28\r\n\r\n"
     b"{\"worker\": \"w\", \"pid\": true}", {400}),
    # Truthy strings and numbers must not pass as stored=true, and a
    # release reason is text, not any JSON value.
    ("string stored",
     post("/complete", {"worker": "w", "key": "0" * 64, "lease": "l",
                        "stored": "false", "result": RESULT}), {400}),
    ("non-string reason",
     post("/release", {"worker": "w", "key": "k", "lease": "l",
                       "reason": {"why": 1}}), {400}),
    # /status reports the last line of each failure, so an error with
    # no visible text would have no line to report.
    ("blank fail error",
     post("/fail", {"worker": "w", "key": "k", "lease": "l",
                    "error": " \n\t"}), {400}),
    # An inline result is stored as-is and served in BENCH documents, so
    # a NaN lifetime or a fidelity outside [0, 1] must not reach the
    # store.
    ("nan lifetime",
     post("/complete", {"worker": "w", "key": "0" * 64, "lease": "l",
                        "result": dict(RESULT,
                                       lifetimes_ns={"0": float("nan")})}),
     {400}),
    ("fidelity above one",
     post("/complete", {"worker": "w", "key": "0" * 64, "lease": "l",
                        "result": dict(RESULT, fidelity_empirical=1.5)}),
     {400}),
]


class TestFuzz:
    @pytest.mark.parametrize(
        "label,blob,expected",
        FUZZ_REQUESTS, ids=[case[0] for case in FUZZ_REQUESTS])
    def test_hostile_request_gets_clean_error(self, tmp_path, label,
                                              blob, expected):
        async def scenario():
            server = await start_server(tmp_path)
            try:
                raw = await raw_exchange(server, blob)
                code = status_of(raw)
                await still_serving(server)
                return code, len(server.scheduler.store)
            finally:
                await server.close()

        code, stored = asyncio.run(scenario())
        assert code in expected, label
        assert stored == 0, label

    def test_mid_body_disconnect(self, tmp_path):
        """A client that advertises 100 bytes and hangs up after 10:
        the read fails loudly server-side, the connection dies, and the
        server moves on."""
        async def scenario():
            server = await start_server(tmp_path)
            try:
                raw = await raw_exchange(
                    server,
                    b"POST /submit HTTP/1.1\r\nContent-Length: 100"
                    b"\r\n\r\n" + b"x" * 10, close_early=True)
                await still_serving(server)
                return raw
            finally:
                await server.close()

        raw = asyncio.run(scenario())
        # Either a 400 raced out before the close or the server just
        # dropped the dead connection — both are clean outcomes.
        if raw:
            assert status_of(raw) == 400

    def test_empty_connection(self, tmp_path):
        async def scenario():
            server = await start_server(tmp_path)
            try:
                raw = await raw_exchange(server, b"", close_early=True)
                await still_serving(server)
                return raw
            finally:
                await server.close()

        raw = asyncio.run(scenario())
        if raw:
            assert status_of(raw) == 400

    def test_fuzz_barrage_then_real_work(self, tmp_path, tiny_submission):
        """Every hostile request in sequence on one server, then a real
        submission still lands — no poisoned state, no dead loop."""
        async def scenario():
            server = await start_server(tmp_path)
            try:
                for _label, blob, _expected in FUZZ_REQUESTS:
                    await raw_exchange(server, blob)
                status, sub = await http_request(
                    server.host, server.port, "POST", "/submit",
                    tiny_submission.to_dict())
                return status, sub
            finally:
                await server.close()

        status, sub = asyncio.run(scenario())
        assert status == 201
        assert sub["state"] in ("running", "done")
