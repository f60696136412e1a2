"""Stdlib-only HTTP/1.1 shell around the synchronous sweep scheduler.

A deliberately small server on ``asyncio`` streams (no new
dependencies): one JSON request in, one JSON response out, connection
closed.  Workers re-connect per long-poll, clients per call — at sweep
granularity the connection setup cost is noise, and connection-per-
request keeps the server free of keep-alive state.

:class:`ServiceServer` is the only place the service waits.  Every
route is a direct call into the :class:`~repro.service.scheduler.Scheduler`
state machine; the server adds the two things that need a clock: the
``/lease`` long-poll (a lease with nothing to grant parks until the
scheduler's ``work_seq`` moves or ``max_wait`` runs out) and the timer
that calls ``expire_leases``.  Parked leases wake exactly when a call
moved ``work_seq``, so warm store-hit traffic wakes no worker.

Client routes
    ``GET /healthz`` · ``GET /metrics`` (Prometheus text exposition;
    ``?format=json`` returns the scheduler's JSON metrics dict) ·
    ``POST /submit`` (body = :class:`~repro.harness.spec.SweepSubmission`
    JSON) · ``GET /status/<id>`` (includes the per-phase wall-clock
    breakdown reported by workers) · ``GET /fetch/<id>`` (the finished
    BENCH document).

Worker routes
    ``POST /lease`` (``{"worker", "max_wait", "pid"}`` — long-polls up
    to ``max_wait`` s, a finite number clamped to
    :data:`MAX_LEASE_WAIT`) ·
    ``POST /complete`` (``{"worker", "key", "lease", "result"}`` or
    ``{"stored": true}``, optionally plus ``"timings"`` = per-phase
    seconds) · ``POST /fail`` (``{"worker", "key", "lease",
    "error"}``) · ``POST /release`` (``{"worker", "key", "lease",
    "reason"}`` — hand a lease back without burning an attempt) ·
    ``POST /heartbeat`` (``{"worker", "key", "lease"}`` — extend a live
    lease's TTL).

Errors map to JSON bodies: scheduler :class:`ServiceError` -> 400 with
``{"error": ...}`` (404 for unknown submissions), malformed requests ->
400, unknown routes -> 404, and any unexpected exception -> 500 with
the class name — one bad request must never take down the scheduler
loop.  The module also ships the matching asyncio client
(:func:`http_request`) used by the load benchmark and tests.

When a chaos plan is active (:mod:`repro.chaos`) the *response* path is
an injection site: ``drop`` closes the connection without answering
(after the scheduler already processed the request — the retrying
client exercises idempotency), ``delay`` sleeps ``arg`` seconds before
answering, ``truncate`` sends half the advertised body, and
``error_500`` substitutes an injected internal error.
"""

from __future__ import annotations

import json
from typing import Dict, Optional, Tuple, Union
from urllib.parse import parse_qs

import asyncio

from ..chaos import plan as chaos_plan
from ..errors import ReproError
from ..harness.spec import SweepSubmission
from ..noise.model import finite_real
from ..obs import log as obs_log
from ..obs import metrics as _metrics
from ..obs.metrics import PROMETHEUS_CONTENT_TYPE
from .scheduler import Scheduler, ServiceError

_log = obs_log.get_logger("repro.service.http")

#: Every response attempt, including ones a chaos ``drop`` swallows —
#: the denominator that turns ``repro_chaos_injected_total`` drop
#: counts into a dropped-response *fraction* (the chaos soak's ">= 5%
#: of responses dropped" floor needs both sides of the ratio).
_responses_total = _metrics.counter(
    "repro_http_responses_total",
    "HTTP responses attempted by this server (dropped ones included)")

#: Upper bound on one /lease long-poll; workers just poll again.
MAX_LEASE_WAIT = 30.0
#: Request body cap (a submission is a few KB; results a few hundred KB).
MAX_BODY_BYTES = 16 * 1024 * 1024


class ServiceServer:
    """The scheduler bound to a listening socket, plus the lease
    long-poll and the lease-expiry timer (see module docstring)."""

    def __init__(self, scheduler: Scheduler, host: str = "127.0.0.1",
                 port: int = 0):
        self.scheduler = scheduler
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None
        self._expiry_task: Optional[asyncio.Task] = None
        #: Set (then replaced) when ``scheduler.work_seq`` moves; every
        #: parked /lease waits on the current one.  Made in ``start``,
        #: on the loop that serves.
        self._work: Optional[asyncio.Event] = None
        self._work_seq = scheduler.work_seq

    async def start(self) -> None:
        self._work = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        self._expiry_task = asyncio.ensure_future(self._expire_leases())

    @property
    def url(self) -> str:
        return "http://{}:{}".format(self.host, self.port)

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        await self._server.serve_forever()

    async def close(self) -> None:
        if self._expiry_task is not None:
            self._expiry_task.cancel()
            try:
                await self._expiry_task
            except asyncio.CancelledError:
                pass
            self._expiry_task = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # -- waiting -----------------------------------------------------------

    def _wake_leases(self) -> None:
        """Wake every parked /lease if the scheduler recorded new
        grantable work since the last wake."""
        if self.scheduler.work_seq != self._work_seq:
            self._work_seq = self.scheduler.work_seq
            self._work.set()
            self._work = asyncio.Event()

    async def _lease(self, worker: str, max_wait: float,
                     pid: Optional[int]) -> Optional[Dict]:
        """Grant a job now, or park until new work might be grantable;
        None once ``max_wait`` seconds pass with nothing granted."""
        loop = asyncio.get_running_loop()
        deadline = loop.time() + max(0.0, min(max_wait, MAX_LEASE_WAIT))
        while True:
            grant = self.scheduler.lease(worker, pid=pid)
            remaining = deadline - loop.time()
            if grant is not None or remaining <= 0:
                return grant
            try:
                await asyncio.wait_for(self._work.wait(), remaining)
            except asyncio.TimeoutError:
                return None

    async def _expire_leases(self) -> None:
        """Expire leases every quarter lease TTL (floored at 50 ms)."""
        interval = max(0.05, self.scheduler.lease_ttl / 4.0)
        while True:
            await asyncio.sleep(interval)
            self.scheduler.expire_leases()
            self._wake_leases()

    # -- request handling --------------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            try:
                method, path, body = await _read_request(reader)
            except (_BadRequest, asyncio.IncompleteReadError,
                    ValueError) as exc:
                await _respond(writer, 400, {"error": str(exc) or
                                             "malformed request"})
                return
            except (ConnectionError, asyncio.LimitOverrunError):
                return
            try:
                status, payload = await self._route(method, path, body)
            except ServiceError as exc:
                code = 404 if "unknown submission" in str(exc) else 400
                status, payload = code, {"error": str(exc)}
            except ReproError as exc:
                status, payload = 400, {"error": str(exc)}
            except asyncio.CancelledError:
                raise
            except Exception as exc:
                # Catch-all: one poisoned request must never take the
                # scheduler loop down.  The client gets a 500 with the
                # class name; the details go to the structured log.
                _log.error("request_crashed", method=method, path=path,
                           error=type(exc).__name__,
                           detail=str(exc)[:200])
                status, payload = 500, {
                    "error": "internal error: {}".format(
                        type(exc).__name__)}
            # Before any chaos fault: a dropped response still changed
            # the scheduler's state.
            self._wake_leases()
            truncate = False
            _responses_total.inc()
            injector = chaos_plan.active()
            if injector is not None:
                action = await _chaos_response_fault(injector, path)
                if action == "drop":
                    return
                if action == "error_500":
                    status, payload = 500, {
                        "error": "injected internal error "
                                 "(chaos error_500)"}
                truncate = action == "truncate"
            await _respond(writer, status, payload, truncate=truncate)
        except ConnectionError:
            pass
        except asyncio.CancelledError:
            # Server shutdown with this handler mid-request (typically a
            # long-poll /lease).  Ending quietly is correct: the client
            # sees the connection close and re-polls or gives up.
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _route(self, method: str, path: str,
                     body: Optional[Dict]
                     ) -> Tuple[int, Union[Dict, str]]:
        path, _, query_string = path.partition("?")
        query = parse_qs(query_string)
        parts = [part for part in path.split("/") if part]
        scheduler = self.scheduler
        if method == "GET":
            if parts == ["healthz"]:
                return 200, {"ok": True}
            if parts == ["metrics"]:
                formats = query.get("format", ["prometheus"])
                if formats[-1] == "json":
                    return 200, scheduler.metrics()
                if formats[-1] not in ("prometheus", "text"):
                    raise _BadRequest(
                        "unknown metrics format {!r} (expected "
                        "'prometheus' or 'json')".format(formats[-1]))
                return 200, scheduler.prometheus()
            if len(parts) == 2 and parts[0] == "status":
                return 200, scheduler.status(parts[1])
            if len(parts) == 2 and parts[0] == "fetch":
                return 200, scheduler.fetch(parts[1])
        elif method == "POST":
            if body is None:
                raise _BadRequest("{} needs a JSON body".format(path))
            if parts == ["submit"]:
                submission = SweepSubmission.from_dict(body)
                return 201, scheduler.submit(submission)
            if parts == ["lease"]:
                worker = _field(body, "worker", str)
                max_wait = body.get("max_wait", 0.0)
                if not finite_real(max_wait):
                    raise _BadRequest(
                        "field 'max_wait' must be a finite number, got "
                        "{!r}".format(max_wait))
                pid = body.get("pid")
                if pid is not None and (isinstance(pid, bool) or
                                        not isinstance(pid, int)):
                    raise _BadRequest("pid must be an integer")
                return 200, {"job": await self._lease(worker, max_wait,
                                                      pid)}
            if parts == ["complete"]:
                stored = body.get("stored", False)
                if not isinstance(stored, bool):
                    raise _BadRequest(
                        "field 'stored' must be a bool, got {!r}".format(
                            stored))
                return 200, scheduler.complete(
                    _field(body, "worker", str),
                    _field(body, "key", str),
                    _field(body, "lease", str),
                    result=body.get("result"),
                    stored=stored,
                    timings=body.get("timings"))
            if parts == ["fail"]:
                return 200, scheduler.fail(
                    _field(body, "worker", str),
                    _field(body, "key", str),
                    _field(body, "lease", str),
                    error=_field(body, "error", str))
            if parts == ["release"]:
                return 200, scheduler.release(
                    _field(body, "worker", str),
                    _field(body, "key", str),
                    _field(body, "lease", str),
                    reason=_field(body, "reason", str, ""))
            if parts == ["heartbeat"]:
                return 200, scheduler.heartbeat(
                    _field(body, "worker", str),
                    _field(body, "key", str),
                    _field(body, "lease", str))
        return 404, {"error": "no route {} {}".format(method, path)}


async def _chaos_response_fault(injector,
                                path: str) -> Optional[str]:
    """Pick (and pre-apply) this response's injected fault, if any.

    ``delay`` composes with the others and is applied here; the caller
    acts on the returned ``drop``/``truncate``/``error_500``.  Decisions
    are keyed by route plus that route's response ordinal, so a plan
    replays the same drops on the same traffic shape.
    """
    route = path.partition("?")[0].strip("/").split("/")[0] or "root"
    rule = injector.decide("http", "delay", route,
                           injector.seq("http", "delay", route))
    if rule is not None:
        await asyncio.sleep(float(rule.arg))
    for fault in ("drop", "truncate", "error_500"):
        if injector.decide("http", fault, route,
                           injector.seq("http", fault, route)):
            return fault
    return None


class _BadRequest(ReproError):
    """Malformed HTTP request or body (-> 400)."""


def _field(body: Dict, name: str, types, default=None) -> object:
    """``body[name]`` (``default`` when absent), which must be an
    instance of ``types``; JSON booleans never pass as numbers."""
    value = body.get(name, default)
    if isinstance(value, bool) or not isinstance(value, types):
        names = types if isinstance(types, tuple) else (types,)
        raise _BadRequest("field {!r} must be {}, got {!r}".format(
            name, " or ".join(kind.__name__ for kind in names), value))
    return value


async def _read_request(reader: asyncio.StreamReader
                        ) -> Tuple[str, str, Optional[Dict]]:
    request_line = (await reader.readline()).decode("latin-1").strip()
    if not request_line:
        raise _BadRequest("empty request")
    try:
        method, path, _version = request_line.split(" ", 2)
    except ValueError:
        raise _BadRequest(
            "malformed request line {!r}".format(request_line)) from None
    content_length = 0
    while True:
        line = (await reader.readline()).decode("latin-1").strip()
        if not line:
            break
        name, _, value = line.partition(":")
        if name.strip().lower() == "content-length":
            content_length = int(value.strip())
    if content_length < 0:
        raise _BadRequest("negative content-length ({})".format(
            content_length))
    if content_length > MAX_BODY_BYTES:
        raise _BadRequest("body too large ({} bytes)".format(
            content_length))
    body: Optional[Dict] = None
    if content_length:
        raw = await reader.readexactly(content_length)
        try:
            body = json.loads(raw.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise _BadRequest("invalid JSON body: {}".format(exc)) \
                from None
        if not isinstance(body, dict):
            raise _BadRequest("JSON body must be an object")
    return method.upper(), path, body


async def _respond(writer: asyncio.StreamWriter, status: int,
                   payload: Union[Dict, str],
                   truncate: bool = False) -> None:
    reasons = {200: "OK", 201: "Created", 400: "Bad Request",
               404: "Not Found", 500: "Internal Server Error"}
    if isinstance(payload, str):
        # Prometheus text exposition (the default /metrics format).
        body = payload.encode("utf-8")
        content_type = PROMETHEUS_CONTENT_TYPE
    else:
        body = json.dumps(payload).encode("utf-8")
        content_type = "application/json"
    head = ("HTTP/1.1 {} {}\r\n"
            "Content-Type: {}\r\n"
            "Content-Length: {}\r\n"
            "Connection: close\r\n\r\n").format(
                status, reasons.get(status, "OK"), content_type,
                len(body))
    if truncate:
        # Chaos 'truncate': advertise the full length, deliver half.
        # The client's JSON decode fails and it must retry.
        body = body[:len(body) // 2]
    writer.write(head.encode("latin-1") + body)
    await writer.drain()


async def http_request(host: str, port: int, method: str, path: str,
                       payload: Optional[Dict] = None,
                       timeout: float = 60.0) -> Tuple[int, Dict]:
    """Asyncio HTTP client matching the server above (tests + load
    benchmark drive thousands of these concurrently)."""
    reader, writer = await asyncio.wait_for(
        asyncio.open_connection(host, port), timeout)
    try:
        body = b""
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
        head = ("{} {} HTTP/1.1\r\n"
                "Host: {}:{}\r\n"
                "Content-Type: application/json\r\n"
                "Content-Length: {}\r\n"
                "Connection: close\r\n\r\n").format(
                    method, path, host, port, len(body))
        writer.write(head.encode("latin-1") + body)
        await writer.drain()
        raw = await asyncio.wait_for(reader.read(), timeout)
    finally:
        try:
            writer.close()
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
    header_blob, _, rest = raw.partition(b"\r\n\r\n")
    status_line = header_blob.split(b"\r\n", 1)[0].decode("latin-1")
    status = int(status_line.split(" ", 2)[1])
    return status, json.loads(rest.decode("utf-8")) if rest else {}
