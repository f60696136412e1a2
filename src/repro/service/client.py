"""Synchronous stdlib client for the sweep service HTTP API.

Used by the worker process, the ``python -m repro.service`` CLI and the
CI smoke scripts.  Pure ``urllib`` — no new dependencies, and errors
surface as :class:`ServiceClientError` with the server's own message.

Retry discipline
    Every route the service exposes is idempotent — completes, fails,
    releases and heartbeats by scheduler construction, ``/submit`` via
    the submission's ``idempotency_key``, GETs trivially — so
    :func:`request` accepts a ``retries`` budget: *transient* failures
    (connection refused/reset, timeouts, truncated responses, 5xx)
    retry with capped jittered exponential backoff, while definite
    rejections (4xx) raise immediately.  The polling helpers
    (:func:`wait_healthy`, :func:`wait_done`) use the same backoff
    instead of fixed-interval busy-polling: cheap first probes, capped
    intervals, unchanged deadline semantics.
"""

from __future__ import annotations

import json
import random
import time
import urllib.error
import urllib.request
from dataclasses import replace
from typing import Dict, Iterator, Optional

from ..errors import ReproError
from ..harness.spec import SweepSubmission
from ..obs import log as obs_log

_log = obs_log.get_logger("repro.service.client")

#: First backoff sleep (seconds) of request retries, of the
#: :func:`wait_healthy` probes and of the :func:`wait_done` polls; every
#: backoff caps at ``RETRY_BACKOFF_CAP``.
RETRY_BACKOFF_BASE = 0.1
HEALTH_POLL_BASE = 0.2
DONE_POLL_BASE = 0.25
RETRY_BACKOFF_CAP = 2.0

#: Retry budget of each :func:`wait_done` status poll.
DONE_POLL_RETRIES = 3


class ServiceClientError(ReproError):
    """HTTP-level failure talking to the sweep service.

    ``status`` carries the HTTP status when one was received (None for
    connection-level failures); ``transient`` is True when retrying
    could plausibly succeed (timeouts, 5xx, torn responses) and False
    for definite rejections (4xx).
    """

    def __init__(self, message: str, status: Optional[int] = None,
                 transient: bool = False):
        super().__init__(message)
        self.status = status
        self.transient = transient


def backoff_intervals(base: float, cap: float,
                      rng: Optional[random.Random] = None
                      ) -> Iterator[float]:
    """Capped exponential backoff with jitter: sleep ``n`` is drawn
    uniformly from ``[c/2, c)``, ``c = min(cap, base * 2**n)``.  Jitter
    is wall-clock shaping only — it never touches result bytes — so
    plain ``random`` is fine here where the simulation itself must use
    derived seeds."""
    rng = rng or random
    attempt = 0
    while True:
        ceiling = min(cap, base * (2.0 ** attempt))
        yield ceiling * (0.5 + 0.5 * rng.random())
        attempt += 1


def request(url: str, method: str, path: str,
            payload: Optional[Dict] = None,
            timeout: float = 60.0,
            retries: int = 0) -> Dict:
    """One JSON request against the service; returns the decoded body.

    Non-2xx responses raise :class:`ServiceClientError` carrying the
    server's ``error`` message (connection failures likewise).  With
    ``retries > 0``, transient failures are retried up to that many
    times with jittered exponential backoff; 4xx rejections never
    retry.  Only use a budget on idempotent requests — which every
    service route is, provided ``/submit`` carries an idempotency key.
    """
    last: Optional[ServiceClientError] = None
    sleeps = backoff_intervals(RETRY_BACKOFF_BASE, RETRY_BACKOFF_CAP)
    for attempt in range(max(0, retries) + 1):
        try:
            return _request_once(url, method, path, payload, timeout)
        except ServiceClientError as exc:
            if not exc.transient or attempt >= retries:
                raise
            last = exc
            pause = next(sleeps)
            _log.debug("request_retry", method=method, path=path,
                       attempt=attempt + 1, budget=retries,
                       sleep_s=round(pause, 3), error=str(exc)[:160])
            time.sleep(pause)
    raise last  # pragma: no cover - loop always returns or raises


def _request_once(url: str, method: str, path: str,
                  payload: Optional[Dict], timeout: float) -> Dict:
    full = url.rstrip("/") + path
    data = None
    headers = {"Accept": "application/json"}
    if payload is not None:
        data = json.dumps(payload).encode("utf-8")
        headers["Content-Type"] = "application/json"
    req = urllib.request.Request(full, data=data, headers=headers,
                                 method=method)
    try:
        with urllib.request.urlopen(req, timeout=timeout) as response:
            raw = response.read()
    except urllib.error.HTTPError as exc:
        try:
            message = json.loads(exc.read().decode("utf-8")).get(
                "error", str(exc))
        except Exception:
            message = str(exc)
        raise ServiceClientError(
            "{} {}: {}".format(method, full, message),
            status=exc.code, transient=exc.code >= 500) from None
    except (urllib.error.URLError, OSError, TimeoutError) as exc:
        raise ServiceClientError(
            "{} {}: {}".format(method, full, exc),
            transient=True) from None
    try:
        return json.loads(raw.decode("utf-8")) if raw else {}
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        # A syntactically broken body over a clean connection is a torn
        # (truncated/dropped mid-body) response: transient.
        raise ServiceClientError(
            "{} {}: invalid JSON response: {}".format(
                method, full, exc), transient=True) from None


def healthz(url: str, timeout: float = 5.0) -> bool:
    try:
        return bool(request(url, "GET", "/healthz",
                            timeout=timeout).get("ok"))
    except ServiceClientError:
        return False


def wait_healthy(url: str, timeout: float = 30.0) -> None:
    """Block until ``/healthz`` answers (CI boots the service in the
    background and needs a readiness barrier).  Probes back off
    exponentially from ``HEALTH_POLL_BASE`` with jitter; the ``timeout``
    deadline is unchanged."""
    deadline = time.monotonic() + timeout
    sleeps = backoff_intervals(HEALTH_POLL_BASE, RETRY_BACKOFF_CAP)
    while time.monotonic() < deadline:
        if healthz(url):
            return
        time.sleep(min(next(sleeps),
                       max(0.0, deadline - time.monotonic())))
    raise ServiceClientError(
        "service at {} not healthy within {:.0f}s".format(url, timeout),
        transient=True)


def submit(url: str, submission: SweepSubmission,
           retries: int = 0) -> Dict:
    """Submit a sweep.  With a retry budget the submission is made
    explicitly idempotent: if it carries no ``idempotency_key`` one is
    derived from its content, so a retry after a lost response lands on
    the original submission instead of creating a duplicate."""
    if retries > 0 and submission.idempotency_key is None:
        submission = replace(
            submission,
            idempotency_key=submission.content_idempotency_key())
    return request(url, "POST", "/submit", submission.to_dict(),
                   retries=retries)


def status(url: str, submission_id: str, retries: int = 0) -> Dict:
    return request(url, "GET", "/status/{}".format(submission_id),
                   retries=retries)


def fetch(url: str, submission_id: str, retries: int = 0) -> Dict:
    return request(url, "GET", "/fetch/{}".format(submission_id),
                   retries=retries)


def release(url: str, worker: str, key: str, lease: str,
            reason: str = "", retries: int = 0) -> Dict:
    """Hand a leased cell back without completing or failing it."""
    return request(url, "POST", "/release",
                   {"worker": worker, "key": key, "lease": lease,
                    "reason": reason}, retries=retries)


def heartbeat(url: str, worker: str, key: str, lease: str,
              timeout: float = 10.0) -> Dict:
    """Extend a live lease (no retries: the next beat is the retry)."""
    return request(url, "POST", "/heartbeat",
                   {"worker": worker, "key": key, "lease": lease},
                   timeout=timeout)


def metrics(url: str) -> Dict:
    """The scheduler's JSON metrics dict (the Prometheus text default
    of bare ``/metrics`` is for scrapers; see :func:`metrics_text`)."""
    return request(url, "GET", "/metrics?format=json")


def metrics_text(url: str, timeout: float = 60.0) -> str:
    """The Prometheus text exposition from bare ``GET /metrics``."""
    full = url.rstrip("/") + "/metrics"
    req = urllib.request.Request(full, method="GET")
    try:
        with urllib.request.urlopen(req, timeout=timeout) as response:
            return response.read().decode("utf-8")
    except (urllib.error.URLError, OSError, TimeoutError) as exc:
        raise ServiceClientError("GET {}: {}".format(full, exc),
                                 transient=True) from None


def wait_done(url: str, submission_id: str,
              timeout: float = 600.0) -> Dict:
    """Poll ``/status`` until the submission leaves ``running``; returns
    the final status (state ``done`` or ``failed``).

    Polls back off exponentially from ``DONE_POLL_BASE`` with jitter
    (deadline semantics unchanged), and each transient poll failure —
    the status GET is idempotent — retries within ``DONE_POLL_RETRIES``
    instead of aborting the whole wait."""
    deadline = time.monotonic() + timeout
    sleeps = backoff_intervals(DONE_POLL_BASE, RETRY_BACKOFF_CAP)
    while True:
        current = status(url, submission_id, retries=DONE_POLL_RETRIES)
        if current["state"] != "running":
            return current
        if time.monotonic() >= deadline:
            raise ServiceClientError(
                "submission {} still running after {:.0f}s ({} of {} "
                "cells pending)".format(
                    submission_id, timeout,
                    current["cells_total"] - current["cells_done"],
                    current["cells_total"]), transient=True)
        time.sleep(min(next(sleeps),
                       max(0.0, deadline - time.monotonic())))
