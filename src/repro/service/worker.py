"""Sweep-service worker: lease, run, report, repeat.

``python -m repro.service.worker --url http://HOST:PORT`` long-polls
the scheduler for cell leases, executes each via the harness's own
:func:`~repro.harness.parallel.run_cell_timed` (the same code path as
serial and multiprocessing sweeps — byte-identity by construction, not
by luck) and reports the result plus its per-phase wall-clock seconds
(surfaced in the scheduler's ``/status`` breakdown):

* with ``--store DIR`` (co-located deployment, the default when
  ``serve --workers N`` spawns workers) the worker writes the
  content-addressed store itself — atomic temp + rename, orphan temps
  reclaimed on open — and sends a zero-copy ``stored=true`` complete;
* without it (remote host) the result travels inline in the complete
  request as plain JSON.

A worker is stateless and expendable: ``kill -9`` at any point loses at
most the lease it was holding, which the scheduler re-leases after the
TTL.  Three hardening behaviors on top of that:

* **Heartbeats** — while a cell runs, a daemon thread beats
  ``POST /heartbeat`` every third of the lease TTL, so a slow cell
  keeps its lease and only a *dead* worker's lease expires.
* **Graceful SIGTERM drain** — SIGTERM asks the worker to finish (and
  report) its in-flight cell, release any lease it cannot run, and
  exit 0; only SIGKILL loses a lease to the TTL now.
* **Release over fail** — an environmental store error (ENOSPC, ...)
  hands the lease back via ``POST /release`` so the cell retries
  elsewhere without burning an attempt; ``/fail`` stays reserved for
  deterministic cell exceptions.  Complete/fail/release requests carry
  retry budgets, so a dropped response never kills the worker —
  idempotency on the scheduler absorbs the duplicates.

Fault injection flows through one seeded mechanism: an active
:mod:`repro.chaos` plan (``REPRO_CHAOS_PLAN``) can ``delay`` a cell,
``hang`` it past the lease TTL (heartbeats suppressed, so expiry
really triggers), ``sigterm`` the worker mid-cell (exercising drain),
or crash it hard — ``crash_before_complete`` (exit 86 after computing,
before any store write) and ``crash_after_store`` (exit 86 after the
store write, before the complete).  Decisions are keyed by (cell key,
lease attempt): a plan scoped to ``attempts: [1]`` crashes each chosen
cell exactly once and the retry always lands.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
import threading
import time
import traceback
from dataclasses import replace
from typing import Optional, Sequence

from ..chaos import plan as chaos_plan
from ..harness.parallel import SweepTask, run_cell_timed
from ..obs import log as obs_log
from ..obs import trace as obs_trace
from . import client
from .client import ServiceClientError
from .store import CellStore

_log = obs_log.get_logger("repro.worker")

#: Exit code of a chaos-injected hard crash — distinctive so a soak
#: supervisor can count *injected* crashes apart from real failures.
CHAOS_CRASH_EXIT = 86

#: Retry budget for complete/fail/release reports (idempotent on the
#: scheduler, so retrying a dropped response is always safe).
REPORT_RETRIES = 4


class _Heartbeat:
    """Daemon thread beating ``POST /heartbeat`` for one leased cell.

    ``pause()`` silences it (the chaos ``hang`` fault uses this: a hung
    worker is exactly one that stops heartbeating without dying, so the
    lease must expire and re-lease).  Beat failures are swallowed — the
    next beat is the retry, and a dead scheduler surfaces in the main
    loop anyway.
    """

    def __init__(self, url: str, worker: str, key: str, lease: str,
                 ttl: float):
        self.url = url
        self.worker = worker
        self.key = key
        self.lease = lease
        self.interval = max(0.1, ttl / 3.0)
        self._stop = threading.Event()
        self._paused = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def start(self) -> "_Heartbeat":
        self._thread.start()
        return self

    def pause(self) -> None:
        self._paused.set()

    def resume(self) -> None:
        self._paused.clear()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=2.0)

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            if self._paused.is_set():
                continue
            try:
                client.heartbeat(self.url, self.worker, self.key,
                                 self.lease, timeout=5.0)
            except ServiceClientError:
                pass


def _chaos_crash(site_fault: str, wid: str, key: str,
                 attempt: int) -> None:
    """Die the way a chaos plan asked: hard, now, with the marker code."""
    _log.warning("chaos_crash", worker=wid, fault=site_fault,
                 key=key[:12], attempt=attempt, exit=CHAOS_CRASH_EXIT)
    sys.stderr.flush()
    os._exit(CHAOS_CRASH_EXIT)


def _report(url: str, path: str, body: dict, wid: str,
            key: str) -> bool:
    """Send a complete/fail/release, retrying transients.  Returns False
    when the budget runs out — the worker moves on and lets lease
    expiry plus idempotent re-completion settle the cell."""
    try:
        client.request(url, "POST", path, body, retries=REPORT_RETRIES)
        return True
    except ServiceClientError as exc:
        _log.warning("report_lost", worker=wid, path=path,
                     key=key[:12], error=str(exc)[:160])
        return False


def work_loop(url: str,
              store: Optional[CellStore] = None,
              worker_id: Optional[str] = None,
              poll_seconds: float = 5.0,
              idle_exit_seconds: Optional[float] = None,
              max_cells: Optional[int] = None,
              max_connect_failures: int = 30,
              compile_cache_dir: Optional[str] = None,
              drain: Optional[threading.Event] = None,
              verbose: bool = False) -> int:
    """Run the lease/execute/report loop; returns completed-cell count.

    Exits when ``max_cells`` is reached, the queue stays empty for
    ``idle_exit_seconds`` (both default to "never"), or ``drain`` is
    set (graceful SIGTERM: finish the in-flight cell, release anything
    unrunnable, exit).  Connection failures back off and retry;
    ``max_connect_failures`` consecutive ones raise (the scheduler is
    gone for good).
    """
    wid = worker_id or "worker-{}".format(os.getpid())
    completed = 0
    connect_failures = 0
    idle_since = time.monotonic()
    while max_cells is None or completed < max_cells:
        if drain is not None and drain.is_set():
            _log.info("drain_exit", worker=wid, completed=completed)
            break
        try:
            reply = client.request(
                url, "POST", "/lease",
                {"worker": wid, "max_wait": poll_seconds,
                 "pid": os.getpid()},
                timeout=poll_seconds + 30.0)
            connect_failures = 0
        except ServiceClientError as exc:
            connect_failures += 1
            if connect_failures >= max_connect_failures:
                raise
            (_log.info if verbose else _log.debug)(
                "lease_failed", worker=wid, error=str(exc),
                consecutive=connect_failures)
            time.sleep(min(2.0, 0.1 * connect_failures))
            continue
        job = reply.get("job")
        if job is None:
            if idle_exit_seconds is not None and \
                    time.monotonic() - idle_since > idle_exit_seconds:
                break
            continue
        idle_since = time.monotonic()
        key, lease = job["key"], job["lease"]
        attempt = int(job.get("attempt", 1))
        lease_ttl = float(job.get("lease_ttl", 120.0))
        if drain is not None and drain.is_set():
            # SIGTERM landed between poll and grant: hand the cell
            # back explicitly instead of making the scheduler wait a
            # full TTL to notice.
            _report(url, "/release",
                    {"worker": wid, "key": key, "lease": lease,
                     "reason": "worker draining"}, wid, key)
            break
        task = SweepTask.from_dict(job["task"])
        if compile_cache_dir and task.compile_cache_dir is None:
            # Worker-local compile cache: a submitting client that set a
            # dir in the task wins; otherwise every worker on this host
            # shares the operator-configured store.
            task = replace(task, compile_cache_dir=compile_cache_dir)
        injector = chaos_plan.active()
        heart = _Heartbeat(url, wid, key, lease, lease_ttl).start()
        try:
            # -- the unified pre-execution fault window ------------------
            if injector is not None:
                rule = injector.decide("worker", "delay", key,
                                       attempt=attempt)
                if rule is not None:
                    time.sleep(float(rule.arg))
                rule = injector.decide("worker", "hang", key,
                                       attempt=attempt)
                if rule is not None:
                    # Hang past the lease TTL with heartbeats silenced:
                    # the scheduler must expire and re-lease, and this
                    # worker's eventual complete must land as a late,
                    # idempotent duplicate.
                    heart.pause()
                    time.sleep(float(rule.arg) if rule.arg
                               else lease_ttl * 1.5)
                    heart.resume()
                if injector.decide("worker", "sigterm", key,
                                   attempt=attempt):
                    _log.warning("chaos_sigterm", worker=wid,
                                 key=key[:12], attempt=attempt)
                    os.kill(os.getpid(), signal.SIGTERM)
            try:
                cell, timings = run_cell_timed(task)
            except Exception:
                _log.error("cell_failed", worker=wid, key=key[:12],
                           workload=task.spec_name, scheme=task.scheme)
                # The flight recorder holds every recent event
                # regardless of --log-level — dump it so the crash
                # context survives.
                obs_log.dump_flight_recorder(
                    reason="cell failure {} on {}".format(key[:12], wid))
                _report(url, "/fail",
                        {"worker": wid, "key": key, "lease": lease,
                         "error": traceback.format_exc()}, wid, key)
                continue
            if injector is not None and injector.decide(
                    "worker", "crash_before_complete", key,
                    attempt=attempt):
                _chaos_crash("worker/crash_before_complete", wid, key,
                             attempt)
            if store is not None:
                try:
                    store.put(key, cell)
                except OSError as exc:
                    # Environmental write failure (ENOSPC, ...): the
                    # cell is fine, the disk is not.  Release so it
                    # retries (possibly elsewhere) without burning an
                    # attempt or recording a spurious failure.
                    _log.warning("store_put_failed", worker=wid,
                                 key=key[:12],
                                 error=type(exc).__name__,
                                 detail=str(exc)[:160])
                    _report(url, "/release",
                            {"worker": wid, "key": key, "lease": lease,
                             "reason": "store write failed: {}".format(
                                 type(exc).__name__)}, wid, key)
                    continue
                if injector is not None and injector.decide(
                        "worker", "crash_after_store", key,
                        attempt=attempt):
                    _chaos_crash("worker/crash_after_store", wid, key,
                                 attempt)
                body = {"worker": wid, "key": key, "lease": lease,
                        "stored": True, "timings": timings}
            else:
                body = {"worker": wid, "key": key, "lease": lease,
                        "result": cell.to_dict(), "timings": timings}
        finally:
            heart.stop()
        _report(url, "/complete", body, wid, key)
        completed += 1
        (_log.info if verbose else _log.debug)(
            "cell_done", worker=wid, workload=task.spec_name,
            scheme=task.scheme, completed=completed,
            total_s=round(timings.get("total", 0.0), 3))
        if drain is not None and drain.is_set():
            _log.info("drain_exit", worker=wid, completed=completed)
            break
    return completed


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Sweep-service worker process (lease/run/report)")
    parser.add_argument("--url", required=True,
                        help="scheduler base URL, e.g. http://127.0.0.1:8731")
    parser.add_argument("--store", default=None,
                        help="co-located store directory (zero-copy "
                             "completes); omit on remote hosts")
    parser.add_argument("--worker-id", default=None)
    parser.add_argument("--poll", type=float, default=5.0,
                        help="lease long-poll seconds (default 5)")
    parser.add_argument("--idle-exit", type=float, default=None,
                        help="exit 0 after this many idle seconds "
                             "(default: run forever)")
    parser.add_argument("--max-cells", type=int, default=None,
                        help="exit after completing this many cells")
    parser.add_argument("--chaos-plan", default=None, metavar="FILE",
                        help="activate this FaultPlan JSON (equivalent "
                             "to REPRO_CHAOS_PLAN=FILE)")
    parser.add_argument("--compile-cache", default=None,
                        help="persistent compile-cache directory shared "
                             "by workers on this host")
    parser.add_argument("--trace", default=None, metavar="FILE",
                        help="export this worker's spans (and traced "
                             "cells' TELF tracks) as Chrome trace-event "
                             "JSON on exit")
    parser.add_argument("--verbose", action="store_true")
    obs_log.add_log_arguments(parser)
    args = parser.parse_args(argv)
    obs_log.configure_from_args(args)
    if args.chaos_plan:
        chaos_plan.activate(chaos_plan.load_plan(args.chaos_plan))
    store = CellStore(args.store) if args.store else None
    # Graceful drain: SIGTERM finishes (and reports) the in-flight
    # cell, releases anything unrunnable, and exits 0 — so `serve`
    # shutdown and rolling restarts never strand leases on the TTL.
    # Only SIGKILL is a crash now.
    drain = threading.Event()
    try:
        signal.signal(signal.SIGTERM,
                      lambda signum, frame: drain.set())
    except (ValueError, OSError):  # pragma: no cover - odd hosts
        pass
    if args.trace:
        obs_trace.start_tracing()
    try:
        work_loop(args.url, store=store, worker_id=args.worker_id,
                  poll_seconds=args.poll,
                  idle_exit_seconds=args.idle_exit,
                  max_cells=args.max_cells,
                  compile_cache_dir=args.compile_cache,
                  drain=drain,
                  verbose=args.verbose)
    except ServiceClientError as exc:
        print("worker error: {}".format(exc), file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        return 130
    finally:
        if args.trace:
            obs_trace.stop_tracing()
            trace_doc = obs_trace.export(args.trace)
            _log.info("trace_written", path=args.trace,
                      events=len(trace_doc["traceEvents"]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
