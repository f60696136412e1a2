"""Synchronous sweep scheduler: shard, dedupe, lease, resume.

One :class:`Scheduler` instance owns the live state of the service —
submissions, the per-cell job table, the FIFO queue and the lease
book.  All of it is *soft* state: results live in the content-addressed
:class:`~repro.service.store.CellStore`, so a scheduler restart plus a
resubmission resumes any sweep from its completed cells.

The scheduler is a plain state machine: every method is an ordinary
call, and nothing here waits, sleeps or knows about sockets.  Whenever
grantable work may have appeared (a job queued or requeued) it
bumps :attr:`Scheduler.work_seq`; the HTTP shell
(:class:`~repro.service.http.ServiceServer`) owns the only wait — it
parks ``/lease`` long-polls, wakes them when ``work_seq`` moves, and
runs the lease-expiry timer.  The offline executor
(:func:`~repro.harness.parallel.run_tasks`) does not drive this state
machine: it has no leases, TTLs or dedup to drive.

Sharding and dedup
    ``submit`` expands a :class:`~repro.harness.spec.SweepSubmission`'s
    grid into :class:`~repro.harness.parallel.SweepTask` cells keyed by
    the harness's v3 content hash.  A cell already in the store is an
    immediate *store hit*; a cell another live submission is already
    computing is a *dedup hit* (the submission just subscribes to the
    existing job); only genuinely new cells become jobs.  Two users
    sweeping overlapping grids pay for each overlapping cell once.

FIFO leasing
    Jobs are leased in the order they were queued; a job handed back by
    ``release`` or lease expiry rejoins at the back.  A submission's
    ``owner`` is a label that ``/status`` echoes, not a scheduling input.

Leases and crash resume
    Workers long-poll ``/lease``; each grant carries a lease id and a
    TTL.  A worker that dies mid-cell simply stops heartbeating —
    when the TTL lapses, ``expire_leases`` requeues the job (re-leased
    exactly once per death) until ``max_attempts`` is reached.  Results
    are pure functions of the cell key, so a late complete from a
    presumed-dead worker is accepted idempotently, never a conflict.

Hardening (the chaos-fabric contract)
    ``heartbeat`` lets a slow-but-alive worker extend its lease, so
    TTL expiry distinguishes *dead* from *slow*; ``release`` hands a
    lease back voluntarily (graceful drain, ENOSPC) without burning a
    retry attempt or recording a failure.  ``submit`` deduplicates
    retried requests via the submission's ``idempotency_key``, and its
    store probe checksum-verifies the first sight of every key — a
    bit-rotted entry quarantines and recomputes instead of being
    served.  ``fetch`` requeues any cell the store lost (pruned or
    quarantined) and tells the client to retry, so corruption costs
    time, never correctness.  When a chaos plan is active
    (:mod:`repro.chaos`) the scheduler is itself an injection site:
    ``clock_skew`` ages leases artificially during the expiry sweep
    and ``duplicate_complete`` re-delivers a complete to prove
    idempotency.
"""

from __future__ import annotations

import re
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..chaos import plan as chaos_plan
from ..errors import ReproError
from ..harness.benchjson import make_bench
from ..harness.parallel import CellResult, SweepTask, tasks_from_spec
from ..harness.spec import SweepSubmission
from ..harness.sweep import sweep_rows
from ..noise.model import finite_real
from ..obs import metrics as _metrics
from .store import CellStore

#: Lease-grant latency (enqueue -> grant): the grant path runs per
#: cell, not per event, so the perf_counter cost is noise.
_LEASE_LATENCY = _metrics.histogram(
    "repro_service_lease_latency_seconds",
    "Seconds from job enqueue to lease grant")
_QUEUE_DEPTH = _metrics.gauge(
    "repro_service_queue_depth",
    "Queued (unleased) jobs at the last submit/grant")

#: Grants behind the JSON ``lease_latency`` percentiles: the most recent
#: ones only, so a long-lived service holds and sorts a bounded window
#: (``_LEASE_LATENCY`` still counts every grant for Prometheus).
LEASE_LATENCY_WINDOW = 4096

#: A :meth:`SweepTask.cache_key` (sha256 hexdigest); keys name store
#: files, so a worker-supplied key must match before reaching the store.
_CELL_KEY = re.compile(r"[0-9a-f]{64}")


class ServiceError(ReproError):
    """Protocol-level scheduler error (unknown id, bad lease, ...)."""


@dataclass
class ServiceCounters:
    """Deterministic counters of one scheduler's lifetime (the BENCH
    ``service`` row family reports these; timing detail is volatile)."""

    submissions: int = 0
    cells_total: int = 0
    store_hits: int = 0
    dedup_hits: int = 0
    misses: int = 0
    leases_granted: int = 0
    leases_expired: int = 0
    completes: int = 0
    late_completes: int = 0
    failures: int = 0
    releases: int = 0
    heartbeats: int = 0
    fetch_requeues: int = 0
    idempotent_replays: int = 0
    max_queue_depth: int = 0

    def hits(self) -> int:
        return self.store_hits + self.dedup_hits

    def hit_rate(self) -> float:
        if not self.cells_total:
            return 0.0
        return self.hits() / self.cells_total

    def to_dict(self) -> Dict[str, object]:
        data = dict(self.__dict__)
        data["hits"] = self.hits()
        data["hit_rate"] = self.hit_rate()
        return data


@dataclass
class _Job:
    """One live cell: a unit of work shared by every submission that
    wants it.  Exists only while queued or leased — completed cells
    live in the store, failed ones in the scheduler's failure table."""

    key: str
    task: SweepTask
    state: str = "queued"           # queued | leased
    attempts: int = 0
    waiters: List[str] = field(default_factory=list)
    lease_id: Optional[str] = None
    lease_worker: Optional[str] = None
    lease_deadline: float = 0.0
    enqueued_at: float = 0.0


@dataclass
class _Submission:
    """Scheduler-side record of one accepted submission."""

    id: str
    submission: SweepSubmission
    tasks: List[SweepTask]
    keys: List[str]
    pending: set
    store_hits: int = 0
    dedup_hits: int = 0
    misses: int = 0
    failed: Dict[str, str] = field(default_factory=dict)
    #: accumulated wall-clock seconds by phase (compile/simulate/noise/
    #: total) over this submission's *computed* cells, as reported by
    #: workers in /complete — store and dedup hits contribute nothing.
    phase_seconds: Dict[str, float] = field(default_factory=dict)
    cells_timed: int = 0

    @property
    def state(self) -> str:
        if self.failed:
            return "failed"
        return "done" if not self.pending else "running"

    def status(self) -> Dict[str, object]:
        total = len(self.keys)
        data = {
            "id": self.id,
            "name": self.submission.name,
            "owner": self.submission.owner,
            "state": self.state,
            "cells_total": total,
            "cells_done": total - len(self.pending) - len(self.failed),
            "cells_failed": len(self.failed),
            "store_hits": self.store_hits,
            "dedup_hits": self.dedup_hits,
            "misses": self.misses,
            "errors": {key: error.strip().splitlines()[-1]
                       for key, error in sorted(self.failed.items())},
            "phase_seconds": {phase: self.phase_seconds[phase]
                              for phase in sorted(self.phase_seconds)},
            "cells_timed": self.cells_timed,
        }
        if self.submission.idempotency_key is not None:
            # Echoed so a retrying client can confirm its key matched.
            data["idempotency_key"] = self.submission.idempotency_key
        return data


class Scheduler:
    """The synchronous sweep service core (see module docstring).

    ``lease_ttl`` is how long a worker may hold a cell without
    completing before the cell is re-leased; ``max_attempts`` bounds
    re-leasing of a cell that keeps killing its workers.  Not
    thread-safe: one caller at a time (the HTTP shell's event loop, or a
    test).
    """

    def __init__(self, store: CellStore,
                 lease_ttl: float = 120.0,
                 max_attempts: int = 5):
        if lease_ttl <= 0:
            raise ServiceError("lease_ttl must be > 0, got {}".format(
                lease_ttl))
        if max_attempts < 1:
            raise ServiceError("max_attempts must be >= 1, got {}".format(
                max_attempts))
        self.store = store
        self.lease_ttl = lease_ttl
        self.max_attempts = max_attempts
        self.counters = ServiceCounters()
        #: Bumped whenever grantable work may have appeared (a job was
        #: queued or requeued).  A ``lease`` that returned None can only
        #: succeed after this moves; the HTTP shell wakes parked
        #: long-polls exactly then.
        self.work_seq = 0
        self._submissions: Dict[str, _Submission] = {}
        self._jobs: Dict[str, _Job] = {}
        self._failed: Dict[str, str] = {}
        #: The queued subset of ``_jobs``, oldest first.
        self._queue: OrderedDict[str, _Job] = OrderedDict()
        self._lease_seq = 0
        self._submission_seq = 0
        self._workers: Dict[str, Dict[str, object]] = {}
        #: keys whose store entry this scheduler has checksum-verified
        #: at least once (later probes downgrade to a cheap stat).
        self._verified: set = set()
        #: idempotency_key -> submission id, for retry-safe /submit.
        self._idempotency: Dict[str, str] = {}
        #: seconds from job enqueue to lease grant of the most recent
        #: grants (volatile telemetry).
        self.lease_latencies = deque(maxlen=LEASE_LATENCY_WINDOW)

    # -- submission side ---------------------------------------------------

    def submit(self, submission: SweepSubmission) -> Dict[str, object]:
        """Accept a submission: shard, dedupe, enqueue.  Returns the
        initial status dict (possibly already ``done`` on a warm store).

        A submission carrying an ``idempotency_key`` the scheduler has
        already accepted returns the *original* submission's status
        (flagged ``resubmitted``) instead of creating a duplicate —
        the retry-safety contract behind the client's submit retries.
        """
        tasks = tasks_from_spec(submission.spec)
        if not tasks:
            raise ServiceError("submission resolves to an empty grid")
        keys = [task.cache_key() for task in tasks]
        idem = submission.idempotency_key
        if idem is not None and idem in self._idempotency:
            original = self._submissions.get(self._idempotency[idem])
            if original is not None:
                self.counters.idempotent_replays += 1
                replay = original.status()
                replay["resubmitted"] = True
                return replay
        self._submission_seq += 1
        sid = "s{:06d}".format(self._submission_seq)
        record = _Submission(id=sid, submission=submission,
                             tasks=tasks, keys=keys, pending=set())
        self.counters.submissions += 1
        self.counters.cells_total += len(tasks)
        if idem is not None:
            self._idempotency[idem] = sid
        for task, key in zip(tasks, keys):
            if key in self._failed:
                record.failed[key] = self._failed[key]
                continue
            job = self._jobs.get(key)
            if job is not None:
                # In-flight dedup: subscribe to the existing job.
                record.pending.add(key)
                record.dedup_hits += 1
                self.counters.dedup_hits += 1
                job.waiters.append(sid)
            elif self._store_has_verified(key):
                record.store_hits += 1
                self.counters.store_hits += 1
            else:
                record.pending.add(key)
                record.misses += 1
                self.counters.misses += 1
                self._enqueue(record, task, key)
        self._submissions[sid] = record
        depth = self.queue_depth()
        if depth > self.counters.max_queue_depth:
            self.counters.max_queue_depth = depth
        _QUEUE_DEPTH.set(depth)
        return record.status()

    def _store_has_verified(self, key: str) -> bool:
        """Submit-time store probe that trusts no stat: the first sight
        of each key actually loads and checksum-verifies the entry (a
        corrupt one is quarantined by the store and reported as a miss
        here, so it recomputes); later probes are cheap stats."""
        if key in self._verified:
            return self.store.has(key)
        if self.store.get(key) is not None:
            self._verified.add(key)
            return True
        return False

    def _enqueue(self, record: _Submission, task: SweepTask,
                 key: str) -> None:
        """Queue a new job for ``key`` on behalf of ``record``."""
        job = _Job(key=key, task=task, waiters=[record.id],
                   enqueued_at=time.monotonic())
        self._jobs[key] = job
        self._queue[key] = job
        self.work_seq += 1

    def _record(self, submission_id: str) -> _Submission:
        record = self._submissions.get(submission_id)
        if record is None:
            raise ServiceError("unknown submission {!r} (known: {})".format(
                submission_id, sorted(self._submissions)))
        return record

    def status(self, submission_id: str) -> Dict[str, object]:
        return self._record(submission_id).status()

    def fetch(self, submission_id: str) -> Dict[str, object]:
        """Assemble the finished submission's BENCH document.

        Rows come from :func:`~repro.harness.sweep.sweep_rows` over the
        *stored* cells — the exact code path of the offline sweep CLI —
        so ``results_sha256`` is byte-identical to a serial
        :func:`~repro.harness.sweep.run_sweep` of the same spec.

        Every cell is loaded through the store's checksum verification;
        a cell the store lost since completion (pruned, or bit-rotted
        and quarantined by the read) is **requeued for recompute** and
        the fetch raises a retryable :class:`ServiceError` — the
        submission goes back to ``running`` until the cell lands again.
        """
        record = self._record(submission_id)
        if record.state != "done":
            raise ServiceError(
                "submission {} is {} ({} of {} cells pending)".format(
                    submission_id, record.state, len(record.pending),
                    len(record.keys)))
        results: Dict[Tuple[str, str, float, int], CellResult] = {}
        lost = 0
        for task, key in zip(record.tasks, record.keys):
            cell = self.store.get(key)
            if cell is not None:
                results[task.key()] = cell
                continue
            # Put the lost cell back into the job table on behalf of
            # ``record``; it re-runs through the normal lease machinery.
            lost += 1
            self._verified.discard(key)
            record.pending.add(key)
            self.counters.fetch_requeues += 1
            job = self._jobs.get(key)
            if job is None:
                self._enqueue(record, task, key)
            elif record.id not in job.waiters:
                job.waiters.append(record.id)
        if lost:
            raise ServiceError(
                "store lost {} cell(s) of submission {} (pruned or "
                "quarantined); requeued for recompute — poll status "
                "and retry the fetch".format(lost, submission_id))
        rows = sweep_rows(record.tasks, results)
        return make_bench(
            record.submission.name, rows, kind="sweep",
            spec=record.submission.spec.to_dict(),
            cache={"hits": record.store_hits + record.dedup_hits,
                   "misses": record.misses})

    # -- worker side -------------------------------------------------------

    def lease(self, worker: str,
              pid: Optional[int] = None) -> Optional[Dict[str, object]]:
        """Grant ``worker`` the oldest queued job, or return None when
        the queue is empty."""
        if not self._queue:
            return None
        _, job = self._queue.popitem(last=False)
        now = time.monotonic()
        job.state = "leased"
        job.attempts += 1
        self._lease_seq += 1
        job.lease_id = "L{:08d}".format(self._lease_seq)
        job.lease_worker = worker
        job.lease_deadline = now + self.lease_ttl
        self.counters.leases_granted += 1
        self.lease_latencies.append(now - job.enqueued_at)
        _LEASE_LATENCY.observe(now - job.enqueued_at)
        seen = self._workers.setdefault(worker, {"leases": 0})
        seen["leases"] = int(seen["leases"]) + 1
        if pid is not None:
            seen["pid"] = pid
        return {"key": job.key, "lease": job.lease_id,
                "attempt": job.attempts,
                "lease_ttl": self.lease_ttl,
                "task": job.task.to_dict()}

    def _requeue(self, job: _Job, now: float) -> None:
        """Put a leased job back at the end of the queue (release or
        expiry)."""
        job.lease_id = None
        job.lease_worker = None
        job.state = "queued"
        job.enqueued_at = now
        self._queue[job.key] = job

    def complete(self, worker: str, key: str, lease: str,
                 result: Optional[Dict[str, object]] = None,
                 stored: bool = False,
                 timings: Optional[Dict[str, float]] = None,
                 ) -> Dict[str, object]:
        """Record a finished cell.

        Remote workers ship the result inline (``result`` = the
        :meth:`~repro.harness.parallel.CellResult.to_dict` payload, the
        scheduler writes the store); co-located workers write the store
        themselves and send ``stored=True`` (zero-copy complete).  Cells
        are pure functions of their key, so completes are idempotent:
        a late complete from an expired lease still lands the result.

        ``timings`` is the worker's optional per-phase wall-clock dict
        (``{"compile": s, "simulate": s, "noise": s, "total": s}`` from
        :func:`~repro.harness.parallel.run_cell_timed`); it is volatile
        telemetry, accumulated into each subscribed submission's
        ``phase_seconds`` status breakdown and never into results.

        A malformed key, timing or inline result raises before anything
        reaches the store; the cell stays leased for a well-formed
        complete.
        """
        if not _CELL_KEY.fullmatch(key):
            raise ServiceError(
                "bad cell key {!r}: expected 64 lowercase hex "
                "characters".format(key[:80]))
        if timings is not None:
            if not isinstance(timings, dict):
                raise ServiceError("timings must be an object")
            for phase, seconds in timings.items():
                if not finite_real(seconds) or seconds < 0:
                    raise ServiceError(
                        "timing {!r} must be a finite, non-negative "
                        "number of seconds, got {!r}".format(phase, seconds))
        if result is None and not stored:
            raise ServiceError(
                "complete needs a result payload or stored=true")
        if result is not None:
            cell = CellResult.from_dict(result)
            self.store.put(key, cell)
        elif not self.store.has(key):
            raise ServiceError(
                "worker {} reported stored={} but the store has no "
                "entry".format(worker, key[:12]))
        injector = chaos_plan.active()
        deliveries = 1
        if injector is not None and injector.decide(
                "scheduler", "duplicate_complete", key, lease):
            # A retried request whose first delivery actually landed:
            # process the complete twice and let idempotency absorb it.
            deliveries = 2
        replies = [self._settle_complete(key, lease, timings)
                   for _ in range(deliveries)]
        return replies[0]

    def _settle_complete(self, key: str, lease: str,
                         timings: Optional[Dict[str, float]]
                         ) -> Dict[str, object]:
        """One delivery of a complete whose result is already stored."""
        job = self._jobs.pop(key, None)
        if job is None:
            # Job already finished (another worker's late double) — the
            # store write was idempotent; just count it.
            self.counters.late_completes += 1
            return {"ok": True, "late": True}
        self._queue.pop(key, None)
        late = job.lease_id != lease or job.state != "leased"
        if late:
            self.counters.late_completes += 1
        self.counters.completes += 1
        if timings:
            self._record_timings(job, timings)
        self._finish(job, error=None)
        return {"ok": True, "late": late}

    def fail(self, worker: str, key: str, lease: str,
             error: str) -> Dict[str, object]:
        """Record a cell that raised on a worker.  Exceptions are
        deterministic for a fixed cell, so failed cells are not retried;
        every subscribed submission reports the failure.  An error with
        no visible text raises before anything changes (``status``
        reports each error's last line), so the cell stays leased."""
        if not error.strip():
            raise ServiceError("fail needs a non-blank error message")
        job = self._jobs.pop(key, None)
        if job is None:
            self.counters.late_completes += 1
            return {"ok": True, "late": True}
        self._queue.pop(key, None)
        self._finish(job, error=error)
        return {"ok": True, "late": False}

    def release(self, worker: str, key: str, lease: str,
                reason: str = "") -> Dict[str, object]:
        """Hand a leased cell back voluntarily (graceful SIGTERM drain,
        ENOSPC on the store write).  The job rejoins the back of the
        queue; unlike expiry this consumes no retry attempt and records
        no failure — the environment hiccuped, not the cell."""
        job = self._jobs.get(key)
        if job is None or job.state != "leased" or job.lease_id != lease:
            self.counters.late_completes += 1
            return {"ok": True, "late": True}
        self.counters.releases += 1
        job.attempts = max(0, job.attempts - 1)
        self._requeue(job, time.monotonic())
        self.work_seq += 1
        return {"ok": True, "late": False, "reason": reason}

    def heartbeat(self, worker: str, key: str,
                  lease: str) -> Dict[str, object]:
        """A mid-cell liveness signal: extends the lease a full TTL so
        the expiry sweep can tell *slow* (heartbeating) from *dead*
        (silent) before giving the cell away."""
        self.counters.heartbeats += 1
        seen = self._workers.setdefault(worker, {"leases": 0})
        seen["last_heartbeat"] = time.time()
        job = self._jobs.get(key)
        extended = (job is not None and job.state == "leased"
                    and job.lease_id == lease)
        if extended:
            job.lease_deadline = time.monotonic() + self.lease_ttl
        return {"ok": True, "extended": extended}

    def _record_timings(self, job: _Job,
                        timings: Dict[str, float]) -> None:
        """Fold a worker's per-phase seconds (checked by :meth:`complete`)
        into every subscribed submission's breakdown."""
        for sid in job.waiters:
            record = self._submissions.get(sid)
            if record is None:
                continue
            for phase, value in timings.items():
                record.phase_seconds[phase] = \
                    record.phase_seconds.get(phase, 0.0) + value
            record.cells_timed += 1

    def _finish(self, job: _Job, error: Optional[str]) -> None:
        """Settle ``job`` (already removed from the table) for every
        subscribed submission; a failure is also memoized so later
        submissions of the cell report it without re-running."""
        if error is not None:
            self.counters.failures += 1
            self._failed[job.key] = error
        for sid in job.waiters:
            record = self._submissions.get(sid)
            if record is None:
                continue
            record.pending.discard(job.key)
            if error is not None:
                record.failed[job.key] = error

    # -- lease expiry ------------------------------------------------------

    def expire_leases(self) -> int:
        """Requeue every job whose lease deadline passed; returns how
        many were re-leased (or failed out after ``max_attempts``).
        The HTTP shell calls this on a timer."""
        now = time.monotonic()
        injector = chaos_plan.active()
        if injector is not None:
            rule = injector.decide("scheduler", "clock_skew",
                                   injector.seq("clock_skew"))
            if rule is not None:
                # The expiry clock jumps forward: leases age early, so
                # live-but-slow workers get re-leased and their eventual
                # completes land late — exactly the skew the idempotent
                # complete path must absorb.
                now += float(rule.arg)
        expired = 0
        for job in list(self._jobs.values()):
            if job.state != "leased" or job.lease_deadline > now:
                continue
            expired += 1
            self.counters.leases_expired += 1
            if job.attempts >= self.max_attempts:
                self._jobs.pop(job.key, None)
                self._finish(job, error=(
                    "lease expired {} time(s); giving up after "
                    "max_attempts={}".format(job.attempts,
                                             self.max_attempts)))
            else:
                self._requeue(job, now)
        if expired:
            self.work_seq += 1
        return expired

    # -- observability -----------------------------------------------------

    def queue_depth(self) -> int:
        return len(self._queue)

    def _count_jobs(self, state: str) -> int:
        return sum(1 for job in self._jobs.values() if job.state == state)

    def _submission_states(self) -> Dict[str, int]:
        states = {"running": 0, "done": 0, "failed": 0}
        for record in self._submissions.values():
            states[record.state] += 1
        return states

    def metrics(self) -> Dict[str, object]:
        latencies = self.lease_latencies
        summary = None
        if latencies:
            ordered = sorted(latencies)
            summary = {
                # Every grant; the statistics cover the recent window.
                "count": self.counters.leases_granted,
                "mean_s": sum(ordered) / len(ordered),
                "p50_s": ordered[len(ordered) // 2],
                "p95_s": ordered[min(len(ordered) - 1,
                                     int(len(ordered) * 0.95))],
                "max_s": ordered[-1],
            }
        return {
            "counters": self.counters.to_dict(),
            "queue_depth": self.queue_depth(),
            "leased": self._count_jobs("leased"),
            "submissions": self._submission_states(),
            "workers": {name: dict(info)
                        for name, info in self._workers.items()},
            "lease_latency": summary,
            "store": self.store.counters(),
        }

    def prometheus(self) -> str:
        """The scheduler's state in Prometheus text exposition format.

        Scheduler lifetime counters render as ``repro_service_*_total``
        counters plus a few gauges; the process-wide
        :data:`repro.obs.metrics.REGISTRY` (lease-latency histogram,
        queue-depth gauge, any in-process harness metrics) is appended
        verbatim — no name overlaps by construction.
        """
        _QUEUE_DEPTH.set(self.queue_depth())
        counts = self.counters
        counter_names = (
            ("submissions", "repro_service_submissions_total"),
            ("cells_total", "repro_service_cells_total"),
            ("store_hits", "repro_service_store_hits_total"),
            ("dedup_hits", "repro_service_dedup_hits_total"),
            ("misses", "repro_service_misses_total"),
            ("leases_granted", "repro_service_leases_granted_total"),
            ("leases_expired", "repro_service_leases_expired_total"),
            ("completes", "repro_service_completes_total"),
            ("late_completes", "repro_service_late_completes_total"),
            ("failures", "repro_service_failures_total"),
            ("releases", "repro_service_releases_total"),
            ("heartbeats", "repro_service_heartbeats_total"),
            ("fetch_requeues", "repro_service_fetch_requeues_total"),
            ("idempotent_replays",
             "repro_service_idempotent_replays_total"),
        )
        lines: List[str] = []
        for attr, full in counter_names:
            lines.append("# TYPE {} counter".format(full))
            lines.append(_metrics.format_metric_line(
                full, getattr(counts, attr)))
        gauges = (
            ("repro_service_max_queue_depth", counts.max_queue_depth),
            ("repro_service_hit_rate", counts.hit_rate()),
            ("repro_service_leased", self._count_jobs("leased")),
            ("repro_service_workers", len(self._workers)),
        )
        for full, value in gauges:
            lines.append("# TYPE {} gauge".format(full))
            lines.append(_metrics.format_metric_line(full, value))
        lines.append("# TYPE repro_service_submission_states gauge")
        for state, count in sorted(self._submission_states().items()):
            lines.append(_metrics.format_metric_line(
                "repro_service_submission_states", count,
                labels={"state": state}))
        body = "\n".join(lines)
        return body + "\n" + _metrics.render_prometheus()
