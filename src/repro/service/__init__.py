"""Sweep-as-a-service: a distributed, resumable evaluation fabric.

The harness already has the hard parts of a job service — picklable
:class:`~repro.harness.parallel.SweepTask` cells, a content-addressed
on-disk result cache (v3 keys), byte-identical serial/parallel
artifacts.  This package promotes it to a running service:

* :mod:`repro.service.store` — :class:`CellStore`, the shared
  content-addressed result store: the harness's
  :class:`~repro.diskcache.PickleDirStore` plus traffic counters, so
  any ``--cache-dir`` from a past sweep is a valid warm store and the
  service's store warms future offline sweeps.
* :mod:`repro.service.scheduler` — the synchronous :class:`Scheduler`
  state machine: shards each submitted
  :class:`~repro.harness.spec.SweepSpec` grid into per-cell jobs,
  dedupes identical cells across concurrent submissions (two users
  sweeping overlapping grids pay for each cell once), leases jobs in the
  order they were queued, and re-leases cells whose worker died (lease
  TTL).  No asyncio, no sockets, no waiting.
* :mod:`repro.service.http` — a stdlib-only HTTP/1.1 shell on asyncio
  streams and the only place the service waits: ``/submit``,
  ``/status``, ``/fetch``, ``/metrics`` for clients; ``/lease`` (a
  long-poll), ``/complete``, ``/fail`` for workers; plus the
  lease-expiry timer.
* :mod:`repro.service.worker` — the worker process: long-polls for
  leases, runs :func:`~repro.harness.parallel.run_cell`, streams the
  result back (or straight into a co-located store).
* :mod:`repro.service.client` — stdlib urllib client used by the CLI,
  the tests and CI.

Run it::

    python -m repro.service serve --port 8731 --store /tmp/store --workers 4
    python -m repro.service submit --url http://127.0.0.1:8731 \
        --workloads bv_n400 --schemes bisp lockstep --scale 0.05 --wait
    python -m repro.service status --url http://127.0.0.1:8731 <id>
    python -m repro.service fetch  --url http://127.0.0.1:8731 <id> --out .

Resume is structural, not stateful: the store is the source of truth.
A scheduler that dies mid-sweep is restarted and the sweep resubmitted —
every completed cell is an instant store hit and only the remainder
runs.  A worker killed mid-cell (``kill -9``) leaves no torn write
(atomic temp-file + rename, orphan temps reclaimed on store open) and
its lease expires, so the cell is re-leased exactly once per death.
Fetched artifacts are byte-identical (``results_sha256``) to a serial
:func:`~repro.harness.sweep.run_sweep` of the same spec.
"""

from .scheduler import Scheduler, ServiceCounters  # noqa: F401
from .store import CellStore  # noqa: F401

__all__ = ["Scheduler", "ServiceCounters", "CellStore"]
