"""``python -m repro.service`` — the sweep-service command line.

Subcommands::

    serve    boot the scheduler + HTTP API (optionally spawning workers)
    submit   submit a sweep (same grid flags as repro.harness.sweep)
    status   poll one submission
    fetch    download a finished submission's BENCH artifact
    metrics  dump the scheduler's counters

A one-box quickstart::

    python -m repro.service serve --port 8731 --store /tmp/store --workers 4 &
    python -m repro.service submit --url http://127.0.0.1:8731 \
        --tags paper --schemes bisp lockstep --scale 0.05 --wait --out bench-artifacts
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from typing import List, Optional, Sequence

import asyncio

from ..chaos import plan as chaos_plan
from ..errors import ReproError
from ..harness.benchjson import make_bench, write_bench
from ..harness.spec import SweepSubmission
from ..harness.sweep import add_spec_arguments, run_sweep, \
    spec_from_args
from ..obs import log as obs_log
from . import client
from .client import ServiceClientError
from .http import ServiceServer
from .scheduler import Scheduler
from .store import CellStore

_log = obs_log.get_logger("repro.service")


def _repro_pythonpath() -> str:
    """PYTHONPATH for spawned workers: the parent's plus wherever this
    ``repro`` package was imported from (subprocesses do not inherit
    pytest's ``pythonpath`` or an in-process ``sys.path`` edit)."""
    import repro

    package_root = os.path.dirname(
        os.path.dirname(os.path.abspath(repro.__file__)))
    current = os.environ.get("PYTHONPATH", "")
    if package_root in current.split(os.pathsep):
        return current
    return package_root + (os.pathsep + current if current else "")


def spawn_worker(url: str, store: Optional[str] = None,
                 poll_seconds: float = 5.0,
                 worker_id: Optional[str] = None,
                 log_level: Optional[str] = None,
                 log_json: bool = False,
                 trace: Optional[str] = None,
                 compile_cache: Optional[str] = None,
                 chaos_plan_path: Optional[str] = None
                 ) -> subprocess.Popen:
    """Launch one worker subprocess against ``url`` (used by ``serve
    --workers N``, the tests and CI).  ``log_level``/``log_json``
    propagate the parent's logging configuration; ``trace`` makes the
    worker export its span trace to that path on exit;
    ``chaos_plan_path`` activates a fault plan in the worker (spawned
    workers also inherit ``REPRO_CHAOS_PLAN`` from the environment)."""
    command = [sys.executable, "-m", "repro.service.worker",
               "--url", url, "--poll", str(poll_seconds)]
    if store:
        command += ["--store", store]
    if worker_id:
        command += ["--worker-id", worker_id]
    if log_level:
        command += ["--log-level", log_level]
    if log_json:
        command += ["--log-json"]
    if trace:
        command += ["--trace", trace]
    if compile_cache:
        command += ["--compile-cache", compile_cache]
    if chaos_plan_path:
        command += ["--chaos-plan", chaos_plan_path]
    env = dict(os.environ, PYTHONPATH=_repro_pythonpath())
    return subprocess.Popen(command, env=env)


def _parse_quotas(values: Optional[Sequence[str]]) -> dict:
    quotas = {}
    for value in values or ():
        owner, _, limit = value.partition("=")
        if not owner or not limit.isdigit() or int(limit) < 1:
            raise ReproError(
                "--quota expects OWNER=N with N >= 1, got {!r}".format(
                    value))
        quotas[owner] = int(limit)
    return quotas


async def _serve(args) -> int:
    if args.chaos_plan:
        # Seeded fault injection in this process (scheduler + HTTP
        # response faults) and, via spawn_worker below, in every
        # co-located worker.
        injector = chaos_plan.activate(
            chaos_plan.load_plan(args.chaos_plan))
        _log.info("chaos_plan_loaded", path=args.chaos_plan,
                  seed=injector.plan.seed,
                  rules=len(injector.plan.rules))
    store = CellStore(args.store)
    scheduler = Scheduler(store, lease_ttl=args.lease_ttl,
                          max_attempts=args.max_attempts,
                          quotas=_parse_quotas(args.quota),
                          default_quota=args.default_quota)
    server = ServiceServer(scheduler, host=args.host, port=args.port)
    await server.start()
    # The boot line stays on stdout — it carries the ephemeral port and
    # is the one line a human (or a script) reads to find the service.
    print("repro sweep service on {} (store: {}, lease_ttl: {:g}s)".format(
        server.url, store.directory, args.lease_ttl), flush=True)
    workers: List[subprocess.Popen] = []
    for index in range(args.workers):
        workers.append(spawn_worker(
            server.url, store=store.directory,
            poll_seconds=args.worker_poll,
            worker_id="serve-worker-{}".format(index),
            log_level=args.log_level, log_json=args.log_json,
            trace=(args.worker_trace.format(index=index)
                   if args.worker_trace else None),
            compile_cache=args.compile_cache,
            chaos_plan_path=args.chaos_plan))
    if workers:
        _log.info("workers_spawned", count=len(workers),
                  pids=[p.pid for p in workers])
    stop = asyncio.Event()
    loop = asyncio.get_event_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(signum, stop.set)
        except NotImplementedError:  # pragma: no cover - non-POSIX
            pass
    serving = asyncio.ensure_future(server.serve_forever())
    try:
        await stop.wait()
    finally:
        serving.cancel()
        try:
            await serving
        except (asyncio.CancelledError, Exception):
            pass
        for process in workers:
            process.terminate()
        for process in workers:
            try:
                process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                process.kill()
        await server.close()
    return 0


def _cmd_serve(args) -> int:
    try:
        return asyncio.run(_serve(args))
    except KeyboardInterrupt:
        return 130


def _print_status(status: dict, quiet: bool) -> None:
    if quiet:
        return
    print("{id}: {state}  {done}/{total} cells done, {failed} failed  "
          "(store hits {sh}, dedup hits {dh}, misses {miss})".format(
              id=status["id"], state=status["state"],
              done=status["cells_done"], total=status["cells_total"],
              failed=status["cells_failed"], sh=status["store_hits"],
              dh=status["dedup_hits"], miss=status["misses"]))
    phases = status.get("phase_seconds") or {}
    if phases:
        print("  phases ({} timed cell(s)): ".format(
            status.get("cells_timed", 0)) + "  ".join(
            "{}={:.3f}s".format(phase, seconds)
            for phase, seconds in sorted(phases.items())))
    for key, error in status.get("errors", {}).items():
        print("  failed {}: {}".format(key[:12], error))


def _fetch_to(args, submission_id: str, name_hint: str) -> int:
    retries = getattr(args, "retries", 0)
    timeout = getattr(args, "timeout", 600.0)
    deadline = None
    while True:
        try:
            doc = client.fetch(args.url, submission_id, retries=retries)
            break
        except ServiceClientError as exc:
            # The scheduler requeues store-lost cells and asks us to
            # come back; honor that within the submit deadline.
            if "requeued for recompute" not in str(exc):
                raise
            if deadline is None:
                deadline = time.monotonic() + timeout
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise
            print("fetch: {}; waiting".format(exc), file=sys.stderr)
            client.wait_done(args.url, submission_id, timeout=remaining)
    if args.out:
        path = write_bench(args.out, doc)
        print("wrote {}".format(path))
    else:
        print(json.dumps(doc, indent=2, sort_keys=True))
    return 0


def _fallback_local(args, spec, reason: str) -> int:
    """Graceful degradation for ``submit --fallback local``: run the
    spec through the offline parallel harness against the same
    ``--cache-dir`` store the service would have used, and say so."""
    print("service unreachable ({}); falling back to the local "
          "parallel harness{}".format(
              reason, " against {}".format(args.cache_dir)
              if args.cache_dir else ""), file=sys.stderr)
    rows, stats = run_sweep(spec, cache_dir=args.cache_dir)
    doc = make_bench(args.name, rows, kind="sweep",
                     spec=spec.to_dict(),
                     cache={"hits": stats.hits, "misses": stats.misses})
    if args.out is not None:
        path = write_bench(args.out, doc)
        print("wrote {} (local fallback)".format(path))
    elif not args.quiet:
        print(json.dumps(doc, indent=2, sort_keys=True))
    return 0


def _cmd_submit(args) -> int:
    spec = spec_from_args(args)
    submission = SweepSubmission(spec=spec, name=args.name,
                                 owner=args.owner, priority=args.priority)
    try:
        status = client.submit(args.url, submission,
                               retries=args.retries)
    except ServiceClientError as exc:
        if args.fallback == "local" and exc.transient:
            return _fallback_local(args, spec, str(exc))
        raise
    if not args.quiet:
        print("submitted {} ({} cells)".format(
            status["id"], status["cells_total"]))
    wait = args.wait or args.out is not None
    if not wait:
        _print_status(status, args.quiet)
        return 0
    status = client.wait_done(args.url, status["id"],
                              timeout=args.timeout)
    _print_status(status, args.quiet)
    if status["state"] != "done":
        return 1
    if args.out is not None:
        return _fetch_to(args, status["id"], args.name)
    return 0


def _cmd_status(args) -> int:
    if args.wait:
        status = client.wait_done(args.url, args.id, timeout=args.timeout)
    else:
        status = client.status(args.url, args.id)
    _print_status(status, quiet=False)
    return 0 if status["state"] != "failed" else 1


def _cmd_fetch(args) -> int:
    return _fetch_to(args, args.id, args.id)


def _cmd_metrics(args) -> int:
    if args.format == "prometheus":
        sys.stdout.write(client.metrics_text(args.url))
        return 0
    print(json.dumps(client.metrics(args.url), indent=2, sort_keys=True))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Distributed resumable sweep evaluation service")
    commands = parser.add_subparsers(dest="command", required=True)

    serve = commands.add_parser(
        "serve", help="run the scheduler + HTTP API")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8731,
                       help="listen port (0 = ephemeral, printed on boot)")
    serve.add_argument("--store", required=True,
                       help="content-addressed store directory (shared "
                            "with workers and offline --cache-dir sweeps)")
    serve.add_argument("--workers", type=int, default=0,
                       help="co-located worker processes to spawn")
    serve.add_argument("--lease-ttl", type=float, default=120.0,
                       help="seconds before an unacknowledged cell is "
                            "re-leased (default 120)")
    serve.add_argument("--max-attempts", type=int, default=5,
                       help="lease attempts per cell before it fails")
    serve.add_argument("--quota", action="append", metavar="OWNER=N",
                       help="max in-flight leases for OWNER (repeatable)")
    serve.add_argument("--default-quota", type=int, default=None,
                       help="max in-flight leases for everyone else")
    serve.add_argument("--worker-poll", type=float, default=5.0,
                       help="spawned workers' long-poll seconds")
    serve.add_argument("--worker-trace", default=None,
                       metavar="TEMPLATE",
                       help="spawned workers export span traces to this "
                            "path ('{index}' expands per worker, e.g. "
                            "/tmp/worker-{index}.trace.json)")
    serve.add_argument("--compile-cache", default=None,
                       help="persistent compile-cache directory shared by "
                            "the spawned workers")
    serve.add_argument("--chaos-plan", default=None, metavar="FILE",
                       help="seeded FaultPlan JSON activated in the "
                            "scheduler and every spawned worker "
                            "(chaos testing; see repro.chaos)")
    obs_log.add_log_arguments(serve)
    serve.set_defaults(run=_cmd_serve)

    submit = commands.add_parser(
        "submit", help="submit a sweep (same grid flags as "
                       "repro.harness.sweep)")
    submit.add_argument("--url", required=True)
    add_spec_arguments(submit)
    submit.add_argument("--name", default="sweep",
                        help="artifact name (BENCH_<name>.json on fetch)")
    submit.add_argument("--owner", default="anonymous",
                        help="quota account this submission bills")
    submit.add_argument("--priority", type=int, default=0,
                        help="0 = most urgent; higher waits longer")
    submit.add_argument("--wait", action="store_true",
                        help="block until the submission finishes")
    submit.add_argument("--timeout", type=float, default=600.0,
                        help="--wait/--out timeout seconds")
    submit.add_argument("--out", default=None, metavar="DIR",
                        help="after finishing, fetch the artifact into "
                             "DIR (implies --wait)")
    submit.add_argument("--retries", type=int, default=2,
                        help="transient-failure retry budget per request "
                             "(submit carries a content-derived "
                             "idempotency key when > 0; default 2)")
    submit.add_argument("--fallback", choices=("none", "local"),
                        default="none",
                        help="'local': if the service stays unreachable "
                             "after the retry budget, run the sweep "
                             "through the offline parallel harness "
                             "instead (same --cache-dir store)")
    submit.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="result-cache directory for --fallback "
                             "local (use the service's store directory "
                             "to share work)")
    submit.add_argument("--quiet", action="store_true")
    obs_log.add_log_arguments(submit)
    submit.set_defaults(run=_cmd_submit)

    status = commands.add_parser("status", help="poll one submission")
    status.add_argument("--url", required=True)
    status.add_argument("id")
    status.add_argument("--wait", action="store_true")
    status.add_argument("--timeout", type=float, default=600.0)
    status.set_defaults(run=_cmd_status)

    fetch = commands.add_parser(
        "fetch", help="download a finished submission's BENCH artifact")
    fetch.add_argument("--url", required=True)
    fetch.add_argument("id")
    fetch.add_argument("--out", default=None, metavar="DIR",
                       help="write BENCH_<name>.json here (default: "
                            "print to stdout)")
    fetch.set_defaults(run=_cmd_fetch)

    metrics = commands.add_parser(
        "metrics", help="dump the scheduler's counters")
    metrics.add_argument("--url", required=True)
    metrics.add_argument("--format", choices=("json", "prometheus"),
                         default="json",
                         help="json (default) or the raw Prometheus "
                              "text exposition")
    metrics.set_defaults(run=_cmd_metrics)

    args = parser.parse_args(argv)
    obs_log.configure_from_args(args)
    try:
        return args.run(args)
    except (ServiceClientError, ReproError, OSError) as exc:
        print("error: {}".format(exc), file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
