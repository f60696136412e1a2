"""Seeded chaos soak: the sweep service survives an injected fault
schedule and still produces byte-identical results.

The contract under test is the chaos fabric's headline property:
**faults cost time, never correctness**.  One pinned
:class:`~repro.chaos.FaultPlan` seed drives the whole soak —

* ``worker/crash_before_complete`` (rate 0.5, attempt 1 only): each
  planned cell's first lease dies with exit 86 after computing, before
  any store write; the supervisor respawns the worker and the TTL
  re-lease lands the retry.
* ``diskcache/corrupt`` (rate 0.45): each planned store key's payload
  is bit-flipped *under a good checksum* on put — only get-side
  verification can notice; the entry quarantines to ``<key>.corrupt``
  and recomputes.
* ``http/drop`` + ``http/error_500`` (rate 1.0 with per-process
  budgets): the scheduler swallows its first ``DROP_BUDGET`` responses
  and 500s the next ``ERROR_500_BUDGET``, exercising every client
  retry path; budgets are verifiably exhausted, so the counts are
  exact.
* ``scheduler/duplicate_complete`` (budgeted): completes are delivered
  twice to prove idempotency.

Mid-soak the scheduler is SIGKILLed and restarted on the same store
(the crash-resume path), so half the grid computes under each
scheduler incarnation.  The soak then asserts:

* the fetched ``results_sha256`` (and the rows themselves) are
  byte-identical to a serial in-process ``run_sweep`` of the same spec;
* worker crashes and store quarantines match the victim sets
  *re-derived* from the plan file (``FaultPlan.planned`` is pure, so
  replaying the seed reproduces the injected-fault counters);
* >= 3 crashes, >= 2 quarantines, and >= 5% of all attempted responses
  dropped (``repro_chaos_injected_total`` over
  ``repro_http_responses_total``, scraped from both schedulers);
* zero leaked ``*.tmp`` files and zero live leases at the end.

Deterministic fault counters land in the digested ``kind="chaos"``
BENCH row; traffic- and timing-coupled values (wall clock, response
totals, retries' side effects) stay in ``volatile``.
"""

import os
import re
import signal
import subprocess
import sys
import time

import pytest

from repro.chaos import FaultPlan, FaultRule
from repro.harness.benchjson import make_bench
from repro.harness.parallel import tasks_from_spec
from repro.harness.spec import SweepSpec, SweepSubmission
from repro.harness.sweep import run_sweep
from repro.service import client
from repro.service.client import ServiceClientError
from repro.service.store import CellStore
from repro.service.worker import CHAOS_CRASH_EXIT
from repro.testing import subprocess_env

#: Pinned soak seed: over this 8-cell grid it plans 3 cell crashes and
#: 2 store corruptions (one key is both, so it crashes again on the
#: post-quarantine recompute -> 4 crashes total).  Overridable for
#: exploration; the floor assertions below keep any override honest.
SOAK_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "20260820"))

WORKLOADS = ("bv_n400", "qft_n30", "repetition_d25", "hidden_shift_n64")
SCHEMES = ("bisp", "lockstep")
SCALE = 0.02
WORKERS = 2
LEASE_TTL = 2.0
#: Per-scheduler-process budgets for the rate-1.0 HTTP faults.  Rate
#: 1.0 + a budget the startup traffic surely exhausts = a deterministic
#: injected count (verified by scraping the chaos counter from each
#: scheduler), which is what lets ``faults_http`` live in the digested
#: row instead of volatile.
DROP_BUDGET = 12
ERROR_500_BUDGET = 5
DUP_COMPLETE_BUDGET = 2
SOAK_TIMEOUT_S = 420.0


def soak_plan(seed: int) -> FaultPlan:
    return FaultPlan(seed=seed, name="soak", rules=(
        FaultRule(site="worker", fault="crash_before_complete",
                  rate=0.5, attempts=(1,)),
        FaultRule(site="diskcache", fault="corrupt", rate=0.45),
        FaultRule(site="http", fault="drop", rate=1.0,
                  max_injections=DROP_BUDGET),
        FaultRule(site="http", fault="error_500", rate=1.0,
                  max_injections=ERROR_500_BUDGET),
        FaultRule(site="scheduler", fault="duplicate_complete",
                  rate=1.0, max_injections=DUP_COMPLETE_BUDGET),
    ))


def full_spec() -> SweepSpec:
    return SweepSpec(workloads=WORKLOADS, schemes=SCHEMES,
                     scales=(SCALE,), shots=(1,))


def first_half_spec() -> SweepSpec:
    return SweepSpec(workloads=WORKLOADS[:2], schemes=SCHEMES,
                     scales=(SCALE,), shots=(1,))


def free_port() -> int:
    import socket
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


_METRIC_LINE = re.compile(
    r"^([A-Za-z_:][A-Za-z0-9_:]*)(\{[^}]*\})?\s+([0-9.eE+-]+)\s*$")


def prom_value(text: str, name: str, **labels) -> float:
    """One sample from a Prometheus text exposition (0.0 if absent —
    a counter that never fired is never rendered)."""
    want = {k: str(v) for k, v in labels.items()}
    for line in text.splitlines():
        match = _METRIC_LINE.match(line)
        if match is None or match.group(1) != name:
            continue
        got = dict(re.findall(r'(\w+)="([^"]*)"', match.group(2) or ""))
        if got == want:
            return float(match.group(3))
    return 0.0


def scrape_prometheus(url: str) -> str:
    last = None
    for _ in range(8):
        try:
            return client.metrics_text(url, timeout=10.0)
        except ServiceClientError as exc:
            last = exc
            time.sleep(0.5)
    raise AssertionError("could not scrape {}/metrics: {}".format(url, last))


class ServeHandle:
    """One scheduler subprocess (`serve --workers 0` under the plan)."""

    def __init__(self, port: int, store: str, plan_path: str, env: dict):
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.service", "serve",
             "--port", str(port), "--store", store, "--workers", "0",
             "--lease-ttl", str(LEASE_TTL), "--chaos-plan", plan_path],
            env=env)

    def sigkill(self) -> None:
        self.proc.send_signal(signal.SIGKILL)
        self.proc.wait()

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


class WorkerFleet:
    """Two supervised workers; injected crashes (exit 86) are counted
    and the dead slot respawned — any other death is a soak failure."""

    def __init__(self, url: str, store: str, plan_path: str, env: dict,
                 count: int = WORKERS):
        self.url, self.store = url, store
        self.plan_path, self.env = plan_path, env
        self.crashes = 0
        self.respawns = 0
        self._generation = 0
        self.procs = [self._spawn(i) for i in range(count)]

    def _spawn(self, index: int) -> subprocess.Popen:
        self._generation += 1
        return subprocess.Popen(
            [sys.executable, "-m", "repro.service.worker",
             "--url", self.url, "--store", self.store,
             "--worker-id", "chaos-w{}-g{}".format(index, self._generation),
             "--poll", "0.5", "--chaos-plan", self.plan_path],
            env=self.env)

    def supervise(self) -> None:
        for index, proc in enumerate(self.procs):
            code = proc.poll()
            if code is None:
                continue
            if code != CHAOS_CRASH_EXIT:
                raise AssertionError(
                    "worker died with unexpected exit code {} (only "
                    "injected crashes exit {})".format(
                        code, CHAOS_CRASH_EXIT))
            self.crashes += 1
            self.respawns += 1
            self.procs[index] = self._spawn(index)

    def drain(self) -> list:
        """Graceful SIGTERM shutdown; returns the exit codes."""
        for proc in self.procs:
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
        codes = []
        for proc in self.procs:
            try:
                codes.append(proc.wait(timeout=60))
            except subprocess.TimeoutExpired:
                proc.kill()
                codes.append(proc.wait())
        return codes

    def kill(self) -> None:
        for proc in self.procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()


def wait_done_supervised(url: str, sid: str, fleet: WorkerFleet,
                         deadline: float) -> dict:
    while True:
        fleet.supervise()
        try:
            status = client.status(url, sid, retries=2)
        except ServiceClientError:
            status = None  # scheduler mid-hiccup; the next poll decides
        if status is not None and status["state"] != "running":
            return status
        assert time.monotonic() < deadline, \
            "soak did not converge before the deadline"
        time.sleep(0.3)


def fetch_converged(url: str, sid: str, fleet: WorkerFleet,
                    deadline: float) -> dict:
    """Fetch, riding out quarantine requeues: a bit-rotted cell found
    at fetch time goes back to running and must recompute first."""
    while True:
        fleet.supervise()
        try:
            return client.fetch(url, sid, retries=2)
        except ServiceClientError as exc:
            assert "requeued for recompute" in str(exc), exc
        status = wait_done_supervised(url, sid, fleet, deadline)
        assert status["state"] == "done", status


def test_chaos_soak_converges_byte_identical(tmp_path, bench_recorder):
    spec = full_spec()
    keys = [task.cache_key() for task in tasks_from_spec(spec)]
    assert len(keys) == len(WORKLOADS) * len(SCHEMES)

    plan_path = tmp_path / "plan.json"
    plan_path.write_text(soak_plan(SOAK_SEED).to_json())

    # Replay the seed from the serialized plan alone: the victim sets
    # below are pure derivations, re-checked against observation at the
    # end — the "replaying the seed reproduces the counters" claim.
    replay = FaultPlan.from_json(plan_path.read_text())
    crash_keys = {token[0] for token in replay.planned(
        "worker", "crash_before_complete", [(k, 1) for k in keys])}
    corrupt_keys = {token[0] for token in replay.planned(
        "diskcache", "corrupt", [(k,) for k in keys])}
    # A key in both sets crashes twice: once on its first compute and
    # once on the post-quarantine recompute (a fresh job, attempt 1).
    predicted_crashes = len(crash_keys) + len(crash_keys & corrupt_keys)
    assert len(crash_keys) >= 3, \
        "seed {} plans too few crashes: {}".format(SOAK_SEED, crash_keys)
    assert len(corrupt_keys) >= 2, \
        "seed {} plans too few corruptions: {}".format(
            SOAK_SEED, corrupt_keys)

    port = free_port()
    url = "http://127.0.0.1:{}".format(port)
    store = str(tmp_path / "store")
    env = subprocess_env()
    deadline = time.monotonic() + SOAK_TIMEOUT_S

    started = time.perf_counter()
    serve = ServeHandle(port, store, str(plan_path), env)
    fleet = WorkerFleet(url, store, str(plan_path), env)
    try:
        # Workers poll from the very start, so the drop/error budgets
        # burn down concurrently across three clients.
        client.wait_healthy(url, timeout=90.0)

        # Phase 1: half the grid under scheduler #1.
        sub_a = client.submit(url, SweepSubmission(
            spec=first_half_spec(), name="chaos_soak",
            owner="chaos-bench"), retries=4)
        status_a = wait_done_supervised(url, sub_a["id"], fleet, deadline)
        assert status_a["state"] == "done", status_a

        prom_1 = scrape_prometheus(url)

        # The injected disaster: SIGKILL the scheduler, reboot it on
        # the same port and store.  Live workers ride the outage on
        # their connect backoff.
        serve.sigkill()
        serve = ServeHandle(port, store, str(plan_path), env)
        client.wait_healthy(url, timeout=90.0)

        # Phase 2: the full grid.  Scheduler #2 checksum-verifies its
        # first sight of every warm key, so phase-1 bit rot surfaces
        # here as a quarantine + recompute instead of a served lie.
        sub_full = client.submit(url, SweepSubmission(
            spec=spec, name="chaos_soak", owner="chaos-bench"),
            retries=4)
        status_full = wait_done_supervised(
            url, sub_full["id"], fleet, deadline)
        assert status_full["state"] == "done", status_full
        doc = fetch_converged(url, sub_full["id"], fleet, deadline)

        prom_2 = scrape_prometheus(url)
        metrics_2 = client.metrics(url)

        drain_codes = fleet.drain()
        assert drain_codes == [0] * WORKERS, \
            "graceful drain must exit 0, got {}".format(drain_codes)
    finally:
        fleet.kill()
        serve.stop()
    wall_clock_s = time.perf_counter() - started

    # -- identity: the whole point ---------------------------------------
    rows, stats = run_sweep(spec, processes=1)
    reference = make_bench("chaos_soak", rows, kind="sweep",
                           spec=spec.to_dict(),
                           cache={"hits": stats.hits,
                                  "misses": stats.misses})
    assert doc["results_sha256"] == reference["results_sha256"], \
        "chaos run diverged from the serial runner"
    assert doc["results"] == reference["results"]

    # -- replay: observed faults match the seed's pure derivation --------
    assert fleet.crashes == predicted_crashes, \
        "observed {} injected crashes, plan seed {} predicts {}".format(
            fleet.crashes, SOAK_SEED, predicted_crashes)
    cell_store = CellStore(store)
    quarantined = set(cell_store.corrupt_keys())
    assert quarantined == corrupt_keys, \
        "quarantined {} but plan seed {} predicts {}".format(
            quarantined, SOAK_SEED, corrupt_keys)

    # -- budgets: both schedulers exhausted their HTTP/chaos budgets -----
    drops = e500s = dups = 0.0
    for prom in (prom_1, prom_2):
        for fault, budget in (("drop", DROP_BUDGET),
                              ("error_500", ERROR_500_BUDGET)):
            count = prom_value(prom, "repro_chaos_injected_total",
                               fault=fault, site="http")
            assert count == budget, (fault, count, budget)
        dup = prom_value(prom, "repro_chaos_injected_total",
                         fault="duplicate_complete", site="scheduler")
        assert dup == DUP_COMPLETE_BUDGET, dup
        drops += prom_value(prom, "repro_chaos_injected_total",
                            fault="drop", site="http")
        e500s += prom_value(prom, "repro_chaos_injected_total",
                            fault="error_500", site="http")
        dups += dup
    responses_total = (prom_value(prom_1, "repro_http_responses_total")
                       + prom_value(prom_2, "repro_http_responses_total"))
    dropped_fraction = drops / responses_total
    assert dropped_fraction >= 0.05, \
        "only {:.1%} of {} responses dropped".format(
            dropped_fraction, int(responses_total))

    # -- nothing leaks ---------------------------------------------------
    assert len(cell_store) == len(keys)
    assert cell_store.pending_tmps() == 0
    leaked = [name for name in os.listdir(store) if name.endswith(".tmp")]
    assert leaked == [], leaked
    assert metrics_2["leased"] == 0, metrics_2
    assert metrics_2["queue_depth"] == 0, metrics_2
    # Store-level corruption never surfaced in a result: it was
    # quarantined and recomputed on the way.
    counters_2 = metrics_2["counters"]
    assert counters_2["failures"] == 0, counters_2

    faults_worker = fleet.crashes
    faults_diskcache = len(quarantined)
    faults_http = int(drops + e500s)
    faults_scheduler = int(dups)
    faults_total = (faults_worker + faults_diskcache + faults_http
                    + faults_scheduler)

    print("\nchaos soak (seed {}): {} cells converged to serial digest "
          "{}...".format(SOAK_SEED, len(keys),
                         doc["results_sha256"][:16]))
    print("  faults: {} total ({} http, {} worker crashes, "
          "{} scheduler dups, {} quarantines)".format(
              faults_total, faults_http, faults_worker,
              faults_scheduler, faults_diskcache))
    print("  drops: {}/{} responses ({:.1%}), scheduler restarts: 1, "
          "worker respawns: {}".format(
              int(drops), int(responses_total), dropped_fraction,
              fleet.respawns))
    print("  wall clock: {:.1f}s, leases expired: {}, fetch requeues: "
          "{}".format(wall_clock_s, counters_2["leases_expired"],
                      counters_2["fetch_requeues"]))

    bench_recorder.kind = "chaos"
    bench_recorder.add(
        "soak",
        chaos_seed=SOAK_SEED,
        cells_total=len(keys),
        faults_total=faults_total,
        faults_http=faults_http,
        faults_worker=faults_worker,
        faults_scheduler=faults_scheduler,
        faults_diskcache=faults_diskcache,
        worker_crashes=fleet.crashes,
        store_quarantines=faults_diskcache,
        converged=True,
        sweep_results_sha256=doc["results_sha256"],
    )
    bench_recorder.note_volatile(
        wall_clock_s=wall_clock_s,
        responses_total=int(responses_total),
        dropped_response_fraction=dropped_fraction,
        worker_respawns=fleet.respawns,
        scheduler_restarts=1,
        leases_expired_final_scheduler=counters_2["leases_expired"],
        fetch_requeues_final_scheduler=counters_2["fetch_requeues"],
        late_completes_final_scheduler=counters_2["late_completes"],
    )


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v", "-s"]))
