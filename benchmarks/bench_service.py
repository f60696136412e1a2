"""Sweep-service load benchmark: thousands of concurrent submissions.

Boots the scheduler + HTTP front end in-process (real sockets on an
ephemeral port — the exact server CI and production use, minus process
boundaries), warms the content-addressed store with a small cell pool,
then fires ``REPRO_SERVICE_SUBMISSIONS`` (default 1000) concurrent
submissions whose grids overlap the pool.  A sprinkling of cold cells
keeps the lease/complete path honest.

What the emitted ``BENCH_service.json`` (schema v3, ``kind="service"``)
guarantees deterministically for a fixed submission count:

* ``cells_total``/``hits``/``misses`` — only the *first* requester of
  each cold cell misses, so ``misses`` equals the distinct cold-cell
  count no matter how the submissions interleave;
* ``hit_rate`` >= 0.90 (the issue's acceptance bar — here ~0.999);
* ``leases_granted`` == cold cells, ``leases_expired`` == 0.

Wall-clock throughput, lease latency and queue-depth peaks are genuine
load measurements and therefore report through ``volatile`` (excluded
from ``results_sha256``).
"""

import os
import time

import asyncio

import pytest

from repro.harness.benchjson import make_bench, validate_bench
from repro.harness.parallel import SweepTask, run_cell, tasks_from_spec
from repro.harness.spec import SweepSpec, SweepSubmission
from repro.harness.sweep import run_sweep
from repro.service.http import ServiceServer, http_request
from repro.service.scheduler import Scheduler
from repro.service.store import CellStore

#: The service benchmark measures scheduling, not simulation: a tiny
#: fixed scale keeps each (rare) cell execution fast and the artifact
#: independent of REPRO_SCALE.
CELL_SCALE = 0.02
POOL_WORKLOADS = ("bv_n400", "qft_n30", "hidden_shift_n64",
                  "repetition_d25")
COLD_WORKLOAD = "w_state_n800"
SCHEMES = ("bisp", "lockstep")
#: Every COLD_EVERY-th submission also asks for the cold workload.
COLD_EVERY = 100
#: Concurrent in-flight submissions (sockets) at any moment.
FANOUT = 100


def submission_count() -> int:
    return int(os.environ.get("REPRO_SERVICE_SUBMISSIONS", "1000"))


def grid_for(index: int) -> SweepSpec:
    """Submission ``index``'s grid: two pool workloads (rotating), plus
    the cold workload on every ``COLD_EVERY``-th submission."""
    workloads = [POOL_WORKLOADS[index % len(POOL_WORKLOADS)],
                 POOL_WORKLOADS[(index + 1) % len(POOL_WORKLOADS)]]
    if index % COLD_EVERY == 0:
        workloads.append(COLD_WORKLOAD)
    return SweepSpec(workloads=tuple(workloads), schemes=SCHEMES,
                     scales=(CELL_SCALE,), shots=(1,))


def warm_store(store: CellStore) -> int:
    """Precompute the pool cells (the 'yesterday's sweep' warm cache)."""
    spec = SweepSpec(workloads=POOL_WORKLOADS, schemes=SCHEMES,
                     scales=(CELL_SCALE,), shots=(1,))
    tasks = tasks_from_spec(spec)
    for task in tasks:
        store.put(task.cache_key(), run_cell(task))
    return len(tasks)


async def drive(n: int, store_dir: str):
    """Run the whole scenario; returns (metrics, sample doc, ids)."""
    scheduler = Scheduler(CellStore(store_dir), lease_ttl=60.0)
    server = ServiceServer(scheduler, port=0)
    await server.start()
    host, port = server.host, server.port
    done = asyncio.Event()
    depth_samples = []

    async def worker():
        while not done.is_set():
            try:
                _, reply = await http_request(
                    host, port, "POST", "/lease",
                    {"worker": "bench-worker", "max_wait": 0.2})
            except (ConnectionError, OSError):
                continue
            job = reply.get("job")
            if job is None:
                continue
            cell = run_cell(SweepTask.from_dict(job["task"]))
            await http_request(
                host, port, "POST", "/complete",
                {"worker": "bench-worker", "key": job["key"],
                 "lease": job["lease"], "result": cell.to_dict()})

    async def sampler():
        while not done.is_set():
            _, metrics = await http_request(host, port, "GET",
                                            "/metrics?format=json")
            depth_samples.append(metrics["queue_depth"])
            await asyncio.sleep(0.05)

    gate = asyncio.Semaphore(FANOUT)
    ids = [None] * n

    async def submit(index: int):
        async with gate:
            submission = SweepSubmission(
                spec=grid_for(index), name="load{}".format(index),
                owner="bench")
            code, status = await http_request(
                host, port, "POST", "/submit", submission.to_dict(),
                timeout=120.0)
            assert code == 201, status
            ids[index] = status["id"]

    background = [asyncio.ensure_future(worker()),
                  asyncio.ensure_future(sampler())]
    t0 = time.perf_counter()
    try:
        await asyncio.gather(*[submit(i) for i in range(n)])
        # Cold submissions finish once the worker lands the cold cells.
        for index in range(0, n, COLD_EVERY):
            while True:
                _, status = await http_request(
                    host, port, "GET", "/status/{}".format(ids[index]))
                if status["state"] == "done":
                    break
                await asyncio.sleep(0.05)
        elapsed = time.perf_counter() - t0
        _, metrics = await http_request(host, port, "GET",
                                        "/metrics?format=json")
        _, warm_doc = await http_request(
            host, port, "GET", "/fetch/{}".format(ids[1]))
        _, cold_doc = await http_request(
            host, port, "GET", "/fetch/{}".format(ids[0]))
    finally:
        done.set()
        for task in background:
            task.cancel()
        await asyncio.gather(*background, return_exceptions=True)
        await server.close()
    return metrics, warm_doc, cold_doc, depth_samples, elapsed


def test_service_sustains_concurrent_submissions(tmp_path,
                                                 bench_recorder):
    n = submission_count()
    store_dir = str(tmp_path / "store")
    pool = warm_store(CellStore(store_dir))
    metrics, warm_doc, cold_doc, depth_samples, elapsed = asyncio.run(
        drive(n, store_dir))
    counters = metrics["counters"]

    cold_cells = len(SCHEMES)
    cold_submissions = len(range(0, n, COLD_EVERY))
    expected_cells = 4 * n + cold_cells * cold_submissions
    assert counters["submissions"] == n
    assert counters["cells_total"] == expected_cells
    # Only the first requester of each cold cell misses; every other
    # cell of every submission is a store or in-flight-dedup hit.
    assert counters["misses"] == cold_cells
    assert counters["store_hits"] + counters["dedup_hits"] == \
        expected_cells - cold_cells
    assert counters["leases_granted"] == cold_cells
    assert counters["leases_expired"] == 0
    hit_rate = (counters["store_hits"] + counters["dedup_hits"]) \
        / counters["cells_total"]
    assert hit_rate >= 0.90  # the acceptance bar; ~0.999 in practice

    # Byte-identity: service artifacts == serial offline sweep.
    for index, doc in ((1, warm_doc), (0, cold_doc)):
        validate_bench(doc)
        rows, _ = run_sweep(grid_for(index), processes=1,
                            cache_dir=store_dir)
        reference = make_bench("load{}".format(index), rows, kind="sweep")
        assert doc["results_sha256"] == reference["results_sha256"]

    throughput = n / elapsed
    latency = metrics["lease_latency"] or {}
    print("\n=== sweep service load (n={} submissions) ===".format(n))
    print("warm pool            {} cells".format(pool))
    print("cells requested      {}".format(counters["cells_total"]))
    print("hit rate             {:.4f} ({} store + {} dedup)".format(
        hit_rate, counters["store_hits"], counters["dedup_hits"]))
    print("executed             {} cells (cold)".format(
        counters["completes"]))
    print("wall clock           {:.2f}s  ({:.0f} submissions/s)".format(
        elapsed, throughput))
    print("peak queue depth     {}".format(
        max(depth_samples) if depth_samples else 0))

    bench_recorder.kind = "service"
    bench_recorder.add(
        "load", submissions=n, cells_total=counters["cells_total"],
        hits=counters["store_hits"] + counters["dedup_hits"],
        misses=counters["misses"], hit_rate=hit_rate,
        leases_granted=counters["leases_granted"],
        leases_expired=counters["leases_expired"])
    bench_recorder.note_volatile(
        wall_clock_s=elapsed, submissions_per_s=throughput,
        store_hits=counters["store_hits"],
        dedup_hits=counters["dedup_hits"],
        max_queue_depth=counters["max_queue_depth"],
        peak_sampled_queue_depth=(max(depth_samples)
                                  if depth_samples else 0),
        lease_latency=latency)


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v", "-s"]))
