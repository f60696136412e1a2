"""Service-smoke gates: two overlapping sweeps through a live service.

``serve`` (``ci/conftest.py``) runs the scheduler plus 2 workers; two
``submit`` CLI calls run at once and fetch their artifacts into
``$REPRO_BENCH_DIR`` (default ``bench-artifacts``, relative to the
working directory)::

    python -m pytest ci/service_smoke -q

1. The two grids share the qft_n30 cells.  The expected hit/miss split
   is derived from ``--count-cells`` (sum of the grids vs their union),
   never hard-coded, so changing the grids or registering new schemes
   cannot silently weaken the dedup gate.  No lease expires.
2. A clean run never trips checksum verification: the corrupt counter
   is scraped while the server is still alive.
3. Each fetched artifact is byte-identical (``results_sha256``) to the
   serial sweep CLI's.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.harness.benchjson import load_bench
from repro.testing import subprocess_env

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
AXES = ["--schemes", "bisp", "lockstep", "--scale", "0.05"]
#: name -> (owner, grid flags)
SWEEPS = {
    "svc_a": ("ci-a", ["--workloads", "bv_n400", "qft_n30"] + AXES),
    "svc_b": ("ci-b", ["--workloads", "qft_n30", "hidden_shift_n64"] + AXES),
}
UNION = ["--workloads", "bv_n400", "qft_n30", "hidden_shift_n64"] + AXES


def _out():
    return os.path.abspath(os.environ.get("REPRO_BENCH_DIR",
                                          "bench-artifacts"))


def _run(*args):
    """``python -m ARGS``; returns its stdout, failing on a non-zero
    exit."""
    return subprocess.run(
        [sys.executable, "-m"] + list(args), check=True, cwd=ROOT,
        env=subprocess_env(), stdout=subprocess.PIPE, text=True,
        timeout=600).stdout


def _cells(grid):
    return int(_run("repro.harness.sweep", "--count-cells", *grid))


@pytest.fixture(scope="module")
def served(serve):
    """The service URL, once both sweeps were submitted concurrently,
    finished and fetched."""
    submits = [subprocess.Popen(
        [sys.executable, "-m", "repro.service", "submit", "--url", serve]
        + grid + ["--name", name, "--owner", owner, "--out", _out()],
        cwd=ROOT, env=subprocess_env())
        for name, (owner, grid) in SWEEPS.items()]
    try:
        for process in submits:
            assert process.wait(timeout=600) == 0, process.args
    finally:
        for process in submits:
            if process.poll() is None:
                process.kill()
                process.wait()
    return serve


def test_overlapping_submits_compute_each_cell_once(served):
    a, b = (_cells(grid) for _, grid in SWEEPS.values())
    union = _cells(UNION)
    print("cells: A={} B={} union={}".format(a, b, union))
    metrics = json.loads(_run("repro.service", "metrics", "--url", served))
    counters = metrics["counters"]
    assert counters["cells_total"] == a + b, counters
    # Each distinct cell is computed exactly once no matter how the two
    # submissions interleave; every other request is a store hit or an
    # in-flight dedup hit.
    assert counters["misses"] == union, counters
    hits = counters["store_hits"] + counters["dedup_hits"]
    assert hits == a + b - union, counters
    assert counters["leases_expired"] == 0, counters
    print("dedup OK: {} hits ({} store + {} dedup), {} misses".format(
        hits, counters["store_hits"], counters["dedup_hits"],
        counters["misses"]))


def test_store_never_trips_checksum_verification(served):
    text = _run("repro.service", "metrics", "--url", served,
                "--format", "prometheus")
    assert "repro_diskcache_corrupt_total 0" in text.splitlines(), text


def test_served_artifacts_match_the_serial_cli(served, tmp_path):
    for name, (_, grid) in SWEEPS.items():
        _run("repro.harness.sweep", *grid, "--out", str(tmp_path),
             "--name", name)
        fetched = load_bench(os.path.join(_out(),
                                          "BENCH_{}.json".format(name)))
        serial = load_bench(str(tmp_path / "BENCH_{}.json".format(name)))
        assert fetched["results_sha256"] == serial["results_sha256"], name
        print("{}: service digest {}.. == serial".format(
            name, fetched["results_sha256"][:16]))
