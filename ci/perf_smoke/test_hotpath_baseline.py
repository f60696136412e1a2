"""Perf-smoke regression gate: the hot-path artifact against its baseline.

Run after ``benchmarks/bench_hotpath.py`` has written
``BENCH_hotpath.json`` into ``$REPRO_BENCH_DIR`` (default
``bench-artifacts``)::

    REPRO_SCALE=0.05 REPRO_BENCH_DIR=bench-artifacts \\
        python -m pytest -q benchmarks/bench_hotpath.py
    python -m pytest ci/perf_smoke -q

The deterministic rows (cell counts, identity flags, summed makespans,
cache hit counts) must digest-match the checked-in baseline
``benchmarks/baselines/BENCH_hotpath_smoke.json``: any change to
simulation results under either interpreter fails here.  A missing
artifact is a failure, not a skip.
"""

import os

from repro.harness.benchjson import load_bench

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
BASELINE = os.path.join(ROOT, "benchmarks", "baselines",
                        "BENCH_hotpath_smoke.json")


def test_hotpath_matches_baseline():
    path = os.path.join(os.environ.get("REPRO_BENCH_DIR", "bench-artifacts"),
                        "BENCH_hotpath.json")
    assert os.path.isfile(path), (
        "{} is missing: run benchmarks/bench_hotpath.py first".format(path))
    fresh = load_bench(path)
    base = load_bench(BASELINE)
    assert fresh["results_sha256"] == base["results_sha256"], (
        "hot-path results diverged from baseline:\n fresh {}\n "
        "base  {}".format(fresh["results"], base["results"]))
    rows = {row["label"]: row for row in fresh["results"]}
    for tier in ("legacy", "vector"):
        row = rows["sweep_{}_scale_0.05".format(tier)]
        assert row["identical"] == 1, row
    cc = rows["compile_cache_scale_0.05"]
    assert cc["identical"] == 1, cc
    assert cc["warm_misses"] == 0, cc
    assert cc["warm_hits"] == cc["cells"], cc
    assert rows["lanes_qft_shots32"]["identical"] == 1
    assert rows["tableau_n300"]["identical"] == 1
    print("hot-path gate OK: digest {}..., vector {:.2f}x, "
          "lanes {:.1f}x".format(
              fresh["results_sha256"][:12],
              fresh["volatile"]["sweep_speedup"],
              fresh["volatile"]["lane_speedup"]))
