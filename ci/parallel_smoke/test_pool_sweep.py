"""Parallel-smoke gate: the paper-tag sweep through a spawn process pool.

Four sweep-CLI runs share one cell cache and one compile store, each in
a fresh process::

    python -m pytest ci/parallel_smoke -q

1. A cold pool run (``--processes 2 --start-method spawn``, which
   catches pickling regressions fork hides) tallies every worker's
   compile lookup in its artifact: one per cell.  Not every lookup is a
   miss: qft_n100 and qft_n300 clamp to one circuit at this scale, so a
   twin may hit what the other just published.
2. The cached re-run logs ``sweep_cache hits=N misses=0`` (structured
   logger, stderr).
3. A pool run against the warm compile store, with no cell cache, so
   every cell simulates again and every compilation loads from the
   store: the only gate that loads a warm store in spawn workers.
4. A serial run is served entirely from the warm cell cache
   (``--require-cached``).

Every expected count is derived from the sweep spec through
``--count-cells``, so registering new workloads cannot break it.
"""

import os
import subprocess
import sys

from repro.harness.benchjson import load_bench
from repro.testing import subprocess_env

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
GRID = ["--tags", "paper", "--schemes", "bisp", "lockstep",
        "--scale", "0.05"]
POOL = ["--processes", "2", "--start-method", "spawn"]


def _sweep(*args):
    """Run the sweep CLI; return its combined stdout and stderr."""
    proc = subprocess.run(
        [sys.executable, "-m", "repro.harness.sweep"] + GRID + list(args),
        cwd=ROOT, env=subprocess_env(), stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout
    return proc.stdout


def test_pool_sweep(tmp_path):
    cells = int(_sweep("--count-cells").strip())
    print("expecting {} cells".format(cells))
    sweep_cache = str(tmp_path / "sweep-cache")
    compile_cache = str(tmp_path / "compile-cache")
    out = str(tmp_path / "bench")

    _sweep(*POOL, "--cache-dir", sweep_cache, "--compile-cache",
           compile_cache, "--out", out, "--name", "pool_cold")
    cache = load_bench(os.path.join(out, "BENCH_pool_cold.json"))["cache"]
    lookups = cache["compile_hits"] + cache["compile_misses"]
    assert lookups == cells, (cache, cells)
    print("cold pool compile tally OK:", cache)

    log = _sweep(*POOL, "--cache-dir", sweep_cache, "--compile-cache",
                 compile_cache)
    assert "sweep_cache hits={} misses=0".format(cells) in log, log

    _sweep(*POOL, "--compile-cache", compile_cache, "--out", out,
           "--name", "pool_warm", "--quiet")
    cache = load_bench(os.path.join(out, "BENCH_pool_warm.json"))["cache"]
    assert cache["compile_hits"] == cells, (cache, cells)
    assert cache["compile_misses"] == 0, cache
    print("warm pool compile tally OK:", cache)

    _sweep("--cache-dir", sweep_cache, "--require-cached", "--quiet")
