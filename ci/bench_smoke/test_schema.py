"""Bench-smoke schema gate: every BENCH artifact loads and validates.

Run after the sweep gates (``test_cli_sweeps.py``) and the benchmark
scripts have written into ``$REPRO_BENCH_DIR`` (default
``bench-artifacts``, relative to the working directory)::

    python -m pytest ci/bench_smoke/test_cli_sweeps.py -q
    REPRO_SCALE=0.05 REPRO_BENCH_DIR=bench-artifacts \\
        python -m pytest -q benchmarks
    python -m pytest ci/bench_smoke/test_schema.py -q

An empty directory is a failure, not a skip.
"""

import glob
import os

from repro.harness.benchjson import load_bench


def test_every_artifact_validates():
    paths = sorted(glob.glob(os.path.join(
        os.environ.get("REPRO_BENCH_DIR", "bench-artifacts"),
        "BENCH_*.json")))
    assert paths, "no BENCH artifacts produced"
    for path in paths:
        doc = load_bench(path)
        print("{}: {} ({} rows) OK".format(
            path, doc["kind"], len(doc["results"])))
