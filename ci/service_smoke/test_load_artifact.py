"""Service-smoke load gate: the ``BENCH_service.json`` acceptance floor.

CI runs it after the load benchmark has written ``BENCH_service.json``
into ``$REPRO_BENCH_DIR`` (default ``bench-artifacts``, relative to the
working directory)::

    REPRO_SERVICE_SUBMISSIONS=1000 REPRO_BENCH_DIR=service-artifacts \\
        python -m pytest -q -s benchmarks/bench_service.py
    REPRO_BENCH_DIR=service-artifacts \\
        python -m pytest ci/service_smoke/test_load_artifact.py -q

With no artifact there, the gate runs the benchmark into that
directory first (at its default 1,000 submissions, a few seconds), so
a bare ``python -m pytest ci`` checks it too.
"""

import os
import subprocess
import sys

from repro.harness.benchjson import load_bench
from repro.testing import subprocess_env

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def test_load_artifact_meets_the_acceptance_bar():
    out = os.path.abspath(os.environ.get("REPRO_BENCH_DIR",
                                         "bench-artifacts"))
    path = os.path.join(out, "BENCH_service.json")
    if not os.path.isfile(path):
        subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             "benchmarks/bench_service.py"],
            check=True, cwd=ROOT, timeout=600,
            env=dict(subprocess_env(), REPRO_BENCH_DIR=out))
    doc = load_bench(path)
    assert doc["kind"] == "service", doc["kind"]
    assert doc["schema_version"] == 3, doc["schema_version"]
    (row,) = [r for r in doc["results"] if r["label"] == "load"]
    assert row["submissions"] >= 1000, row
    assert row["hit_rate"] >= 0.90, row
    print("BENCH_service.json OK: {} submissions, hit rate {:.4f}".format(
        row["submissions"], row["hit_rate"]))
