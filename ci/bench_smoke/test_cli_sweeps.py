"""Bench-smoke sweep gates: the sweep CLI's BENCH artifacts at scale 0.05.

Three sweep-CLI runs, each in a fresh process through a 2-process spawn
pool with ``--verify-parallel`` (serial and pool rows must be
byte-identical), write their artifacts into ``$REPRO_BENCH_DIR``
(default ``bench-artifacts``, relative to the working directory)::

    python -m pytest ci/bench_smoke/test_cli_sweeps.py -q

1. The whole registry, gated against the checked-in baseline: any cell
   raising, a schema violation or a per-cell makespan regression above
   25% fails.
2. One paper workload under every registered scheme (the pipeline-built
   oracle and lockstep_window included): a scheme that breaks lowering
   or artifact emission fails, and the artifact must cover exactly the
   registry.
3. A small noisy grid (depolarizing preset, 128 noise shots): the
   per-shot crc32 seeding keeps serial and spawned runs identical, and
   every cell carries an empirical fidelity.

``test_schema.py`` then validates every artifact in the directory,
after ``benchmarks/`` has added its own.
"""

import os
import subprocess
import sys

from repro.compiler.schemes import scheme_names
from repro.harness.benchjson import load_bench
from repro.testing import subprocess_env

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
POOL = ["--processes", "2", "--start-method", "spawn", "--verify-parallel"]


def _out():
    return os.path.abspath(os.environ.get("REPRO_BENCH_DIR",
                                          "bench-artifacts"))


def _sweep(*args):
    """Run the sweep CLI; fail on a non-zero exit."""
    subprocess.run([sys.executable, "-m", "repro.harness.sweep"]
                   + list(args), check=True, cwd=ROOT, env=subprocess_env())


def test_full_registry_sweep_matches_baseline():
    _sweep("--scale", "0.05", *POOL, "--out", _out(),
           "--baseline", os.path.join("benchmarks", "baselines",
                                      "BENCH_sweep_smoke.json"),
           "--max-regression", "0.25")


def test_scheme_artifact_covers_the_registry():
    _sweep("--list-schemes")
    _sweep("--workloads", "bv_n400", "--scale", "0.05", *POOL,
           "--out", _out(), "--name", "sweep_schemes")
    doc = load_bench(os.path.join(_out(), "BENCH_sweep_schemes.json"))
    swept = {row["scheme"] for row in doc["results"]}
    expected = set(scheme_names())
    assert {"oracle", "lockstep_window"} <= swept, swept
    assert swept == expected, (swept, expected)
    print("BENCH_sweep_schemes.json: {} schemes OK: {}".format(
        len(swept), sorted(swept)))


def test_noisy_artifact_carries_fidelity():
    _sweep("--workloads", "bv_n400", "repetition_d25",
           "--schemes", "bisp", "lockstep", "--scale", "0.05",
           "--noise", "depolarizing_1e3", "--noise-shots", "128", *POOL,
           "--out", _out(), "--name", "sweep_noisy")
    doc = load_bench(os.path.join(_out(), "BENCH_sweep_noisy.json"))
    assert doc["schema_version"] == 3, doc["schema_version"]
    assert doc["spec"]["noise"] is not None
    for row in doc["results"]:
        assert 0.0 <= row["fidelity_empirical"] <= 1.0, row
        assert row["noise_shots"] == 128, row
    print("BENCH_sweep_noisy.json: {} noisy cells OK".format(
        len(doc["results"])))
