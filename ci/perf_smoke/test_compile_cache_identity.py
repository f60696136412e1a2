"""Perf-smoke compile-cache identity gate: three sweeps, one store.

The paper-tag sweep runs serially three times against one persistent
compile-cache store, each in a fresh process: a cold writer, a warm
reader (every compilation must load, zero recompiles) and a warm reader
on the reference interpreter (the sweep CLI's ``main()`` with
``ReferenceCore`` from ``tests/core/reference_core.py`` installed
in-process).  All three ``results_sha256`` digests must be
byte-identical: the cache is a pure wall-clock optimization, and cached
programs run the same on both interpreters::

    python -m pytest ci/perf_smoke -q
"""

import os
import subprocess
import sys

from repro.harness.benchjson import load_bench
from repro.testing import subprocess_env

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
SWEEP = ["--tags", "paper", "--scale", "0.05", "--processes", "1",
         "--quiet"]

#: The sweep CLI's ``main()`` with the stepwise reference interpreter
#: installed for every system the sweep builds.
REFERENCE_MAIN = """\
import sys
sys.path.insert(0, {tests_core!r})
import repro.sim.system
from reference_core import ReferenceCore
from repro.harness.sweep import main
repro.sim.system.HISQCore = ReferenceCore
assert main(sys.argv[1:]) == 0
""".format(tests_core=os.path.join(ROOT, "tests", "core"))


def _sweep(name, store, out, reference=False):
    """Run one sweep against ``store``; return its BENCH document."""
    args = SWEEP + ["--compile-cache", store, "--out", out, "--name", name]
    if reference:
        command = [sys.executable, "-c", REFERENCE_MAIN] + args
    else:
        command = [sys.executable, "-m", "repro.harness.sweep"] + args
    subprocess.run(command, check=True, cwd=ROOT, env=subprocess_env())
    return load_bench(os.path.join(out, "BENCH_{}.json".format(name)))


def test_compile_cache_identity(tmp_path):
    store = str(tmp_path / "compile-cache")
    out = str(tmp_path / "bench")
    cold = _sweep("cc_cold", store, out)
    warm = _sweep("cc_warm", store, out)
    legacy = _sweep("cc_legacy", store, out, reference=True)
    assert cold["results_sha256"] == warm["results_sha256"] \
        == legacy["results_sha256"], (
        cold["results_sha256"], warm["results_sha256"],
        legacy["results_sha256"])
    compiles = (cold["cache"]["compile_hits"]
                + cold["cache"]["compile_misses"])
    for run in (warm, legacy):
        assert run["cache"]["compile_misses"] == 0, run["cache"]
        assert run["cache"]["compile_hits"] == compiles, (
            run["cache"], compiles)
    print("compile-cache gate OK: digest {}..., {} compilations all "
          "served warm".format(cold["results_sha256"][:12], compiles))
