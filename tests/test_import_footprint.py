"""Start-up footprint of the processes that run sweeps.

Every sweep CLI call, spawn pool worker, ``serve`` and service worker is
a fresh interpreter, so whatever their imports load is paid on every
run.  numpy is the only third-party package on those paths: scipy
serves ``repro.analog`` (the Figure-11 calibration fits) alone, which
``import repro`` does not load, and the control-network topology is
plain dicts.
"""

import json
import subprocess
import sys
import textwrap

import pytest

from repro.testing import subprocess_env

#: Prepended to every probe: ``THIRD_PARTY`` is each top-level module
#: importable from the interpreter's site directories except numpy (and
#: ``repro`` itself, should it be installed there).
_PRELUDE = """
import pkgutil, site, sys
THIRD_PARTY = {module.name for module in pkgutil.iter_modules(
    site.getsitepackages() + [site.getusersitepackages()])}
THIRD_PARTY -= {"numpy", "repro"}
"""


def _probe(code, *args):
    """Run ``code`` after the prelude in a fresh interpreter; its stdout."""
    proc = subprocess.run(
        [sys.executable, "-c", _PRELUDE + textwrap.dedent(code), *args],
        capture_output=True, text=True, env=subprocess_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr[-3000:]
    return proc.stdout


@pytest.mark.parametrize("module", [
    "repro", "repro.harness.sweep", "repro.service.worker",
    "repro.service.__main__"])
def test_entry_point_loads_no_third_party_package_but_numpy(module):
    out = _probe("""
        import importlib, json
        before = set(sys.modules)
        importlib.import_module(sys.argv[1])
        loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
        print(json.dumps(sorted(loaded & THIRD_PARTY)))
    """, module)
    assert json.loads(out) == []


def test_sweep_runs_with_third_party_imports_refused(tmp_path):
    """A lazy import inside a cell cannot bring a package back: with
    every third-party import but numpy refused, a serial grid holding a
    multishot cell and noisy cells still runs and exits 0."""
    _probe("""
        class Refuse:
            def find_spec(self, name, path=None, target=None):
                if name.partition(".")[0] in THIRD_PARTY:
                    raise ImportError("refused: " + name)
                return None

        sys.meta_path.insert(0, Refuse())
        from repro.harness import sweep
        sys.exit(sweep.main(sys.argv[1:]))
    """, "--workloads", "repetition_d25", "hidden_shift_n64",
        "--schemes", "bisp", "--scale", "0.05", "--shots", "1", "4",
        "--noise", "depolarizing_1e3", "--processes", "1",
        "--out", str(tmp_path), "--quiet")
    with open(tmp_path / "BENCH_sweep.json") as handle:
        results = json.load(handle)["results"]
    assert sorted((row["workload"], row["shots"]) for row in results) == [
        ("hidden_shift_n64", 1), ("hidden_shift_n64", 4),
        ("repetition_d25", 1), ("repetition_d25", 4)]
    assert all(row["fidelity_empirical"] is not None for row in results)


def test_analog_is_imported_explicitly_and_still_exported():
    out = _probe("""
        from repro import *
        import repro.analog
        assert analog is repro.analog
        print(repro.analog.CalibrationBench.__name__,
              repro.analog.fit_rabi.__name__)
    """)
    assert out.split() == ["CalibrationBench", "fit_rabi"]
