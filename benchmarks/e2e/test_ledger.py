"""Self-check of the end-to-end benchmark on tiny grids (about a minute).

    python -m pytest benchmarks/e2e -q

Every workload runs traced on a grid small enough to take seconds, and
the checks are the ledger's promises: every layer fires somewhere (a
wrapper on the wrong import binding never does), traced and untraced
digests agree, the layers add up to the total, the exported trace is
valid, a broken binding fails validation, and a checkout without sources
exits non-zero without printing a result.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import compare  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402

sys.path.insert(0, run.SRC)

TINY_SWEEP = ("--workloads", "bv_n400", "qft_n30", "--scale", "0.02")
TINY = {
    "sweep_cold": TINY_SWEEP,
    "sweep_warm": TINY_SWEEP,
    "multishot_dynamic": ("--workloads", "repetition_d25", "--scale",
                          "0.05", "--shots", "4"),
    "service_noisy": ("--workloads", "hidden_shift_n64", "repetition_d25",
                      "--schemes", "bisp", "lockstep", "--scale", "0.05",
                      "--noise", "depolarizing_1e3", "--noise-shots", "64"),
}


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """workload -> (exit code, ``--out`` record, trace path) of one traced
    run on its tiny grid."""
    tmp = tmp_path_factory.mktemp("e2e")
    patch = pytest.MonkeyPatch()
    for name, grid in TINY.items():
        patch.setitem(run.WORKLOADS, name,
                      dataclasses.replace(run.WORKLOADS[name], grid=grid))
    patch.setattr(run, "ROUNDTRIPS", 20)
    patch.setattr(run, "PUBLISHES", 1)
    # expected.json describes the full-size grids.
    patch.setattr(run, "load_expected", dict)
    results = {}
    try:
        for name in TINY:
            out = str(tmp / (name + ".json"))
            trace = str(tmp / (name + ".trace.json"))
            code = run.main(["--workload", name, "--seed", "7",
                             "--seconds", "0", "--trace", "1",
                             "--out", out, "--trace-out", trace])
            with open(out, encoding="utf-8") as handle:
                results[name] = (code, json.load(handle), trace)
    finally:
        patch.undo()
    return results


def metrics_of(record):
    return {name: metric["value"]
            for name, metric in record["result"]["metrics"].items()}


def test_manifest_matches_the_benchmark():
    manifest = run.load_manifest()
    assert [w["name"] for w in manifest["workloads"]] == list(run.WORKLOADS)
    per_layer = [m["name"] for m in manifest["per_layer"]]
    assert len(per_layer) == len(set(per_layer))
    assert set(layers.LAYER_NAMES) <= set(per_layer)
    assert [m["name"] for m in manifest["end_to_end"]] == [
        "setup_s", "wall_s", "latency_p50_ms", "latency_p95_ms",
        "peak_rss_mb"]


def test_traced_runs_are_correct(traced):
    for name, (code, record, _) in traced.items():
        assert code == 0, (name, record["problems"])
        assert record["problems"] == []
        assert record["result"]["correct"]
        # Both kinds of repetition ran, and their digests were compared.
        assert {rep["traced"] for rep in record["reps"]} == {False, True}


def test_layers_add_up(traced):
    for name, (_, record, _) in traced.items():
        metrics = metrics_of(record)
        total = sum(metrics[layer] for layer in layers.LAYER_NAMES) + \
            metrics["unattributed_s"]
        assert total == pytest.approx(metrics["ledger.total_s"],
                                      abs=1e-6), name


def test_trace_exports_validate(traced):
    from repro.obs.trace import validate_trace

    for name, (_, _, path) in traced.items():
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
        assert validate_trace(doc) == [], name
        assert any(event["ph"] == "X" for event in doc["traceEvents"])


def test_every_layer_fires(traced, tmp_path):
    fired = {layer for _, record, _ in traced.values()
             for layer, value in metrics_of(record).items()
             if layer in layers.LAYER_NAMES and value > 0}
    # A warm store is read, never written, in the measured runs; a
    # traced writer run against a fresh store exercises the put path.
    child = run.Child(str(tmp_path), "writer", "ledger",
                      "repro.harness.sweep",
                      list(TINY_SWEEP) + ["--processes", "1", "--quiet",
                                          "--compile-cache",
                                          str(tmp_path / "store")])
    assert child.wait() == 0, child.log_tail()
    fired |= {layer for layer, seconds in
              child.load()["ledger"]["self_s"].items() if seconds > 0}
    assert set(layers.LAYER_NAMES) - fired == set()


def test_broken_binding_fails_validation(monkeypatch):
    monkeypatch.setattr(layers, "LAYERS", layers.LAYERS + (
        ("sim.run_s", ("repro.sim.system:ControlSystem.no_such_method",),
         None),))
    with pytest.raises(layers.LayerTableError, match="no_such_method"):
        layers.validate()


def test_checkout_without_sources_fails(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "sweep_cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=str(tmp_path), capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert not any(line.startswith("{")
                   for line in proc.stdout.splitlines())


def test_compare_verdicts():
    steady = [10.0, 10.1, 9.9, 10.0, 10.05]
    assert compare.verdict(steady, [12.5] * 5, 0.2) == "regressed"
    assert compare.verdict(steady, [10.5] * 5, 0.2) == "ok"
    wide = [5.0, 10.0, 15.0, 20.0]
    assert compare.verdict(wide, [11.0] * 4, 0.2) == "unresolved"
    assert compare.verdict(wide, [4.0] * 4, 0.2) == "ok"
