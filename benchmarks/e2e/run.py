#!/usr/bin/env python3
"""End-to-end benchmark with a per-layer ledger.

    python3 benchmarks/e2e/run.py --workload NAME [--seed N] [--seconds S]
                                  [--trace 0|1] [--out FILE]

Runs one workload through the user entry points -- the sweep CLI
(``repro.harness.sweep``) in fresh child processes, or the sweep service
(``repro.service serve`` plus ``repro.service.worker`` processes, driven
through ``repro.service.client``) -- for ``--seconds`` of measurement,
checks every output digest, and prints each metric as ``name value
unit``.  The last line of stdout is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--trace 0`` (untraced) reports the end-to-end metrics.  ``--trace 1``
alternates untraced runs with runs whose children wrap every binding in
``layers.LAYERS``, reports the per-layer ledger of the median traced run
(layers plus ``unattributed_s`` add up to ``ledger.total_s``), and writes
that run's spans as Chrome trace-event JSON (``--trace-out``).

``--seed`` (default 1234, the ``SweepSpec.device_seed`` default) is the
device seed of every cell, so it sets the measurement outcomes and the
noise seeds.  Seed 1234 is checked against ``expected.json``; other seeds
against a reference computed in the same run.  Exit status is non-zero
when any check fails.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import layers

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
EXPECTED = os.path.join(HERE, "expected.json")
#: The benchmark's manifest: workload names, metric names, units, bounds.
MANIFEST = os.path.join(ROOT, "BENCHMARK.json")
WORK_DIR = os.path.join(ROOT, ".bench_e2e")

DEFAULT_SEED = 1234

#: Escape hatches and instrumentation switches that change the work a
#: child does; stripped so every run measures the default code paths.
STRIPPED_ENV = ("REPRO_NO_FASTPATH", "REPRO_REPLAY_TIER", "REPRO_NO_LANES",
                "REPRO_NO_SYNC_PLAN", "REPRO_OBS", "REPRO_CHAOS_PLAN")

#: Seconds any one child may run before it is killed and counted failed.
CHILD_TIMEOUT = 150.0

#: Ledger counts that depend on how the scheduler spread cells over the
#: two service workers (per-process memos), so they are not checked.
SCHEDULE_DEPENDENT_COUNTS = ("circuits.ops", "decode.calls", "decode.misses")

#: Artifact totals fixed by the grid alone -- circuits are built with
#: their own fixed seed, not the device seed -- so every seed checks them
#: against ``expected.json``.
SEED_INDEPENDENT_COUNTS = ("cells", "num_ops", "noise_cells")


@dataclass(frozen=True)
class Workload:
    """One ``BENCHMARK.json`` workload (its ``why`` is recorded there)."""

    name: str
    #: sweep CLI grid flags (the service parses the same flags).
    grid: Tuple[str, ...]
    #: "cold": fresh process, no store; "warm": against a compile store
    #: published in set-up; "service": submit -> fetch through the service.
    mode: str = "cold"


PAPER_GRID = ("--tags", "paper", "--scale", "0.1")

WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("sweep_cold", PAPER_GRID),
    Workload("sweep_warm", PAPER_GRID, mode="warm"),
    Workload("multishot_dynamic",
             ("--workloads", "logical_t_n864", "repetition_d75", "qaoa_n150",
              "bv_n1000", "--scale", "0.1", "--shots", "16")),
    # The extra families whose noise runs on the Pauli-frame samplers:
    # 30 cells of similar cost, so the two workers' cold makespan does
    # not hinge on which worker draws a statevector-sized cell.
    Workload("service_noisy",
             ("--workloads", "clifford_t_n250", "hidden_shift_n64",
              "hidden_shift_n200", "repetition_d25", "repetition_d75",
              "qaoa_n150", "--scale", "0.1", "--noise", "depolarizing_1e3",
              "--noise-shots", "2048"), mode="service"),
)}

#: Cold publishes of the compile store in sweep_warm's set-up.
PUBLISHES = 3
#: Service workers the bench launches next to ``serve --workers 0``.
SERVICE_WORKERS = 2
#: Closed-loop warm round trips per service boot (one client).
ROUNDTRIPS = 100
#: The cold submission's status poll interval (s).
POLL_S = 0.02
#: Workers' lease long-poll (s): how long a stopping worker may wait.
WORKER_POLL_S = "0.25"


class BenchError(RuntimeError):
    """A child failed, timed out or produced an unusable result."""


# -- processes ---------------------------------------------------------------

def child_env() -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in STRIPPED_ENV}
    env["PYTHONPATH"] = SRC
    # A fixed hash seed keeps set-iteration order, and with it timing,
    # the same from run to run.
    env["PYTHONHASHSEED"] = "0"
    return env


_LIVE: List["Child"] = []


class Child:
    """One ``child.py`` process; ``wait`` reaps it with its peak RSS.

    Only ``wait`` reaps: ``Popen.poll``/``send_signal`` would reap an
    exited child themselves and lose its resource usage."""

    def __init__(self, tmp: str, tag: str, mode: str, module: str,
                 args: Sequence[str], stdout_path: Optional[str] = None):
        self.tag = tag
        self.result = os.path.join(tmp, tag + ".json")
        self.log = os.path.join(tmp, tag + ".log")
        self.rss_mb = 0.0
        command = [sys.executable, CHILD, mode, self.result, module,
                   *args]
        with open(self.log, "wb") as err, \
                open(stdout_path or os.devnull, "wb") as out:
            self.spawned = time.monotonic()
            self.proc = subprocess.Popen(command, env=child_env(), cwd=ROOT,
                                         stdout=out, stderr=err)
        _LIVE.append(self)

    def wait(self, timeout: float = CHILD_TIMEOUT) -> int:
        deadline = time.monotonic() + timeout
        while True:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                self.signal(signal.SIGKILL)
                deadline = float("inf")
            time.sleep(0.005)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.rss_mb = usage.ru_maxrss / 1024.0
        _LIVE.remove(self)
        return self.proc.returncode

    def alive(self) -> bool:
        """Whether the child still runs (checked without reaping it)."""
        if self.proc.returncode is not None:
            return False
        return os.waitid(os.P_PID, self.proc.pid,
                         os.WEXITED | os.WNOHANG | os.WNOWAIT) is None

    def signal(self, signum: int) -> None:
        # An exited but unreaped child keeps its pid, so this never
        # reaches another process.
        if self.proc.returncode is None:
            os.kill(self.proc.pid, signum)

    def ready(self) -> Optional[float]:
        try:
            with open(self.result + ".ready", encoding="utf-8") as handle:
                return json.load(handle)
        except (OSError, ValueError):
            return None

    def load(self) -> dict:
        if self.proc.returncode != 0:
            raise BenchError("{} exited {}:\n{}".format(
                self.tag, self.proc.returncode, self.log_tail()))
        with open(self.result, encoding="utf-8") as handle:
            return json.load(handle)

    def log_tail(self, lines: int = 20) -> str:
        with open(self.log, encoding="utf-8", errors="replace") as handle:
            return "".join(handle.readlines()[-lines:])


def stop_all() -> None:
    """Kill and reap every child still running (error paths)."""
    for child in list(_LIVE):
        child.signal(signal.SIGKILL)
        child.wait()


# -- sweep workloads ---------------------------------------------------------

def sweep_args(workload: Workload, seed: int, store: Optional[str] = None,
               processes: int = 1) -> List[str]:
    args = list(workload.grid) + [
        "--seed", str(seed), "--processes", str(processes), "--quiet",
        "--log-level", "warning"]
    if store is not None:
        args += ["--compile-cache", store]
    return args


def artifact_counts(bench: dict) -> Dict[str, int]:
    """Deterministic totals of a BENCH artifact, checked next to the
    digest so a mismatch says what moved."""
    rows = bench["results"]
    return {"cells": len(rows),
            "makespan_cycles": sum(r["makespan_cycles"] for r in rows),
            "sync_stall_cycles": sum(r["sync_stall_cycles"] for r in rows),
            "num_ops": sum(r["num_ops"] for r in rows),
            "noise_cells": sum(1 for r in rows
                               if "fidelity_empirical" in r)}


def sweep_rep(tmp: str, tag: str, mode: str, args: List[str]) -> dict:
    """One fresh sweep-CLI process; wall clock is ready -> exit."""
    out_dir = os.path.join(tmp, tag)
    child = Child(tmp, tag, mode, "repro.harness.sweep",
                  args + ["--out", out_dir])
    child.wait()
    doc = child.load()
    with open(os.path.join(out_dir, "BENCH_sweep.json"),
              encoding="utf-8") as handle:
        bench = json.load(handle)
    return {"traced": mode == "ledger",
            "setup_s": doc["ready"] - child.spawned,
            "wall_s": doc["end"] - doc["ready"],
            "rss_mb": child.rss_mb, "cell_s": doc["cell_s"],
            "digest": bench["results_sha256"],
            "counts": artifact_counts(bench),
            "ledgers": [doc["ledger"]] if "ledger" in doc else []}


def dir_mb(path: str) -> float:
    return sum(os.path.getsize(os.path.join(base, name))
               for base, _, names in os.walk(path)
               for name in names) / 1e6


def run_sweep_workload(workload: Workload, seed: int, seconds: float,
                       traced: bool, tmp: str) -> dict:
    """Fresh sweep processes for ``seconds``.  Set-up is each process's
    spawn -> ready (interpreter start and imports) or, for sweep_warm,
    the cold writer runs that publish the compile store, spawn -> exit;
    the last published store is the one measured against."""
    publishes: List[dict] = []
    store = None
    extra: Dict[str, float] = {}
    if workload.mode == "warm":
        for index in range(1 if traced else PUBLISHES):
            if store is not None:
                shutil.rmtree(store)
            store = os.path.join(tmp, "compile-store-{}".format(index))
            publishes.append(sweep_rep(tmp, "publish-{}".format(index),
                                       "plain",
                                       sweep_args(workload, seed, store)))
        extra["compile_cache.store_mb"] = dir_mb(store)
    args = sweep_args(workload, seed, store)
    reps = []
    begin = time.monotonic()
    while len(reps) < (2 if traced else 1) or \
            time.monotonic() - begin < seconds:
        mode = "ledger" if traced and len(reps) % 2 else "plain"
        reps.append(sweep_rep(tmp, "rep-{}".format(len(reps)), mode, args))
    if publishes:
        setup = [p["setup_s"] + p["wall_s"] for p in publishes]
    else:
        setup = [rep["setup_s"] for rep in reps if not rep["traced"]]
    return {"setup": setup, "reps": reps,
            "references": {"publish-{}".format(i): p["digest"]
                           for i, p in enumerate(publishes)},
            "extra": extra}


def sweep_reference(workload: Workload, seed: int, tmp: str) -> str:
    """Digest of the same grid through the sweep CLI's process pool
    (``run_sweep(..., processes=2)``), a different execution path."""
    args = sweep_args(workload, seed, processes=2)
    return sweep_rep(tmp, "reference", "plain", args)["digest"]


# -- service workload --------------------------------------------------------

def service_spec(workload: Workload, seed: int):
    from repro.harness.sweep import add_spec_arguments, spec_from_args

    parser = argparse.ArgumentParser()
    add_spec_arguments(parser)
    return spec_from_args(parser.parse_args(
        list(workload.grid) + ["--seed", str(seed)]))


def _boot_url(path: str, serve: Child, timeout: float = 60.0) -> str:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        with open(path, encoding="utf-8") as handle:
            match = re.search(r"service on (http://\S+)", handle.read())
        if match:
            return match.group(1)
        if not serve.alive():
            break
        time.sleep(0.005)
    raise BenchError("serve did not boot:\n" + serve.log_tail())


def service_iteration(spec, tmp: str, index: int, traced: bool) -> dict:
    """Boot serve + workers on a fresh store, one cold submission, then
    ``ROUNDTRIPS`` warm submit -> status -> fetch round trips."""
    from repro.harness.spec import SweepSubmission
    from repro.service import client

    mode = "ledger" if traced else "plain"
    store = os.path.join(tmp, "store-{}".format(index))
    boot = os.path.join(tmp, "serve-{}.out".format(index))
    serve = Child(tmp, "serve-{}".format(index), mode,
                  "repro.service.__main__",
                  ["serve", "--port", "0", "--store", store,
                   "--workers", "0", "--log-level", "warning"],
                  stdout_path=boot)
    processes = [serve]
    try:
        url = _boot_url(boot, serve)
        workers = [Child(tmp, "worker-{}-{}".format(index, k), mode,
                         "repro.service.worker",
                         ["--url", url, "--store", store,
                          "--poll", WORKER_POLL_S,
                          "--worker-id", "bench-{}".format(k),
                          "--log-level", "warning"])
                   for k in range(SERVICE_WORKERS)]
        processes += workers
        while any(w.ready() is None for w in workers):
            if not all(w.alive() for w in workers):
                raise BenchError("worker died while booting")
            time.sleep(0.005)
        client.wait_healthy(url, timeout=30.0)
        setup_s = max(w.ready() for w in workers) - serve.spawned

        ledger = layers.Ledger("client:{}".format(os.getpid()))
        ledger.start()
        span = ledger.span
        began = time.monotonic()
        with span("service.client_s"):
            status = client.submit(url, SweepSubmission(
                spec=spec, name="cold_{}".format(index)))
        while status["state"] == "running":
            with span("service.client_wait_s"):
                time.sleep(POLL_S)
            with span("service.client_s"):
                status = client.status(url, status["id"])
        if status["state"] != "done":
            raise BenchError("cold submission {}: {}".format(
                status["state"], status.get("errors")))
        with span("service.client_s"):
            cold = client.fetch(url, status["id"])
        wall_s = time.monotonic() - began
        phases = status.get("phase_seconds", {})

        calls: Dict[str, List[float]] = {"submit": [], "status": [],
                                         "fetch": []}
        latencies = []
        mismatches = 0
        for k in range(ROUNDTRIPS):
            t0 = time.monotonic()
            with span("service.client_s"):
                warm = client.submit(url, SweepSubmission(
                    spec=spec, name="warm_{}_{}".format(index, k)))
                t1 = time.monotonic()
                state = client.status(url, warm["id"])["state"]
                t2 = time.monotonic()
                doc = client.fetch(url, warm["id"])
            t3 = time.monotonic()
            calls["submit"].append(t1 - t0)
            calls["status"].append(t2 - t1)
            calls["fetch"].append(t3 - t2)
            latencies.append(t3 - t0)
            if state != "done" or \
                    doc["results_sha256"] != cold["results_sha256"]:
                mismatches += 1
        counters = client.metrics(url)["counters"]
        responses = re.search(r"^repro_http_responses_total (\S+)$",
                              client.metrics_text(url), re.M)
        client_ledger = ledger.finish()
    finally:
        # Workers drain first, so no /lease long-poll is open when the
        # scheduler stops (see README, "Known issue").
        for group in (processes[1:], processes[:1]):
            for process in group:
                process.signal(signal.SIGTERM)
            for process in group:
                process.wait(timeout=30.0)
    results = [process.load() for process in processes]
    log_errors = 0
    for process in processes:
        with open(process.log, encoding="utf-8", errors="replace") as handle:
            log_errors += sum(1 for line in handle
                              if " ERROR " in line or "Traceback" in line)
    workers_busy = phases.get("total", 0.0)
    return {
        "traced": traced, "setup_s": setup_s, "wall_s": wall_s,
        "rss_mb": max(process.rss_mb for process in processes),
        "latency_s": latencies, "calls": calls, "mismatches": mismatches,
        "digest": cold["results_sha256"],
        "counts": artifact_counts(cold),
        "cells_failed": status["cells_failed"],
        "ledgers": ([r["ledger"] for r in results] + [client_ledger]
                    if traced else []),
        "service": {
            "service.worker_busy_s": workers_busy,
            "service.worker_utilization":
                workers_busy / (SERVICE_WORKERS * wall_s),
            "service.store_hits": counters["store_hits"],
            "service.misses": counters["misses"],
            "service.leases_granted": counters["leases_granted"],
            "service.leases_expired": counters["leases_expired"],
            "service.requests": float(responses.group(1)) if responses
            else 0.0,
            "service.log_errors": log_errors,
        },
    }


def run_service_workload(workload: Workload, seed: int, seconds: float,
                         traced: bool, tmp: str) -> dict:
    spec = service_spec(workload, seed)
    reps = []
    begin = time.monotonic()
    while len(reps) < (2 if traced else 1) or \
            time.monotonic() - begin < seconds:
        reps.append(service_iteration(
            spec, tmp, len(reps), traced and len(reps) % 2 == 1))
    return {"setup": [r["setup_s"] for r in reps if not r["traced"]],
            "reps": reps, "references": {}, "extra": {}}


# -- metrics -----------------------------------------------------------------

def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (``q`` in 0..100)."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def end_to_end_metrics(run: dict) -> Dict[str, float]:
    reps = [rep for rep in run["reps"] if not rep["traced"]]
    if "latency_s" in reps[0]:
        # Warm round trips are identical requests: pool every sample.
        latencies = [s for rep in reps for s in rep["latency_s"]]
    else:
        # A sweep runs the same cells in the same order every time: take
        # each cell's median over the repetitions, then the distribution
        # over cells.  Pooled samples let a slow repetition and the gaps
        # between cell sizes move the percentiles.
        latencies = [statistics.median(cell) for cell in
                     zip(*(rep["cell_s"] for rep in reps))]
    return {
        "setup_s": statistics.median(run["setup"]),
        "wall_s": statistics.median(rep["wall_s"] for rep in reps),
        "latency_p50_ms": percentile(latencies, 50) * 1e3,
        "latency_p95_ms": percentile(latencies, 95) * 1e3,
        "peak_rss_mb": statistics.median(rep["rss_mb"] for rep in reps),
    }


def median_rep(reps: List[dict]) -> dict:
    ordered = sorted(reps, key=lambda rep: rep["wall_s"])
    return ordered[(len(ordered) - 1) // 2]


def ledger_metrics(run: dict, names: Sequence[str]
                   ) -> Tuple[Dict[str, float], dict]:
    """Per-layer metrics ``names`` of the median traced rep, and its
    merged ledger."""
    traced = [rep for rep in run["reps"] if rep["traced"]]
    plain = [rep for rep in run["reps"] if not rep["traced"]]
    rep = median_rep(traced)
    ledgers = rep["ledgers"]
    total = sum(ledger["wall_s"] for ledger in ledgers)
    unattributed = sum(ledger["unattributed_s"] for ledger in ledgers)
    self_s: Dict[str, float] = {}
    counts: Dict[str, float] = {}
    bindings: Dict[str, List[float]] = {}
    for ledger in ledgers:
        for layer, seconds in ledger["self_s"].items():
            self_s[layer] = self_s.get(layer, 0.0) + seconds
        for name, value in ledger["counts"].items():
            counts[name] = counts.get(name, 0) + value
        for binding, (calls, seconds) in ledger["bindings"].items():
            stat = bindings.setdefault(binding, [0, 0.0])
            stat[0] += calls
            stat[1] += seconds
    metrics: Dict[str, float] = dict.fromkeys(names, 0)
    metrics.update({layer: self_s.get(layer, 0.0)
                    for layer in layers.LAYER_NAMES})
    metrics.update(counts)
    metrics.update(run["extra"])
    metrics.update(rep.get("service", {}))
    metrics["ledger.total_s"] = total
    metrics["unattributed_s"] = unattributed
    metrics["unattributed_ratio"] = unattributed / total
    if metrics["sim.run_s"] > 0:
        metrics["sim.events_per_s"] = metrics["sim.events"] / \
            metrics["sim.run_s"]
    epochs = metrics["sync_plan.resolved"] + metrics["sync_plan.fallback"]
    if epochs:
        metrics["sync_plan.resolved_ratio"] = \
            metrics["sync_plan.resolved"] / epochs
    gets = bindings.get("repro.service.store:CellStore.get")
    if gets and gets[0]:
        metrics["store.get_ms"] = gets[1] / gets[0] * 1e3
    if "calls" in rep:
        for call, samples in rep["calls"].items():
            metrics["service.{}_ms".format(call)] = \
                statistics.median(samples) * 1e3
    metrics["trace_overhead_ratio"] = (
        statistics.median(r["wall_s"] for r in traced)
        / statistics.median(r["wall_s"] for r in plain) - 1.0)
    additivity = abs(sum(self_s.values()) + unattributed - total)
    merged = {"counts": counts, "additivity_error_s": additivity,
              "events": [event for ledger in ledgers
                         for event in ledger["events"]]}
    return {name: metrics[name] for name in names}, merged


# -- checks ------------------------------------------------------------------

def load_manifest() -> dict:
    with open(MANIFEST, encoding="utf-8") as handle:
        return json.load(handle)


def load_expected() -> dict:
    try:
        with open(EXPECTED, encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError:
        return {}


def checked_counts(workload: Workload, counts: Dict[str, float]
                   ) -> Dict[str, float]:
    """The ledger counts that repeat exactly for a fixed seed."""
    skip = SCHEDULE_DEPENDENT_COUNTS if workload.mode == "service" else ()
    return {name: value for name, value in sorted(counts.items())
            if name not in skip}


def verify(workload: Workload, seed: int, run: dict,
           ledger_counts: Optional[Dict[str, float]],
           tmp: str) -> List[str]:
    """Problems with the run's outputs (empty list: correct)."""
    problems = []
    digests = {rep["digest"] for rep in run["reps"]}
    if len(digests) != 1:
        problems.append("reps disagree: results_sha256 {}".format(
            sorted(digests)))
    digest = run["reps"][0]["digest"]
    counts = run["reps"][0]["counts"]
    for rep in run["reps"]:
        if rep.get("mismatches"):
            problems.append("{} warm fetch(es) returned another digest or "
                            "state".format(rep["mismatches"]))
        if rep.get("cells_failed"):
            problems.append("{} cell(s) failed".format(rep["cells_failed"]))
    for name, reference in sorted(run["references"].items()):
        if reference != digest:
            problems.append("results_sha256 {}={} measured={}".format(
                name, reference, digest))
    expected = load_expected().get(workload.name)
    if expected is not None and seed == DEFAULT_SEED:
        pairs = [("results_sha256", expected["results_sha256"], digest)]
        pairs += [(name, value, counts.get(name))
                  for name, value in sorted(expected["counts"].items())]
        if ledger_counts is not None:
            pairs += [("ledger " + name, value, ledger_counts.get(name))
                      for name, value in sorted(
                          expected["ledger_counts"].items())]
    elif expected is not None:
        pairs = [(name, expected["counts"][name], counts.get(name))
                 for name in SEED_INDEPENDENT_COUNTS]
    else:
        pairs = []
    problems += ["{} expected={} measured={}".format(name, want, got)
                 for name, want, got in pairs if want != got]
    if seed != DEFAULT_SEED and workload.mode != "warm":
        reference = sweep_reference(workload, seed, tmp)
        if reference != digest:
            problems.append("results_sha256 pool-reference={} measured={}"
                            .format(reference, digest))
    return problems


def update_expected(workload: Workload, run: dict,
                    ledger_counts: Optional[Dict[str, float]]) -> None:
    expected = load_expected()
    entry = expected.get(workload.name, {})
    entry["results_sha256"] = run["reps"][0]["digest"]
    entry["counts"] = run["reps"][0]["counts"]
    if ledger_counts is not None:
        entry["ledger_counts"] = ledger_counts
    entry.setdefault("ledger_counts", {})
    expected[workload.name] = entry
    with open(EXPECTED, "w", encoding="utf-8") as handle:
        json.dump(expected, handle, indent=2, sort_keys=True)
        handle.write("\n")


# -- environment -------------------------------------------------------------

def environment() -> Dict[str, object]:
    import numpy

    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "repro", "**", "*.py"),
                                 recursive=True)):
        digest.update(os.path.relpath(path, SRC).encode("utf-8"))
        with open(path, "rb") as handle:
            digest.update(handle.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                capture_output=True, text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "commit": commit,
            "src_sha256": digest.hexdigest()}


def export_trace(workload: Workload, ledger: dict,
                 path: Optional[str]) -> List[str]:
    """Write the traced run's spans as Chrome trace JSON and validate it
    with the repo's own trace validator."""
    from repro.obs.trace import validate_trace

    doc = {"traceEvents": ledger["events"], "displayTimeUnit": "ms"}
    path = path or os.path.join(WORK_DIR,
                                "trace-{}.json".format(workload.name))
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)
    return ["trace: " + problem for problem in validate_trace(doc)]


# -- command line ------------------------------------------------------------

def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark with a per-layer ledger")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measurement time per run (default: "
                             "run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report the per-layer ledger instead of "
                             "the end-to-end metrics")
    parser.add_argument("--trace-out", default=None, metavar="FILE",
                        help="Chrome trace-event JSON of the traced run "
                             "(default .bench_e2e/trace-WORKLOAD.json)")
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="also write the full result record as JSON "
                             "(input of compare.py)")
    parser.add_argument("--update-expected", action="store_true",
                        help="record this run's digest and counts in "
                             "expected.json (seed 1234 only)")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.stderr.write("error: no repro sources at {}\n".format(SRC))
        return 2
    if args.update_expected and args.seed != DEFAULT_SEED:
        parser.error("--update-expected needs --seed {}".format(DEFAULT_SEED))
    for name in STRIPPED_ENV:
        os.environ.pop(name, None)
    sys.path.insert(0, SRC)
    layers.validate()

    manifest = load_manifest()
    units = {metric["name"]: metric["unit"] for metric in
             manifest["per_layer" if args.trace else "end_to_end"]}
    seconds = args.seconds if args.seconds is not None \
        else manifest["run_seconds"]
    workload = WORKLOADS[args.workload]
    traced = bool(args.trace)
    os.makedirs(WORK_DIR, exist_ok=True)
    tmp = os.path.join(WORK_DIR, "run-{}".format(os.getpid()))
    os.makedirs(tmp)
    problems: List[str] = []
    try:
        runner = run_service_workload if workload.mode == "service" \
            else run_sweep_workload
        run = runner(workload, args.seed, seconds, traced, tmp)
        ledger = None
        if traced:
            metrics, ledger = ledger_metrics(run, list(units))
            ledger_counts = checked_counts(workload, ledger["counts"])
            if ledger["additivity_error_s"] > 1e-6:
                problems.append("layers do not add up: off by {:.3g} s"
                                .format(ledger["additivity_error_s"]))
        else:
            metrics = end_to_end_metrics(run)
            ledger_counts = None
        if args.update_expected:
            update_expected(workload, run, ledger_counts)
        problems += verify(workload, args.seed, run, ledger_counts, tmp)
        if ledger is not None:
            problems += export_trace(workload, ledger, args.trace_out)
    except BenchError as exc:
        sys.stderr.write("error: {}\n".format(exc))
        return 1
    finally:
        stop_all()
        shutil.rmtree(tmp, ignore_errors=True)

    attempted = sum(rep["counts"]["cells"] + len(rep.get("latency_s", ()))
                    for rep in run["reps"])
    failed = sum(rep.get("cells_failed", 0) + rep.get("mismatches", 0)
                 for rep in run["reps"])
    env = environment()
    for problem in problems:
        print("MISMATCH {}: {}".format(workload.name, problem))
    for name in units:
        print("{} {!r} {}".format(name, metrics[name], units[name]))
    print("env " + " ".join("{}={}".format(k, v) for k, v in env.items()))
    result = {"correct": not problems, "attempted": attempted,
              "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in units.items()}}
    if args.out:
        record = {"workload": workload.name, "seed": args.seed,
                  "seconds": seconds, "trace": args.trace,
                  "env": env, "digest": run["reps"][0]["digest"],
                  "setup_s": run["setup"],
                  "reps": [{key: rep[key] for key in
                            ("traced", "setup_s", "wall_s", "rss_mb")}
                           for rep in run["reps"]],
                  "problems": problems, "result": result}
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=1, sort_keys=True)
    print(json.dumps(result, sort_keys=True))
    return 0 if not problems else 1


if __name__ == "__main__":
    raise SystemExit(main())
