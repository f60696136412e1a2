#!/usr/bin/env python3
"""Compare two sets of end-to-end benchmark results.

    python3 benchmarks/e2e/compare.py --base OLD/*.json --new NEW/*.json
    python3 benchmarks/e2e/compare.py --new NEW/*.json --append-trajectory LABEL
    python3 benchmarks/e2e/compare.py --profile sweep_cold [--seed N]

Result files are the ``--out`` records of ``run.py``.  For every
workload and metric the comparison prints each side's median and
quartiles and, for the end-to-end metrics, a verdict against the bound
in ``BENCHMARK.json``:

* ``regressed``  -- the new median is worse than the base median by more
  than the bound;
* ``unresolved`` -- the base runs spread wider than the bound, and not
  every new run beats every base run;
* ``ok``         -- otherwise.

Per-layer metrics (traced records) are listed without a verdict.

``--append-trajectory LABEL`` appends one line per workload with the
medians of ``--new`` to ``trajectory.jsonl``.

``--profile WORKLOAD`` runs one sweep child under cProfile, switched on
only inside ``ControlSystem.run``, and prints that time by
``repro.<package>`` -- the split of ``sim.run_s`` into core, sim, network
and quantum.  The profiler inflates every Python call, so these shares
are distorted and are not metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
from collections import defaultdict
from typing import Dict, List, Optional, Sequence

import run

TRAJECTORY = os.path.join(run.HERE, "trajectory.jsonl")


def read_records(paths: Sequence[str]) -> List[dict]:
    records = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            records.append(json.load(handle))
    return records


def metric_values(records: Sequence[dict]
                  ) -> Dict[str, Dict[str, List[float]]]:
    """workload -> metric -> values, over ``records``."""
    values: Dict[str, Dict[str, List[float]]] = defaultdict(
        lambda: defaultdict(list))
    for record in records:
        for name, metric in record["result"]["metrics"].items():
            values[record["workload"]][name].append(metric["value"])
    return values


def quartiles(values: List[float]):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base: List[float], new: List[float], bound: float) -> str:
    """Lower-is-better verdict of ``new`` against ``base`` (see module
    docstring)."""
    if len(base) < 2:
        return "unresolved"
    q1, median, q3 = quartiles(base)
    if (q3 - q1) / median > bound:
        return "ok" if max(new) < min(base) else "unresolved"
    return "regressed" if statistics.median(new) > median * (1 + bound) \
        else "ok"


def compare(base_paths: Sequence[str], new_paths: Sequence[str]) -> int:
    manifest = run.load_manifest()
    bounds = {m["name"]: m["bound"] for m in manifest["end_to_end"]}
    base = metric_values(read_records(base_paths))
    new = metric_values(read_records(new_paths))
    regressed = 0
    row = "{:18s} {:26s} {:>34s} {:>34s} {:>8s}  {}"
    print(row.format("workload", "metric", "base median [q1, q3]",
                     "new median [q1, q3]", "change", "verdict"))
    for workload in sorted(set(base) & set(new)):
        for name in sorted(set(base[workload]) & set(new[workload])):
            b, n = base[workload][name], new[workload][name]
            bq, nq = quartiles(b), quartiles(n)
            change = (nq[1] / bq[1] - 1.0) if bq[1] else 0.0
            result = verdict(b, n, bounds[name]) if name in bounds else "-"
            regressed += result == "regressed"
            print(row.format(
                workload, name,
                "{:.6g} [{:.6g}, {:.6g}]".format(bq[1], bq[0], bq[2]),
                "{:.6g} [{:.6g}, {:.6g}]".format(nq[1], nq[0], nq[2]),
                "{:+.1%}".format(change), result))
    return 1 if regressed else 0


def append_trajectory(label: str, paths: Sequence[str]) -> None:
    by_workload = defaultdict(list)
    for record in read_records(paths):
        by_workload[record["workload"]].append(record)
    with open(TRAJECTORY, "a", encoding="utf-8") as handle:
        for workload, records in sorted(by_workload.items()):
            values = metric_values(records)[workload]
            handle.write(json.dumps({
                "label": label, "workload": workload,
                "runs": len(records),
                "seeds": sorted(r["seed"] for r in records),
                "seconds": records[0]["seconds"],
                "trace": records[0]["trace"],
                "env": records[0]["env"],
                "medians": {name: statistics.median(v)
                            for name, v in sorted(values.items())},
            }, sort_keys=True) + "\n")


def profile(workload_name: str, seed: int) -> int:
    workload = run.WORKLOADS[workload_name]
    if workload.mode == "service":
        sys.stderr.write("error: --profile runs the sweep workloads only\n")
        return 2
    os.makedirs(run.WORK_DIR, exist_ok=True)
    tmp = os.path.join(run.WORK_DIR, "profile-{}".format(os.getpid()))
    os.makedirs(tmp)
    try:
        store = None
        if workload.mode == "warm":
            store = os.path.join(tmp, "compile-store")
            run.sweep_rep(tmp, "publish", "plain",
                          run.sweep_args(workload, seed, store))
        child = run.Child(tmp, "profile", "profile", "repro.harness.sweep",
                          run.sweep_args(workload, seed, store))
        child.wait()
        shares = child.load()["profile"]
    finally:
        run.stop_all()
        shutil.rmtree(tmp, ignore_errors=True)
    total = sum(shares.values())
    print("ControlSystem.run tottime by package, {} seed {} "
          "(profiler-distorted; not a metric):".format(workload_name, seed))
    for group, seconds in sorted(shares.items(), key=lambda kv: -kv[1]):
        print("  {:16s} {:8.3f} s  {:6.1%}".format(group, seconds,
                                                   seconds / total))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Compare end-to-end benchmark result sets")
    parser.add_argument("--base", nargs="+", default=None, metavar="FILE")
    parser.add_argument("--new", nargs="+", default=None, metavar="FILE")
    parser.add_argument("--append-trajectory", default=None,
                        metavar="LABEL",
                        help="append the medians of --new to "
                             "trajectory.jsonl")
    parser.add_argument("--profile", default=None, metavar="WORKLOAD",
                        choices=sorted(run.WORKLOADS))
    parser.add_argument("--seed", type=int, default=run.DEFAULT_SEED)
    args = parser.parse_args(argv)
    if args.profile:
        return profile(args.profile, args.seed)
    if not args.new:
        parser.error("--new is required")
    if args.append_trajectory:
        append_trajectory(args.append_trajectory, args.new)
        return 0
    if not args.base:
        parser.error("--base is required to compare")
    return compare(args.base, args.new)


if __name__ == "__main__":
    raise SystemExit(main())
