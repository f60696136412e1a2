"""Hot-path benchmark: decoded interpreter, lane fan-out, packed tableau.

The perf-trajectory artifact of the simulator core.  The paper-tag
Figure-15 sweep runs serially once per interpreter —

* ``legacy`` — the per-instruction interpreter, ``ReferenceCore`` from
  ``tests/core/reference_core.py`` (loaded by file path),
* ``vector`` — the default ``HISQCore``: one pipeline loop dispatching on
  pre-decoded opcode tuples, whose ``recv`` registers with the MsgU
  without an engine event

— and records per-interpreter wall-clocks plus deterministic result rows
in ``BENCH_hotpath.json``.  Both must be *bit-identical* (same per-cell
makespans, stalls and lifetimes); only the clock may differ, and the CI
digest gate (``ci/perf_smoke``) checks the rows against the checked-in
baseline.

A second benchmark times lane-parallel multishot on a static (recv-free)
workload: the lane engine fans one reference lane across all shots, so
the fast-forward clock must be far below one fresh
:func:`~repro.compiler.driver.simulate_shot` per shot, which is also the
oracle its per-shot stats must equal.

A third benchmark runs the sweep in *fresh subprocesses* — once with no
compile-cache store and once against a warm store — to measure the
cold-path payoff of the persistent compile cache on the compile phase
it replaces, with bit-identical results as the hard gate.

Also benchmarks the bit-packed stabilizer tableau against the uint8
reference layout, ``ReferenceTableau`` from
``tests/quantum/reference_tableau.py`` (loaded by file path; not part of
the timing sweep, which is state-free).

``REPRO_SCALE`` scales the workloads (default 0.15; the paper-scale
acceptance number uses 0.1); ``REPRO_BENCH_DIR`` redirects the artifact.
"""

import dataclasses
import json
import os
import random
import subprocess
import sys
import time

from repro.harness.parallel import (clear_cell_caches, run_tasks,
                                    tasks_from_spec)
from repro.harness.registry import get_workload
from repro.harness.spec import SweepSpec
from repro.compiler.driver import (compile_circuit, run_circuit,
                                   shot_device_seed, simulate_shot)
from repro.quantum.stabilizer import StabilizerBackend
from repro.testing import subprocess_env

from .conftest import interpreter, load_test_reference

#: Conservative CI floor for the fast path vs the legacy interpreter on
#: shared runners (the local scale-0.1 numbers are much higher — see
#: README "Performance").  Below this floor the fast path regressed.
MIN_SWEEP_SPEEDUP = float(os.environ.get("REPRO_HOTPATH_MIN_SPEEDUP",
                                         "0.75"))

#: Floor for lane fast-forward vs one fresh simulation per shot on a
#: static workload.  Fan-out is O(shots) dict-building vs O(shots) full
#: simulations, so even a noisy runner clears this by an order of
#: magnitude.
MIN_LANE_SPEEDUP = float(os.environ.get("REPRO_LANE_MIN_SPEEDUP", "3.0"))

#: Floor for packed-vs-uint8 tableau measurement throughput at n=300.
MIN_TABLEAU_SPEEDUP = 2.0

#: Floor for the compile phase of a *fresh process* sweeping against a
#: warm persistent compile cache vs a fresh process with no store at
#: all.  Measured in subprocesses because in-process repeats hit the
#: interpreter-wide instruction interning, which shrinks the "fully
#: cold" baseline.  The ratio covers the compile phase only, the part
#: the cache replaces: both sides run the same simulation, which would
#: dilute a whole-sweep ratio towards 1x.
MIN_COMPILE_CACHE_SPEEDUP = float(os.environ.get(
    "REPRO_COMPILE_CACHE_MIN_SPEEDUP", "1.2"))

TIERS = ("legacy", "vector")


def _timed_sweep(spec):
    """One serial sweep; returns (rows, seconds)."""
    tasks = tasks_from_spec(spec)
    started = time.perf_counter()
    results, _ = run_tasks(tasks, processes=1)
    seconds = time.perf_counter() - started
    rows = [dataclasses.asdict(results[task.key()]) for task in tasks]
    return rows, seconds


def test_sweep_interpreters(bench_recorder, scale):
    spec = SweepSpec(tags=("paper",), scales=(float(scale),))

    rows, seconds = {}, {}
    for tier in TIERS:
        with interpreter(tier):
            clear_cell_caches()
            rows[tier], seconds[tier] = _timed_sweep(spec)

    speedup_vector = seconds["legacy"] / seconds["vector"]
    print("\n=== serial paper-tag sweep (scale={}) ===".format(scale))
    print("legacy: {:.2f}s   vector: {:.2f}s ({:.2f}x)".format(
        seconds["legacy"], seconds["vector"], speedup_vector))

    cells = len(rows["legacy"])
    makespan_sum = sum(row["makespan_cycles"] for row in rows["legacy"])
    for tier in TIERS:
        row = dict(cells=cells, scale=float(scale),
                   identical=int(rows[tier] == rows["legacy"]),
                   makespan_sum=sum(r["makespan_cycles"]
                                    for r in rows[tier]))
        bench_recorder.add(
            "sweep_{}_scale_{:g}".format(tier, float(scale)), **row)
    bench_recorder.note_volatile(
        legacy_seconds=seconds["legacy"],
        vector_seconds=seconds["vector"], sweep_speedup=speedup_vector)

    # Bit-identity is the hard requirement; the wall-clock floor guards
    # against the decoded loop silently regressing to the legacy cost.
    assert rows["vector"] == rows["legacy"]
    assert makespan_sum > 0
    assert speedup_vector >= MIN_SWEEP_SPEEDUP, seconds


#: Driver for one *fresh interpreter* running the serial paper-tag
#: sweep, optionally against a compile-cache store ("-" = none).  Fresh
#: processes are the honest cold baseline: the interpreter-wide
#: instruction interning starts empty, exactly as every new sweep
#: worker, service worker, or CLI invocation does.
_SWEEP_DRIVER = """
import dataclasses, hashlib, json, sys, time
from repro.compiler.cache import compile_cache_totals
from repro.harness.parallel import run_cell_timed, tasks_from_spec
from repro.harness.spec import SweepSpec

scale = float(sys.argv[1])
cache_dir = None if sys.argv[2] == "-" else sys.argv[2]
tasks = tasks_from_spec(SweepSpec(tags=("paper",), scales=(scale,)))
if cache_dir:
    tasks = [dataclasses.replace(task, compile_cache_dir=cache_dir)
             for task in tasks]
compile_s = simulate_s = 0.0
cells = []
started = time.perf_counter()
for task in tasks:
    cell, phases = run_cell_timed(task)
    compile_s += phases["compile"]
    simulate_s += phases["simulate"]
    cells.append(dataclasses.asdict(cell))
total = time.perf_counter() - started
digest = hashlib.sha256(repr(cells).encode()).hexdigest()
print(json.dumps(dict(cells=len(cells), total=total,
                      compile=compile_s, simulate=simulate_s,
                      digest=digest, **compile_cache_totals())))
"""


def test_compile_cache_cold_vs_warm(bench_recorder, scale, tmp_path):
    """Cold-path payoff of the persistent compile cache, measured the
    way it is deployed: a fresh process with a warm store vs a fresh
    process with no store.  (In-process repeats are not a valid cold
    baseline — recompiles there reuse interned instructions.)"""
    cache_dir = str(tmp_path / "compile")

    def _fresh_sweep(store):
        proc = subprocess.run(
            [sys.executable, "-c", _SWEEP_DRIVER, str(float(scale)),
             store or "-"],
            capture_output=True, text=True, timeout=600,
            env=subprocess_env())
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout.splitlines()[-1])

    cold = _fresh_sweep(None)
    publish = _fresh_sweep(cache_dir)  # cold writer: populates the store
    warm = _fresh_sweep(cache_dir)     # fresh process x warm store
    speedup = cold["compile"] / warm["compile"]
    total_speedup = cold["total"] / warm["total"]

    print("\n=== compile cache, fresh processes (scale={}, {} cells) ==="
          .format(scale, cold["cells"]))
    print("no store:   compile {:.2f}s + simulate {:.2f}s = {:.2f}s"
          .format(cold["compile"], cold["simulate"], cold["total"]))
    print("warm store: compile {:.2f}s ({:.2f}x) + simulate {:.2f}s = "
          "{:.2f}s ({:.2f}x)".format(warm["compile"], speedup,
                                     warm["simulate"], warm["total"],
                                     total_speedup))

    bench_recorder.add(
        "compile_cache_scale_{:g}".format(float(scale)),
        cells=cold["cells"], scale=float(scale),
        identical=int(cold["digest"] == warm["digest"] ==
                      publish["digest"]),
        warm_hits=warm["hits"], warm_misses=warm["misses"])
    bench_recorder.note_volatile(
        cold_compile_seconds=cold["compile"],
        cold_simulate_seconds=cold["simulate"],
        warm_compile_seconds=warm["compile"],
        warm_simulate_seconds=warm["simulate"],
        compile_cache_speedup=speedup,
        compile_cache_total_speedup=total_speedup)

    # Bit-identity across no-store / cold-writer / warm-reader runs.
    assert cold["digest"] == publish["digest"] == warm["digest"]
    # The writer compiles every unique key (cells differing only on the
    # noise axis share one compilation and hit mid-sweep); the warm
    # reader compiles nothing.
    assert publish["hits"] + publish["misses"] == cold["cells"]
    assert publish["misses"] > 0
    assert (warm["hits"], warm["misses"]) == (cold["cells"], 0)
    assert speedup >= MIN_COMPILE_CACHE_SPEEDUP, (cold, warm)


def test_lane_fanout_speedup(bench_recorder, scale):
    """Static multishot: fan-out must beat one fresh simulation per
    shot and equal it shot for shot."""
    shots, device_seed = 32, 12345
    spec = get_workload("qft_n300").spec(float(scale), 0.0)
    circuit = spec.circuit()

    started = time.perf_counter()
    fast = run_circuit(circuit, scheme="bisp", backend=None,
                       record_gate_log=False, shots=shots,
                       device_seed=device_seed, mesh_kind=spec.mesh_kind)
    fast_seconds = time.perf_counter() - started
    started = time.perf_counter()
    compilation = compile_circuit(circuit, scheme="bisp",
                                  mesh_kind=spec.mesh_kind)
    slow = [simulate_shot(compilation, shot_device_seed(device_seed, s))
            for s in range(shots)]
    slow_seconds = time.perf_counter() - started
    speedup = slow_seconds / fast_seconds
    print("\n=== lane fan-out, qft_n300 x {} shots (scale={}) ==="
          .format(shots, scale))
    print("fastforward: {:.3f}s   fresh per shot: {:.3f}s   speedup {:.1f}x"
          .format(fast_seconds, slow_seconds, speedup))
    assert fast.lane_mode == "fastforward", fast.lane_mode
    identical = int(fast.shot_stats == slow)
    bench_recorder.add("lanes_qft_shots{}".format(shots), shots=shots,
                       scale=float(scale), identical=identical,
                       makespan_sum=sum(fast.shot_makespans))
    bench_recorder.note_volatile(lane_fast_seconds=fast_seconds,
                                 lane_replay_seconds=slow_seconds,
                                 lane_speedup=speedup)
    assert fast.shot_stats == slow
    assert speedup >= MIN_LANE_SPEEDUP, (fast_seconds, slow_seconds)


def _tableau_workload(backend, rng, gates):
    n = backend.num_qubits
    for _ in range(gates):
        roll = rng.random()
        if roll < 0.4:
            backend.h(rng.randrange(n))
        elif roll < 0.6:
            backend.s(rng.randrange(n))
        else:
            a, b = rng.randrange(n), rng.randrange(n)
            if a != b:
                backend.cx(a, b)
    for q in range(n):
        backend.measure(q)


def test_packed_tableau_speedup(bench_recorder):
    n, gates, seed = 300, 2000, 20260730
    layouts = {"packed": StabilizerBackend,
               "uint8": load_test_reference("quantum/reference_tableau.py",
                                            "ReferenceTableau")}
    timings = {}
    outcomes = {}
    for layout, backend_class in layouts.items():
        backend = backend_class(n, seed=seed)
        rng = random.Random(seed)
        started = time.perf_counter()
        _tableau_workload(backend, rng, gates)
        timings[layout] = time.perf_counter() - started
        outcomes[layout] = backend.canonical_stabilizers()
    speedup = timings["uint8"] / timings["packed"]
    print("\n=== stabilizer tableau, n={} ({} gates + measure-all) ==="
          .format(n, gates))
    print("packed: {:.3f}s   uint8: {:.3f}s   speedup {:.1f}x".format(
        timings["packed"], timings["uint8"], speedup))
    bench_recorder.add("tableau_n{}".format(n), num_qubits=n, gates=gates,
                       identical=int(outcomes["packed"] == outcomes["uint8"]))
    bench_recorder.note_volatile(packed_seconds=timings["packed"],
                                 uint8_seconds=timings["uint8"],
                                 tableau_speedup=speedup)
    assert outcomes["packed"] == outcomes["uint8"]
    assert speedup >= MIN_TABLEAU_SPEEDUP, timings
