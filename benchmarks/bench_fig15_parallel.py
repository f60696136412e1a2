"""Figure 15 through the sweep executor: serial parity + wall-clock.

Runs the scaled Figure-15 grid twice through ``run_sweep`` — in-process
(``processes=1``) and over a process pool — checks the outcomes (and
hence the scheme rankings) are identical, and reports the speedup.  On a
multi-core runner the pool must be at least 2x faster; on boxes with
fewer than four cores the speedup is only reported (there is nothing to
fan out over).
"""

import os
import time

import pytest

from repro.harness import render_figure15
from repro.harness.parallel import clear_cell_caches

from .conftest import fig15_outcomes, repro_processes, repro_scale


@pytest.mark.parallel
def test_fig15_parallel_matches_serial_and_speeds_up(benchmark,
                                                     bench_recorder):
    scale = repro_scale()

    def timed():
        # Both sides start cold: without the clear, the pool's forked
        # workers would inherit the serial run's compile memo.
        clear_cell_caches()
        t0 = time.perf_counter()
        serial = fig15_outcomes(scale, processes=1)
        t1 = time.perf_counter()
        clear_cell_caches()
        parallel = fig15_outcomes(scale, processes=repro_processes())
        t2 = time.perf_counter()
        return serial, parallel, t1 - t0, t2 - t1

    serial, parallel, serial_s, parallel_s = benchmark.pedantic(
        timed, rounds=1, iterations=1)
    speedup = serial_s / parallel_s
    cores = os.cpu_count() or 1
    print("\n=== Figure 15 parallel harness (scale={}, {} cores) ==="
          .format(scale, cores))
    print("serial   {:.2f}s".format(serial_s))
    print("parallel {:.2f}s  ({:.2f}x)".format(parallel_s, speedup))
    print()
    print(render_figure15(parallel))
    bench_recorder.add("parallel_speedup", scale=scale, cores=cores,
                       outcomes=len(parallel))
    bench_recorder.note_volatile(serial_seconds=serial_s,
                                 parallel_seconds=parallel_s,
                                 speedup=speedup)
    # Bit-identical outcomes -> identical scheme rankings.
    assert [o.name for o in parallel] == [o.name for o in serial]
    for a, b in zip(serial, parallel):
        assert a.makespan_cycles == b.makespan_cycles, a.name
        assert a.stall_cycles == b.stall_cycles, a.name
    assert [o.normalized() for o in parallel] == \
           [o.normalized() for o in serial]
    # Workload skew bounds the ceiling: the largest single cell is ~37% of
    # the serial total at default scale, so ~2.7x is the infinite-core
    # limit.  Demand 2x only where the core count leaves real headroom
    # AND the cells are big enough that pool startup and noisy-neighbor
    # jitter don't dominate (tiny CI smoke scales are report-only).
    if scale >= 0.1 and serial_s >= 2.0:
        if cores >= 8:
            assert speedup >= 2.0, (
                "expected >=2x on {} cores, got {:.2f}x".format(cores,
                                                                speedup))
        elif cores >= 4:
            assert speedup >= 1.4, (
                "expected >=1.4x on {} cores, got {:.2f}x".format(cores,
                                                                  speedup))


@pytest.mark.parallel
def test_fig15_cache_resume(benchmark, tmp_path, bench_recorder):
    """A warm cache answers the whole sweep without recomputing."""
    scale = min(repro_scale(), 0.05)
    cache_dir = str(tmp_path / "sweep-cache")
    fig15_outcomes(scale, processes=repro_processes(), cache_dir=cache_dir)

    def warm():
        return fig15_outcomes(scale, processes=repro_processes(),
                              cache_dir=cache_dir)

    t0 = time.perf_counter()
    outcomes = benchmark.pedantic(warm, rounds=1, iterations=1)
    warm_s = time.perf_counter() - t0
    print("\nwarm sweep from cache: {:.3f}s".format(warm_s))
    bench_recorder.add("cache_resume", scale=scale, outcomes=len(outcomes))
    bench_recorder.note_volatile(warm_sweep_seconds=warm_s)
    assert len(outcomes) == 12
    assert warm_s < 2.0  # pure cache reads, no simulation
