"""Figure 15: normalized end-to-end runtime vs the lock-step baseline.

Default ``REPRO_SCALE=0.15`` shrinks the workloads for bench-speed runs;
set ``REPRO_SCALE=1.0`` for the paper's sizes.  At paper scale,
``python -m repro.harness.sweep --tags paper --schemes bisp lockstep
--scale 1.0 --processes 2`` gives an average normalized runtime of
0.670 (a 33.0% reduction; 97 s on a shared 2-vCPU host), against the
paper's 0.772 (22.8%).
"""


from repro.fidelity import arithmetic_mean
from repro.harness import render_figure15
from repro.harness.tables import ascii_bar_chart

from .conftest import (fig15_outcomes, repro_parallel, repro_processes,
                       repro_scale)


def _sweep():
    # REPRO_PARALLEL=1 fans the grid over a process pool; outcomes are
    # bit-identical to the serial walk either way.
    return fig15_outcomes(repro_scale(), processes=repro_processes()
                          if repro_parallel() else 1)


def test_fig15_normalized_runtime(benchmark, bench_recorder):
    outcomes = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    print("\n=== Figure 15 (scale={}) ===".format(repro_scale()))
    print(render_figure15(outcomes))
    print()
    print(ascii_bar_chart([o.name for o in outcomes],
                          [o.normalized() for o in outcomes],
                          reference=1.0))
    bench_recorder.add_rows(
        {"label": o.name, "scale": repro_scale(),
         "num_qubits": o.num_qubits, "feedback_ops": o.feedback_ops,
         "bisp_cycles": o.makespan_cycles["bisp"],
         "lockstep_cycles": o.makespan_cycles["lockstep"],
         "normalized": o.normalized()}
        for o in outcomes)
    normals = [o.normalized() for o in outcomes]
    # Shape criteria: BISP reduces average runtime; every feedback-heavy
    # workload individually improves; nothing pathological (>1.3x).
    assert arithmetic_mean(normals) < 0.9
    by_name = {o.name: o for o in outcomes}
    assert by_name["logical_t_n864"].normalized() < 0.8
    assert all(n <= 1.3 for n in normals)
    # bv is the least favorable workload for BISP among feedback
    # benchmarks (its communication latency grows with scale, paper 6.4.4)
    feedback = [o for o in outcomes if o.feedback_ops > 0]
    worst = max(feedback, key=lambda o: o.normalized())
    assert worst.name.startswith("bv") or worst.normalized() > 0.75
