"""Scheme matrix: every registered synchronization scheme, side by side.

Sweeps the full scheme registry — the paper's three (bisp, demand,
lockstep) plus the pipeline-built extras (oracle, lockstep_window, and
anything registered since) — over two representative workloads: one
substitution-driven dynamic circuit (``bv_n400``) and one feedback-heavy
QEC instance (``logical_t_n432``).  Asserts the architectural ordering
the schemes are designed around::

    oracle <= bisp <= demand <= lockstep

(zero-latency lower bound, booking only helps, demand pays the hidden
latency, lock-step stacks feedback) at a fixed device seed.
"""

from repro.compiler.schemes import scheme_names
from repro.harness import SweepSpec, outcomes_from_rows, run_sweep
from repro.harness.tables import render_scheme_matrix

from .conftest import repro_scale

WORKLOADS = ("bv_n400", "logical_t_n432")
DEVICE_SEED = 1234


def sweep_outcomes(workloads, schemes):
    """Serial sweep of ``workloads`` x ``schemes``, one outcome per
    workload."""
    spec = SweepSpec(workloads=workloads, schemes=tuple(schemes),
                     scales=(repro_scale(),), device_seed=DEVICE_SEED)
    rows, _ = run_sweep(spec, processes=1)
    return outcomes_from_rows(rows, schemes)


def test_scheme_matrix_ordering(benchmark, bench_recorder):
    schemes = scheme_names()

    def run():
        return sweep_outcomes(WORKLOADS, schemes)

    outcomes = benchmark.pedantic(run, rounds=1, iterations=1)
    print("\n=== Scheme matrix ({} schemes, scale {}) ===".format(
        len(schemes), repro_scale()))
    print(render_scheme_matrix(outcomes, schemes=schemes))
    for outcome in outcomes:
        row = {"label": outcome.name, "num_qubits": outcome.num_qubits,
               "feedback_ops": outcome.feedback_ops}
        row.update({"{}_cycles".format(scheme): cycles
                    for scheme, cycles in outcome.makespan_cycles.items()})
        bench_recorder.add_rows([row])
        times = outcome.makespan_cycles
        assert times["oracle"] <= times["bisp"] <= times["demand"] \
            <= times["lockstep"], (outcome.name, times)


def test_oracle_normalization_anchor(benchmark, bench_recorder):
    """Figure-15-style normalization against the zero-latency anchor:
    every real scheme's makespan normalized to oracle is >= 1, and the
    overhead ranking matches the schemes' design intent."""
    def run():
        outcome, = sweep_outcomes(("bv_n400",), scheme_names())
        return outcome

    outcome = benchmark.pedantic(run, rounds=1, iterations=1)
    overheads = {scheme: outcome.normalized(scheme, baseline="oracle")
                 for scheme in outcome.makespan_cycles}
    print("\nsync overhead vs oracle:",
          {s: round(v, 3) for s, v in overheads.items()})
    bench_recorder.add("oracle_anchor", **{
        "{}_vs_oracle".format(s): v for s, v in overheads.items()})
    assert overheads["oracle"] == 1.0
    assert all(v >= 1.0 for v in overheads.values())
    assert overheads["bisp"] <= overheads["demand"] \
        <= overheads["lockstep"]
