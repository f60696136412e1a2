"""Evaluation harness: the paper's benchmark suite (section 6.4).

Builds the thirteen Figure-15 workloads (dynamic circuits obtained by
substituting long-range CNOTs into QASMBench-style families, plus the two
logical-T QEC instances); grids run through
:func:`repro.harness.sweep.run_sweep`, whose rows regroup here into
per-workload runtime outcomes.

Workload sizes default to the paper's (adder_n577 ... w_state_n1000); a
``scale`` argument shrinks every instance proportionally for quick runs
(the *shape* of the comparison is scale-invariant — the tests check a
scaled suite, the benchmark harness runs the full one).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from ..circuits.dynamic import to_dynamic
from ..quantum.circuit import QuantumCircuit
from . import registry


@dataclass
class BenchmarkSpec:
    """One Figure-15 workload."""

    name: str
    build: Callable[[], QuantumCircuit]
    #: probability that an eligible distant CNOT is substituted
    substitution_fraction: float = 1.0
    #: linear-layout distance above which a CNOT is "long-range"
    distance_threshold: int = 1
    #: skip the dynamic-circuit conversion (logical_t is already dynamic)
    already_dynamic: bool = False
    #: intra-layer mesh: "line" for 1D devices, "interaction" to mirror the
    #: actual coupling map (2D lattice for the surface-code workloads)
    mesh_kind: str = "line"

    def circuit(self) -> QuantumCircuit:
        base = self.build()
        if self.already_dynamic:
            return base
        return to_dynamic(base,
                          distance_threshold=self.distance_threshold,
                          substitution_fraction=self.substitution_fraction)


def suite(scale: float = 1.0,
          substitution_fraction: float = 0.25,
          names: Optional[Sequence[str]] = None,
          tags: Optional[Sequence[str]] = None) -> List[BenchmarkSpec]:
    """Registry-backed benchmark suite.

    With no filter this is every registered workload (the paper's
    Figure-15 families plus everything that self-registered since);
    ``names`` selects specific workloads in the given order, ``tags``
    filters by registry tag (e.g. ``("paper",)``).
    """
    if names is not None:
        workloads = [registry.get_workload(name) for name in names]
    else:
        workloads = registry.all_workloads(tags=tags)
    return [w.spec(scale, substitution_fraction) for w in workloads]


def fig15_suite(scale: float = 1.0,
                substitution_fraction: float = 0.25) -> List[BenchmarkSpec]:
    """The paper's Figure-15 benchmarks (registry tag ``"paper"``),
    optionally scaled down.

    ``substitution_fraction`` controls how many eligible distant CNOTs
    become teleportation gadgets ("randomly substituting", section 6.4.2).
    """
    return suite(scale, substitution_fraction, tags=("paper",))


@dataclass
class BenchmarkOutcome:
    """Per-workload results across schemes."""

    name: str
    num_qubits: int
    num_ops: int
    feedback_ops: int
    makespan_cycles: Dict[str, int] = field(default_factory=dict)
    stall_cycles: Dict[str, int] = field(default_factory=dict)

    def normalized(self, scheme: str = "bisp",
                   baseline: str = "lockstep") -> float:
        """Runtime of ``scheme`` normalized to ``baseline`` (Figure 15)."""
        return self.makespan_cycles[scheme] / self.makespan_cycles[baseline]


def outcomes_from_rows(rows: Sequence[Dict[str, object]],
                       schemes: Sequence[str]) -> List[BenchmarkOutcome]:
    """Regroup per-cell sweep rows into per-workload outcomes (for the
    Figure-15 and scheme-matrix tables); workloads missing any of
    ``schemes`` are dropped."""
    outcomes: Dict[str, BenchmarkOutcome] = {}
    for row in rows:
        name = row["workload"]
        outcome = outcomes.get(name)
        if outcome is None:
            outcome = outcomes[name] = BenchmarkOutcome(
                name=name, num_qubits=row["num_qubits"],
                num_ops=row["num_ops"], feedback_ops=row["feedback_ops"])
        outcome.makespan_cycles[row["scheme"]] = row["makespan_cycles"]
        outcome.stall_cycles[row["scheme"]] = row["sync_stall_cycles"]
    return [o for o in outcomes.values()
            if all(s in o.makespan_cycles for s in schemes)]
