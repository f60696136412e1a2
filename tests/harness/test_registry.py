"""Workload registry: names, validation, scaling rules, suite views."""

import pytest

from repro.harness import fig15_suite
from repro.harness.registry import (Workload, WorkloadRegistryError,
                                    all_workloads, get_workload, register,
                                    register_workload, unregister,
                                    workload_names)
from repro.harness.runner import suite
from repro.quantum.circuit import QuantumCircuit


def _toy_builder(size):
    circuit = QuantumCircuit(max(2, size))
    circuit.h(0)
    return circuit


def toy(name="toy_n8", **overrides):
    params = dict(name=name, builder=_toy_builder, size=8, min_size=2)
    params.update(overrides)
    return Workload(**params)


class TestPopulation:
    def test_at_least_seventeen_workloads(self):
        assert len(workload_names()) >= 17

    def test_paper_suite_is_twelve(self):
        paper = workload_names(tags=("paper",))
        assert len(paper) == 12
        assert paper[0] == "adder_n577"

    def test_at_least_four_new_families(self):
        extra = workload_names(tags=("extra",))
        families = {name.rsplit("_", 1)[0] for name in extra}
        assert len(families) >= 4

    def test_fig15_suite_matches_paper_tag(self):
        specs = fig15_suite(scale=0.02)
        assert [s.name for s in specs] == workload_names(tags=("paper",))

    def test_suite_covers_whole_registry(self):
        assert [s.name for s in suite(scale=0.02)] == workload_names()

    def test_suite_names_filter_preserves_order(self):
        specs = suite(scale=0.02, names=["qft_n30", "bv_n400"])
        assert [s.name for s in specs] == ["qft_n30", "bv_n400"]

    def test_unknown_name_lists_registered(self):
        with pytest.raises(WorkloadRegistryError, match="registered"):
            get_workload("no_such_workload")


class TestRegistration:
    def test_duplicate_name_rejected(self):
        register(toy())
        try:
            with pytest.raises(WorkloadRegistryError,
                               match="already registered"):
                register(toy())
        finally:
            unregister("toy_n8")

    def test_decorator_registers_and_returns_fn(self):
        try:
            @register_workload("toy_deco", size=4, tags=("test",))
            def build(size):
                return _toy_builder(size)

            assert build(4).num_qubits == 4
            assert get_workload("toy_deco").tags == ("test",)
        finally:
            unregister("toy_deco")

    @pytest.mark.parametrize("overrides", [
        {"name": "Bad Name"},
        {"name": ""},
        {"size": 0},
        {"min_size": 0},
        {"scale_rule": "cubic"},
        {"substitution_fraction": 1.5},
        {"substitution_fraction": -0.1},
        {"distance_threshold": 0},
        {"mesh_kind": "torus"},
        {"builder": "not callable"},
        {"name": "toy_n8\n"},  # "$" also matches before a final newline
    ])
    def test_invalid_parameters_rejected(self, overrides):
        with pytest.raises(WorkloadRegistryError):
            register(toy(**overrides))

    def test_rejected_workload_not_registered(self):
        with pytest.raises(WorkloadRegistryError):
            register(toy(mesh_kind="torus"))
        assert "toy_n8" not in workload_names()


class TestScaling:
    def test_linear_rule_with_floor(self):
        workload = get_workload("bv_n400")
        assert workload.scaled_size(1.0) == 400
        assert workload.scaled_size(0.1) == 40
        assert workload.scaled_size(0.001) == workload.min_size

    def test_sqrt_rule_for_code_distance(self):
        workload = get_workload("logical_t_n432")
        assert workload.scaled_size(1.0) == 7
        assert workload.scaled_size(0.25) == max(3, round(7 * 0.5))

    def test_spec_substitution_override_wins(self):
        own = toy(substitution_fraction=0.75)
        spec = own.spec(scale=1.0, substitution_fraction=0.1)
        assert spec.substitution_fraction == 0.75
        spec = toy().spec(scale=1.0, substitution_fraction=0.1)
        assert spec.substitution_fraction == 0.1

    def test_canonical_order_is_stable(self):
        names = workload_names()
        assert names == workload_names()
        assert names.index("adder_n577") == 0
        # Builtin extras come after the paper block, families grouped.
        assert names.index("clifford_t_n100") > names.index("w_state_n1000")

    def test_all_workloads_build_at_tiny_scale(self):
        for workload in all_workloads():
            circuit = workload.build(scale=0.02)
            assert circuit.num_qubits >= 2
            assert len(circuit) > 0
