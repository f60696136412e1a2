"""Scheme registry: validation, dispatch, pipeline stats, new schemes."""

import pytest

from repro.compiler import compile_circuit, run_circuit
from repro.compiler.codegen import lower_circuit
from repro.compiler.schemes import (LoweringPass, Scheme,
                                    SchemeRegistryError, all_schemes,
                                    get_scheme, origin_module, register,
                                    scheme_names, unregister)
from repro.circuits import build_ghz
from repro.errors import CompilationError
from repro.quantum import QuantumCircuit, build_long_range_cnot_circuit


def toy_scheme(name, **overrides):
    kwargs = dict(name=name, description="toy scheme for tests",
                  lower=lower_circuit, tags=("test",))
    kwargs.update(overrides)
    return Scheme(**kwargs)


def feedback_rich_circuit():
    """Two independent feedback blocks on disjoint controllers — the
    circuit shape where lockstep_window diverges from lockstep."""
    circuit = QuantumCircuit(6, 2)
    circuit.h(0).h(3)
    circuit.measure(0, 0)
    circuit.measure(3, 1)
    circuit.x(1, condition=(0, 1))
    circuit.x(4, condition=(1, 1))
    circuit.cx(1, 2)
    circuit.cx(4, 5)
    circuit.measure(2, 0)
    circuit.measure(5, 1)
    return circuit


class TestRegistry:
    def test_canonical_order_and_view(self):
        names = scheme_names()
        assert names[:3] == ["bisp", "demand", "lockstep"]
        assert {"oracle", "lockstep_window"} <= set(names)
        assert "warp" not in names
        # Each call reads the registry afresh: a caller's list is its own.
        names.append("warp")
        assert scheme_names() == names[:-1]

    def test_descriptions_and_tags_exposed(self):
        for scheme in all_schemes():
            assert scheme.description.strip()
        assert "paper" in get_scheme("bisp").tags
        assert "anchor" in get_scheme("oracle").tags

    def test_duplicate_registration_rejected(self):
        register(toy_scheme("toy_dup"))
        try:
            with pytest.raises(SchemeRegistryError, match="already"):
                register(toy_scheme("toy_dup"))
        finally:
            unregister("toy_dup")

    @pytest.mark.parametrize("overrides,match", [
        ({}, "must match"),  # toy_invalid- default below is invalid
        ({"description": "  "}, "description"),
        ({"lower": 42}, "callable"),
        ({"passes": ("not-a-pass",)}, "LoweringPass"),
        ({"adapt_config": 3}, "adapt_config"),
        ({"tags": ("",)}, "tags"),
    ])
    def test_invalid_schemes_rejected(self, overrides, match):
        name = "toy_invalid" if overrides else "Toy-Invalid"
        with pytest.raises(SchemeRegistryError, match=match):
            register(toy_scheme(name, **overrides))

    def test_unknown_scheme_error_names_it_and_lists_registered(self):
        with pytest.raises(SchemeRegistryError) as excinfo:
            get_scheme("warp")
        message = str(excinfo.value)
        assert "warp" in message
        for name in ("bisp", "oracle", "lockstep_window"):
            assert name in message

    def test_origin_module_recorded(self):
        assert origin_module("bisp") == "repro.compiler.schemes"
        assert origin_module("oracle") == "repro.schemes.oracle"

    def test_registration_flows_into_live_view(self):
        register(toy_scheme("toy_view"))
        try:
            assert "toy_view" in scheme_names()
        finally:
            unregister("toy_view")
        assert "toy_view" not in scheme_names()


class TestDispatch:
    def test_unknown_scheme_is_a_compilation_error(self):
        with pytest.raises(CompilationError) as excinfo:
            compile_circuit(build_ghz(3), scheme="warp")
        assert "warp" in str(excinfo.value)
        assert "bisp" in str(excinfo.value)

    def test_scheme_instance_accepted_directly(self):
        compilation = compile_circuit(build_ghz(3),
                                      scheme=toy_scheme("toy_inline"))
        assert compilation.scheme == "toy_inline"
        assert compilation.total_instructions > 0

    def test_pass_pipeline_stats_merged(self):
        circuit = build_long_range_cnot_circuit(5)
        bisp = compile_circuit(circuit, scheme="bisp")
        assert "hoisted_cycles" in bisp.stats
        demand = compile_circuit(circuit, scheme="demand")
        # Satellite: demand_gaps statistics are no longer discarded.
        assert demand.stats["hoisted_cycles"] == 0
        assert demand.stats["residual_gap_cycles"] > 0
        assert demand.stats["syncs"] > 0

    def test_custom_pass_stats_reach_compilation_result(self):
        seen = []

        def spy(lowered, config):
            seen.append(config.neighbor_link_cycles)
            return {"spy_pass_ran": 1}

        scheme = toy_scheme("toy_spy",
                            passes=(LoweringPass("spy", spy),))
        compilation = compile_circuit(build_ghz(3), scheme=scheme)
        assert seen == [compilation.config.neighbor_link_cycles]
        assert compilation.stats["spy_pass_ran"] == 1


class TestMeshThreading:
    def test_interaction_mesh_threaded_through_result(self):
        circuit = QuantumCircuit(6)
        circuit.cx(0, 5)
        compilation = compile_circuit(circuit, mesh_kind="interaction")
        assert compilation.mesh_kind == "custom"
        assert compilation.mesh_edges == ((0, 5),)
        system = compilation.build_system()
        assert system.topology is compilation.topology
        assert system.topology.are_neighbors(0, 5)

    def test_line_mesh_recorded(self):
        compilation = compile_circuit(build_ghz(3))
        assert compilation.mesh_kind == "line"
        assert compilation.mesh_edges is None


class TestOracle:
    def test_zero_latency_config(self):
        compilation = compile_circuit(build_ghz(4), scheme="oracle")
        assert compilation.config.neighbor_link_cycles == 0
        assert compilation.config.router_hop_cycles == 0
        # The caller's config object is not mutated.
        from repro.sim.config import SimulationConfig
        config = SimulationConfig()
        compile_circuit(build_ghz(4), scheme="oracle", config=config)
        assert config.neighbor_link_cycles == 4

    def test_oracle_lower_bounds_every_real_scheme(self):
        circuit = build_long_range_cnot_circuit(7)
        times = {
            scheme: run_circuit(circuit, scheme=scheme, device_seed=3,
                                record_gate_log=False).makespan_cycles
            for scheme in ("oracle", "bisp", "demand", "lockstep")}
        assert times["oracle"] <= times["bisp"] <= times["demand"] \
            <= times["lockstep"]


class TestLockstepWindow:
    def test_diverges_from_lockstep_on_independent_feedback(self):
        circuit = feedback_rich_circuit()
        lockstep = run_circuit(circuit, scheme="lockstep", device_seed=7,
                               record_gate_log=False)
        windowed = run_circuit(circuit, scheme="lockstep_window",
                               device_seed=7, record_gate_log=False)
        # Independent feedback blocks overlap instead of stacking.
        assert windowed.makespan_cycles < lockstep.makespan_cycles
        assert windowed.system.device.gate_skew_events == 0

    def test_still_pays_central_broadcast(self):
        circuit = feedback_rich_circuit()
        windowed = compile_circuit(circuit, scheme="lockstep_window")
        bisp = compile_circuit(circuit, scheme="bisp")
        # Broadcast fan-out: more messages than BISP's point-to-point.
        assert windowed.stats["messages"] >= bisp.stats["messages"]


class TestThirdPartyEndToEnd:
    def test_registered_scheme_flows_through_sweep(self):
        """A scheme registered at import time reaches BENCH rows with
        zero harness edits — the registry's core promise."""
        from repro.harness.spec import SweepSpec
        from repro.harness.sweep import run_sweep

        register(toy_scheme("toy_sweep"))
        try:
            spec = SweepSpec(workloads=("bv_n400",),
                             schemes=("bisp", "toy_sweep"), scales=(0.02,))
            rows, _ = run_sweep(spec, processes=1)
            assert [row["scheme"] for row in rows] == ["bisp", "toy_sweep"]
            assert all(row["makespan_cycles"] > 0 for row in rows)
        finally:
            unregister("toy_sweep")

    def test_default_spec_resolution_sees_new_scheme(self):
        from repro.harness.spec import SweepSpec

        spec = SweepSpec(workloads=("bv_n400",), scales=(0.02,))
        before = spec.resolved_schemes()
        register(toy_scheme("toy_late"))
        try:
            assert spec.resolved_schemes() == before + ["toy_late"]
        finally:
            unregister("toy_late")
