"""Sweep specs, BENCH artifacts, regression gate, sweep CLI."""

import dataclasses
import os

import pytest

from repro.harness.benchjson import (BenchSchemaError, compare_benches,
                                     load_bench, make_bench,
                                     results_digest, validate_bench,
                                     write_bench)
from repro.harness.parallel import (SweepExecutionError, run_tasks,
                                    tasks_from_spec)
from repro.compiler.schemes import scheme_names
from repro.harness.registry import Workload, register, unregister
from repro.harness.spec import (SweepSpec, SweepSpecError,
                                SweepSubmission)
from repro.harness.sweep import main as sweep_main
from repro.harness.sweep import run_sweep
from repro.sim.config import SimulationConfig

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


def broken_workload(name, message):
    def explode(size):
        raise RuntimeError(message)
    return Workload(name=name, builder=explode, size=4, tags=("test",))

#: The golden sweep: small, fixed seed, both paper and extra families.
TINY_SPEC = SweepSpec(
    workloads=("bv_n400", "logical_t_n432", "clifford_t_n100",
               "hidden_shift_n64", "repetition_d25", "qaoa_n60"),
    schemes=("bisp", "lockstep"), scales=(0.02,), shots=(1, 3),
    device_seed=1234)


#: Names ``str.isalnum`` accepts that a ``BENCH_<name>.json`` file name
#: must not carry: only ASCII ``[A-Za-z0-9_]+`` is valid.
NON_ASCII_NAMES = ["x\u00b2\u0663", "caf\u00e9"]


class TestSweepSpec:
    def test_round_trip_identity(self):
        assert SweepSpec.from_json(TINY_SPEC.to_json()) == TINY_SPEC

    def test_round_trip_with_config_and_defaults(self):
        spec = SweepSpec(config=SimulationConfig(neighbor_link_cycles=9))
        rebuilt = SweepSpec.from_json(spec.to_json())
        assert rebuilt == spec
        assert rebuilt.config.neighbor_link_cycles == 9

    def test_cells_grid_order_and_size(self):
        spec = SweepSpec(workloads=("bv_n400", "qft_n30"),
                         schemes=("bisp", "lockstep"), scales=(0.02, 0.05),
                         shots=(1,))
        cells = spec.cells()
        assert len(cells) == 2 * 2 * 2
        assert [c.workload for c in cells[:4]] == ["bv_n400"] * 4
        assert cells[0].key() == ("bv_n400", "bisp", 0.02, 1)

    def test_default_spec_covers_registry_all_schemes(self):
        spec = SweepSpec(scales=(0.05,))
        assert len(spec.resolved_workloads()) >= 17
        schemes = spec.resolved_schemes()
        assert schemes == scheme_names()
        assert {"bisp", "demand", "lockstep", "oracle",
                "lockstep_window"} <= set(schemes)
        assert spec.num_cells() == \
            len(spec.resolved_workloads()) * len(schemes)

    @pytest.mark.parametrize("kwargs", [
        {"schemes": ()},
        {"schemes": ("bisp", "bisp")},
        {"schemes": ("warp",)},
        {"scales": (0.0,)},
        {"scales": (1.5,)},
        {"scales": (0.1, 0.1)},
        {"shots": (0,)},
        {"shots": (1.5,)},
        {"shots": (2, 2)},
        {"shots": (True,)},
        {"substitution_fraction": 2.0},
        {"workloads": ()},
        {"workloads": ("bv_n400", "bv_n400")},
        {"noise_shots": True},
        {"device_seed": None},
        {"device_seed": -1},
        {"device_seed": "abc"},
        {"device_seed": True},
        {"device_seed": 1.0},
        {"scales": (True,)},
        {"substitution_fraction": True},
        {"config": SimulationConfig(cycle_ns=True)},
        {"config": SimulationConfig(cycle_ns=0)},
        {"config": SimulationConfig(classical_cpi=0)},
        {"config": SimulationConfig(event_queue_depth=0)},
        {"config": SimulationConfig(router_fanout="8")},
        {"config": SimulationConfig(neighbor_link_cycles=-3)},
        {"config": SimulationConfig(measurement_ns=-300)},
    ])
    def test_invalid_specs_rejected(self, kwargs):
        with pytest.raises(SweepSpecError):
            SweepSpec(**kwargs)

    def test_unknown_json_field_rejected(self):
        with pytest.raises(SweepSpecError, match="unknown spec field"):
            SweepSpec.from_dict({"scalez": [0.1]})

    def test_unknown_workload_rejected_at_resolution(self):
        spec = SweepSpec(workloads=("nope",))
        with pytest.raises(Exception, match="nope"):
            spec.resolved_workloads()

    def test_unknown_scheme_error_names_it_and_lists_registered(self):
        with pytest.raises(SweepSpecError) as excinfo:
            SweepSpec(schemes=("warp",))
        message = str(excinfo.value)
        assert "warp" in message
        for name in ("bisp", "oracle", "lockstep_window"):
            assert name in message

    def test_unknown_scheme_rejected_from_json(self):
        text = SweepSpec(workloads=("bv_n400",)).to_json()
        broken = text.replace('"schemes": null',
                              '"schemes": ["bisp", "warp"]')
        assert '"warp"' in broken
        with pytest.raises(SweepSpecError, match="warp"):
            SweepSpec.from_json(broken)

    def test_schemes_none_round_trips_and_resolves(self):
        spec = SweepSpec(workloads=("bv_n400",))
        assert spec.schemes is None
        assert SweepSpec.from_json(spec.to_json()) == spec
        assert spec.resolved_schemes() == scheme_names()


#: Every ``SimulationConfig`` field, so a field added later is checked too.
CONFIG_FIELDS = list(dataclasses.fields(SimulationConfig))

#: Least value a spec may give a config field; every other field takes 0.
#: ``cycle_ns`` is the one strict bound: it must be > 0.
CONFIG_FLOORS = {"classical_cpi": 1, "event_queue_depth": 1,
                 "router_fanout": 2}


def config_spec(name, value):
    """Decode a spec whose ``config`` sets one field, as ``/submit`` does."""
    return SweepSpec.from_dict({"config": {name: value}})


class TestSpecConfigFields:
    """``SweepSpec`` checks each ``config`` field's type and lower bound
    up front, so a bad value is a ``SweepSpecError`` (HTTP 400) and not a
    sweep that runs wrong or fails every cell on the workers."""

    @pytest.mark.parametrize("field", CONFIG_FIELDS, ids=lambda f: f.name)
    def test_rejects_non_numbers(self, field):
        for value in (True, False, "8", None, [8], {"ns": 8}):
            with pytest.raises(SweepSpecError,
                               match=r"config\.{} ".format(field.name)):
                config_spec(field.name, value)

    @pytest.mark.parametrize("field", CONFIG_FIELDS, ids=lambda f: f.name)
    def test_lower_bound(self, field):
        floor = CONFIG_FLOORS.get(field.name, 0)
        for value in (floor - 1, -1000):
            with pytest.raises(SweepSpecError,
                               match=r"config\.{} ".format(field.name)):
                config_spec(field.name, value)
        if field.name == "cycle_ns":
            with pytest.raises(SweepSpecError, match=r"config\.cycle_ns "):
                config_spec(field.name, 0)
            floor = 0.5
        spec = config_spec(field.name, floor)
        assert getattr(spec.config, field.name) == floor
        assert SweepSpec.from_json(spec.to_json()) == spec

    @pytest.mark.parametrize("field", CONFIG_FIELDS, ids=lambda f: f.name)
    def test_number_kind(self, field):
        """An int field takes only an int; a float field takes any finite
        int or float."""
        default = field.default
        if isinstance(default, float):
            accepted = (int(default), default + 0.5)
            rejected = (float("inf"), float("nan"))
        else:
            accepted = (default + 1,)
            rejected = (float(default), default + 0.5)
        for value in accepted:
            spec = config_spec(field.name, value)
            assert getattr(spec.config, field.name) == value
        for value in rejected:
            with pytest.raises(SweepSpecError,
                               match=r"config\.{} ".format(field.name)):
                config_spec(field.name, value)


class TestExecution:
    def test_serial_parallel_rows_identical(self):
        spec = SweepSpec(workloads=("bv_n400", "repetition_d25"),
                         schemes=("bisp", "lockstep"), scales=(0.02,))
        serial, _ = run_sweep(spec, processes=1)
        parallel, _ = run_sweep(spec, processes=2)
        assert serial == parallel
        assert len(serial) == 4

    def test_shots_axis_recorded(self):
        spec = SweepSpec(workloads=("repetition_d25",), schemes=("bisp",),
                         scales=(0.02,), shots=(3,))
        rows, _ = run_sweep(spec, processes=1)
        (row,) = rows
        assert row["shots"] == 3
        assert row["max_shot_makespan_cycles"] >= row["makespan_cycles"]

    def test_failing_cell_raises_aggregated_error(self):
        register(broken_workload("toy_broken", "boom"))
        try:
            spec = SweepSpec(workloads=("bv_n400", "toy_broken"),
                             schemes=("bisp",), scales=(0.02,))
            with pytest.raises(SweepExecutionError) as excinfo:
                run_tasks(tasks_from_spec(spec), processes=1)
            (failure,) = excinfo.value.failures
            assert failure[0].spec_name == "toy_broken"
            assert "boom" in failure[1]
        finally:
            unregister("toy_broken")

    def test_cache_round_trip_with_shots(self, tmp_path):
        spec = SweepSpec(workloads=("bv_n400",), schemes=("bisp",),
                         scales=(0.02,), shots=(2,))
        tasks = tasks_from_spec(spec)
        cold, stats_cold = run_tasks(tasks, processes=1,
                                     cache_dir=str(tmp_path))
        warm, stats_warm = run_tasks(tasks, processes=1,
                                     cache_dir=str(tmp_path))
        assert stats_cold.misses == 1 and stats_warm.hits == 1
        assert cold == warm


class TestBenchJson:
    def test_make_bench_validates(self):
        doc = make_bench("demo", [{"label": "x", "value": 1}])
        assert validate_bench(doc) is doc

    def test_write_and_load(self, tmp_path):
        doc = make_bench("demo", [{"label": "x", "value": 1}])
        path = write_bench(str(tmp_path), doc)
        assert os.path.basename(path) == "BENCH_demo.json"
        assert load_bench(path)["results"] == doc["results"]

    @pytest.mark.parametrize("mutate,match", [
        (lambda d: d.pop("machine"), "machine"),
        (lambda d: d.update(name="no spaces"), "name"),
        (lambda d: d.update(kind="other"), "kind"),
        (lambda d: d.update(results=[]), "non-empty"),
        (lambda d: d.update(results=[{"label": {}}]), "results"),
        (lambda d: d.update(results_sha256="feed"), "digest"),
        (lambda d: d.update(extra_key=1), "extra_key"),
    ])
    def test_schema_violations_rejected(self, mutate, match):
        doc = make_bench("demo", [{"label": "x", "value": 1}])
        mutate(doc)
        with pytest.raises(BenchSchemaError, match=match):
            validate_bench(doc)

    @pytest.mark.parametrize("name", NON_ASCII_NAMES)
    def test_non_ascii_name_rejected(self, name):
        doc = make_bench("demo", [{"label": "x", "value": 1}])
        doc["name"] = name
        with pytest.raises(BenchSchemaError, match="name"):
            validate_bench(doc)

    def test_sweep_rows_require_cell_identity(self):
        with pytest.raises(BenchSchemaError, match="workload"):
            make_bench("demo", [{"value": 1}], kind="sweep")

    def test_benchmark_rows_need_a_number(self):
        with pytest.raises(BenchSchemaError, match="numeric"):
            make_bench("demo", [{"label": "only-strings"}])

    def test_regression_gate(self):
        base_row = {"workload": "w", "scheme": "bisp", "scale": 0.1,
                    "shots": 1, "num_qubits": 2, "num_ops": 2,
                    "feedback_ops": 0, "makespan_cycles": 100,
                    "sync_stall_cycles": 0, "runtime_ns": 400.0,
                    "fidelity_proxy": 1.0}
        baseline = make_bench("base", [base_row], kind="sweep")
        ok = make_bench("now", [dict(base_row, makespan_cycles=120)],
                        kind="sweep")
        slow = make_bench("now", [dict(base_row, makespan_cycles=130)],
                          kind="sweep")
        gone = make_bench("now", [dict(base_row, workload="other")],
                          kind="sweep")
        assert compare_benches(baseline, ok, max_regression=0.25) == []
        assert any("regression" in v for v in
                   compare_benches(baseline, slow, max_regression=0.25))
        assert any("coverage loss" in v for v in
                   compare_benches(baseline, gone, max_regression=0.25))


class TestGoldenArtifact:
    def test_golden_bench_json(self, update_golden):
        """The tiny fixed-seed sweep reproduces the checked-in artifact
        bit for bit (results + digest; the machine block may differ)."""
        rows, stats = run_sweep(TINY_SPEC, processes=1)
        doc = make_bench("sweep_tiny", rows, kind="sweep",
                         spec=TINY_SPEC.to_dict(),
                         cache={"hits": stats.hits, "misses": stats.misses})
        golden_path = os.path.join(GOLDEN_DIR, "BENCH_sweep_tiny.json")
        if update_golden:
            write_bench(GOLDEN_DIR, doc)
            pytest.skip("golden artifact rewritten")
        golden = load_bench(golden_path)
        assert doc["spec"] == golden["spec"]
        assert doc["results"] == golden["results"]
        assert doc["results_sha256"] == golden["results_sha256"]


class TestSweepCli:
    def test_count_cells(self, capsys):
        assert sweep_main(["--count-cells", "--tags", "paper",
                           "--schemes", "bisp", "lockstep",
                           "--scale", "0.05"]) == 0
        assert capsys.readouterr().out.strip() == "24"

    def test_print_spec_round_trips(self, capsys):
        assert sweep_main(["--print-spec", "--scale", "0.05",
                           "--workloads", "bv_n400"]) == 0
        spec = SweepSpec.from_json(capsys.readouterr().out)
        assert spec.workloads == ("bv_n400",)

    def test_out_writes_valid_artifact(self, tmp_path, capsys):
        out = str(tmp_path / "artifacts")
        code = sweep_main(["--scale", "0.02", "--schemes", "bisp",
                           "--workloads", "bv_n400", "--out", out,
                           "--name", "cli_demo", "--quiet"])
        assert code == 0
        doc = load_bench(os.path.join(out, "BENCH_cli_demo.json"))
        assert doc["kind"] == "sweep"
        assert doc["spec"]["workloads"] == ["bv_n400"]

    def test_spec_file_input(self, tmp_path, capsys):
        spec_path = str(tmp_path / "spec.json")
        with open(spec_path, "w") as handle:
            handle.write(SweepSpec(workloads=("qft_n30",),
                                   schemes=("bisp",),
                                   scales=(0.02,)).to_json())
        out = str(tmp_path / "artifacts")
        assert sweep_main(["--spec", spec_path, "--out", out,
                           "--quiet"]) == 0
        doc = load_bench(os.path.join(out, "BENCH_sweep.json"))
        assert [r["workload"] for r in doc["results"]] == ["qft_n30"]

    def test_failing_cell_exits_nonzero(self, capsys):
        register(broken_workload("toy_cli_broken", "cli boom"))
        try:
            code = sweep_main(["--scale", "0.02", "--schemes", "bisp",
                               "--workloads", "toy_cli_broken",
                               "--processes", "1", "--quiet"])
        finally:
            unregister("toy_cli_broken")
        assert code == 1
        assert "cli boom" in capsys.readouterr().err

    def test_unknown_scheme_exits_nonzero_naming_it(self, capsys):
        code = sweep_main(["--scale", "0.02", "--schemes", "warp",
                           "--workloads", "bv_n400", "--quiet"])
        assert code == 1
        err = capsys.readouterr().err
        assert "warp" in err
        assert "bisp" in err  # registered schemes listed

    def test_list_schemes(self, capsys):
        assert sweep_main(["--list-schemes"]) == 0
        out = capsys.readouterr().out
        for name in scheme_names():
            assert name in out

    def test_comma_separated_schemes(self, capsys):
        assert sweep_main(["--count-cells", "--workloads", "bv_n400",
                           "--schemes", "oracle,lockstep_window",
                           "--scale", "0.02"]) == 0
        assert capsys.readouterr().out.strip() == "2"

    def test_require_cached_fails_cold(self, tmp_path, capsys):
        code = sweep_main(["--scale", "0.02", "--schemes", "bisp",
                           "--workloads", "bv_n400", "--quiet",
                           "--cache-dir", str(tmp_path / "cache"),
                           "--require-cached"])
        assert code == 1
        assert "warm cache" in capsys.readouterr().err

    def test_regression_gate_cli(self, tmp_path, capsys):
        out = str(tmp_path / "a")
        args = ["--scale", "0.02", "--schemes", "bisp",
                "--workloads", "bv_n400", "--quiet"]
        assert sweep_main(args + ["--out", out, "--name", "base"]) == 0
        baseline = os.path.join(out, "BENCH_base.json")
        assert sweep_main(args + ["--baseline", baseline]) == 0
        # Tighten the gate to impossible (-100%): every cell "regresses".
        code = sweep_main(args + ["--baseline", baseline,
                                  "--max-regression", "-1.0"])
        assert code == 1
        assert "regression" in capsys.readouterr().err


class TestSweepSubmission:
    def test_round_trip(self):
        sub = SweepSubmission(spec=TINY_SPEC, name="nightly",
                              owner="alice", priority=3)
        assert SweepSubmission.from_json(sub.to_json()) == sub

    def test_defaults(self):
        sub = SweepSubmission(spec=TINY_SPEC)
        assert (sub.name, sub.owner, sub.priority) == \
            ("sweep", "anonymous", 0)

    @pytest.mark.parametrize("kwargs", [
        {"name": ""},
        {"name": "has space"},
        {"name": "has-dash"},
        {"owner": ""},
        {"priority": -1},
        {"priority": 1.5},
        {"priority": True},
    ] + [{"name": name} for name in NON_ASCII_NAMES])
    def test_invalid_metadata_rejected(self, kwargs):
        with pytest.raises(SweepSpecError):
            SweepSubmission(spec=TINY_SPEC, **kwargs)

    def test_spec_required_and_typed(self):
        with pytest.raises(SweepSpecError):
            SweepSubmission.from_dict({"name": "x"})
        with pytest.raises(SweepSpecError):
            SweepSubmission(spec="not a spec")

    def test_unknown_field_rejected(self):
        with pytest.raises(SweepSpecError):
            SweepSubmission.from_dict(
                {"spec": TINY_SPEC.to_dict(), "color": "red"})


class TestServiceRows:
    """The v3 ``kind="service"`` BENCH row family (scheduler counters)."""

    def _service_doc(self, **overrides):
        row = {"label": "smoke", "submissions": 2, "cells_total": 8,
               "hits": 2, "misses": 6, "hit_rate": 0.25,
               "leases_granted": 6, "leases_expired": 0}
        row.update(overrides)
        return make_bench("svc", [row], kind="service")

    def test_service_rows_validate(self):
        doc = self._service_doc()
        assert validate_bench(doc) == doc
        assert doc["schema_version"] == 3

    def test_hits_must_sum_to_cells_total(self):
        with pytest.raises(BenchSchemaError, match="cells_total"):
            self._service_doc(hits=3)

    def test_missing_counter_rejected(self):
        row = {"label": "smoke", "submissions": 1, "cells_total": 1,
               "hits": 0, "misses": 1, "hit_rate": 0.0,
               "leases_granted": 1}
        with pytest.raises(BenchSchemaError):
            make_bench("svc", [row], kind="service")

    def test_service_kind_needs_v3(self):
        doc = self._service_doc()
        doc["schema_version"] = 2
        doc["results_sha256"] = results_digest(doc["results"])
        with pytest.raises(BenchSchemaError, match="schema_version"):
            validate_bench(doc)
