"""Noise end to end: sweep determinism, BENCH schema v2, CLI.

The non-negotiable property: the same ``NoiseModel`` + seed produces
bit-identical shot tables — and therefore byte-identical BENCH rows —
across the serial runner, a spawn-started process pool, and a
warm-cache replay.
"""

import json
import os

import numpy as np
import pytest

from repro.harness.benchjson import (BENCH_SCHEMA_VERSION, BenchSchemaError,
                                     load_bench, make_bench, validate_bench,
                                     write_bench)
from repro.harness.parallel import run_tasks, tasks_from_spec
from repro.harness.spec import SweepSpec, SweepSpecError
from repro.harness.sweep import main as sweep_main
from repro.harness.sweep import run_sweep
from repro.noise import NoiseModel, preset
from repro.quantum.teleport import build_long_range_cnot_circuit

NOISY_SPEC = SweepSpec(workloads=("bv_n400", "repetition_d25"),
                       schemes=("bisp", "lockstep"), scales=(0.02,),
                       noise=preset("depolarizing_1e3"), noise_shots=64)

DAMPING_SPEC = SweepSpec(workloads=("bv_n400",),
                         schemes=("bisp", "lockstep"), scales=(0.02,),
                         noise=preset("damping_150us"), noise_shots=128)


class TestSpecNoiseField:
    def test_round_trip_identity(self):
        assert SweepSpec.from_json(NOISY_SPEC.to_json()) == NOISY_SPEC

    def test_noise_validation(self):
        with pytest.raises(SweepSpecError, match="noise_shots"):
            SweepSpec(noise_shots=0)
        with pytest.raises(SweepSpecError, match="NoiseModel"):
            SweepSpec(noise={"gate_1q": 0.1})

    def test_bad_noise_json_rejected(self):
        data = json.loads(NOISY_SPEC.to_json())
        data["noise"] = {"gate_9q": 1.0}
        with pytest.raises(SweepSpecError, match="bad noise"):
            SweepSpec.from_dict(data)


class TestNoisySweepDeterminism:
    def test_serial_rows_carry_fidelity(self):
        rows, _ = run_sweep(NOISY_SPEC, processes=1)
        assert len(rows) == 4
        for row in rows:
            assert 0.0 <= row["fidelity_empirical"] <= 1.0
            assert row["fidelity_ci_low"] <= row["fidelity_empirical"] \
                <= row["fidelity_ci_high"]
            assert row["noise_shots"] == 64
            assert row["noise_method"] in ("frame", "statevector",
                                           "frame_approx")

    @pytest.mark.parallel
    def test_serial_spawn_and_cache_bit_identical(self, tmp_path):
        serial, _ = run_sweep(NOISY_SPEC, processes=1)
        spawned, _ = run_sweep(NOISY_SPEC, processes=2,
                               start_method="spawn",
                               cache_dir=str(tmp_path))
        replayed, stats = run_sweep(NOISY_SPEC, processes=1,
                                    cache_dir=str(tmp_path))
        assert serial == spawned == replayed
        assert stats.hits == len(serial) and stats.misses == 0

    def test_zero_rate_noise_matches_noiseless_rows(self):
        noiseless = SweepSpec(workloads=("repetition_d25",),
                              schemes=("bisp",), scales=(0.02,))
        zero = SweepSpec(workloads=("repetition_d25",), schemes=("bisp",),
                         scales=(0.02,), noise=NoiseModel(), noise_shots=16)
        plain_rows, _ = run_sweep(noiseless, processes=1)
        zero_rows, _ = run_sweep(zero, processes=1)
        (plain,) = plain_rows
        (zeroed,) = zero_rows
        assert zeroed["fidelity_empirical"] == 1.0
        stripped = {k: v for k, v in zeroed.items()
                    if not (k.startswith("fidelity_ci") or
                            k.startswith("noise_") or
                            k == "fidelity_empirical")}
        assert stripped == plain

    def test_damping_noise_separates_schemes(self):
        # Idle decoherence integrates the device-measured activity
        # windows, so the scheme that idles longer scores lower.
        rows, _ = run_sweep(DAMPING_SPEC, processes=1)
        by_scheme = {row["scheme"]: row for row in rows}
        assert by_scheme["lockstep"]["fidelity_empirical"] < \
            by_scheme["bisp"]["fidelity_empirical"]
        for row in rows:
            assert abs(row["fidelity_empirical"] - row["fidelity_proxy"]) \
                < 0.15

    def test_noise_changes_cache_key(self):
        noisy = tasks_from_spec(NOISY_SPEC)[0]
        noiseless = tasks_from_spec(SweepSpec(
            workloads=("bv_n400", "repetition_d25"),
            schemes=("bisp", "lockstep"), scales=(0.02,)))[0]
        assert noisy.key() == noiseless.key()
        assert noisy.cache_key() != noiseless.cache_key()
        assert noisy.noise_seed() == noisy.noise_seed()

    def test_failing_noise_cell_surfaces(self):
        # statevector-unreachable + non-Clifford would fall back to
        # frame_approx; force an impossible method via a tiny spec to
        # prove run_tasks propagates sampler errors as cell failures.
        spec = SweepSpec(workloads=("bv_n400",), schemes=("bisp",),
                         scales=(0.02,), noise=preset("depolarizing_1e3"),
                         noise_shots=4)
        results, _ = run_tasks(tasks_from_spec(spec), processes=1)
        assert len(results) == 1  # healthy baseline for the machinery


class TestBenchSchemaV2:
    BASE_ROW = {"workload": "w", "scheme": "bisp", "scale": 0.1,
                "shots": 1, "num_qubits": 2, "num_ops": 2,
                "feedback_ops": 0, "makespan_cycles": 100,
                "sync_stall_cycles": 0, "runtime_ns": 400.0,
                "fidelity_proxy": 1.0}
    NOISE_COLS = {"fidelity_empirical": 0.75, "fidelity_ci_low": 0.7,
                  "fidelity_ci_high": 0.8, "noise_method": "frame",
                  "noise_shots": 64, "noise_seed": 42}

    def test_current_version_is_3(self):
        doc = make_bench("demo", [{"label": "x", "value": 1}])
        assert doc["schema_version"] == BENCH_SCHEMA_VERSION == 3

    def test_noisy_sweep_row_validates(self):
        row = dict(self.BASE_ROW, **self.NOISE_COLS)
        doc = make_bench("demo", [row], kind="sweep")
        assert validate_bench(doc) is doc

    def test_partial_noise_columns_rejected(self):
        row = dict(self.BASE_ROW, fidelity_empirical=0.5)
        with pytest.raises(BenchSchemaError, match="noisy sweep rows"):
            make_bench("demo", [row], kind="sweep")

    def test_noise_column_types_checked(self):
        row = dict(self.BASE_ROW, **self.NOISE_COLS)
        row["noise_shots"] = "many"
        with pytest.raises(BenchSchemaError, match="noise_shots"):
            make_bench("demo", [row], kind="sweep")

    def test_v1_artifacts_load_read_only(self, tmp_path):
        # The checked-in CI baseline is still schema v1: it must load
        # (regression gating keeps working) but not re-write.
        baseline = os.path.join(os.path.dirname(__file__), "..", "..",
                                "benchmarks", "baselines",
                                "BENCH_sweep_smoke.json")
        doc = load_bench(baseline)
        assert doc["schema_version"] == 1
        with pytest.raises(BenchSchemaError, match="read-only"):
            write_bench(str(tmp_path), doc)

    def test_unsupported_version_rejected(self):
        doc = make_bench("demo", [{"label": "x", "value": 1}])
        doc["schema_version"] = 4
        with pytest.raises(BenchSchemaError, match="schema_version"):
            validate_bench(doc)


class TestSweepCliNoise:
    def test_noise_preset_flag(self, tmp_path, capsys):
        out = str(tmp_path / "artifacts")
        code = sweep_main(["--scale", "0.02", "--schemes", "bisp",
                           "--workloads", "repetition_d25",
                           "--noise", "depolarizing_1e3",
                           "--noise-shots", "32",
                           "--out", out, "--name", "noisy", "--quiet"])
        assert code == 0
        doc = load_bench(os.path.join(out, "BENCH_noisy.json"))
        assert doc["schema_version"] == BENCH_SCHEMA_VERSION
        (row,) = doc["results"]
        assert row["noise_shots"] == 32
        assert 0.0 <= row["fidelity_empirical"] <= 1.0
        assert doc["spec"]["noise"]["gate_1q"] == pytest.approx(1e-3)

    def test_noise_model_file_flag(self, tmp_path):
        model_path = str(tmp_path / "model.json")
        with open(model_path, "w") as handle:
            handle.write(NoiseModel(measure_flip=0.25).to_json())
        out = str(tmp_path / "artifacts")
        code = sweep_main(["--scale", "0.02", "--schemes", "bisp",
                           "--workloads", "repetition_d25",
                           "--noise", model_path, "--noise-shots", "32",
                           "--out", out, "--name", "filemodel", "--quiet"])
        assert code == 0
        doc = load_bench(os.path.join(out, "BENCH_filemodel.json"))
        assert doc["spec"]["noise"]["measure_flip"] == pytest.approx(0.25)

    def test_unknown_noise_source_fails(self, capsys):
        code = sweep_main(["--scale", "0.02", "--schemes", "bisp",
                           "--workloads", "repetition_d25",
                           "--noise", "not_a_preset", "--quiet"])
        assert code == 1
        assert "neither a preset" in capsys.readouterr().err

    def test_print_spec_round_trips_noise(self, capsys):
        assert sweep_main(["--print-spec", "--noise", "damping_150us",
                           "--workloads", "bv_n400"]) == 0
        spec = SweepSpec.from_json(capsys.readouterr().out)
        assert spec.noise == preset("damping_150us")

    def test_spec_file_noise_flags_override_independently(self, tmp_path,
                                                          capsys):
        spec_path = str(tmp_path / "spec.json")
        with open(spec_path, "w") as handle:
            handle.write(SweepSpec(workloads=("bv_n400",),
                                   schemes=("bisp",), scales=(0.02,),
                                   noise=preset("damping_150us"),
                                   noise_shots=1024).to_json())
        # No noise flags: the spec file's model AND shot count survive.
        assert sweep_main(["--spec", spec_path, "--print-spec"]) == 0
        spec = SweepSpec.from_json(capsys.readouterr().out)
        assert spec.noise == preset("damping_150us")
        assert spec.noise_shots == 1024
        # --noise alone keeps the spec's noise_shots.
        assert sweep_main(["--spec", spec_path, "--print-spec",
                           "--noise", "depolarizing_1e3"]) == 0
        spec = SweepSpec.from_json(capsys.readouterr().out)
        assert spec.noise == preset("depolarizing_1e3")
        assert spec.noise_shots == 1024
        # --noise-shots alone keeps the spec's model.
        assert sweep_main(["--spec", spec_path, "--print-spec",
                           "--noise-shots", "64"]) == 0
        spec = SweepSpec.from_json(capsys.readouterr().out)
        assert spec.noise == preset("damping_150us")
        assert spec.noise_shots == 64


def test_noisy_bits_shape_and_dtype():
    from repro.noise import sample_noisy
    circuit = build_long_range_cnot_circuit(3)
    circuit.measure(0, circuit.num_clbits - 2)
    circuit.measure(3, circuit.num_clbits - 1)
    sample = sample_noisy(circuit, preset("depolarizing_1e3"), 16, seed=2)
    assert sample.flips.shape == (16, circuit.num_clbits)
    assert sample.flips.dtype == np.uint8
    assert sample.noisy_bits.shape == (16, circuit.num_clbits)
