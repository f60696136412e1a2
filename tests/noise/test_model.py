"""NoiseModel round-tripping, validation, presets, channel resolution."""

import json

import pytest

from repro.noise import (PRESETS, NoiseModel, NoiseModelError, derive_seed,
                         preset, resolve_noise_model)


class TestRoundTrip:
    def test_json_identity(self):
        model = NoiseModel(gate_1q=1e-3, gate_2q=1e-2, measure_flip=5e-4,
                           t1_us=120.0, t2_us=90.0,
                           overrides=(("cz", 0.02), ("h", 1e-4)))
        assert NoiseModel.from_json(model.to_json()) == model

    def test_default_round_trip(self):
        model = NoiseModel()
        assert NoiseModel.from_json(model.to_json()) == model
        assert model.is_zero

    def test_overrides_canonicalized(self):
        a = NoiseModel(overrides=(("z", 0.1), ("a", 0.2)))
        b = NoiseModel(overrides=(("a", 0.2), ("z", 0.1)))
        assert a == b

    def test_overrides_accept_mapping_and_pair_lists(self):
        # A dict is the shape to_dict()/the README document; JSON
        # decoding naturally produces lists of pairs.  All shapes must
        # normalize to the same canonical value.
        from_dict = NoiseModel(overrides={"cz": 0.02, "h": 0.001})
        from_pairs = NoiseModel(overrides=(["h", 0.001], ["cz", 0.02]))
        canonical = NoiseModel(overrides=(("cz", 0.02), ("h", 0.001)))
        assert from_dict == from_pairs == canonical
        assert NoiseModel.from_json(from_pairs.to_json()) == from_pairs

    def test_malformed_overrides_raise_model_error(self):
        with pytest.raises(NoiseModelError, match="overrides"):
            NoiseModel(overrides=("cz",))
        with pytest.raises(NoiseModelError, match="overrides"):
            NoiseModel(overrides=(("cz", "fast"),))

    def test_unknown_field_rejected(self):
        with pytest.raises(NoiseModelError, match="unknown"):
            NoiseModel.from_dict({"gate_3q": 0.1})


class TestValidation:
    @pytest.mark.parametrize("kwargs", [
        {"gate_1q": -0.1},
        {"gate_2q": 1.5},
        {"measure_flip": 2.0},
        {"t1_us": 0.0},
        {"t1_us": -5.0},
        {"t1_us": 50.0, "t2_us": 0.0},
        {"t1_us": 50.0, "t2_us": 120.0},
        {"t2_us": 100.0},
        {"overrides": (("cx", 0.1), ("cx", 0.2))},
        {"overrides": (("cx", 1.5),)},
        {"overrides": (("", 0.5),)},
    ])
    def test_invalid_models_rejected(self, kwargs):
        with pytest.raises(NoiseModelError):
            NoiseModel(**kwargs)


#: Every numeric field of a model, with the text its errors must name.
FIELDS = {"gate_1q": "gate_1q", "gate_2q": "gate_2q",
          "measure_flip": "measure_flip", "overrides": "override",
          "t1_us": "t1_us", "t2_us": "t2_us"}

#: field -> (accepted values, out-of-range values).
RANGES = {
    "gate_1q": ((0, 1, 0.25), (-0.1, 1.5)),
    "gate_2q": ((0, 1, 0.25), (-0.1, 1.5)),
    "measure_flip": ((0, 1, 0.25), (-0.1, 1.5)),
    "overrides": ((0, 1, 0.25), (-0.1, 1.5)),
    "t1_us": ((100, 50.5), (0, -1.0)),
    "t2_us": ((100, 199.5), (0, -1.0)),
}


def model_data(field, value):
    """A model dict that sets ``field`` (and anything it needs) to
    ``value``: overrides take a per-gate rate, and t2_us needs t1_us."""
    if field == "overrides":
        return {"overrides": {"cz": value}}
    if field == "t2_us":
        return {"t1_us": 100.0, "t2_us": value}
    return {field: value}


class TestFieldValues:
    """Each numeric field takes only a finite, non-bool real in its range.
    Anything else is a ``NoiseModelError`` that names the field, never a
    model that samples the wrong thing: JSON ``true`` used to pass as
    rate 1, and a ``NaN`` lifetime as no damping at all."""

    @pytest.mark.parametrize("field", FIELDS)
    def test_rejects_non_numbers(self, field):
        values = [True, False, "0.5", [0.5], {"p": 0.5}]
        if field not in ("t1_us", "t2_us"):  # None switches damping off
            values.append(None)
        for value in values:
            with pytest.raises(NoiseModelError, match=FIELDS[field]):
                NoiseModel.from_dict(model_data(field, value))

    @pytest.mark.parametrize("field", FIELDS)
    def test_rejects_non_finite(self, field):
        for value in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(NoiseModelError, match=FIELDS[field]):
                NoiseModel.from_dict(model_data(field, value))
            # json.dumps writes NaN / Infinity, which json.loads accepts.
            text = json.dumps(model_data(field, value))
            with pytest.raises(NoiseModelError, match=FIELDS[field]):
                NoiseModel.from_json(text)

    @pytest.mark.parametrize("field", FIELDS)
    def test_range(self, field):
        accepted, rejected = RANGES[field]
        for value in accepted:
            model = NoiseModel.from_dict(model_data(field, value))
            assert NoiseModel.from_json(model.to_json()) == model
        for value in rejected:
            with pytest.raises(NoiseModelError, match=FIELDS[field]):
                NoiseModel.from_dict(model_data(field, value))

    def test_constructor_checks_types_too(self):
        with pytest.raises(NoiseModelError, match="gate_2q"):
            NoiseModel(gate_2q=True)
        with pytest.raises(NoiseModelError, match="t1_us"):
            NoiseModel(t1_us=float("nan"))
        with pytest.raises(NoiseModelError, match="override"):
            NoiseModel(overrides={"cz": True})


class TestChannels:
    def test_gate_rate_override_wins(self):
        model = NoiseModel(gate_1q=1e-3, gate_2q=1e-2,
                           overrides=(("cz", 0.5),))
        assert model.gate_rate("cz", 2) == 0.5
        assert model.gate_rate("cx", 2) == 1e-2
        assert model.gate_rate("h", 1) == 1e-3

    def test_gate_channels_depolarizing_plus_damping(self):
        model = NoiseModel(gate_2q=0.01, t1_us=100.0)
        channels = model.gate_channels("cx", (3, 5), duration_ns=40.0)
        supports = [qubits for qubits, _ in channels]
        assert supports == [(3, 5), (3,), (5,)]

    def test_zero_rate_yields_no_channels(self):
        assert NoiseModel().gate_channels("cx", (0, 1), 40.0) == []
        assert NoiseModel().measure_channel() is None


class TestPresets:
    def test_all_presets_round_trip(self):
        for name, model in PRESETS.items():
            assert NoiseModel.from_json(model.to_json()) == model, name

    def test_preset_lookup(self):
        assert preset("depolarizing_1e3").gate_1q == pytest.approx(1e-3)
        with pytest.raises(NoiseModelError, match="unknown noise preset"):
            preset("nope")

    def test_resolve_preset_name(self):
        assert resolve_noise_model("zero") == NoiseModel()

    def test_resolve_json_file(self, tmp_path):
        path = tmp_path / "model.json"
        model = NoiseModel(gate_1q=0.25)
        path.write_text(model.to_json())
        assert resolve_noise_model(str(path)) == model

    def test_resolve_garbage_raises(self):
        with pytest.raises(NoiseModelError, match="neither a preset"):
            resolve_noise_model("/nonexistent/model.json")


class TestDeriveSeed:
    def test_deterministic_and_distinct(self):
        assert derive_seed("a", 1, 0.5) == derive_seed("a", 1, 0.5)
        assert derive_seed("a", 1) != derive_seed("a", 2)
        assert 0 <= derive_seed("x") <= 0xFFFFFFFF
