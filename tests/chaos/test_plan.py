"""Chaos fabric core: plan round-trips, pure decisions, strict
validation, budgets, attempt scoping and the process-global injector."""

import pytest

from repro.chaos import (CHAOS_PLAN_ENV, ChaosError, FaultInjector,
                         FaultPlan, FaultRule, KNOWN_FAULTS, activate,
                         active, deactivate, load_plan)


@pytest.fixture(autouse=True)
def _no_leaked_injector():
    """Chaos is process-global state; every test leaves it unset."""
    deactivate()
    yield
    deactivate()


def make_plan(seed=1234, **rule_kwargs):
    defaults = dict(site="worker", fault="crash_before_complete")
    defaults.update(rule_kwargs)
    return FaultPlan(seed=seed, rules=(FaultRule(**defaults),))


class TestRoundTrip:
    def test_json_round_trip_is_identity(self):
        plan = FaultPlan(seed=99, name="soak", rules=(
            FaultRule(site="http", fault="drop", rate=0.05,
                      max_injections=7),
            FaultRule(site="worker", fault="crash_before_complete",
                      rate=1.0, attempts=(1,)),
            FaultRule(site="scheduler", fault="clock_skew", arg=3.5),
            FaultRule(site="diskcache", fault="corrupt", rate=0.5),
        ))
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_defaults_are_omitted_from_json(self):
        data = make_plan().to_dict()
        (rule,) = data["rules"]
        assert set(rule) == {"site", "fault", "rate"}

    def test_load_plan_reads_file(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(make_plan(seed=7).to_json())
        assert load_plan(str(path)).seed == 7

    def test_load_plan_missing_file_is_loud(self, tmp_path):
        with pytest.raises(ChaosError, match="cannot read"):
            load_plan(str(tmp_path / "nope.json"))


class TestValidation:
    def test_unknown_site_rejected(self):
        with pytest.raises(ChaosError, match="unknown fault site"):
            FaultRule(site="network", fault="drop").validate()

    def test_unknown_fault_rejected(self):
        with pytest.raises(ChaosError, match="unknown fault"):
            FaultRule(site="http", fault="explode").validate()

    def test_rate_bounds(self):
        for rate in (0.0, -0.5, 1.5):
            with pytest.raises(ChaosError, match="rate"):
                FaultRule(site="http", fault="drop",
                          rate=rate).validate()

    @pytest.mark.parametrize("field, good, bad", [
        ("rate", (1, 0.5, 1.0),
         (True, False, "0.5", None, [1], float("nan"), float("inf"),
          float("-inf"), 0, -0.5, 1.5)),
        ("arg", (0, 0.5, 3),
         (True, False, "1", None, [1], float("nan"), float("inf"),
          float("-inf"), -1, -0.5)),
    ])
    def test_rate_and_arg_values(self, field, good, bad):
        """``rate`` is a finite non-bool real in (0, 1] and ``arg`` one
        >= 0.  ``rate: true`` used to fire on every opportunity, and
        ``arg: NaN`` reached ``time.sleep`` in the worker."""
        for value in good:
            FaultRule(site="worker", fault="delay",
                      **{field: value}).validate()
        for value in bad:
            with pytest.raises(ChaosError, match=field):
                FaultRule(site="worker", fault="delay",
                          **{field: value}).validate()
            with pytest.raises(ChaosError, match=field):
                FaultPlan.from_dict({"seed": 1, "rules": [
                    {"site": "worker", "fault": "delay", field: value}]})

    def test_nan_in_plan_file_rejected(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text('{"seed": 1, "rules": [{"site": "worker", '
                        '"fault": "delay", "arg": NaN}]}')
        with pytest.raises(ChaosError, match="arg"):
            load_plan(str(path))

    def test_bad_attempts_rejected(self):
        with pytest.raises(ChaosError, match="attempts"):
            FaultRule(site="worker", fault="sigterm",
                      attempts=(0,)).validate()

    def test_unknown_plan_field_rejected(self):
        with pytest.raises(ChaosError, match="unknown fault-plan"):
            FaultPlan.from_dict({"seed": 1, "surprise": True})

    def test_unknown_rule_field_rejected(self):
        with pytest.raises(ChaosError, match="unknown fault-rule"):
            FaultPlan.from_dict({"seed": 1, "rules": [
                {"site": "http", "fault": "drop", "chance": 0.5}]})

    def test_every_known_pair_validates(self):
        for site, faults in KNOWN_FAULTS.items():
            for fault in faults:
                FaultRule(site=site, fault=fault).validate()


class TestDeterminism:
    def test_fires_is_pure(self):
        plan = FaultPlan(seed=42, rules=(
            FaultRule(site="http", fault="drop", rate=0.3),))
        (rule,) = plan.rules
        tokens = [("status", i) for i in range(200)]
        first = [plan.fires(rule, t) for t in tokens]
        assert first == [plan.fires(rule, t) for t in tokens]
        # A ~0.3 rate over 200 draws hits some but not all.
        assert 20 < sum(first) < 120

    def test_seed_changes_the_victim_set(self):
        rule = FaultRule(site="http", fault="drop", rate=0.3)
        tokens = [("status", i) for i in range(200)]
        a = FaultPlan(seed=1, rules=(rule,))
        b = FaultPlan(seed=2, rules=(rule,))
        assert [a.fires(rule, t) for t in tokens] != \
            [b.fires(rule, t) for t in tokens]

    def test_two_injectors_agree(self):
        plan = FaultPlan(seed=7, rules=(
            FaultRule(site="diskcache", fault="corrupt", rate=0.4),))
        one, two = FaultInjector(plan), FaultInjector(plan)
        keys = ["k{:02d}".format(i) for i in range(50)]
        assert [one.decide("diskcache", "corrupt", k) is not None
                for k in keys] == \
               [two.decide("diskcache", "corrupt", k) is not None
                for k in keys]

    def test_planned_preview_matches_decide(self):
        plan = FaultPlan(seed=11, rules=(
            FaultRule(site="worker", fault="crash_before_complete",
                      rate=0.5, attempts=(1,)),))
        tokens = [("cell{}".format(i), attempt)
                  for i in range(30) for attempt in (1, 2)]
        predicted = set(plan.planned(
            "worker", "crash_before_complete", tokens))
        injector = FaultInjector(plan)
        fired = {(key, attempt) for key, attempt in tokens
                 if injector.decide("worker", "crash_before_complete",
                                    key, attempt=attempt)}
        assert fired == predicted
        assert all(attempt == 1 for _key, attempt in fired)


class TestInjector:
    def test_budget_caps_injections(self):
        plan = FaultPlan(seed=5, rules=(
            FaultRule(site="http", fault="drop", rate=1.0,
                      max_injections=3),))
        injector = FaultInjector(plan)
        fired = sum(1 for i in range(10)
                    if injector.decide("http", "drop", "status", i))
        assert fired == 3
        assert injector.injected == {("http", "drop"): 3}

    def test_attempts_scope_filters(self):
        plan = make_plan(attempts=(2,))
        injector = FaultInjector(plan)
        assert injector.decide("worker", "crash_before_complete",
                               "k", attempt=1) is None
        assert injector.decide("worker", "crash_before_complete",
                               "k", attempt=2) is not None

    def test_unplanned_site_is_none(self):
        injector = FaultInjector(make_plan())
        assert injector.decide("http", "drop", "status", 0) is None

    def test_seq_counts_per_group(self):
        injector = FaultInjector(FaultPlan(seed=1))
        assert [injector.seq("a") for _ in range(3)] == [0, 1, 2]
        assert injector.seq("b") == 0

    def test_injected_by_site(self):
        plan = FaultPlan(seed=3, rules=(
            FaultRule(site="http", fault="drop"),
            FaultRule(site="http", fault="truncate"),))
        injector = FaultInjector(plan)
        injector.decide("http", "drop", "a", 0)
        injector.decide("http", "truncate", "a", 0)
        assert injector.injected_by_site() == {"http": 2}


class TestGlobalInjector:
    def test_default_is_inactive(self):
        assert active() is None

    def test_activate_installs_and_deactivate_resets(self):
        injector = activate(make_plan())
        assert active() is injector
        deactivate()
        assert active() is None

    def test_env_plan_is_picked_up(self, tmp_path, monkeypatch):
        path = tmp_path / "plan.json"
        path.write_text(make_plan(seed=31).to_json())
        monkeypatch.setenv(CHAOS_PLAN_ENV, str(path))
        deactivate()
        injector = active()
        assert injector is not None
        assert injector.plan.seed == 31
