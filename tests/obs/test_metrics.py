"""Unit tests for the metrics registry pillar."""

import pytest

from repro.errors import ReproError
from repro.obs import metrics
from repro.obs.metrics import (DEFAULT_BUCKETS, Counter, Histogram,
                               MetricsRegistry, render_prometheus)


@pytest.fixture
def registry():
    return MetricsRegistry()


class TestInstruments:
    def test_counter_inc_and_value(self, registry):
        c = registry.counter("repro_test_total", "help text")
        c.inc()
        c.inc(3)
        c.value += 2
        assert c.value == 6
        assert c.sample() == {"repro_test_total": 6}
        c.reset()
        assert c.value == 0

    def test_gauge_set_and_track_max(self, registry):
        g = registry.gauge("repro_depth")
        g.set(4)
        g.track_max(2)
        assert g.value == 4
        g.track_max(9)
        assert g.value == 9

    def test_histogram_buckets_cumulate(self, registry):
        h = registry.histogram("repro_seconds", buckets=(0.1, 1.0, 10.0))
        for value in (0.05, 0.5, 0.5, 5.0, 50.0):
            h.observe(value)
        sample = h.sample()
        assert sample['repro_seconds_bucket{le="0.1"}'] == 1
        assert sample['repro_seconds_bucket{le="1"}'] == 3
        assert sample['repro_seconds_bucket{le="10"}'] == 4
        assert sample['repro_seconds_bucket{le="+Inf"}'] == 5
        assert sample["repro_seconds_count"] == 5
        # Wall-clock sum stays out of the deterministic sample.
        assert not any(k.endswith("_sum") for k in sample)
        assert h.sum == pytest.approx(56.05)

    def test_histogram_needs_buckets(self):
        with pytest.raises(ReproError):
            Histogram("repro_empty", buckets=())

    def test_labels_key_sorted_and_escaped(self):
        c = Counter("repro_x", labels={"b": "2", "a": 'say "hi"'})
        assert c.key == 'repro_x{a="say \\"hi\\"",b="2"}'


class TestRegistry:
    def test_get_or_create_returns_same_instance(self, registry):
        assert registry.counter("repro_a") is registry.counter("repro_a")
        labeled = registry.counter("repro_a", labels={"k": "v"})
        assert labeled is not registry.counter("repro_a")

    def test_kind_conflict_raises(self, registry):
        registry.counter("repro_a")
        with pytest.raises(ReproError, match="already registered"):
            registry.gauge("repro_a")

    def test_snapshot_sorted_and_deterministic(self, registry):
        registry.counter("repro_z").inc(1)
        registry.counter("repro_a").inc(2)
        registry.gauge("repro_m").set(3)
        snap = registry.snapshot()
        assert list(snap) == sorted(snap)
        assert snap == {"repro_a": 2, "repro_m": 3, "repro_z": 1}
        assert registry.snapshot() == snap

    def test_collector_merged_into_snapshot(self, registry):
        registry.register_collector(lambda: {"repro_pull": 7})
        assert registry.snapshot()["repro_pull"] == 7

    def test_reset_zeroes_everything(self, registry):
        registry.counter("repro_a").inc(5)
        registry.histogram("repro_h", buckets=(1.0,)).observe(0.5)
        registry.reset()
        snap = registry.snapshot()
        assert snap["repro_a"] == 0
        assert snap["repro_h_count"] == 0


class TestPrometheusRendering:
    def test_render_counters_gauges(self, registry):
        registry.counter("repro_a_total", "things done").inc(3)
        registry.gauge("repro_depth").set(2)
        text = render_prometheus(registry)
        lines = text.splitlines()
        assert "# HELP repro_a_total things done" in lines
        assert "# TYPE repro_a_total counter" in lines
        assert "repro_a_total 3" in lines
        assert "# TYPE repro_depth gauge" in lines
        assert "repro_depth 2" in lines
        assert text.endswith("\n")

    def test_render_histogram_cumulative_with_inf(self, registry):
        h = registry.histogram("repro_h_seconds", buckets=(0.5, 1.0))
        h.observe(0.1)
        h.observe(0.7)
        h.observe(3.0)
        lines = render_prometheus(registry).splitlines()
        assert 'repro_h_seconds_bucket{le="0.5"} 1' in lines
        assert 'repro_h_seconds_bucket{le="1"} 2' in lines
        assert 'repro_h_seconds_bucket{le="+Inf"} 3' in lines
        assert "repro_h_seconds_count 3" in lines
        assert any(line.startswith("repro_h_seconds_sum ")
                   for line in lines)

    def test_labeled_series_share_one_type_line(self, registry):
        registry.counter("repro_pass_total",
                         labels={"pass": "lower"}).inc(1)
        registry.counter("repro_pass_total",
                         labels={"pass": "schedule"}).inc(2)
        lines = render_prometheus(registry).splitlines()
        assert lines.count("# TYPE repro_pass_total counter") == 1
        assert 'repro_pass_total{pass="lower"} 1' in lines
        assert 'repro_pass_total{pass="schedule"} 2' in lines


class TestProcessRegistry:
    def test_instrumented_modules_register_expected_names(self):
        # The tentpole's contract: these names exist process-wide once
        # the instrumented modules are imported (README documents them).
        import repro.compiler.driver  # noqa: F401
        import repro.harness.parallel  # noqa: F401
        import repro.isa.decoded  # noqa: F401
        import repro.service.scheduler  # noqa: F401
        import repro.sim.lanes  # noqa: F401

        names = {inst.name for inst in metrics.REGISTRY.instruments()}
        expected = {
            "repro_decode_pin_hits_total",
            "repro_decode_content_hits_total",
            "repro_decode_misses_total",
            "repro_replay_vector_batches_total",
            "repro_replay_vector_items_total",
            "repro_replay_block_batches_total",
            "repro_compilations_total",
            "repro_simulations_total",
            "repro_engine_events_total",
            "repro_engine_far_events_total",
            "repro_engine_window_advances_total",
            "repro_queue_depth_high_water",
            "repro_sweep_cache_hits_total",
            "repro_sweep_cache_misses_total",
            "repro_sweep_cells_run_total",
            "repro_lanes_fastforward_total",
            "repro_lanes_replayed_total",
            "repro_service_lease_latency_seconds",
            "repro_service_queue_depth",
        }
        missing = expected - names
        assert not missing, "unregistered metrics: {}".format(
            sorted(missing))

    def test_default_buckets_sorted(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)
