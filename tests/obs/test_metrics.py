"""The metrics registry: handles, labels, snapshots, merge."""

import pytest

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    SNAPSHOT_FORMAT,
    MetricsRegistry,
    merge_snapshots,
    snapshot_family,
    snapshot_value,
)
from repro.obs.schema import validate_metrics_snapshot


class TestHandles:
    def test_counter_increments_and_is_stable(self):
        registry = MetricsRegistry()
        c = registry.counter("repro_test_total", phase="scan")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5
        # Re-acquiring the same (name, labels) returns the same handle.
        assert registry.counter("repro_test_total", phase="scan") is c
        # A different label set is a different series.
        other = registry.counter("repro_test_total", phase="relax")
        assert other is not c and other.value == 0.0

    def test_label_order_does_not_matter(self):
        registry = MetricsRegistry()
        a = registry.counter("repro_test_total", a="1", b="2")
        b = registry.counter("repro_test_total", b="2", a="1")
        assert a is b

    def test_histogram_buckets_cumulate(self):
        registry = MetricsRegistry()
        h = registry.histogram("repro_test_seconds", buckets=(0.01, 0.1, 1.0))
        for value in (0.005, 0.05, 0.5, 5.0):
            h.observe(value)
        assert h.count == 4
        assert h.sum == pytest.approx(5.555)
        assert h.cumulative() == {"0.01": 1, "0.1": 2, "1": 3, "+Inf": 4}

    def test_kind_conflict_is_an_error(self):
        registry = MetricsRegistry()
        registry.counter("repro_test_total")
        with pytest.raises(ValueError, match="already registered"):
            registry.histogram("repro_test_total")

    def test_disabled_registry_ignores_writes(self):
        registry = MetricsRegistry(enabled=False)
        c = registry.counter("repro_test_total")
        h = registry.histogram("repro_test_seconds")
        c.inc()
        h.observe(1.0)
        assert c.value == 0.0 and h.count == 0
        registry.set_enabled(True)
        c.inc()
        assert c.value == 1.0

    def test_value_and_family_reads(self):
        registry = MetricsRegistry()
        registry.counter("repro_test_total", phase="scan").inc(4)
        assert registry.value("repro_test_total", phase="scan") == 4.0
        assert registry.value("repro_test_total", phase="nope") == 0.0
        family = registry.family("repro_test_total")
        assert len(family) == 1

    def test_reset_zeroes_and_drop_forgets(self):
        registry = MetricsRegistry()
        handle = registry.counter("repro_test_total", rounds="3")
        handle.inc(5)
        registry.reset("repro_test_total")
        assert handle.value == 0.0
        assert registry.family("repro_test_total")
        registry.reset("repro_test_total", drop=True)
        assert not registry.family("repro_test_total")


class TestSnapshot:
    def _registry(self):
        registry = MetricsRegistry()
        registry.counter("repro_a_total", kind="x").inc(2)
        registry.histogram("repro_c_seconds").observe(0.02)
        return registry

    def test_snapshot_shape_and_schema(self):
        snap = self._registry().snapshot()
        assert snap["format"] == SNAPSHOT_FORMAT
        validate_metrics_snapshot(snap)
        assert snapshot_value(snap, "repro_a_total", kind="x") == 2.0
        assert snap["gauges"] == {}  # in the format, never populated
        (series,) = snapshot_family(snap, "repro_c_seconds")
        assert series["count"] == 1
        assert series["buckets"]["+Inf"] == 1

    def test_merge_adds_counters_and_histograms(self):
        snaps = [self._registry().snapshot() for _ in range(3)]
        merged = merge_snapshots(snaps)
        validate_metrics_snapshot(merged)
        assert snapshot_value(merged, "repro_a_total", kind="x") == 6.0
        assert merged["gauges"] == {}
        (series,) = snapshot_family(merged, "repro_c_seconds")
        assert series["count"] == 3
        assert series["sum"] == pytest.approx(0.06)
        assert series["buckets"]["+Inf"] == 3

    def test_merge_of_nothing_is_an_empty_snapshot(self):
        merged = merge_snapshots([])
        assert merged["format"] == SNAPSHOT_FORMAT
        assert merged["counters"] == {} and merged["histograms"] == {}

    def test_default_buckets_are_sorted(self):
        assert tuple(sorted(DEFAULT_BUCKETS)) == DEFAULT_BUCKETS
