"""The metrics registry: handles, labels, snapshots, take and absorb."""

from repro.obs.metrics import (
    SNAPSHOT_FORMAT,
    MetricsRegistry,
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
        registry.counter("repro_a_total", kind="y").inc(1)
        return registry

    def test_snapshot_shape_and_schema(self):
        snap = self._registry().snapshot()
        assert snap["format"] == SNAPSHOT_FORMAT
        validate_metrics_snapshot(snap)
        assert set(snap) == {"format", "counters"}
        assert snapshot_value(snap, "repro_a_total", kind="x") == 2.0
        assert [series["labels"] for series in
                snapshot_family(snap, "repro_a_total")] == \
            [{"kind": "x"}, {"kind": "y"}]

    def test_take_hands_over_what_was_counted_and_absorb_adds_it(self):
        worker = self._registry()
        worker.counter("repro_a_total", kind="z")  # never incremented
        taken = worker.take()
        validate_metrics_snapshot(taken)
        assert [series["labels"] for series in
                snapshot_family(taken, "repro_a_total")] == \
            [{"kind": "x"}, {"kind": "y"}]
        # The worker's series are zeroed, so the next take is empty.
        assert worker.take() == {"format": SNAPSHOT_FORMAT, "counters": {}}
        parent = self._registry()
        handle = parent.counter("repro_a_total", kind="x")
        parent.absorb(taken)
        parent.absorb(taken)
        assert handle.value == 6.0  # a held handle sees the absorbed counts
        assert parent.value("repro_a_total", kind="y") == 3.0
        parent.absorb(parent.take())  # nothing is lost on the way
        assert parent.value("repro_a_total", kind="x") == 6.0
