"""Tests for measurement collection (repro.net.stats) and sizes."""

import pytest

from repro.net import (
    Network,
    Simulator,
    StatsCollector,
    link_state_size,
    update_size,
    withdraw_size,
)


def sent(*sends) -> StatsCollector:
    """The collector of a simulator that made ``(time, src, dst, size)``
    sends — :meth:`Simulator.send` is what writes its send fields."""
    net = Network()
    net.add_link("a", "b")
    sim = Simulator(net)
    for time, src, dst, size in sends:
        sim.at(time, lambda s=src, d=dst, n=size: sim.send(s, d, "x", n))
    sim.run()
    return sim.stats


class TestStatsCollector:
    def test_convergence_time_tracks_last_route_change(self):
        stats = StatsCollector()
        stats.record_route_change(0.5, "a")
        stats.record_route_change(0.2, "b")
        assert stats.convergence_time == 0.5
        assert stats.route_changes == 2

    def test_per_node_megabytes(self):
        stats = sent((0.0, "a", "b", 500_000), (0.1, "b", "a", 500_000))
        assert stats.per_node_megabytes(10) == pytest.approx(0.1)

    def test_per_node_megabytes_zero_nodes(self):
        assert StatsCollector().per_node_megabytes(0) == 0.0

    def test_bandwidth_series_binning(self):
        stats = sent((0.005, "a", "b", 1000), (0.015, "a", "b", 1000),
                     (0.025, "a", "b", 3000))
        series = stats.bandwidth_series(node_count=2, bin_s=0.02)
        assert len(series) == 2
        # First bin: 2000 bytes over 20 ms across 2 nodes.
        assert series[0].mbps_per_node == pytest.approx(
            2000 / 0.02 / 2 / 1e6)
        assert series[1].mbps_per_node == pytest.approx(
            3000 / 0.02 / 2 / 1e6)

    def test_bandwidth_series_until_pads_bins(self):
        stats = sent((0.01, "a", "b", 100))
        series = stats.bandwidth_series(node_count=1, bin_s=0.05, until=0.3)
        assert len(series) == 7
        assert series[-1].mbps_per_node == 0.0

    def test_bandwidth_series_empty(self):
        assert StatsCollector().bandwidth_series(node_count=1) != []
        assert StatsCollector().bandwidth_series(node_count=0) == []

    def test_summary_keys(self):
        stats = sent((0.0, "a", "b", 10))
        summary = stats.summary(node_count=2)
        assert set(summary) == {"messages", "total_mb", "per_node_mb",
                                "route_changes", "convergence_time_s"}


class TestSizes:
    def test_update_size_grows_with_path(self):
        assert update_size(5) > update_size(1)
        assert update_size(1) == 19 + 21 + 4

    def test_withdraw_smaller_than_update(self):
        assert withdraw_size() < update_size(1)

    def test_link_state_size(self):
        assert link_state_size(4) == 19 + 32
        assert link_state_size(0) == 19 + 8  # at least one entry
