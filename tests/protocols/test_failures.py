"""Tests for link-failure dynamics and withdraw propagation (GPV)."""

from types import SimpleNamespace

import pytest

from repro.algebra import ShortestHopCount, gao_rexford_with_hopcount
from repro.campaigns.scenarios import ResolvedEvent
from repro.exec import get_backend
from repro.net import Network
from repro.protocols import GPVEngine


def diamond() -> Network:
    """d reachable from s over two disjoint paths: s-a-d and s-b-c-d."""
    net = Network()
    for u, v in (("s", "a"), ("a", "d"), ("s", "b"), ("b", "c"), ("c", "d")):
        net.add_link(u, v, label_ab=1, label_ba=1)
    return net


class TestFailover:
    def test_reroute_after_primary_failure(self):
        net = diamond()
        engine = GPVEngine(net, ShortestHopCount(), ["d"])
        assert engine.run(until=10.0) == "quiescent"
        assert engine.best_path("s", "d") == ("s", "a", "d")

        engine.fail_link("a", "d")
        assert engine.sim.run(until=engine.sim.now + 10.0) == "quiescent"
        assert engine.best_path("s", "d") == ("s", "b", "c", "d")
        assert engine.best_path("a", "d") == ("a", "s", "b", "c", "d")

    def test_total_loss_withdraws_everywhere(self):
        net = Network()
        for u, v in (("s", "a"), ("a", "d")):
            net.add_link(u, v, label_ab=1, label_ba=1)
        engine = GPVEngine(net, ShortestHopCount(), ["d"])
        engine.run(until=10.0)
        assert engine.best_path("s", "d") is not None

        engine.fail_link("a", "d")
        assert engine.sim.run(until=engine.sim.now + 10.0) == "quiescent"
        assert engine.best_path("a", "d") is None
        assert engine.best_path("s", "d") is None  # withdraw propagated

    def test_failure_of_unused_link_is_quiet(self):
        net = diamond()
        engine = GPVEngine(net, ShortestHopCount(), ["d"])
        engine.run(until=10.0)
        before = engine.sim.stats.messages_sent
        engine.fail_link("b", "c")  # backup path only
        engine.sim.run(until=engine.sim.now + 10.0)
        # Some withdraw chatter along the dead branch is fine, but the
        # primary path must be untouched.
        assert engine.best_path("s", "d") == ("s", "a", "d")
        assert engine.sim.stats.messages_sent - before <= 8

    def test_policy_respected_after_failover(self):
        """After failover under Gao-Rexford, the backup is still valley-free."""
        net = Network()
        # Two providers p1, p2 of customer d; s is a customer of both.
        net.add_link("p1", "d", label_ab=("c", 1), label_ba=("p", 1))
        net.add_link("p2", "d", label_ab=("c", 1), label_ba=("p", 1))
        net.add_link("p1", "s", label_ab=("c", 1), label_ba=("p", 1))
        net.add_link("p2", "s", label_ab=("c", 1), label_ba=("p", 1))
        engine = GPVEngine(net, gao_rexford_with_hopcount(), ["d"])
        engine.run(until=10.0)
        first = engine.best_path("s", "d")
        assert first in ((("s", "p1", "d")), ("s", "p2", "d"))

        via = first[1]
        other = "p2" if via == "p1" else "p1"
        engine.fail_link(via, "d")
        assert engine.sim.run(until=engine.sim.now + 10.0) == "quiescent"
        assert engine.best_path("s", "d") == ("s", other, "d")

    def test_failed_link_gone_from_network(self):
        net = diamond()
        engine = GPVEngine(net, ShortestHopCount(), ["d"])
        engine.run(until=10.0)
        engine.fail_link("a", "d")
        assert not net.has_link("a", "d")
        with pytest.raises(KeyError):
            net.link("a", "d")


def tied_fallbacks() -> Network:
    """s holds (s,b,y,d); the slow a-x link delivers the tied (s,a,x,d)
    later, and (s,e,z,w,d) is a longer third route over the link that
    fails.  Hop-count labels; latencies in ms are 1 unless noted."""
    net = Network()
    for u, v, latency_ms in (("s", "a", 1), ("s", "b", 10), ("s", "e", 1),
                             ("a", "x", 50), ("x", "d", 1),
                             ("a", "p", 1), ("p", "q", 1), ("q", "d", 1),
                             ("b", "y", 1), ("y", "d", 1),
                             ("e", "z", 1), ("z", "w", 1), ("w", "d", 1)):
        net.add_link(u, v, label_ab=1, label_ba=1,
                     latency_s=latency_ms / 1000)
    return net


class TestStickyAfterLoss:
    @pytest.mark.parametrize("backend", ["gpv", "ndlog"])
    def test_losing_an_unused_route_keeps_a_tied_selection(self, backend):
        """Losing s-e leaves s's selection among its usable routes: GPV,
        like NDlog's a_pref, keeps the current route on a tie."""
        scenario = SimpleNamespace(
            network=tied_fallbacks(), algebra=ShortestHopCount(),
            destinations=["d"],
            events=[ResolvedEvent(5.0, "fail", "s", "e")])
        session = get_backend(backend).prepare(scenario, seed=0)
        outcome = session.run(until=20.0)
        assert outcome.converged
        assert outcome.routes[("s", "d")][1] == ("s", "b", "y", "d")
        assert session.sim.stats.last_route_change < 5.0
        assert outcome.messages == 18
