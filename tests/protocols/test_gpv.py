"""Tests for the native GPV engine (repro.protocols.gpv)."""

from types import SimpleNamespace

import pytest

from repro.algebra import (
    SPPAlgebra,
    bad_gadget,
    disagree,
    gao_rexford_with_hopcount,
    good_gadget,
)
from repro.exec import get_backend
from repro.ndlog.codegen import network_from_spp
from repro.net import Network
from repro.protocols import GPVEngine


def spp_engine(instance, *, seed=0, jitter_s=0.0, **kwargs):
    net = network_from_spp(instance, jitter_s=jitter_s)
    return GPVEngine(net, SPPAlgebra(instance), [instance.destination],
                     seed=seed, **kwargs)


class TestGadgetDynamics:
    def test_good_gadget_stable_state(self):
        engine = spp_engine(good_gadget(), seed=2)
        assert engine.run(until=30.0) == "quiescent"
        assert engine.best_path("1", "0") == ("1", "0")
        assert engine.best_path("2", "0") == ("2", "3", "0")
        assert engine.best_path("3", "0") == ("3", "0")

    def test_disagree_valid_stable_state(self):
        # Periodic advertisement (desynchronized per-node timers) is what
        # wedges DISAGREE: per-change advertisements over the ordered
        # transport would keep the pair flipping in lockstep forever.
        engine = spp_engine(disagree(), seed=4, jitter_s=0.003,
                            batch_interval=0.05)
        assert engine.run(until=120.0) == "quiescent"
        state = (engine.best_path("1", "0"), engine.best_path("2", "0"))
        assert state in (
            (("1", "2", "0"), ("2", "0")),
            (("1", "0"), ("2", "1", "0")),
        )

    def test_bad_gadget_diverges(self):
        engine = spp_engine(bad_gadget(), seed=2, jitter_s=0.003)
        assert engine.run(until=10.0, max_events=100_000) != "quiescent"


class TestComposedPolicyDeployment:
    @pytest.fixture
    def chain(self):
        net = Network()
        net.add_link("u", "d", label_ab=("c", 1), label_ba=("p", 1))
        net.add_link("v", "u", label_ab=("c", 1), label_ba=("p", 1))
        net.add_link("w", "v", label_ab=("c", 1), label_ba=("p", 1))
        return net

    def test_customer_routes_propagate_up(self, chain):
        engine = GPVEngine(chain, gao_rexford_with_hopcount(), ["d"])
        assert engine.run(until=10.0) == "quiescent"
        assert engine.best_path("w", "d") == ("w", "v", "u", "d")
        sig, _path = engine.best_route("w", "d")
        assert sig == ("C", 3)

    def test_converged_everywhere(self, chain):
        scenario = SimpleNamespace(network=chain,
                                   algebra=gao_rexford_with_hopcount(),
                                   destinations=chain.nodes(), events=[])
        outcome = get_backend("gpv").prepare(scenario, seed=0).run(until=30.0)
        assert outcome.converged
        assert len(outcome.routes) == 12  # every ordered pair of 4 nodes
        assert all(route is not None for route in outcome.routes.values())

    def test_gr_valley_free_filtering(self):
        """Two customers of one provider: peer-free topology means the
        provider's other customer IS reachable (via the provider), but a
        peer's peer is not."""
        net = Network()
        net.add_link("p1", "c1", label_ab=("c", 1), label_ba=("p", 1))
        net.add_link("p1", "c2", label_ab=("c", 1), label_ba=("p", 1))
        net.add_link("p1", "p2", label_ab=("r", 1), label_ba=("r", 1))
        net.add_link("p2", "c3", label_ab=("c", 1), label_ba=("p", 1))
        engine = GPVEngine(net, gao_rexford_with_hopcount(), ["c1"])
        engine.run(until=30.0)
        # Sibling customer reaches c1 through the shared provider.
        assert engine.best_path("c2", "c1") == ("c2", "p1", "c1")
        # The peer p2 learns the customer route from p1...
        assert engine.best_path("p2", "c1") == ("p2", "p1", "c1")
        # ... but must not re-export it upward; c3 still gets it as p2's
        # customer (export toward customers is unfiltered).
        assert engine.best_path("c3", "c1") == ("c3", "p2", "p1", "c1")


class TestEngineMechanics:
    def test_route_log_collects_accepted_routes(self):
        engine = spp_engine(good_gadget(), seed=2)
        engine.sim.stats.route_log = []
        engine.run(until=30.0)
        route_log = engine.sim.stats.route_log
        assert route_log
        nodes = {entry[0] for entry in route_log}
        assert nodes <= {"1", "2", "3"}

    def test_batching_reduces_messages(self):
        plain = spp_engine(good_gadget(), seed=2)
        plain.run(until=30.0)
        batched = spp_engine(good_gadget(), seed=2, batch_interval=1.0)
        assert batched.run(until=60.0) == "quiescent"
        assert (batched.sim.stats.messages_sent
                <= plain.sim.stats.messages_sent)

    def test_best_route_none_before_start(self):
        engine = spp_engine(good_gadget(), seed=2)
        assert engine.best_route("1", "0") is None

    def test_perturb_link_relabels_and_reroutes(self):
        net = Network()
        net.add_link("a", "b", label_ab=2, label_ba=2)
        net.add_link("b", "d", label_ab=2, label_ba=2)
        net.add_link("a", "d", label_ab=9, label_ba=9)
        from repro.algebra import ShortestPath
        engine = GPVEngine(net, ShortestPath([2, 9]), ["d"])
        engine.run(until=10.0)
        assert engine.best_path("a", "d") == ("a", "b", "d")
        # Make the direct link attractive.
        engine.perturb_link("a", "d", label_ab=1, label_ba=1)
        assert engine.sim.run(until=engine.sim.now + 10.0) == "quiescent"
        assert engine.best_path("a", "d") == ("a", "d")
