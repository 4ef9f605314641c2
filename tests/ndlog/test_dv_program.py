"""A distance-vector protocol in NDlog — exercising generic aggregates.

The paper (Sec. V) notes that "traditional routing protocols such as the
path vector and distance-vector protocols can be expressed in a few lines
of code"; this test writes the three-rule distance-vector program and runs
it on the generic runtime, validating the ``a_min`` aggregate and numeric
function support against Dijkstra ground truth.
"""

import pytest

from repro.ndlog import (
    FunctionRegistry,
    NDlogRuntime,
    NDlogRuntimeError,
    TransportPolicy,
    parse_program,
)
from repro.net import Network, Simulator

DV = """
materialize(link, infinity, infinity, keys(1,2)).
materialize(cost, infinity, infinity, keys(1,2,3)).
materialize(bestCost, infinity, infinity, keys(1,2)).

dvRecv cost(@U,V,D,CNew) :- dv(@U,V,D,C),
    link(@U,V,W),
    CNew := f_sum(W,C).

dvSelect bestCost(@U,D,a_min<C>) :- cost(@U,V,D,C).

dvSend dv(@N,U,D,C) :- bestCost(@U,D,C),
    link(@U,N,W),
    N != D.
"""


def weighted_net() -> Network:
    net = Network()
    net.add_link("a", "b", weight=1)
    net.add_link("b", "c", weight=2)
    net.add_link("a", "c", weight=7)
    net.add_link("c", "d", weight=1)
    net.add_link("b", "d", weight=9)
    return net


def deploy_dv(net: Network, dest: str) -> NDlogRuntime:
    program = parse_program(DV, "dv")
    sim = Simulator(net, seed=3)
    runtime = NDlogRuntime(
        program, sim, FunctionRegistry(),
        TransportPolicy(msg_relation="dv", dest_pos=2))
    for link in net.links():
        for u, v in ((link.a, link.b), (link.b, link.a)):
            runtime.install_fact(u, "link", (u, v, link.weight))
    # Origination: the destination's neighbors learn the one-hop cost.
    for neighbor in net.neighbors(dest):
        weight = net.link(neighbor, dest).weight
        runtime.inject(neighbor, "cost",
                       (neighbor, neighbor, dest, weight))
    return runtime


class TestDistanceVector:
    def test_costs_match_dijkstra(self):
        net = weighted_net()
        runtime = deploy_dv(net, "d")
        assert runtime.sim.run(until=30.0) == "quiescent"
        truth = net.shortest_path_costs("d")
        for node in ("a", "b", "c"):
            rows = runtime.table_rows(node, "bestCost")
            assert rows, f"{node} never computed a cost"
            assert rows[0][2] == truth[node]

    def test_a_min_keeps_minimum_under_updates(self):
        net = weighted_net()
        runtime = deploy_dv(net, "d")
        runtime.sim.run(until=30.0)
        # Inject a worse candidate; the selection must not regress.
        runtime.inject("a", "cost", ("a", "c", "d", 50),
                       at=runtime.sim.now)
        runtime.sim.run(until=runtime.sim.now + 30.0)
        rows = runtime.table_rows("a", "bestCost")
        assert rows[0][2] == net.shortest_path_costs("d")["a"]

    def test_improvement_propagates(self):
        net = weighted_net()
        runtime = deploy_dv(net, "d")
        runtime.sim.run(until=30.0)
        # A brand-new cheap route at c ripples upstream to a and b.
        runtime.inject("c", "cost", ("c", "c", "d", 0), at=runtime.sim.now)
        runtime.sim.run(until=runtime.sim.now + 30.0)
        assert runtime.table_rows("b", "bestCost")[0][2] == 2
        assert runtime.table_rows("a", "bestCost")[0][2] == 3

    def test_unknown_aggregate_rejected(self):
        """Rejected when the runtime is built — a group that only ever had
        one candidate row would never call the comparator."""
        source = """
            materialize(t, infinity, infinity, keys(1)).
            materialize(s, infinity, infinity, keys(1,2)).
            r1 t(@X, a_weird<Y>) :- s(@X,Y).
        """
        program = parse_program(source)
        net = Network()
        net.add_link("x", "y")
        with pytest.raises(NDlogRuntimeError, match="unknown aggregate"):
            NDlogRuntime(program, Simulator(net), FunctionRegistry(),
                         TransportPolicy())

    def test_a_max_aggregate(self):
        source = """
            materialize(sample, infinity, infinity, keys(1,2)).
            materialize(peak, infinity, infinity, keys(1)).
            r1 peak(@X, a_max<V>) :- sample(@X,K,V).
        """
        program = parse_program(source)
        net = Network()
        net.add_link("x", "y")
        runtime = NDlogRuntime(program, Simulator(net), FunctionRegistry(),
                               TransportPolicy())
        for key, value in (("k1", 5), ("k2", 9), ("k3", 2)):
            runtime.inject("x", "sample", ("x", key, value))
        runtime.sim.run()
        assert runtime.table_rows("x", "peak") == [("x", 9)]
