"""Integration: the NDlog-interpreted GPV and the native engine agree.

This is the operational counterpart of the paper's Theorem 5.1 (the NDlog
translation computes the same routes as the algebra semantics): for every
convergent instance, both executions must reach the same stable routes.
"""

import pytest

from repro.algebra import (
    SPPAlgebra,
    disagree_chain,
    good_gadget,
    ibgp_figure3_fixed,
    replicate,
)
from repro.ndlog import deploy_spp
from repro.ndlog.codegen import network_from_spp
from repro.protocols import GPVEngine

CONVERGENT_INSTANCES = [
    good_gadget(),
    ibgp_figure3_fixed(),
    replicate(good_gadget(), 3),
    disagree_chain(4, 0.0),
]


def ndlog_final_routes(instance, seed):
    runtime = deploy_spp(instance, seed=seed)
    reason = runtime.sim.run(until=120.0, max_events=2_000_000)
    routes = {}
    for node in instance.permitted:
        rows = runtime.table_rows(node, "localOpt")
        routes[node] = rows[0][3] if rows else None
    return reason, routes


def native_final_routes(instance, seed):
    net = network_from_spp(instance)
    engine = GPVEngine(net, SPPAlgebra(instance), [instance.destination],
                       seed=seed)
    reason = engine.run(until=120.0, max_events=2_000_000)
    routes = {node: engine.best_path(node, instance.destination)
              for node in instance.permitted}
    return reason, routes


@pytest.mark.parametrize("instance", CONVERGENT_INSTANCES,
                         ids=lambda i: i.name)
def test_same_stable_routes(instance):
    ndlog_reason, ndlog_table = ndlog_final_routes(instance, seed=7)
    native_reason, native_table = native_final_routes(instance, seed=7)
    assert ndlog_reason == "quiescent"
    assert native_reason == "quiescent"
    assert ndlog_table == native_table


@pytest.mark.parametrize("instance", CONVERGENT_INSTANCES,
                         ids=lambda i: i.name)
def test_routes_are_stable_solutions(instance):
    """The final assignment is a stable SPP solution: every node's route
    is its highest-ranked permitted path whose tail the next hop holds."""
    _reason, routes = native_final_routes(instance, seed=7)
    for node, chosen in routes.items():
        held = {n: p for n, p in routes.items()}
        held[instance.destination] = (instance.destination,)
        available = []
        for path in instance.permitted[node]:
            tail = path[1:]
            if held.get(path[1]) == tail:
                available.append(path)
        if available:
            assert chosen == available[0], (
                f"{node} chose {chosen} but {available[0]} was available "
                "and better-ranked")
        else:
            assert chosen is None


def test_message_counts_same_order_of_magnitude():
    """Both executions exchange comparable traffic (same protocol)."""
    instance = ibgp_figure3_fixed()
    runtime = deploy_spp(instance, seed=7)
    runtime.sim.run(until=120.0)
    net = network_from_spp(instance)
    engine = GPVEngine(net, SPPAlgebra(instance), [instance.destination],
                       seed=7)
    engine.run(until=120.0)
    ndlog_msgs = runtime.sim.stats.messages_sent
    native_msgs = engine.sim.stats.messages_sent
    assert ndlog_msgs > 0 and native_msgs > 0
    assert 0.5 <= ndlog_msgs / native_msgs <= 2.0
