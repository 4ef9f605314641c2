"""Tests for the top-k multipath extension (paper Sec. VI-D's suggestion)."""

import pytest

from repro.algebra import PHI, AlgebraTables, ShortestHopCount, TableAlgebra
from repro.algebra.extended import path_vector_folds
from repro.net import Network
from repro.protocols import GPVEngine


def ladder() -> Network:
    """d reachable from m over two parallel relays; s hangs off m.

        d -- a -- m -- s
        d -- b -- m
    """
    net = Network()
    for u, v in (("d", "a"), ("a", "m"), ("d", "b"), ("b", "m"), ("m", "s")):
        net.add_link(u, v, label_ab=1, label_ba=1)
    return net


class TestTopKPropagation:
    def test_alternates_reach_downstream(self):
        engine = GPVEngine(ladder(), ShortestHopCount(), ["d"], top_k=2)
        assert engine.run(until=10.0) == "quiescent"
        routes = engine.known_routes("s", "d")
        paths = {path for _sig, path in routes}
        assert ("s", "m", "a", "d") in paths
        assert ("s", "m", "b", "d") in paths

    def test_top_k_one_sends_single_route(self):
        engine = GPVEngine(ladder(), ShortestHopCount(), ["d"], top_k=1)
        engine.run(until=10.0)
        routes = engine.known_routes("s", "d")
        assert len(routes) == 1

    def test_best_selection_unchanged_by_k(self):
        single = GPVEngine(ladder(), ShortestHopCount(), ["d"], top_k=1)
        single.run(until=10.0)
        multi = GPVEngine(ladder(), ShortestHopCount(), ["d"], top_k=2)
        multi.run(until=10.0)
        for node in ("s", "m", "a", "b"):
            assert (single.best_route(node, "d")[0]
                    == multi.best_route(node, "d")[0])

    def test_invalid_k_rejected(self):
        with pytest.raises(ValueError):
            GPVEngine(ladder(), ShortestHopCount(), ["d"], top_k=0)


class TestTopKFailover:
    def test_downstream_failover_is_cheaper_with_alternates(self):
        """After the primary relay dies, s already holds the backup path
        when running top-2, so reconvergence needs fewer messages."""
        def run(k):
            engine = GPVEngine(ladder(), ShortestHopCount(), ["d"], top_k=k)
            engine.run(until=10.0)
            primary_relay = engine.best_path("m", "d")[1]  # 'a' or 'b'
            before = engine.sim.stats.messages_sent
            engine.fail_link(primary_relay, "d")
            engine.sim.run(until=engine.sim.now + 10.0)
            return engine, engine.sim.stats.messages_sent - before

        single, single_msgs = run(1)
        multi, multi_msgs = run(2)
        # Both restore full reachability...
        assert single.best_path("s", "d") is not None
        assert multi.best_path("s", "d") is not None
        # ... and alternates never make failover chattier.
        assert multi_msgs <= single_msgs

    def test_alternate_survives_when_primary_withdrawn(self):
        engine = GPVEngine(ladder(), ShortestHopCount(), ["d"], top_k=2)
        engine.run(until=10.0)
        relay = engine.best_path("m", "d")[1]
        other = "b" if relay == "a" else "a"
        engine.fail_link(relay, "d")
        assert engine.sim.run(until=engine.sim.now + 10.0) == "quiescent"
        assert engine.best_path("s", "d") == ("s", "m", other, "d")


class TestWireFormat:
    def test_alternates_share_header(self):
        from repro.protocols import Advertisement
        single = Advertisement("d", 2, ("m", "a", "d"))
        multi = Advertisement("d", 2, ("m", "a", "d"),
                              alternates=(((3), ("m", "b", "d")),))
        assert multi.wire_size() > single.wire_size()
        assert multi.wire_size() < 2 * single.wire_size()

    def test_routes_lists_primary_first(self):
        from repro.protocols import Advertisement
        adv = Advertisement("d", 2, ("m", "a", "d"),
                            alternates=((3, ("m", "b", "d")),))
        assert adv.routes()[0] == (2, ("m", "a", "d"))
        assert len(adv.routes()) == 2


def filtered_fan():
    """Three relays of distinct route classes feed m; m feeds s over a
    link whose export filter rejects the best and the worst class.

        d -x- a -.
        d -y- b --m -f- s
        d -z- c -'  `-l- t
    """
    labels = ["x", "y", "z", "l", "f"]
    classes = ["X", "Y", "Z"]
    algebra = TableAlgebra("filtered-fan", AlgebraTables(
        labels=labels,
        signatures=classes,
        preference={"X": 0, "Y": 1, "Z": 2},
        concat={(label, sig): sig for label in labels for sig in classes},
        reverse={label: label for label in labels},
        export_filter=frozenset({("f", "X"), ("f", "Z")}),
        origination={"x": "X", "y": "Y", "z": "Z"},
    ))
    net = Network()
    for relay, label in (("a", "x"), ("b", "y"), ("c", "z")):
        net.add_link(relay, "d", label_ab=label, label_ba=label)
        net.add_link(relay, "m", label_ab="l", label_ba="l")
    net.add_link("m", "s", label_ab="f", label_ba="f")
    net.add_link("m", "t", label_ab="l", label_ba="l")
    return net, algebra


def full_pool_cut(engine, node, neighbor, dest):
    """What ``node`` owes ``neighbor``: export the *whole* ranked pool, then
    cut to ``top_k`` — the rule the bounded loop in ``_advertise`` must
    reproduce."""
    state = engine._states[node]
    best = state.best[dest]
    ranked = engine._ranked(engine._candidates(state, dest))
    label = engine.network.label(node, neighbor)
    _combine, export = path_vector_folds(engine.algebra)
    pool = []
    for sig, path in [best] + [r for r in ranked if r != best]:
        exported = export(label, sig, path, neighbor)
        if exported is not PHI:
            pool.append((exported, path))
    return pool[:engine.top_k] or [(PHI, best[1])]


class TestBoundedExport:
    @pytest.mark.parametrize("top_k", [2, 3])
    def test_every_advertisement_is_the_full_pool_cut_to_k(self, top_k):
        net, algebra = filtered_fan()
        engine = GPVEngine(net, algebra, ["d"], top_k=top_k)
        sent = []
        transport = engine.sim.send

        def checking_send(src, dst, adv, size):
            sent.append((src, dst, adv.routes(),
                         full_pool_cut(engine, src, dst, adv.dest)))
            transport(src, dst, adv, size)

        engine.sim.send = checking_send
        assert engine.run(until=10.0) == "quiescent"
        for src, dst, routes, expected in sent:
            assert routes == expected, (src, dst)
        # The filter bit: over 'f' only the middle class survives, so s
        # hears one route while t hears k of them, best class first.
        to_s = [routes for src, dst, routes, _ in sent if (src, dst) == ("m", "s")]
        to_t = [routes for src, dst, routes, _ in sent if (src, dst) == ("m", "t")]
        assert to_s[-1] == [("Y", ("m", "b", "d"))]
        assert [sig for sig, _ in to_t[-1]] == ["X", "Y", "Z"][:top_k]
