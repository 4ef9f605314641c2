"""Top-k NDlog codegen (paper Sec. VI-D's multipath extension).

The generated multipath program must advertise the identical k-best set
as the native GPV engine: the ranked ``a_topK`` aggregate applies the
export filter and split horizon per candidate *before* ranking, exactly
as the native engine builds its per-neighbor pool.
"""

import pytest

from repro.algebra import ShortestHopCount, ShortestPath
from repro.algebra.base import PHI
from repro.ndlog.ast import ranked_aggregate_k
from repro.ndlog.codegen import deploy_gpv
from repro.ndlog.parser import parse_program
from repro.ndlog.programs import gpv_topk
from repro.net import Network
from repro.protocols import GPVEngine


def ladder() -> Network:
    """d reachable over two parallel relays; s hangs off m."""
    net = Network()
    for u, v in (("d", "a"), ("a", "m"), ("d", "b"), ("b", "m"), ("m", "s")):
        net.add_link(u, v, label_ab=1, label_ba=1)
    return net


def weighted_mesh(seed: int = 3) -> Network:
    """A Rocketfuel-like weighted graph with plenty of alternate paths."""
    from repro.topology.rocketfuel import rocketfuel_like
    import random

    net = rocketfuel_like(10, 22, seed=seed)
    rng = random.Random(seed)
    for link in net.links():
        weight = rng.choice((2, 5, 9))
        link.labels[(link.a, link.b)] = weight
        link.labels[(link.b, link.a)] = weight
    return net


class TestProgramShape:
    def test_ranked_aggregate_names(self):
        assert ranked_aggregate_k("a_top2") == 2
        assert ranked_aggregate_k("a_top16") == 16
        assert ranked_aggregate_k("a_pref") is None
        with pytest.raises(ValueError):
            ranked_aggregate_k("a_top0")

    def test_topk_program_parses_and_validates(self):
        program = parse_program(gpv_topk(3), name="gpv-top3")
        rank_rules = [r for r in program.rules if r.ranked_k() is not None]
        assert len(rank_rules) == 1
        assert rank_rules[0].ranked_k() == 3
        assert program.is_materialized("advBest")

    def test_invalid_k_rejected(self):
        with pytest.raises(ValueError):
            gpv_topk(0)
        with pytest.raises(ValueError):
            deploy_gpv(ladder(), ShortestHopCount(), ["d"], top_k=0)


def native_k_best(engine: GPVEngine, node: str, dest: str, k: int):
    return engine.known_routes(node, dest)[:k]


def ndlog_pool(runtime, node: str, dest: str):
    return {(row[3], row[4]) for row in runtime.table_rows(node, "sig")
            if row[2] == dest and row[3] is not PHI}


@pytest.mark.parametrize("k", [2, 3])
class TestKBestEquivalence:
    def test_identical_k_best_set_on_ladder(self, k):
        engine = GPVEngine(ladder(), ShortestHopCount(), ["d"], top_k=k)
        assert engine.run(until=30.0) == "quiescent"
        runtime = deploy_gpv(ladder(), ShortestHopCount(), ["d"], top_k=k)
        assert runtime.sim.run(until=30.0) == "quiescent"
        for node in ("s", "m", "a", "b"):
            native = native_k_best(engine, node, "d", k)
            ranked_pool = sorted(ndlog_pool(runtime, node, "d"),
                                 key=lambda r: (r[0], (len(r[1]), r[1])))[:k]
            assert native == ranked_pool, (node, native, ranked_pool)

    def test_identical_k_best_set_on_weighted_mesh(self, k):
        net1 = weighted_mesh()
        weights = sorted({l.labels[(l.a, l.b)] for l in net1.links()})
        dests = sorted(net1.nodes())[:2]
        engine = GPVEngine(net1, ShortestPath(weights), dests, seed=11,
                           top_k=k)
        assert engine.run(until=60.0, max_events=500_000) == "quiescent"
        net2 = weighted_mesh()
        runtime = deploy_gpv(net2, ShortestPath(weights), dests, seed=11,
                             top_k=k)
        assert runtime.sim.run(until=60.0, max_events=500_000) == "quiescent"
        for node in net1.nodes():
            for dest in dests:
                if node == dest:
                    continue
                native = native_k_best(engine, node, dest, k)
                ranked_pool = sorted(
                    ndlog_pool(runtime, node, dest),
                    key=lambda r: (r[0], (len(r[1]), r[1])))[:k]
                assert native == ranked_pool, (node, dest, native,
                                               ranked_pool)


class TestAdvertisedSets:
    def test_sender_side_sets_match(self):
        """advBest rank rows mirror the native per-neighbor RIB-out."""
        k = 2
        engine = GPVEngine(ladder(), ShortestHopCount(), ["d"], top_k=k)
        engine.run(until=30.0)
        runtime = deploy_gpv(ladder(), ShortestHopCount(), ["d"], top_k=k)
        runtime.sim.run(until=30.0)
        for node in ("m", "a", "b"):
            for neighbor in ("s", "m"):
                native = engine._states[node].ribout.last(neighbor, "d")
                rows = [r for r in runtime.table_rows(node, "advBest")
                        if r[1] == neighbor and r[2] == "d"
                        and r[3] is not PHI]
                if native is None or native[0] is PHI:
                    assert rows == []
                    continue
                native_set = {(native[0], native[1]),
                              *((sig, path) for sig, path in native[2])}
                assert {(r[3], r[4]) for r in rows} == native_set

    def test_rank_slot_withdraws_on_failure(self):
        """Losing a relay shrinks the advertised set; the vacated rank
        reaches neighbors as a φ row, not a stale alternate."""
        from repro.campaigns import LinkEventSpec, ScenarioSpec, materialize
        from repro.exec import get_backend, route_set_mismatches

        spec = ScenarioSpec(
            scenario_id=0, family="multipath", algebra="shortest-path",
            seed=13, until=60.0, max_events=200_000,
            params=(("routers", 10), ("links", 22), ("weights", (2, 5, 9)),
                    ("destinations", 1), ("shape", "rocketfuel"),
                    ("top_k", 2)),
            events=(LinkEventSpec(time=0.2, kind="fail", link_index=4),))
        outcomes = {}
        algebra = materialize(spec).algebra
        for name in ("gpv", "ndlog"):
            scenario = materialize(spec)
            session = get_backend(name).prepare(scenario, seed=spec.seed)
            outcome = session.run(until=spec.until,
                                  max_events=spec.max_events)
            assert outcome.converged
            # No surviving route (selected or alternate) rides the failed
            # link.
            for routes in outcome.route_sets.values():
                for _sig, path in routes:
                    for u, v in zip(path, path[1:]):
                        assert session.network.has_link(u, v), (name, path)
            outcomes[name] = outcome
        assert route_set_mismatches(algebra, outcomes["gpv"],
                                    outcomes["ndlog"]) == []
