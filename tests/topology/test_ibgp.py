"""Tests for iBGP configurations and the IGP-cost algebra
(repro.topology.ibgp)."""

import pytest

from repro.algebra import PHI, Pref
from repro.analysis import SafetyAnalyzer
from repro.protocols import GPVEngine
from repro.topology import (
    EXT_DEST,
    IGPCostAlgebra,
    build_reflector_hierarchy,
    make_ibgp_config,
    rocketfuel_like,
)


@pytest.fixture(scope="module")
def router_net():
    return rocketfuel_like(30, 60, seed=11)


@pytest.fixture(scope="module")
def plain_config(router_net):
    return make_ibgp_config(router_net, levels=3, reflector_count=12,
                            egress_count=4, seed=11, embed_gadget=False)


@pytest.fixture(scope="module")
def gadget_config(router_net):
    return make_ibgp_config(router_net, levels=3, reflector_count=12,
                            egress_count=4, seed=11, embed_gadget=True)


class TestHierarchy:
    def test_reflector_count(self, router_net):
        session_net, reflectors, levels = build_reflector_hierarchy(
            router_net, levels=3, reflector_count=12, seed=11)
        assert len(reflectors) == 12

    def test_every_router_in_session_graph(self, plain_config):
        session_nodes = set(plain_config.session_net.nodes())
        assert len(session_nodes - {EXT_DEST}) == 30

    def test_top_mesh_fully_connected(self, plain_config):
        top = [r for r, lvl in plain_config.levels.items() if lvl == 0]
        for i, a in enumerate(top):
            for b in top[i + 1:]:
                assert plain_config.session_net.has_link(a, b)

    def test_ext_attached_to_egresses(self, plain_config):
        for egress in plain_config.egresses:
            assert plain_config.session_net.has_link(egress, EXT_DEST)

    def test_reflector_count_bounds(self, router_net):
        with pytest.raises(ValueError):
            build_reflector_hierarchy(router_net, reflector_count=30)

    def test_paper_scale_hierarchy(self):
        """The Sec. VI-B numbers: 87 routers, 6 levels, 53 reflectors."""
        net = rocketfuel_like(seed=0)
        config = make_ibgp_config(net, seed=0)
        assert len(config.reflectors) == 53
        assert max(lvl for r, lvl in config.levels.items()
                   if r in set(config.reflectors)) <= 5


class TestGadgetEmbedding:
    def test_gadget_members_recorded(self, gadget_config):
        assert len(gadget_config.gadget_members) == 6

    def test_preference_cycle_in_overrides(self, gadget_config):
        reflectors = gadget_config.gadget_members[:3]
        egresses = gadget_config.gadget_members[3:]
        for i, reflector in enumerate(reflectors):
            own, nxt = egresses[i], egresses[(i + 1) % 3]
            assert gadget_config.cost(reflector, nxt) < \
                gadget_config.cost(reflector, own)

    def test_gadget_egress_exclusive_sessions(self, gadget_config):
        for reflector, egress in zip(gadget_config.gadget_members[:3],
                                     gadget_config.gadget_members[3:]):
            neighbors = set(
                gadget_config.session_net.neighbors(egress)) - {EXT_DEST}
            assert neighbors == {reflector}

    def test_no_overrides_without_gadget(self, plain_config):
        assert plain_config.overrides == {}


class TestIGPCostAlgebra:
    def test_oplus_relays_egress_identity(self, plain_config):
        algebra = IGPCostAlgebra(plain_config)
        egress = plain_config.egresses[0]
        neighbor = plain_config.session_net.neighbors(egress)[0]
        if neighbor == EXT_DEST:
            neighbor = plain_config.session_net.neighbors(egress)[1]
        label = ("l", neighbor, egress)
        assert algebra.oplus(label, (egress, egress)) == (neighbor, egress)

    def test_oplus_rejects_mismatched_holder(self, plain_config):
        algebra = IGPCostAlgebra(plain_config)
        assert algebra.oplus(("l", "x", "y"), ("z", "e")) is PHI

    def test_origin_signature_only_at_egresses(self, plain_config):
        algebra = IGPCostAlgebra(plain_config)
        egress = plain_config.egresses[0]
        assert algebra.origin_signature(
            ("l", egress, EXT_DEST)) == (egress, egress)
        non_egress = next(n for n in plain_config.session_net.nodes()
                          if n not in plain_config.egresses
                          and n != EXT_DEST)
        assert algebra.origin_signature(("l", non_egress, EXT_DEST)) is PHI

    def test_preference_by_igp_cost(self, plain_config):
        algebra = IGPCostAlgebra(plain_config)
        router = plain_config.reflectors[0]
        by_cost = sorted(plain_config.egresses,
                         key=lambda e: plain_config.cost(router, e))
        best, worst = by_cost[0], by_cost[-1]
        if plain_config.cost(router, best) < plain_config.cost(router, worst):
            assert algebra.preference(
                (router, best), (router, worst)) is Pref.BETTER

    def test_statements_are_per_router_chains(self, plain_config):
        algebra = IGPCostAlgebra(plain_config)
        statements = algebra.preference_statements()
        routers = {s.s1[0] for s in statements}
        assert EXT_DEST not in routers
        per_router = len(plain_config.egresses) - 1
        node_count = plain_config.session_net.node_count() - 1
        assert len(statements) == per_router * node_count


class TestAnalysisVerdicts:
    """Analysis goes through SPP extraction, as in paper Sec. VI-B —
    direct ⊕ enumeration is deliberately unsupported (it would fabricate
    relay cycles between every pair of adjacent routers)."""

    @staticmethod
    def _extracted_report(config, window_s=2.0):
        from repro.experiments import extract_spp
        engine = GPVEngine(config.session_net, IGPCostAlgebra(config),
                           [EXT_DEST], seed=1)
        engine.sim.stats.route_log = []
        engine.run(until=window_s, max_events=500_000)
        spp = extract_spp(
            engine, EXT_DEST,
            rank_key=lambda node, sig, path: (config.cost(node, sig[1]),
                                              len(path), path))
        return SafetyAnalyzer().analyze(spp)

    def test_direct_enumeration_refused(self, gadget_config):
        with pytest.raises(NotImplementedError, match="extract"):
            SafetyAnalyzer().analyze(IGPCostAlgebra(gadget_config))

    def test_plain_config_extraction_sat(self, plain_config):
        assert self._extracted_report(plain_config).safe

    def test_gadget_config_extraction_unsat(self, gadget_config):
        assert not self._extracted_report(gadget_config).safe

    def test_gadget_core_names_gadget_routers(self, gadget_config):
        report = self._extracted_report(gadget_config)
        members = set(gadget_config.gadget_members)
        core_routers = set()
        for source in report.core:
            origin = source.origin or ""
            if "[" in origin:
                core_routers.add(origin.split("[", 1)[1].rstrip("]"))
        assert core_routers
        assert core_routers <= members


class TestSimulationVerdicts:
    def test_plain_config_converges(self, plain_config):
        engine = GPVEngine(plain_config.session_net,
                           IGPCostAlgebra(plain_config), [EXT_DEST], seed=1)
        assert engine.run(until=10.0, max_events=500_000) == "quiescent"

    def test_gadget_config_oscillates(self, gadget_config):
        engine = GPVEngine(gadget_config.session_net,
                           IGPCostAlgebra(gadget_config), [EXT_DEST], seed=1)
        assert engine.run(until=10.0, max_events=500_000) != "quiescent"
