"""The hlp and multipath scenario families: generation, materialization,
backend applicability, and route-set comparison semantics."""

import pytest

from repro.algebra.hlp import HLPCostAlgebra
from repro.campaigns import (
    FAMILIES,
    ScenarioGenerator,
    classify_backend_pair,
    evaluate,
    materialize,
)
from repro.exec import ExecutionOutcome, route_mismatches
from repro.protocols.hlp import DOMAIN_ATTR


class TestGeneration:
    def test_rotation_includes_new_families(self):
        assert "hlp" in FAMILIES and "multipath" in FAMILIES
        specs = ScenarioGenerator(0).generate(len(FAMILIES))
        assert {s.family for s in specs} == set(FAMILIES)

    def test_hlp_specs_draw_domain_parameters(self):
        specs = ScenarioGenerator(3, families=("hlp",)).generate(10)
        for spec in specs:
            assert spec.algebra == "hlp-cost"
            assert spec.param("domains") >= 2
            assert spec.param("nodes_per_domain") >= 2

    def test_multipath_specs_carry_shape_and_k(self):
        specs = ScenarioGenerator(3, families=("multipath",)).generate(12)
        shapes = set()
        for spec in specs:
            assert spec.param("top_k") in (2, 3)
            shapes.add(spec.param("shape"))
        assert shapes <= {"caida", "hierarchy", "rocketfuel"}
        assert len(shapes) > 1

    def test_specs_are_deterministic(self):
        first = ScenarioGenerator(9, families=("hlp", "multipath")).generate(8)
        second = ScenarioGenerator(9, families=("hlp", "multipath")).generate(8)
        assert first == second


class TestMaterialization:
    def test_hlp_scenario_is_domain_labelled(self):
        spec = ScenarioGenerator(1, families=("hlp",)).make(0)
        scenario = materialize(spec)
        assert isinstance(scenario.algebra, HLPCostAlgebra)
        for node in scenario.network.nodes():
            assert DOMAIN_ATTR in scenario.network.node_attrs(node)
        domain_of = {n: scenario.network.node_attrs(n)[DOMAIN_ATTR]
                     for n in scenario.network.nodes()}
        for link in scenario.network.links():
            weight, here, there = link.labels[(link.a, link.b)]
            assert weight == link.weight
            assert (here, there) == (domain_of[link.a], domain_of[link.b])

    def test_hlp_failures_bind_to_cross_links_only(self):
        for index in range(12):
            spec = ScenarioGenerator(5, families=("hlp",)).make(index)
            scenario = materialize(spec)
            domain_of = {n: scenario.network.node_attrs(n)[DOMAIN_ATTR]
                         for n in scenario.network.nodes()}
            for event in scenario.events:
                if event.kind == "fail":
                    assert domain_of[event.a] != domain_of[event.b]
                else:
                    assert domain_of[event.a] == domain_of[event.b]
                    assert event.label[0] >= 1

    def test_multipath_scenario_carries_top_k(self):
        spec = ScenarioGenerator(1, families=("multipath",)).make(0)
        scenario = materialize(spec)
        assert scenario.top_k == spec.param("top_k")

    def test_other_families_default_to_single_path(self):
        spec = ScenarioGenerator(1, families=("caida",)).make(0)
        assert materialize(spec).top_k == 1


class TestBackendSelection:
    def test_unsupporting_backend_is_skipped_not_fatal(self):
        spec = ScenarioGenerator(2, families=("caida",)).make(0)
        result = evaluate(spec, backends=("gpv", "ndlog", "hlp"))
        assert result.error == ""
        assert [o.backend for o in result.outcomes] == ["gpv", "ndlog"]

    def test_hlp_scenarios_run_three_way(self):
        spec = ScenarioGenerator(2, families=("hlp",)).make(0)
        result = evaluate(spec, backends=("gpv", "ndlog", "hlp"))
        assert result.error == ""
        assert [o.backend for o in result.outcomes] == ["gpv", "ndlog", "hlp"]
        assert not result.is_disagreement

    def test_no_supporting_backend_is_an_error(self):
        spec = ScenarioGenerator(2, families=("caida",)).make(0)
        result = evaluate(spec, backends=("hlp",))
        assert result.classification == "error"
        assert "supports" in result.error


def outcome(name: str, sets: dict) -> ExecutionOutcome:
    return ExecutionOutcome(backend=name, converged=True,
                            stop_reason="quiescent", route_sets=sets)


class TestRouteSetComparison:
    algebra = HLPCostAlgebra(domains=(0, 1))

    def test_equal_sets_agree(self):
        sets = {("a", "d"): (((3, (0,)), ("a", "d")),)}
        assert route_mismatches(self.algebra, outcome("x", sets),
                                outcome("y", dict(sets))) == []

    def test_preference_equal_members_agree(self):
        first = {("a", "d"): (((3, (0, 1)), ("a", "d")),)}
        second = {("a", "d"): (((3, (0, 1)), ("a", "b", "d")),)}
        assert route_mismatches(self.algebra, outcome("x", first),
                                outcome("y", second)) == []

    def test_signature_divergence_flagged(self):
        first = {("a", "d"): (((3, (0,)), ("a", "d")),)}
        second = {("a", "d"): (((3, (0, 1)), ("a", "b", "d")),)}
        assert route_mismatches(self.algebra, outcome("x", first),
                                outcome("y", second)) != []

    def test_dropped_k_best_entry_flagged(self):
        shorter = {("a", "d"): (((3, (0,)), ("a", "d")),)}
        longer = {("a", "d"): (((3, (0,)), ("a", "d")),
                               ((4, (0,)), ("a", "b", "d")))}
        mismatches = route_mismatches(self.algebra, outcome("x", shorter),
                                      outcome("y", longer))
        assert mismatches == [
            "a->d: x=[('a', 'd')((3, (0,)))] "
            "y=[('a', 'd')((3, (0,))), ('a', 'b', 'd')((4, (0,)))]"]

    def test_strictly_worse_alternate_flagged(self):
        first = {("a", "d"): (((3, (0,)), ("a", "d")),
                              ((4, (0,)), ("a", "b", "d")))}
        second = {("a", "d"): (((3, (0,)), ("a", "d")),
                               ((9, (0,)), ("a", "c", "d")))}
        mismatches = route_mismatches(self.algebra, outcome("x", first),
                                      outcome("y", second))
        assert len(mismatches) == 1
        assert "('a', 'c', 'd')((9, (0,)))" in mismatches[0]

    def test_emptiness_split_flagged(self):
        first = {("a", "d"): (((3, (0,)), ("a", "d")),)}
        second = {}
        mismatches = route_mismatches(self.algebra, outcome("x", first),
                                      outcome("y", second))
        assert mismatches == ["a->d: x=[('a', 'd')((3, (0,)))] y=[]"]

    def test_wrong_ranking_order_flagged(self):
        first = {("a", "d"): (((3, (0,)), ("a", "d")),
                              ((4, (0,)), ("a", "b", "d")))}
        second = {("a", "d"): (((4, (0,)), ("a", "b", "d")),
                               ((3, (0,)), ("a", "d")))}
        assert route_mismatches(self.algebra, outcome("x", first),
                                outcome("y", second)) != []

    def test_classify_backend_pair_uses_route_sets_for_multipath(self):
        first = outcome("x", {("a", "d"): (((3, (0,)), ("a", "d")),)})
        second = outcome("y", {})
        status, _detail = classify_backend_pair(True, first, second,
                                                self.algebra)
        assert status == "route-diverged"

    def test_same_path_apart_signatures_diverge(self):
        """An agreed path does not excuse a wrong ⊕: the signatures at
        each rank are compared whether or not the paths differ."""
        first = ExecutionOutcome(
            backend="x", converged=True, stop_reason="quiescent",
            routes={("a", "d"): ((3, (0,)), ("a", "d"))})
        second = ExecutionOutcome(
            backend="y", converged=True, stop_reason="quiescent",
            routes={("a", "d"): ((4, (0,)), ("a", "d"))})
        status, detail = classify_backend_pair(True, first, second,
                                               self.algebra)
        assert status == "route-diverged"
        assert detail == ("a->d: x=[('a', 'd')((3, (0,)))] "
                          "y=[('a', 'd')((4, (0,)))]")


class TestDifferentialSmoke:
    @pytest.mark.parametrize("family", ["hlp", "multipath"])
    def test_small_campaign_has_zero_divergences(self, family):
        from repro.campaigns import CampaignConfig, CampaignRunner, \
            clear_verdict_cache
        clear_verdict_cache()
        specs = ScenarioGenerator(17, families=(family,),
                                  profile="quick").generate(6)
        report = CampaignRunner(CampaignConfig(
            jobs=1, backends=("gpv", "ndlog", "hlp"))).run(specs)
        assert report.error_count == 0, "\n".join(
            r.describe() for r in report.errors())
        assert report.disagreement_count == 0, report.summary()
