"""HLP backend conformance: the hierarchical protocol must agree with the
generic backends on HLP-cost scenarios.

The three implementations compute the same metric by very different
means — the native engine and the generated NDlog program run generic
path-vector over the domain-constrained cost algebra, the HLP engine runs
link-state + fragmented path vector with reflood/forward suppression —
so route-table equality up to cost is a genuine cross-implementation
check, including across cross-domain session failures and intra-domain
weight perturbations.
"""

import pytest

from repro.algebra.hlp import HLPCostAlgebra
from repro.campaigns import LinkEventSpec, ScenarioSpec, materialize
from repro.exec import BACKENDS, get_backend, route_mismatches


def hlp_spec(*, seed: int = 5, events: tuple = (),
             destinations: int = 2) -> ScenarioSpec:
    return ScenarioSpec(
        scenario_id=0, family="hlp", algebra="hlp-cost", seed=seed,
        until=60.0, max_events=250_000,
        params=(("domains", 3), ("nodes_per_domain", 5),
                ("cross_links", 7), ("destinations", destinations)),
        events=events)


def run_backend(name: str, spec: ScenarioSpec):
    scenario = materialize(spec)
    session = get_backend(name).prepare(scenario, seed=spec.seed)
    outcome = session.run(until=spec.until, max_events=spec.max_events)
    return session, outcome


class TestRegistryAndApplicability:
    def test_hlp_backend_is_registered(self):
        assert "hlp" in BACKENDS

    def test_hlp_supports_hlp_scenarios_only(self):
        backend = get_backend("hlp")
        assert backend.supports(materialize(hlp_spec()))
        gadget = ScenarioSpec(scenario_id=0, family="gadget", algebra="spp",
                              seed=1, until=30.0, max_events=25_000,
                              params=(("gadget", "good"),))
        assert not backend.supports(materialize(gadget))

    def test_generic_backends_support_hlp_scenarios(self):
        scenario = materialize(hlp_spec())
        assert get_backend("gpv").supports(scenario)
        assert get_backend("ndlog").supports(scenario)

    def test_hlp_session_rejects_foreign_algebra(self):
        gadget = ScenarioSpec(scenario_id=0, family="gadget", algebra="spp",
                              seed=1, until=30.0, max_events=25_000,
                              params=(("gadget", "good"),))
        with pytest.raises(ValueError, match="HLP"):
            get_backend("hlp").prepare(materialize(gadget), seed=1)


class TestAlgebra:
    def test_strictly_monotone_closed_form(self):
        from repro.analysis import SafetyAnalyzer
        algebra = HLPCostAlgebra(domains=(0, 1, 2))
        report = SafetyAnalyzer().analyze(algebra)
        assert report.safe
        assert report.method == "closed-form"

    def test_domain_loop_prohibited(self):
        from repro.algebra.base import PHI
        algebra = HLPCostAlgebra(domains=(0, 1, 2))
        assert algebra.oplus((3, 0, 1), (5, (1, 2))) == (8, (0, 1, 2))
        assert algebra.oplus((3, 0, 1), (5, (1, 0))) is PHI
        assert algebra.oplus((3, 1, 1), (5, (1, 0))) == (8, (1, 0))

    def test_preference_is_lexicographic_cost_then_domain_path(self):
        """Cost first; ties settle on the domain path, because the domain
        path decides advertisability — equal-cost routes with different
        paths are observably different and must not tie."""
        from repro.algebra.base import Pref
        algebra = HLPCostAlgebra(domains=(0, 1, 2))
        assert algebra.preference((6, (0, 1)), (7, (0,))) is Pref.BETTER
        assert algebra.preference((7, (0,)), (7, (0, 1, 2))) is Pref.BETTER
        assert algebra.preference((7, (0, 2)), (7, (0, 1))) is Pref.WORSE
        assert algebra.preference((7, (0, 1)), (7, (0, 1))) is Pref.EQUAL


EVENT_SPECS = [
    hlp_spec(seed=5),
    hlp_spec(seed=9, events=(
        LinkEventSpec(time=0.2, kind="fail", link_index=1),)),
    hlp_spec(seed=12, events=(
        LinkEventSpec(time=0.15, kind="fail", link_index=3),
        LinkEventSpec(time=0.35, kind="perturb", link_index=11, weight=9))),
]


class TestThreeWayConformance:
    @pytest.mark.parametrize("spec", EVENT_SPECS,
                             ids=["cold", "cross-fail", "fail+perturb"])
    def test_all_backends_agree_on_costs(self, spec):
        outcomes = {}
        algebra = materialize(spec).algebra
        for name in ("gpv", "ndlog", "hlp"):
            _session, outcome = run_backend(name, spec)
            assert outcome.converged, (name, outcome.stop_reason)
            outcomes[name] = outcome
        for left, right in (("gpv", "ndlog"), ("gpv", "hlp"),
                            ("ndlog", "hlp")):
            mismatches = route_mismatches(algebra, outcomes[left],
                                          outcomes[right])
            assert mismatches == [], f"{left}~{right}: {mismatches}"

    def test_cross_failure_withdraws_reachability_consistently(self):
        """Failing every cross link into one domain must lose the same
        pairs on every backend."""
        spec = hlp_spec(seed=9, events=(
            LinkEventSpec(time=0.2, kind="fail", link_index=1),))
        held = {}
        for name in ("gpv", "hlp"):
            _session, outcome = run_backend(name, spec)
            held[name] = {key for key, path in outcome.routes.items()
                          if path is not None}
        assert held["gpv"] == held["hlp"]

    def test_hlp_sigs_are_cost_dpath_pairs(self):
        _session, outcome = run_backend("hlp", hlp_spec())
        some = [sig for sig in outcome.sigs.values() if sig is not None]
        assert some
        for cost, dpath in some:
            assert isinstance(cost, int) and cost > 0
            assert isinstance(dpath, tuple) and len(dpath) >= 1
