"""The HLP tau-sweep family: finite, non-SPP algebras that reach tier 2.

Every ``(tau, weights)`` draw of :class:`~repro.algebra.hlp.HLPTauAlgebra`
changes only the ⊕ (monotonicity) constraints while the preference atoms
stay structurally identical; each variant is decided by the solver and
fully batch-admitted.
"""

import pytest

from repro.algebra import PHI, HLPTauAlgebra, Pref, hide_cost
from repro.analysis.safety import SafetyAnalyzer
from repro.campaigns import (
    ScenarioGenerator,
    canonical_key,
    clear_verdict_cache,
    evaluate,
    materialize,
)


class TestHideCost:
    def test_rounds_up_to_tau_multiples(self):
        assert hide_cost(5, 4) == 8
        assert hide_cost(8, 4) == 8
        assert hide_cost(1, 3) == 3

    def test_tau_zero_and_one_are_exact(self):
        assert hide_cost(7, 0) == 7
        assert hide_cost(7, 1) == 7

    def test_never_understates(self):
        for tau in range(5):
            for cost in range(1, 30):
                assert hide_cost(cost, tau) >= cost


class TestAlgebra:
    def test_oplus_hides_and_caps(self):
        algebra = HLPTauAlgebra(tau=4, weights=(1, 3), max_cost=10)
        assert algebra.oplus(3, 2) == 8       # hide(5, 4)
        assert algebra.oplus(1, 8) is PHI     # hide(9, 4) = 12 > cap
        assert algebra.oplus(1, PHI) is PHI

    def test_origin_signature_is_hidden_too(self):
        algebra = HLPTauAlgebra(tau=4, weights=(3,), max_cost=10)
        assert algebra.origin_signature(3) == 4

    def test_preference_is_lower_cost(self):
        algebra = HLPTauAlgebra()
        assert algebra.preference(2, 5) is Pref.BETTER
        assert algebra.preference(5, 2) is Pref.WORSE
        assert algebra.preference(3, 3) is Pref.EQUAL
        assert algebra.preference(PHI, 9) is Pref.WORSE

    def test_signatures_are_tau_independent(self):
        exact = HLPTauAlgebra(tau=0, max_cost=12)
        hidden = HLPTauAlgebra(tau=4, max_cost=12)
        assert list(exact.signatures()) == list(hidden.signatures())

    def test_validation(self):
        with pytest.raises(ValueError):
            HLPTauAlgebra(tau=-1)
        with pytest.raises(ValueError):
            HLPTauAlgebra(weights=(0,))
        with pytest.raises(ValueError):
            HLPTauAlgebra(weights=(9,), max_cost=5)

    def test_every_variant_is_provably_safe_by_smt(self):
        for tau in (0, 2, 4):
            report = SafetyAnalyzer().analyze(
                HLPTauAlgebra(tau=tau, weights=(1, 2), max_cost=10))
            assert report.safe
            assert report.method == "smt"  # finite, non-SPP: tier 2

    def test_canonical_keys_distinguish_suffix_variants(self):
        base = canonical_key(HLPTauAlgebra(tau=0, weights=(1, 2)))
        assert canonical_key(HLPTauAlgebra(tau=0, weights=(1, 2))) == base
        assert canonical_key(HLPTauAlgebra(tau=4, weights=(1, 2))) != base
        assert canonical_key(HLPTauAlgebra(tau=0, weights=(1, 3))) != base


class TestFamily:
    def test_generator_draws_varied_suffixes_over_one_prefix(self):
        generator = ScenarioGenerator(7, families=("tau-sweep",),
                                      profile="quick")
        specs = generator.generate(12)
        assert all(spec.family == "tau-sweep" for spec in specs)
        assert all(spec.param("max_cost") ==
                   ScenarioGenerator.TAU_SWEEP_MAX_COST for spec in specs)
        variants = {(spec.param("tau"), spec.param("weights"))
                    for spec in specs}
        assert len(variants) > 3, "the sweep must actually sweep"

    def test_materializes_with_in_vocabulary_labels(self):
        spec = ScenarioGenerator(7, families=("tau-sweep",),
                                 profile="quick").make(0)
        scenario = materialize(spec)
        weights = set(spec.param("weights"))
        for link in scenario.network.links():
            assert link.labels[(link.a, link.b)] in weights

    def test_differential_oracle_agrees_on_the_family(self):
        clear_verdict_cache()
        generator = ScenarioGenerator(7, families=("tau-sweep",),
                                      profile="quick")
        for spec in generator.generate(3):
            result = evaluate(spec)
            assert result.classification == "safe-converged", \
                result.describe()
            assert result.method == "smt"


class TestTauAwareValidation:
    def test_hiding_cannot_push_all_originations_past_the_cap(self):
        """tau > max_cost would hide every one-hop route to PHI; the
        constructor must reject it, not produce a vacuous algebra."""
        with pytest.raises(ValueError, match="one-hop"):
            HLPTauAlgebra(tau=20, weights=(1, 2), max_cost=14)
        # The boundary case is fine: hide(1, 14) == 14 == cap.
        algebra = HLPTauAlgebra(tau=14, weights=(1,), max_cost=14)
        assert algebra.origin_signature(1) == 14
