"""Every shipped policy satisfies the algebra laws; broken ones are caught."""

import pytest

from repro.algebra import (
    PHI,
    AlgebraTables,
    BandwidthAlgebra,
    Pref,
    PrefStatement,
    SPPAlgebra,
    TableAlgebra,
    bad_gadget,
    disagree,
    gao_rexford_a,
    gao_rexford_b,
    gao_rexford_with_hopcount,
    good_gadget,
    ibgp_figure3,
    ibgp_figure3_fixed,
    safe_backup,
    widest_shortest,
)
from repro.algebra.laws import validate_algebra
from repro.algebra.library import ShortestHopCount, ShortestPath

SHIPPED = [
    ShortestHopCount(),
    ShortestPath([1, 5, 10]),
    BandwidthAlgebra([10, 100]),
    gao_rexford_a(),
    gao_rexford_b(),
    gao_rexford_with_hopcount(),
    safe_backup(4),
    widest_shortest([10, 100]),
    SPPAlgebra(good_gadget()),
    SPPAlgebra(bad_gadget()),
    SPPAlgebra(disagree()),
    SPPAlgebra(ibgp_figure3()),
    SPPAlgebra(ibgp_figure3_fixed()),
]


@pytest.mark.parametrize("algebra", SHIPPED, ids=lambda a: a.name)
def test_shipped_policies_are_well_formed(algebra):
    assert validate_algebra(algebra) == []


class TestViolationDetection:
    def test_phi_absorption_violation(self):
        class Leaky(ShortestHopCount):
            name = "leaky"

            def oplus(self, label, sig):
                if sig is PHI:
                    return 10 ** 9  # resurrect prohibited paths (wrong!)
                return label + sig

        violations = validate_algebra(Leaky())
        assert any("absorb" in v for v in violations)

    def test_phi_stays_worst_whatever_the_key(self):
        """An algebra can no longer prefer φ: φ never reaches the key, and
        the base class ranks it strictly worst — the violation the old
        comparator laws looked for cannot be written."""
        class PhiLover(ShortestHopCount):
            name = "philover"

            def rank_key(self, sig):
                if sig is PHI:
                    return -1  # would prefer prohibited paths (unreachable)
                return sig

        algebra = PhiLover()
        assert validate_algebra(algebra) == []
        assert algebra.preference(PHI, 1) is Pref.WORSE
        assert algebra.preference(1, PHI) is Pref.BETTER
        assert algebra.preference(PHI, PHI) is Pref.EQUAL
        assert not algebra.better(PHI, 1) and algebra.better(1, PHI)

    def test_asymmetric_preference_violation(self):
        """The key-world form of a preference that is not a total order:
        keys that cannot be compared with each other.  (Reflexivity,
        antisymmetry and transitivity hold by construction for keys that
        can, so there is nothing left for them to get wrong.)"""
        class Biased(ShortestHopCount):
            name = "biased"

            def rank_key(self, sig):
                return sig if sig % 2 else str(sig)  # int vs str (wrong!)

        violations = validate_algebra(Biased())
        assert any("do not compare" in v for v in violations)

    def test_statements_disagreeing_with_keys_violation(self):
        class Contrary(TableAlgebra):
            def preference_statements(self):
                statements = super().preference_statements()
                return [PrefStatement(s.s2, s.rel, s.s1, s.origin)
                        for s in statements]  # every strict one reversed

        violations = validate_algebra(Contrary("contrary",
                                               gao_rexford_a().tables))
        assert any("disagrees with rank keys" in v for v in violations)
        assert len(violations) == 2  # C < R and C < P; R = P still holds

    def test_non_involutive_reverse_violation(self):
        tables = AlgebraTables(
            labels=["x", "y", "z"], signatures=["S"],
            preference={"S": 0},
            concat={("x", "S"): "S"},
            reverse={"x": "y", "y": "z", "z": "x"},  # 3-cycle (wrong!)
        )
        violations = validate_algebra(TableAlgebra("spin", tables))
        assert any("involutive" in v for v in violations)
