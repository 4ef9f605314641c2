"""The secure-routing transformer: ROV/BGPsec over any wrapped algebra."""

import pytest

from repro.algebra import PHI, Pref, gao_rexford_a, gao_rexford_with_hopcount
from repro.algebra.base import RoutingAlgebra
from repro.algebra.secure import (
    HIJACK,
    INVALID,
    NOT_FOUND,
    STATES,
    VALID,
    SecureAlgebra,
    hijacked_route,
)


def secured(**kwargs):
    return SecureAlgebra(gao_rexford_with_hopcount("a"), **kwargs)


class TestConstruction:
    def test_rejects_unknown_variant_and_mode(self):
        with pytest.raises(ValueError):
            secured(variant="rpki")
        with pytest.raises(ValueError):
            secured(mode="drop")

    def test_name_encodes_the_draw(self):
        algebra = secured(variant="bgpsec", mode="deprioritize")
        assert algebra.name \
            == "bgpsec-deprioritize:gao-rexford-a(x)hop-count"

    def test_blocked_states_by_variant(self):
        """The states a deployed importer drops under each variant."""
        deployed = (1, ("c", 1))
        for variant, blocked in (("rov", {INVALID}),
                                 ("bgpsec", {INVALID, NOT_FOUND})):
            algebra = secured(variant=variant)
            assert {state for state in STATES
                    if not algebra.import_allows(
                        deployed, (state, 0, ("C", 1)))} == blocked


class TestPreference:
    """Penalty-lexicographic, state-blind, PHI-absorbing."""

    @pytest.fixture
    def algebra(self):
        return secured()

    def test_penalty_dominates_base_preference(self, algebra):
        good_base = ("C", 5)
        bad_base = ("P", 1)
        assert algebra.base.preference(good_base, bad_base) is Pref.BETTER
        assert algebra.preference((VALID, 1, good_base),
                                  (VALID, 0, bad_base)) is Pref.WORSE

    def test_ties_fall_through_to_the_base(self, algebra):
        assert algebra.preference((VALID, 0, ("C", 1)),
                                  (VALID, 0, ("C", 3))) is Pref.BETTER

    def test_validation_state_is_invisible(self, algebra):
        for state in STATES:
            assert algebra.preference((state, 0, ("C", 2)),
                                      (VALID, 0, ("C", 2))) is Pref.EQUAL

    def test_phi_handling(self, algebra):
        sig = (VALID, 0, ("C", 1))
        assert algebra.preference(PHI, PHI) is Pref.EQUAL
        assert algebra.preference(PHI, sig) is Pref.WORSE
        assert algebra.preference(sig, PHI) is Pref.BETTER


class TestVocabulary:
    def test_labels_carry_both_deployment_bits(self):
        algebra = secured()
        base_labels = list(algebra.base.labels())
        lifted = list(algebra.labels())
        assert len(lifted) == 2 * len(base_labels)
        assert {bit for bit, _ in lifted} == {0, 1}

    def test_signatures_enumerate_state_and_penalty(self):
        algebra = SecureAlgebra(gao_rexford_a())
        base_sigs = list(algebra.base.signatures())
        lifted = algebra.signatures()
        assert len(lifted) == 6 * len(base_sigs)

    def test_infinite_base_stays_infinite(self):
        # gr-a-hopcount's second component is unbounded.
        assert secured().signatures() is None

    def test_hijack_label_constructor(self):
        assert SecureAlgebra.hijack_label(("c", 1)) == (HIJACK, ("c", 1))


class TestOrigination:
    def test_legitimate_origin_state_follows_roa(self):
        label = (1, ("c", 1))  # a link into a deployed importer
        assert secured(roa=True).origin_signature(label)[0] == VALID
        assert secured(roa=False).origin_signature(label)[0] == NOT_FOUND

    def test_forged_origin_state_follows_roa(self):
        label = SecureAlgebra.hijack_label(("c", 1))
        assert secured(roa=True).origin_signature(label)[0] == INVALID
        assert secured(roa=False).origin_signature(label)[0] == NOT_FOUND

    def test_origination_is_never_penalized(self):
        for roa in (True, False):
            algebra = secured(roa=roa)
            for label in ((0, ("c", 1)), (1, ("c", 1)),
                          (HIJACK, ("c", 1))):
                assert algebra.origin_signature(label)[1] == 0

    def test_phi_base_origin_passes_through(self):
        class NoOrigin(RoutingAlgebra):
            name = "no-origin"

            def rank_key(self, sig):
                return 0

            def oplus(self, label, sig):
                return PHI

            def origin_signature(self, label):
                return PHI

            def labels(self):
                return ["l"]

            def signatures(self):
                return ["s"]

        algebra = SecureAlgebra(NoOrigin())
        assert algebra.origin_signature((0, "l")) is PHI


class TestImportAndConcat:
    def test_filter_mode_blocks_only_at_deployed_importers(self):
        algebra = secured(variant="rov", mode="filter")
        forged = (INVALID, 0, ("C", 2))
        legit = (VALID, 0, ("C", 2))
        assert algebra.import_allows((0, ("c", 1)), forged)
        assert not algebra.import_allows((1, ("c", 1)), forged)
        assert algebra.import_allows((1, ("c", 1)), legit)

    def test_bgpsec_filter_also_blocks_not_found(self):
        algebra = secured(variant="bgpsec", mode="filter")
        unverifiable = (NOT_FOUND, 0, ("C", 2))
        assert algebra.import_allows((0, ("c", 1)), unverifiable)
        assert not algebra.import_allows((1, ("c", 1)), unverifiable)

    def test_deprioritize_mode_never_filters(self):
        algebra = secured(variant="rov", mode="deprioritize")
        forged = (INVALID, 0, ("C", 2))
        assert algebra.import_allows((1, ("c", 1)), forged)

    def test_deprioritize_sets_penalty_at_deployed_importers(self):
        algebra = secured(variant="rov", mode="deprioritize")
        forged = (INVALID, 0, ("C", 2))
        assert algebra.concat((1, ("c", 1)), forged)[1] == 1
        assert algebra.concat((0, ("c", 1)), forged)[1] == 0

    def test_penalty_is_sticky_through_undeployed_hops(self):
        algebra = secured(variant="rov", mode="deprioritize")
        penalized = (INVALID, 1, ("C", 2))
        assert algebra.concat((0, ("c", 1)), penalized)[1] == 1

    def test_state_propagates_unchanged(self):
        algebra = secured()
        for state in STATES:
            extended = algebra.concat((0, ("c", 1)), (state, 0, ("C", 2)))
            assert extended[0] == state

    def test_base_export_deny_propagates(self):
        algebra = secured()
        # Base Gao-Rexford: a peer route is not exported toward a peer.
        assert not algebra.base.export_allows(("r", 1), ("R", 2))
        for bit in (0, 1):
            assert not algebra.export_allows((bit, ("r", 1)),
                                             (VALID, 0, ("R", 2)))


class TestExportAndReverse:
    def test_export_ignores_the_deployment_bit(self):
        algebra = secured()
        customer_route = (VALID, 0, ("C", 2))
        peer_route = (VALID, 0, ("R", 2))
        for bit in (0, 1):
            assert algebra.export_allows((bit, ("p", 1)), customer_route)
            assert not algebra.export_allows((bit, ("p", 1)), peer_route)

    def test_reverse_label_keeps_bit_and_reverses_base(self):
        algebra = secured()
        assert algebra.reverse_label((1, ("c", 1))) == (1, ("p", 1))
        assert algebra.reverse_label((0, ("r", 1))) == (0, ("r", 1))


class TestStrictMonotonicityPreservation:
    @pytest.mark.parametrize("variant", ("rov", "bgpsec"))
    @pytest.mark.parametrize("mode", ("filter", "deprioritize"))
    def test_every_extension_is_strictly_worse(self, variant, mode):
        algebra = secured(variant=variant, mode=mode)
        for label in algebra.labels():
            for sig in algebra.sample_signatures(24):
                if not algebra.import_allows(label, sig):
                    continue
                extended = algebra.concat(label, sig)
                if extended is PHI:
                    continue
                assert algebra.preference(sig, extended) is Pref.BETTER


class TestHijackedRoute:
    def test_detects_the_attacker_in_penultimate_position(self):
        assert hijacked_route(("AS1", "AS9", "AS0"), "AS9")
        assert not hijacked_route(("AS1", "AS2", "AS0"), "AS9")
        assert not hijacked_route(("AS0",), "AS9")

    def test_attacker_elsewhere_on_the_path_is_not_a_hijack(self):
        # Transit through the attacker toward the legitimate origin is
        # not a forged route.
        assert not hijacked_route(("AS9", "AS2", "AS0"), "AS9")
