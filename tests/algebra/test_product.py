"""Tests for the lexical product (repro.algebra.product)."""

import pytest

from repro.algebra import (
    PHI,
    BandwidthAlgebra,
    LexicalProduct,
    Pref,
    ShortestHopCount,
    gao_rexford_a,
    gao_rexford_with_hopcount,
    widest_shortest,
)


class TestLexicalPreference:
    @pytest.fixture
    def gr_hop(self):
        return gao_rexford_with_hopcount()

    def test_first_component_dominates(self, gr_hop):
        # Customer route with long path beats provider route with short path.
        assert gr_hop.preference(("C", 9), ("P", 1)) is Pref.BETTER

    def test_tie_broken_by_second(self, gr_hop):
        # P and R tie in guideline A; hop count breaks the tie.
        assert gr_hop.preference(("P", 2), ("R", 5)) is Pref.BETTER
        assert gr_hop.preference(("P", 5), ("R", 2)) is Pref.WORSE

    def test_full_tie(self, gr_hop):
        assert gr_hop.preference(("P", 3), ("R", 3)) is Pref.EQUAL

    def test_phi_is_worst(self, gr_hop):
        assert gr_hop.preference(PHI, ("P", 9)) is Pref.WORSE
        assert gr_hop.preference(("C", 1), PHI) is Pref.BETTER


class TestProductOperators:
    @pytest.fixture
    def gr_hop(self):
        return gao_rexford_with_hopcount()

    def test_oplus_componentwise(self, gr_hop):
        assert gr_hop.oplus(("c", 1), ("C", 2)) == ("C", 3)

    def test_oplus_phi_when_any_component_filters(self, gr_hop):
        # c (+) P is filtered in Gao-Rexford, so the product is φ.
        assert gr_hop.oplus(("c", 1), ("P", 2)) is PHI

    def test_oplus_absorbs_phi(self, gr_hop):
        assert gr_hop.oplus(("c", 1), PHI) is PHI

    def test_origin_signature(self, gr_hop):
        assert gr_hop.origin_signature(("c", 1)) == ("C", 1)

    def test_reverse_label(self, gr_hop):
        assert gr_hop.reverse_label(("c", 1)) == ("p", 1)

    def test_export_allows_conjunction(self, gr_hop):
        assert gr_hop.export_allows(("c", 1), ("P", 3))
        assert not gr_hop.export_allows(("p", 1), ("P", 3))

    def test_labels_are_pairs(self):
        product = LexicalProduct(gao_rexford_a(), BandwidthAlgebra([10]))
        labels = product.labels()
        assert ("c", 10) in labels
        assert len(labels) == 3


class TestProductSignatures:
    def test_finite_product_enumerates(self):
        from repro.algebra import gao_rexford_b
        product = LexicalProduct(gao_rexford_a(), gao_rexford_b())
        sigs = product.signatures()
        assert ("C", "P") in sigs
        assert len(sigs) == 9

    def test_infinite_second_component(self):
        product = LexicalProduct(gao_rexford_a(), BandwidthAlgebra([10, 100]))
        assert product.signatures() is None

    def test_infinite_component_makes_product_infinite(self):
        assert gao_rexford_with_hopcount().signatures() is None

    def test_sample_signatures(self):
        product = widest_shortest([10, 100])
        samples = product.sample_signatures(5)
        assert len(samples) == 5
        assert all(isinstance(s, tuple) and len(s) == 2 for s in samples)


class TestNaming:
    def test_default_name(self):
        product = LexicalProduct(gao_rexford_a(), ShortestHopCount())
        assert product.name == "gao-rexford-a(x)hop-count"

    def test_custom_name(self):
        product = LexicalProduct(gao_rexford_a(), ShortestHopCount(),
                                 name="mine")
        assert product.name == "mine"
