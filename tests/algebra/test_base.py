"""Unit tests for algebra fundamentals (repro.algebra.base)."""

import pickle

from repro.algebra import PHI, Pref, RoutingAlgebra, rank_sort
from repro.algebra.base import _Phi, origin_or_phi
from repro.algebra.library import ShortestHopCount


class TestPhi:
    def test_singleton(self):
        assert _Phi() is PHI

    def test_repr(self):
        assert repr(PHI) == "PHI"

    def test_pickle_preserves_identity(self):
        assert pickle.loads(pickle.dumps(PHI)) is PHI


class TestPrefEnum:
    def test_int_values_sortable(self):
        assert Pref.BETTER < Pref.EQUAL < Pref.WORSE


class TestBestSelection:
    def test_best_picks_most_preferred(self):
        algebra = ShortestHopCount()
        assert algebra.best([3, 1, 2]) == 1

    def test_best_skips_phi(self):
        algebra = ShortestHopCount()
        assert algebra.best([PHI, 5, PHI, 2]) == 2

    def test_best_of_nothing_is_phi(self):
        algebra = ShortestHopCount()
        assert algebra.best([]) is PHI
        assert algebra.best([PHI, PHI]) is PHI

    def test_better(self):
        algebra = ShortestHopCount()
        assert algebra.better(1, 2)
        assert not algebra.better(2, 2)
        assert not algebra.better(3, 2)


class TestRankSort:
    def test_sorts_most_preferred_first(self):
        algebra = ShortestHopCount()
        assert rank_sort(algebra, [5, 1, 3]) == [1, 3, 5]

    def test_phi_sorts_last(self):
        algebra = ShortestHopCount()
        assert rank_sort(algebra, [PHI, 2, 1]) == [1, 2, PHI]


class TestDefaultInterfaces:
    def test_origin_signature_via_seed(self):
        algebra = ShortestHopCount()
        assert algebra.origin_signature(1) == 1

    def test_infinite_sigma_flags(self):
        algebra = ShortestHopCount()
        assert algebra.signatures() is None
        assert not algebra.is_finite

    def test_sample_signatures(self):
        algebra = ShortestHopCount()
        assert algebra.sample_signatures(4) == [1, 2, 3, 4]

    def test_repr_mentions_name(self):
        assert "hop-count" in repr(ShortestHopCount())

    def test_origin_seed_default_raises(self):
        class Bare(RoutingAlgebra):
            def preference(self, s1, s2):
                return Pref.EQUAL

            def oplus(self, label, sig):
                return sig

            def labels(self):
                return [1]

        import pytest
        with pytest.raises(NotImplementedError):
            Bare().origin_signature(1)


class TestOriginOrPhi:
    """The undefined-label rule, said once for every engine."""

    class Partial(RoutingAlgebra):
        """Originates over label 1; 2 is missing from its table, 3 is
        a label it has no seed for."""

        def preference(self, s1, s2):
            return Pref.EQUAL

        def oplus(self, label, sig):
            return sig

        def labels(self):
            return [1, 2, 3]

        def origin_signature(self, label):
            if label == 3:
                return super().origin_signature(label)  # no origin_seed
            return {1: "one-hop"}[label]

    def test_defined_label_originates(self):
        assert origin_or_phi(self.Partial(), 1) == "one-hop"

    def test_both_undefined_label_exceptions_yield_phi(self):
        import pytest
        algebra = self.Partial()
        with pytest.raises(KeyError):
            algebra.origin_signature(2)
        with pytest.raises(NotImplementedError):
            algebra.origin_signature(3)
        assert origin_or_phi(algebra, 2) is PHI
        assert origin_or_phi(algebra, 3) is PHI

    def test_any_other_exception_is_a_bug_and_surfaces(self):
        import pytest

        class Buggy(self.Partial):
            def origin_signature(self, label):
                raise TypeError("bug")

        with pytest.raises(TypeError):
            origin_or_phi(Buggy(), 1)
