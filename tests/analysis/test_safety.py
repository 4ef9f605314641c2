"""Tests for the safety analyzer — the paper's Sec. IV-C case studies."""

import pytest

from repro.algebra import (
    PHI,
    RoutingAlgebra,
    SPPAlgebra,
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
from repro.algebra.base import ClosedFormCertificate
from repro.algebra.library import ShortestHopCount
from repro.analysis import SafetyAnalyzer


@pytest.fixture(scope="module")
def analyzer():
    return SafetyAnalyzer()


class TestHopCount:
    def test_safe_by_closed_form(self, analyzer):
        report = analyzer.analyze(ShortestHopCount())
        assert report.safe
        assert report.method == "closed-form"
        assert report.monotonic

    def test_summary_mentions_verdict(self, analyzer):
        assert "SAFE" in analyzer.analyze(ShortestHopCount()).summary()


class TestGaoRexford:
    def test_guideline_a_not_strictly_monotonic(self, analyzer):
        report = analyzer.analyze(gao_rexford_a())
        assert not report.safe
        assert report.monotonic  # but it IS monotonic

    def test_core_pinpoints_customer_loop(self, analyzer):
        """Paper: 'One of the violating constraints is resulted from
        c ⊕ C = C.'"""
        report = analyzer.analyze(gao_rexford_a())
        assert any(getattr(s, "label", None) == "c"
                   and getattr(s, "result", None) == "C"
                   for s in report.core)

    def test_guideline_b_same_verdict(self, analyzer):
        report = analyzer.analyze(gao_rexford_b())
        assert not report.safe
        assert report.monotonic

    def test_composition_with_hopcount_is_safe(self, analyzer):
        report = analyzer.analyze(gao_rexford_with_hopcount())
        assert report.safe
        assert report.method == "composition"


class TestCompositionRule:
    def test_strict_first_component_short_circuits(self, analyzer):
        from repro.algebra import LexicalProduct
        product = LexicalProduct(ShortestHopCount(), gao_rexford_a())
        report = analyzer.analyze(product)
        assert report.safe
        assert "strictly" in report.detail

    def test_widest_shortest_safe(self, analyzer):
        assert analyzer.analyze(widest_shortest()).safe

    def test_nonmonotone_first_component_fails(self, analyzer):
        from repro.algebra import LexicalProduct

        class AntiMonotone(RoutingAlgebra):
            """Extending a path makes it MORE preferred — never monotone."""

            name = "anti"

            def rank_key(self, sig):
                return sig

            def oplus(self, label, sig):
                return PHI if sig is PHI else max(sig - 1, 0)

            def labels(self):
                return [1]

            def signatures(self):
                return [0, 1, 2, 3]

        product = LexicalProduct(AntiMonotone(), ShortestHopCount())
        report = analyzer.analyze(product)
        assert not report.safe
        assert report.monotonic is False

    def test_weak_tiebreaker_fails(self, analyzer):
        from repro.algebra import BandwidthAlgebra, LexicalProduct
        product = LexicalProduct(gao_rexford_a(), BandwidthAlgebra([10]))
        report = analyzer.analyze(product)
        assert not report.safe
        assert "not strictly monotonic" in report.detail


class TestSPPInstances:
    def test_figure3_unsat_with_six_constraint_core(self, analyzer):
        report = analyzer.analyze(ibgp_figure3())
        assert not report.safe
        assert len(report.core) == 6
        # Paper: the core involves the reflectors a, b, c but not d, e, f.
        origins = " ".join(s.origin or "" for s in report.core)
        for reflector in ("a", "b", "c"):
            assert f"[{reflector}]" in origins
        for egress in ("d", "e", "f"):
            assert f"[{egress}]" not in origins

    def test_figure3_fixed_is_safe(self, analyzer):
        report = analyzer.analyze(ibgp_figure3_fixed())
        assert report.safe
        assert report.model  # concrete integer instantiation

    def test_gadget_verdicts(self, analyzer):
        assert analyzer.analyze(good_gadget()).safe
        assert not analyzer.analyze(bad_gadget()).safe
        assert not analyzer.analyze(disagree()).safe

    def test_accepts_instance_or_algebra(self, analyzer):
        instance = good_gadget()
        assert (analyzer.analyze(instance).safe
                == analyzer.analyze(SPPAlgebra(instance)).safe)

    def test_enumerate_cores_repair_loop(self, analyzer):
        from repro.algebra import replicate
        combined = replicate(bad_gadget(), 2)
        cores = analyzer.enumerate_cores(combined)
        assert len(cores) == 2  # one conflict per copy
        for core in cores:
            assert core


class TestBackupRouting:
    def test_safe_backup_is_safe(self, analyzer):
        assert analyzer.analyze(safe_backup()).safe


class TestCertificateCrossCheck:
    def test_lying_certificate_caught(self, analyzer):
        class Liar(ShortestHopCount):
            name = "liar"

            def oplus(self, label, sig):
                return sig  # not strictly monotonic at all

            @property
            def closed_form_monotonicity(self):
                return ClosedFormCertificate(True, True, "trust me")

        with pytest.raises(AssertionError, match="certificate"):
            analyzer.analyze(Liar())

    def test_missing_certificate_raises(self, analyzer):
        class NoCert(ShortestHopCount):
            name = "nocert"

            @property
            def closed_form_monotonicity(self):
                return None

        with pytest.raises(NotImplementedError):
            analyzer.analyze(NoCert())


class TestReportFormatting:
    def test_unsafe_summary_lists_core(self, analyzer):
        summary = analyzer.analyze(ibgp_figure3()).summary()
        assert "unsat core" in summary
        assert "NOT PROVED SAFE" in summary

    def test_safe_summary_shows_model(self, analyzer):
        summary = analyzer.analyze(ibgp_figure3_fixed()).summary()
        assert "model:" in summary

    def test_constraint_counts_in_summary(self, analyzer):
        summary = analyzer.analyze(ibgp_figure3()).summary()
        assert "18" in summary
