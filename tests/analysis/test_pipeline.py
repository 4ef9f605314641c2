"""The safety analyzer's tiers: type dispatch, provenance and
tier-1 ≡ tier-2 agreement."""

import random

import pytest

from repro.algebra import (
    GADGET_ZOO,
    HLPTauAlgebra,
    SPPAlgebra,
    disagree_chain,
    gao_rexford_a,
    gao_rexford_with_hopcount,
    replicate,
)
from repro.algebra.library import ShortestHopCount
from repro.analysis import SafetyAnalyzer, encode
from repro.analysis.safety import dispute_report, smt_report
from repro.campaigns import perturb_rankings
from test_modelcheck import _instances


@pytest.fixture(scope="module")
def analyzer():
    return SafetyAnalyzer()


def zoo_instances():
    """The gadget zoo plus replicated, chained and perturbed variants."""
    instances = [build() for build in GADGET_ZOO.values()]
    instances.append(replicate(GADGET_ZOO["disagree"](), 3))
    instances.append(disagree_chain(4, 0.5))
    rng = random.Random(11)
    for kind in ("disagree", "bad", "figure3", "figure3-fixed"):
        for _ in range(3):
            instances.append(
                perturb_rankings(GADGET_ZOO[kind](), 0.8, rng))
    return instances


def assert_tiers_agree(instance):
    """Tier-1 verdict == tier-2 verdict on one SPP instance."""
    algebra = SPPAlgebra(instance)
    fast, slow = dispute_report(algebra), smt_report(algebra)
    assert fast.safe == slow.safe, instance.permitted
    assert fast.monotonic == slow.monotonic, instance.permitted
    assert fast.constraint_count == slow.constraint_count
    assert fast.preference_count == slow.preference_count
    assert fast.monotonicity_count == slow.monotonicity_count
    return fast.safe


class TestTierAgreement:
    def test_dispute_and_smt_verdicts_agree_on_the_zoo(self, analyzer):
        """The acceptance bar: tier-1 verdict == tier-2 verdict, always —
        and the analyzer sends every SPP instance to tier 1."""
        for instance in zoo_instances():
            assert analyzer.analyze(instance).method == "dispute-digraph"
            assert_tiers_agree(instance)

    def test_dispute_and_smt_verdicts_agree_over_the_small_scope(self):
        """Every instance on the 0-1-2 clique, and every 13th on the
        0-1-2-3 clique, with at most two ranked paths per node."""
        two = list(_instances(("1", "2")))
        three = list(_instances(("1", "2", "3"), stride=13))
        assert (len(two), len(three)) == (24, 1352)
        unsafe = [not assert_tiers_agree(instance)
                  for instance in two + three]
        assert sum(unsafe[len(two):]) == 44

    def test_tier1_models_satisfy_the_smt_encoding(self, analyzer):
        """The layering model is a real model of the strict encoding."""
        for instance in zoo_instances():
            report = analyzer.analyze(instance)
            if not report.safe:
                continue
            encoding = encode(SPPAlgebra(instance), strict=True)
            assignment = {encoding.var_of[sig]: value
                          for sig, value in report.model.items()}
            assert len(assignment) == len(encoding.var_of)
            for atom in encoding.system:
                assert atom.evaluate(assignment), \
                    f"{instance.name}: {atom} violated by layering model"
            assert all(v >= 1 for v in assignment.values())

    def test_tier1_cores_are_minimal_unsat_subsystems(self, analyzer):
        """The minimum dispute wheel maps to a minimal solver core."""
        from repro.smt import DifferenceSolver

        solver = DifferenceSolver()
        for instance in zoo_instances():
            report = analyzer.analyze(instance)
            if report.safe:
                continue
            assert report.core, instance.name
            encoding = encode(SPPAlgebra(instance), strict=True)
            core_atoms = [atom for atom in encoding.system
                          if encoding.source_of[atom.uid] in report.core]
            assert len(core_atoms) == len(report.core)
            assert not solver.check(core_atoms), instance.name
            for i in range(len(core_atoms)):
                reduced = core_atoms[:i] + core_atoms[i + 1:]
                assert solver.check(reduced), \
                    f"{instance.name}: tier-1 core not minimal"


class TestProvenance:
    def test_deciding_tier_is_recorded(self, analyzer):
        assert analyzer.analyze(GADGET_ZOO["good"]()).tier == 1
        assert analyzer.analyze(ShortestHopCount()).tier == 0
        assert analyzer.analyze(gao_rexford_a()).tier == 2
        assert analyzer.analyze(gao_rexford_with_hopcount()).tier == 0

    def test_one_span_per_analyze_call(self, analyzer, tmp_path):
        """Only the deciding tier opens a span, and a component's span
        nests under its composed algebra's."""
        from repro.obs.trace import configure_tracing, read_spans

        configure_tracing(str(tmp_path), worker="t")
        try:
            analyzer.analyze(gao_rexford_a())
            analyzer.analyze(gao_rexford_with_hopcount())
        finally:
            configure_tracing(None)
        spans = read_spans(str(tmp_path))
        by_id = {span["span_id"]: span for span in spans}
        assert sorted(
            (span["name"], span["attrs"]["method"],
             by_id[span["parent_id"]]["name"] if span["parent_id"] else "")
            for span in spans) == [
            ("analysis:tier0", "closed-form", "analysis:tier0"),
            ("analysis:tier0", "composition", ""),
            ("analysis:tier2", "smt", ""),
            ("analysis:tier2", "smt", "analysis:tier0"),
        ]

    def test_summary_names_the_deciding_tier(self, analyzer):
        summary = analyzer.analyze(GADGET_ZOO["good"]()).summary()
        assert "decided by: tier 1 (dispute-digraph)" in summary


class TestStatelessTier2:
    def test_an_analysis_leaves_nothing_behind(self):
        """The same subject gets the same report whatever ran before it,
        and its core resolves against its *own* encoding: every core atom
        maps to a policy entry, none silently vanishes."""
        analyzer = SafetyAnalyzer()
        first = analyzer.analyze(gao_rexford_a())
        assert analyzer.analyze(HLPTauAlgebra()).tier == 2
        again = analyzer.analyze(gao_rexford_a())
        for report in (first, again):
            assert not report.safe and report.monotonic
            assert len(report.core) == len(report.core_atoms) > 0
        assert again.summary() == first.summary()
        assert again.model == first.model
        assert [str(atom) for atom in again.core_atoms] == \
            [str(atom) for atom in first.core_atoms]
