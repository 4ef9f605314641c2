"""Tiered pipeline: per-stage provenance and tier-1 ≡ tier-2 agreement."""

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
from repro.analysis import (
    CertificateStage,
    SafetyAnalyzer,
    SmtStage,
    encode,
)
from repro.campaigns import perturb_rankings


@pytest.fixture(scope="module")
def pipeline_analyzer():
    """Default pipeline: certificates → dispute digraph → SMT."""
    return SafetyAnalyzer()


@pytest.fixture(scope="module")
def smt_only_analyzer():
    """Tier 1 disabled: every finite subject goes to the solver."""
    return SafetyAnalyzer(stages=[CertificateStage(), SmtStage()])


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


class TestTierAgreement:
    def test_dispute_and_smt_verdicts_agree_on_the_zoo(
            self, pipeline_analyzer, smt_only_analyzer):
        """The acceptance bar: tier-1 verdict == tier-2 verdict, always."""
        for instance in zoo_instances():
            fast = pipeline_analyzer.analyze(instance)
            slow = smt_only_analyzer.analyze(instance)
            assert fast.method == "dispute-digraph", instance.name
            assert slow.method == "smt", instance.name
            assert fast.safe == slow.safe, instance.name
            assert fast.monotonic == slow.monotonic, instance.name
            assert fast.constraint_count == slow.constraint_count
            assert fast.preference_count == slow.preference_count
            assert fast.monotonicity_count == slow.monotonicity_count

    def test_tier1_models_satisfy_the_smt_encoding(self, pipeline_analyzer):
        """The layering model is a real model of the strict encoding."""
        for instance in zoo_instances():
            report = pipeline_analyzer.analyze(instance)
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

    def test_tier1_cores_are_minimal_unsat_subsystems(
            self, pipeline_analyzer):
        """The minimum dispute wheel maps to a minimal solver core."""
        from repro.smt import DifferenceSolver

        solver = DifferenceSolver()
        for instance in zoo_instances():
            report = pipeline_analyzer.analyze(instance)
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
    def test_deciding_tier_is_recorded(self, pipeline_analyzer):
        assert pipeline_analyzer.analyze(
            GADGET_ZOO["good"]()).tier == 1
        assert pipeline_analyzer.analyze(ShortestHopCount()).tier == 0
        assert pipeline_analyzer.analyze(gao_rexford_a()).tier == 2
        assert pipeline_analyzer.analyze(
            gao_rexford_with_hopcount()).tier == 0

    def test_stage_timings_cover_the_attempted_stages(
            self, pipeline_analyzer):
        report = pipeline_analyzer.analyze(gao_rexford_a())
        names = [t.stage for t in report.stages]
        assert names == ["certificates", "dispute-digraph", "smt"]
        assert [t.decided for t in report.stages] == [False, False, True]
        assert all(t.elapsed_s >= 0 for t in report.stages)

    def test_explain_renders_every_stage(self, pipeline_analyzer):
        text = pipeline_analyzer.analyze(GADGET_ZOO["bad"]()).explain()
        assert "tier 1 dispute-digraph: decided" in text
        assert "tier 0 certificates" in text

    def test_summary_names_the_deciding_tier(self, pipeline_analyzer):
        summary = pipeline_analyzer.analyze(GADGET_ZOO["good"]()).summary()
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
