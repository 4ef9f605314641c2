"""The tiered analysis pipeline: staged safety verdicts.

FSR layers combinatorial structure (dispute wheels, paper Sec. IV) under
SMT; this module makes that layering an explicit pipeline of
:class:`AnalysisStage`\\ s, cheapest first:

* **tier 0 — certificates**: closed-form monotonicity certificates for
  infinite-Σ algebras (spot-checked on a sample) and the lexical-product
  composition rule, which recurses into the pipeline per component;
* **tier 1 — dispute digraph**: for SPP instances the dispute digraph *is*
  the strict constraint graph (every arc a strict ``<``), so acyclicity
  decides strict monotonicity combinatorially — safe verdicts come with a
  longest-chain layering model, unsafe verdicts with a minimum dispute
  cycle rendered as an unsat core, and neither touches the solver.
  Monotonicity rides along for free: a pure-transmission cycle is
  impossible (path length strictly increases along transmission arcs), so
  every dispute cycle pins at least one strict ranking arc and therefore
  also refutes the *non-strict* encoding, making ``monotonic == safe``
  for every SPP instance;
* **tier 2 — SMT**: the difference-logic fallback for every remaining
  finite algebra — encode, solve the strict system with
  :class:`~repro.smt.solver.DifferenceSolver`, and on ``unsat`` map the
  minimal core back to policy entries and re-check with the
  monotonicity atoms relaxed to ``<=``.

Each stage either decides (returns a :class:`~repro.analysis.safety.
SafetyReport`) or passes (returns None); the pipeline stamps the report
with the deciding tier and per-stage :class:`StageTiming` provenance, so
``repro analyze --explain`` can show exactly which tier decided and what
it cost.

Adding a stage: subclass :class:`AnalysisStage`, set ``name``/``tier``,
implement :meth:`~AnalysisStage.try_analyze` returning a report or None,
and insert it into the ``stages`` sequence passed to
:class:`AnalysisPipeline` (or the default built by ``default_stages()``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from ..algebra.base import RoutingAlgebra
from ..algebra.product import LexicalProduct
from ..algebra.secure import SecureAlgebra
from ..algebra.spp import SPPAlgebra
from ..obs import metrics as _obs_metrics
from ..obs.trace import TRACER
from ..smt import Atom, DifferenceSolver
from .dispute import build_dispute_digraph, cycle_constraint_sources
from .encoder import encode

#: Which tier decided each analysis.
_DECIDED_FAMILY = "repro_analysis_decided_total"

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .safety import SafetyAnalyzer, SafetyReport


@dataclass(frozen=True)
class StageTiming:
    """Provenance of one pipeline stage attempt on one subject."""

    stage: str
    tier: int
    elapsed_s: float
    decided: bool
    note: str = ""

    def describe(self) -> str:
        outcome = f"decided ({self.note})" if self.decided else \
            (self.note or "passed")
        return (f"tier {self.tier} {self.stage}: {outcome} "
                f"[{self.elapsed_s * 1e3:.2f} ms]")


class AnalysisStage:
    """One tier of the pipeline: decide the subject or pass it on."""

    #: Display name, used in :class:`StageTiming` and ``--explain`` output.
    name: str = "stage"
    #: Position in the cheap-to-expensive ordering (0 is cheapest).
    tier: int = -1

    def try_analyze(self, algebra: RoutingAlgebra,
                    analyzer: "SafetyAnalyzer") -> "SafetyReport | None":
        """Return a finished report, or None to fall through."""
        raise NotImplementedError


class CertificateStage(AnalysisStage):
    """Tier 0: closed-form certificates and lexical-product composition."""

    name = "certificates"
    tier = 0

    def try_analyze(self, algebra, analyzer):
        from .safety import SafetyReport

        if isinstance(algebra, LexicalProduct):
            from .composition import analyze_product
            return analyze_product(algebra, analyzer)
        if isinstance(algebra, SecureAlgebra):
            from .composition import analyze_secure
            return analyze_secure(algebra, analyzer)
        if algebra.is_finite:
            return None
        certificate = algebra.closed_form_monotonicity
        if certificate is None:
            raise NotImplementedError(
                f"{algebra.name}: infinite Σ requires a closed-form "
                "monotonicity certificate")
        self._spot_check(algebra, certificate.strictly_monotonic)
        return SafetyReport(
            algebra_name=algebra.name,
            safe=certificate.strictly_monotonic,
            method="closed-form",
            strictly_monotonic=certificate.strictly_monotonic,
            monotonic=certificate.monotonic,
            detail=certificate.justification,
        )

    @staticmethod
    def _spot_check(algebra: RoutingAlgebra, claims_strict: bool) -> None:
        """Falsify a wrong certificate on a finite sample (defence in depth)."""
        from ..algebra.base import PHI, Pref

        for sig in algebra.sample_signatures(12):
            for label in algebra.labels():
                extended = algebra.oplus(label, sig)
                if extended is PHI:
                    continue
                pref = algebra.preference(sig, extended)
                if claims_strict and pref is not Pref.BETTER:
                    raise AssertionError(
                        f"{algebra.name}: certificate claims strict "
                        f"monotonicity but {label} (+) {sig} = {extended} "
                        f"is not strictly worse than {sig}")
                if pref is Pref.WORSE:
                    raise AssertionError(
                        f"{algebra.name}: certificate claims monotonicity "
                        f"but {label} (+) {sig} = {extended} is preferred "
                        f"to {sig}")


class DisputeStage(AnalysisStage):
    """Tier 1: dispute-digraph acyclicity, the solver-free SPP fast path."""

    name = "dispute-digraph"
    tier = 1

    def try_analyze(self, algebra, analyzer):
        from .safety import SafetyReport

        if not isinstance(algebra, SPPAlgebra):
            return None
        instance = algebra.instance
        digraph = build_dispute_digraph(instance)
        preference_count = len(digraph.ranking_arcs)
        monotonicity_count = len(digraph.transmission_arcs)
        # One DFS decides the (majority) safe case; the per-path BFS
        # minimum-wheel search only runs when a core must be produced.
        cycle = None
        if digraph.find_cycle() is not None:
            cycle = digraph.find_min_cycle()
        if cycle is None:
            return SafetyReport(
                algebra_name=algebra.name,
                safe=True,
                method="dispute-digraph",
                strictly_monotonic=True,
                monotonic=True,
                model=digraph.layering_model(),
                constraint_count=preference_count + monotonicity_count,
                preference_count=preference_count,
                monotonicity_count=monotonicity_count,
                detail="dispute digraph acyclic; layering model derived "
                       "without the solver",
            )
        return SafetyReport(
            algebra_name=algebra.name,
            safe=False,
            method="dispute-digraph",
            strictly_monotonic=False,
            # A dispute cycle always contains a strict ranking arc (pure
            # transmission cycles cannot exist), so the same cycle refutes
            # the non-strict encoding too.
            monotonic=False,
            core=cycle_constraint_sources(instance, cycle),
            constraint_count=preference_count + monotonicity_count,
            preference_count=preference_count,
            monotonicity_count=monotonicity_count,
            detail=f"minimum dispute wheel of {len(cycle)} arcs",
        )


class SmtStage(AnalysisStage):
    """Tier 2: difference-logic solving (the fallback).

    Stateless: the strict encoding is solved in one shot; an unsafe
    verdict additionally solves the same preference atoms with the
    monotonicity atoms relaxed to ``<=``, which tells "merely lacks a
    tie-breaker" from "fundamentally cyclic".
    """

    name = "smt"
    tier = 2

    def try_analyze(self, algebra, analyzer):
        from .safety import SafetyReport

        encoding = encode(algebra, strict=True)
        atoms = encoding.system.atoms
        solver = DifferenceSolver()
        result = solver.solve(atoms)
        report = SafetyReport(
            algebra_name=algebra.name,
            safe=result.is_sat,
            method="smt",
            strictly_monotonic=result.is_sat,
            constraint_count=len(encoding.system),
            preference_count=encoding.preference_count,
            monotonicity_count=encoding.monotonicity_count,
        )
        if result.is_sat:
            report.model = encoding.model_signatures(result.model)
            report.monotonic = True
            return report
        report.core_atoms = result.core
        report.core = encoding.sources_for(result.core)
        # Non-strict check: same preference atoms, relaxed monotonicity.
        split = encoding.preference_count
        report.monotonic = solver.check(atoms[:split] + [
            Atom.le(a.lhs, a.rhs, origin=a.origin) for a in atoms[split:]])
        return report


def default_stages() -> list[AnalysisStage]:
    """The standard tier 0 → 1 → 2 pipeline."""
    return [CertificateStage(), DisputeStage(), SmtStage()]


class AnalysisPipeline:
    """Run a subject through the stages, stamping per-stage provenance."""

    def __init__(self, analyzer: "SafetyAnalyzer",
                 stages: Sequence[AnalysisStage] | None = None):
        self.analyzer = analyzer
        self.stages: list[AnalysisStage] = (
            list(stages) if stages is not None else default_stages())

    def analyze(self, algebra: RoutingAlgebra) -> "SafetyReport":
        timings: list[StageTiming] = []
        for stage in self.stages:
            started = time.perf_counter()
            with TRACER.span(f"analysis:tier{stage.tier}",
                             stage=stage.name) as stage_span:
                report = stage.try_analyze(algebra, self.analyzer)
                stage_span.annotate(decided=report is not None)
            elapsed = time.perf_counter() - started
            if report is None:
                timings.append(StageTiming(
                    stage.name, stage.tier, elapsed, False,
                    "not applicable"))
                continue
            timings.append(StageTiming(
                stage.name, stage.tier, elapsed, True, report.method))
            _obs_metrics.counter(_DECIDED_FAMILY, tier=stage.tier,
                                 method=report.method).inc()
            report.tier = stage.tier
            report.stages = tuple(timings)
            return report
        raise NotImplementedError(
            f"no pipeline stage decided {algebra.name!r}")
