"""Automated safety analysis (paper Sec. IV).

By Sobrinho's theorem (paper Thm. 4.1) a strictly monotonic algebra makes
any path-vector protocol converge.  :class:`SafetyAnalyzer` is the front
door; the actual decision runs through the tiered
:class:`~repro.analysis.pipeline.AnalysisPipeline`:

* **tier 0** — closed-form certificates for infinite-Σ algebras
  (cross-checked on a finite sample) and the lexical-product composition
  rule of :mod:`repro.analysis.composition`;
* **tier 1** — dispute-digraph acyclicity, the solver-free fast path for
  SPP instances (verdict, layering model, and minimum-wheel unsat core
  all derived combinatorially);
* **tier 2** — the difference-logic solver:

  * ``sat``   → strictly monotonic → **provably safe**, with a concrete
    integer instantiation of the signatures (the paper's ``C=1, P=2,
    R=2``);
  * ``unsat`` → not strictly monotonic → reported unsafe (a *sufficient*
    condition, so false positives are possible, paper Sec. IV-A), with a
    minimal unsatisfiable core mapped back to the policy entries.

Every report records which tier decided (``method`` / ``tier``) and what
each attempted stage cost (``stages``), surfaced by
``repro analyze --explain``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..algebra.base import RoutingAlgebra, Signature
from ..algebra.spp import SPPAlgebra, SPPInstance
from ..smt import Atom, DifferenceSolver
from .encoder import ConstraintSource, encode
from .pipeline import AnalysisPipeline, AnalysisStage, StageTiming


@dataclass
class SafetyReport:
    """Outcome of analyzing one policy configuration.

    ``safe`` is the headline verdict (strict monotonicity established).
    ``monotonic`` is filled in when the analyzer also ran the non-strict
    check (always for unsafe verdicts — it distinguishes "merely lacks a
    tie-breaker" from "fundamentally cyclic").  ``method`` and ``tier``
    name the pipeline stage that decided; ``stages`` carries the
    per-stage timing provenance of the whole pipeline pass.
    """

    algebra_name: str
    safe: bool
    method: str  # "smt" | "closed-form" | "composition" | "dispute-digraph"
    strictly_monotonic: bool
    monotonic: bool | None = None
    model: dict[Signature, int] = field(default_factory=dict)
    core: list[ConstraintSource] = field(default_factory=list)
    core_atoms: list[Atom] = field(default_factory=list)
    constraint_count: int = 0
    preference_count: int = 0
    monotonicity_count: int = 0
    detail: str = ""
    #: Deciding pipeline tier (0 certificates, 1 dispute digraph, 2 SMT).
    tier: int | None = None
    #: Per-stage timing provenance, in pipeline order.
    stages: tuple[StageTiming, ...] = ()

    def summary(self) -> str:
        """One-paragraph human-readable report."""
        verdict = "SAFE (strictly monotonic)" if self.safe else "NOT PROVED SAFE"
        lines = [f"{self.algebra_name}: {verdict} [{self.method}]"]
        if self.tier is not None:
            lines.append(f"  decided by: tier {self.tier} ({self.method})")
        if self.constraint_count:
            lines.append(
                f"  constraints: {self.constraint_count} "
                f"({self.preference_count} preference, "
                f"{self.monotonicity_count} monotonicity)")
        if self.safe and self.model:
            assignment = ", ".join(
                f"{sig}={val}" for sig, val in sorted(
                    self.model.items(), key=lambda kv: str(kv[0])))
            lines.append(f"  model: {assignment}")
        if not self.safe:
            if self.monotonic is not None:
                lines.append(f"  monotonic (non-strict): {self.monotonic}")
            if self.core:
                lines.append("  unsat core:")
                for source in self.core:
                    lines.append(f"    {source.origin or '?'}: {source}")
        if self.detail:
            lines.append(f"  note: {self.detail}")
        return "\n".join(lines)

    def explain(self) -> str:
        """Per-stage pipeline provenance (``repro analyze --explain``)."""
        lines = ["pipeline stages:"]
        for timing in self.stages:
            lines.append(f"  {timing.describe()}")
        if not self.stages:
            lines.append("  (no stage provenance recorded)")
        return "\n".join(lines)


class SafetyAnalyzer:
    """Front door of the analysis pipeline (Fig. 1, right-hand path)."""

    def __init__(self, stages: list[AnalysisStage] | None = None):
        self.pipeline = AnalysisPipeline(self, stages=stages)

    # -- public API ----------------------------------------------------------

    def analyze(self, policy: RoutingAlgebra | SPPInstance) -> SafetyReport:
        """Full analysis: strict check, plus mono check when strict fails."""
        return self.pipeline.analyze(self._as_algebra(policy))

    def enumerate_cores(
        self, policy: RoutingAlgebra | SPPInstance, limit: int = 16
    ) -> list[list[ConstraintSource]]:
        """All disjoint conflicts — the paper's iterative repair workflow."""
        algebra = self._as_algebra(policy)
        encoding = encode(algebra, strict=True)
        cores = DifferenceSolver().all_cores(encoding.system, limit=limit)
        return [encoding.sources_for(core) for core in cores]

    # -- internals ------------------------------------------------------------

    @staticmethod
    def _as_algebra(policy: RoutingAlgebra | SPPInstance) -> RoutingAlgebra:
        if isinstance(policy, SPPInstance):
            return SPPAlgebra(policy)
        return policy


# Re-exported for stages and external callers that type against them.
__all__ = [
    "SafetyAnalyzer",
    "SafetyReport",
    "StageTiming",
]
