"""Automated safety analysis (paper Sec. IV).

By Sobrinho's theorem (paper Thm. 4.1) a strictly monotonic algebra makes
any path-vector protocol converge.  :meth:`SafetyAnalyzer.analyze` decides
strict monotonicity, and the subject's type picks the one tier that
decides it:

* **tier 0** — lexical products and secure transformers by the Sec. IV-B
  composition rule (:func:`product_report`, :func:`secure_report`),
  recursing per component; any other infinite-Σ algebra by its
  closed-form certificate, cross-checked on a finite sample
  (:func:`closed_form_report`);
* **tier 1** — SPP instances by dispute-digraph acyclicity
  (:func:`dispute_report`), solver-free: the digraph's arcs *are* the
  strict encoding's constraints, so a safe verdict ships a longest-chain
  layering model and an unsafe one a minimum dispute wheel rendered as
  an unsat core.  Every dispute cycle pins a strict ranking arc (a
  pure-transmission cycle is impossible: path length grows along
  transmission arcs), so it refutes the non-strict encoding too and
  ``monotonic == safe`` for every SPP instance;
* **tier 2** — every other finite algebra by the difference-logic solver
  (:func:`smt_report`):

  * ``sat``   → strictly monotonic → **provably safe**, with a concrete
    integer instantiation of the signatures (the paper's ``C=1, P=2,
    R=2``);
  * ``unsat`` → not strictly monotonic → reported unsafe (a *sufficient*
    condition, so false positives are possible, paper Sec. IV-A), with a
    minimal unsatisfiable core mapped back to the policy entries, and a
    re-check with the monotonicity atoms relaxed to ``<=``.

Every report records which tier decided (``method`` / ``tier``); each
``analyze`` call opens one ``analysis:tier{N}`` span and counts one
``repro_analysis_decided_total{tier,method}``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..algebra.base import PHI, RoutingAlgebra, Signature
from ..algebra.product import LexicalProduct
from ..algebra.secure import SecureAlgebra
from ..algebra.spp import SPPAlgebra, SPPInstance
from ..obs import metrics as _obs_metrics
from ..obs.trace import TRACER
from ..smt import Atom, DifferenceSolver
from .dispute import build_dispute_digraph, cycle_constraint_sources
from .encoder import ConstraintSource, encode

#: Which tier decided each analysis.
_DECIDED_FAMILY = "repro_analysis_decided_total"


@dataclass
class SafetyReport:
    """Outcome of analyzing one policy configuration.

    ``safe`` is the headline verdict (strict monotonicity established).
    ``monotonic`` is filled in when the analyzer also ran the non-strict
    check (always for unsafe verdicts — it distinguishes "merely lacks a
    tie-breaker" from "fundamentally cyclic").  ``method`` and ``tier``
    name the decision procedure that decided.
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
    #: Deciding tier (0 certificates, 1 dispute digraph, 2 SMT).
    tier: int | None = None

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


class SafetyAnalyzer:
    """Front door of safety analysis (Fig. 1, right-hand path)."""

    def analyze(self, policy: RoutingAlgebra | SPPInstance) -> SafetyReport:
        """Decide strict monotonicity with the tier the subject's type
        picks; an unsafe verdict also carries the non-strict check."""
        algebra = self._as_algebra(policy)
        if isinstance(algebra, LexicalProduct):
            tier, report_of = 0, lambda a: product_report(a, self.analyze)
        elif isinstance(algebra, SecureAlgebra):
            tier, report_of = 0, lambda a: secure_report(a, self.analyze)
        elif not algebra.is_finite:
            tier, report_of = 0, closed_form_report
        elif isinstance(algebra, SPPAlgebra):
            tier, report_of = 1, dispute_report
        else:
            tier, report_of = 2, smt_report
        with TRACER.span(f"analysis:tier{tier}") as span:
            report = report_of(algebra)
            span.annotate(method=report.method)
        _obs_metrics.counter(_DECIDED_FAMILY, tier=tier,
                             method=report.method).inc()
        report.tier = tier
        return report

    def enumerate_cores(
        self, policy: RoutingAlgebra | SPPInstance, limit: int = 16
    ) -> list[list[ConstraintSource]]:
        """All disjoint conflicts — the paper's iterative repair workflow."""
        algebra = self._as_algebra(policy)
        encoding = encode(algebra, strict=True)
        cores = DifferenceSolver().all_cores(encoding.system, limit=limit)
        return [encoding.sources_for(core) for core in cores]

    @staticmethod
    def _as_algebra(policy: RoutingAlgebra | SPPInstance) -> RoutingAlgebra:
        if isinstance(policy, SPPInstance):
            return SPPAlgebra(policy)
        return policy


# -- tier 0: certificates and the composition rule -----------------------------

def closed_form_report(algebra: RoutingAlgebra) -> SafetyReport:
    """An infinite-Σ algebra's closed-form certificate, spot-checked."""
    certificate = algebra.closed_form_monotonicity
    if certificate is None:
        raise NotImplementedError(
            f"{algebra.name}: infinite Σ requires a closed-form "
            "monotonicity certificate")
    _spot_check(algebra, certificate.strictly_monotonic)
    return SafetyReport(
        algebra_name=algebra.name,
        safe=certificate.strictly_monotonic,
        method="closed-form",
        strictly_monotonic=certificate.strictly_monotonic,
        monotonic=certificate.monotonic,
        detail=certificate.justification,
    )


def _spot_check(algebra: RoutingAlgebra, claims_strict: bool) -> None:
    """Falsify a wrong certificate on a finite sample (defence in depth)."""
    for sig in algebra.sample_signatures(12):
        rank = algebra.rank_key(sig)
        for label in algebra.labels():
            extended = algebra.oplus(label, sig)
            if extended is PHI:
                continue
            extended_rank = algebra.rank_key(extended)
            if claims_strict and not rank < extended_rank:
                raise AssertionError(
                    f"{algebra.name}: certificate claims strict "
                    f"monotonicity but {label} (+) {sig} = {extended} "
                    f"is not strictly worse than {sig}")
            if extended_rank < rank:
                raise AssertionError(
                    f"{algebra.name}: certificate claims monotonicity "
                    f"but {label} (+) {sig} = {extended} is preferred "
                    f"to {sig}")


def product_report(product: LexicalProduct,
                   analyze: Callable[[RoutingAlgebra], SafetyReport]
                   ) -> SafetyReport:
    """The paper's Sec. IV-B rule for ``A ⊗ B``, quoting it:

        Analysis starts from algebra A; if it is strictly monotonic, the
        composed policy is safe.  If A is monotonic, then B is checked.
        If B is strictly monotonic, then the composed algebra is safe,
        otherwise it is deemed unsafe.  If A is not even monotonic, the
        composed policy is deemed unsafe.

    This certifies e.g. Gao-Rexford guideline A (monotonic only) composed
    with shortest hop-count (strictly monotonic), the Fig. 4 policy.
    """
    first_report = analyze(product.first)
    if first_report.safe:
        return SafetyReport(
            algebra_name=product.name,
            safe=True,
            method="composition",
            strictly_monotonic=True,
            monotonic=True,
            detail=(f"component A ({product.first.name}) is strictly "
                    "monotonic, so the product is"),
        )

    first_monotonic = bool(first_report.monotonic)
    if not first_monotonic:
        return SafetyReport(
            algebra_name=product.name,
            safe=False,
            method="composition",
            strictly_monotonic=False,
            monotonic=False,
            core=first_report.core,
            core_atoms=first_report.core_atoms,
            detail=(f"component A ({product.first.name}) is not even "
                    "monotonic, so the product is deemed unsafe"),
        )

    second_report = analyze(product.second)
    if second_report.safe:
        return SafetyReport(
            algebra_name=product.name,
            safe=True,
            method="composition",
            strictly_monotonic=True,
            monotonic=True,
            detail=(f"A ({product.first.name}) is monotonic and B "
                    f"({product.second.name}) is strictly monotonic, so "
                    "the lexical product is strictly monotonic"),
        )
    return SafetyReport(
        algebra_name=product.name,
        safe=False,
        method="composition",
        strictly_monotonic=False,
        monotonic=bool(second_report.monotonic),
        core=second_report.core,
        core_atoms=second_report.core_atoms,
        detail=(f"A ({product.first.name}) is only monotonic and B "
                f"({product.second.name}) is not strictly monotonic; the "
                "product is deemed unsafe"),
    )


def secure_report(secure: SecureAlgebra,
                  analyze: Callable[[RoutingAlgebra], SafetyReport]
                  ) -> SafetyReport:
    """Secure-transformer composition rule: the wrapper inherits the base.

    Secured preference is lexicographic on ``(penalty, base)``, the
    penalty component is monotone non-decreasing under ⊕ (sticky) and the
    validation state never affects preference, so the wrapper is
    (strictly) monotonic exactly when the wrapped algebra is — recursing
    keeps analysis O(base) instead of enumerating the 6×-lifted Σ.
    """
    base_report = analyze(secure.base)
    return SafetyReport(
        algebra_name=secure.name,
        safe=base_report.safe,
        method="composition",
        strictly_monotonic=base_report.strictly_monotonic,
        monotonic=base_report.monotonic,
        core=base_report.core,
        core_atoms=base_report.core_atoms,
        detail=(f"secure transformer ({secure.variant}/{secure.mode}) "
                "adds a sticky lexicographic penalty, preserving the "
                f"wrapped algebra's verdict: {secure.base.name} is "
                + ("strictly monotonic"
                   if base_report.strictly_monotonic else
                   ("monotonic but not strict" if base_report.monotonic
                    else "not monotonic"))),
    )


# -- tier 1: the dispute digraph -----------------------------------------------

def dispute_report(algebra: SPPAlgebra) -> SafetyReport:
    """Dispute-digraph acyclicity, the solver-free SPP decision."""
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


# -- tier 2: SMT ---------------------------------------------------------------

def smt_report(algebra: RoutingAlgebra) -> SafetyReport:
    """Difference-logic solving of a finite algebra's strict encoding.

    Stateless: the strict system is solved in one shot; an unsafe verdict
    additionally solves the same preference atoms with the monotonicity
    atoms relaxed to ``<=``, which tells "merely lacks a tie-breaker" from
    "fundamentally cyclic".
    """
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
