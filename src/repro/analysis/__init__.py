"""Automated safety analysis: algebra → constraints → verdict.

* :mod:`repro.analysis.encoder` — the three-step algebra→constraints
  translation (paper Sec. IV-B);
* :mod:`repro.analysis.safety` — :class:`SafetyAnalyzer` producing
  :class:`SafetyReport` (sat→model, unsat→minimal core mapped back to the
  policy configuration);
* :mod:`repro.analysis.composition` — the lexical-product decision rule;
* :mod:`repro.analysis.modelcheck` — :class:`ModelChecker`: stable-state
  enumeration and oscillation traces under subset activation (the
  paper's Sec. VIII future-work item); a budget overrun raises
  :class:`BudgetExceeded`.
"""

from .composition import analyze_product
from .dispute import (
    DisputeDigraph,
    build_dispute_digraph,
    cycle_constraint_sources,
    is_dispute_free,
)
from .encoder import ConstraintSource, Encoding, encode, sig_name
from .modelcheck import ModelChecker, Trace
from .pipeline import (
    AnalysisPipeline,
    AnalysisStage,
    CertificateStage,
    DisputeStage,
    SmtStage,
    StageTiming,
    default_stages,
)
from .safety import SafetyAnalyzer, SafetyReport

__all__ = [
    "AnalysisPipeline",
    "AnalysisStage",
    "CertificateStage",
    "ConstraintSource",
    "DisputeDigraph",
    "DisputeStage",
    "Encoding",
    "ModelChecker",
    "SafetyAnalyzer",
    "SafetyReport",
    "SmtStage",
    "StageTiming",
    "Trace",
    "analyze_product",
    "build_dispute_digraph",
    "cycle_constraint_sources",
    "default_stages",
    "encode",
    "is_dispute_free",
    "sig_name",
]
