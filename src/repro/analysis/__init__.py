"""Automated safety analysis: algebra → constraints → verdict.

* :mod:`repro.analysis.encoder` — the three-step algebra→constraints
  translation (paper Sec. IV-B);
* :mod:`repro.analysis.dispute` — the dispute digraph of an SPP instance;
* :mod:`repro.analysis.safety` — :class:`SafetyAnalyzer` producing
  :class:`SafetyReport`: the subject's type picks the deciding tier
  (composition rule or closed-form certificate, dispute digraph, SMT;
  sat→model, unsat→minimal core mapped back to the policy configuration);
* :mod:`repro.analysis.modelcheck` — :class:`ModelChecker`: stable-state
  enumeration and oscillation traces under subset activation (the
  paper's Sec. VIII future-work item); a budget overrun raises
  :class:`BudgetExceeded`.
"""

from .dispute import (
    DisputeDigraph,
    build_dispute_digraph,
    cycle_constraint_sources,
    is_dispute_free,
)
from .encoder import ConstraintSource, Encoding, encode, sig_name
from .modelcheck import ModelChecker, Trace
from .safety import SafetyAnalyzer, SafetyReport

__all__ = [
    "ConstraintSource",
    "DisputeDigraph",
    "Encoding",
    "ModelChecker",
    "SafetyAnalyzer",
    "SafetyReport",
    "Trace",
    "build_dispute_digraph",
    "cycle_constraint_sources",
    "encode",
    "is_dispute_free",
    "sig_name",
]
