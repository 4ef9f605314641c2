"""Routing algebras: the single representation driving all of FSR.

* :mod:`repro.algebra.base` — ⟨Σ, ⪯, L, ⊕⟩ abstractions, φ, preference
  statements and ⊕ entries for the analyzer;
* :mod:`repro.algebra.extended` — separate ⊕I / ⊕P / ⊕E operators (the
  paper's Sec. III-A extension) and finite :class:`TableAlgebra`;
* :mod:`repro.algebra.product` — lexical product composition;
* :mod:`repro.algebra.library` — hop-count, shortest/widest path,
  Gao-Rexford A/B, safe backup routing;
* :mod:`repro.algebra.spp` — Stable Paths Problem instances and their
  algebra conversion;
* :mod:`repro.algebra.gadgets` — DISAGREE / BAD GADGET / GOOD GADGET /
  iBGP Figure-3 constructors and scaling workloads.
"""

from .base import (
    PHI,
    ClosedFormCertificate,
    Label,
    MonoEntry,
    Pref,
    PrefStatement,
    Rel,
    RoutingAlgebra,
    Signature,
    rank_sort,
)
from .extended import AlgebraTables, ExtendedAlgebra, TableAlgebra
from .hlp import HLP_WEIGHTS, HLPCostAlgebra, HLPTauAlgebra, hide_cost
from .gadgets import (
    GADGET_ZOO,
    bad_gadget,
    disagree,
    disagree_chain,
    good_gadget,
    ibgp_figure3,
    ibgp_figure3_fixed,
    replicate,
)
from .library import (
    BandwidthAlgebra,
    ShortestHopCount,
    ShortestPath,
    gao_rexford_a,
    gao_rexford_b,
    gao_rexford_with_hopcount,
    safe_backup,
    widest_shortest,
)
from .product import LexicalProduct
from .spp import Path, SPPAlgebra, SPPInstance, SPPValidationError

__all__ = [
    "AlgebraTables",
    "GADGET_ZOO",
    "BandwidthAlgebra",
    "ClosedFormCertificate",
    "ExtendedAlgebra",
    "HLPCostAlgebra",
    "HLPTauAlgebra",
    "HLP_WEIGHTS",
    "hide_cost",
    "Label",
    "LexicalProduct",
    "MonoEntry",
    "PHI",
    "Path",
    "Pref",
    "PrefStatement",
    "Rel",
    "RoutingAlgebra",
    "SPPAlgebra",
    "SPPInstance",
    "SPPValidationError",
    "ShortestHopCount",
    "ShortestPath",
    "Signature",
    "TableAlgebra",
    "bad_gadget",
    "disagree",
    "disagree_chain",
    "gao_rexford_a",
    "gao_rexford_b",
    "gao_rexford_with_hopcount",
    "good_gadget",
    "ibgp_figure3",
    "ibgp_figure3_fixed",
    "rank_sort",
    "replicate",
    "safe_backup",
    "widest_shortest",
]
