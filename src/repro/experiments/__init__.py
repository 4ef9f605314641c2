"""Experiment harnesses regenerating every table and figure (Fig. 4, 5 and 6
run path vector on the execution backend each names in ``BACKEND``).

* :mod:`repro.experiments.convergence` — Figure 4 (convergence vs chain
  depth, sim and testbed profiles);
* :mod:`repro.experiments.ibgp_study` — Figure 5 + Sec. VI-B (gadget
  pinpointing, bandwidth traces, SPP extraction and analysis);
* :mod:`repro.experiments.hlp_study` — Figure 6 (PV vs HLP vs HLP-CH) and
  the cost-hiding threshold ablation;
* :mod:`repro.experiments.gadget_study` — Sec. VI-C (GOOD/BAD/DISAGREE
  dynamics);
* :mod:`repro.experiments.extraction` — SPP extraction from protocol runs.
"""

from .convergence import (
    ConvergencePoint,
    figure4_from_caida,
    figure4_sweep,
    format_series,
    run_depth,
    worst_case_bound,
)
from .extraction import extract_spp
from .gadget_study import (
    GadgetRun,
    bad_gadget_run,
    disagree_sweep,
    format_runs,
    good_gadget_scaling,
    run_gadget,
)
from .hlp_study import (
    MechanismResult,
    PerturbationResult,
    figure6_study,
    format_figure6,
    perturbation_study,
    threshold_sweep,
)
from .ibgp_study import (
    Figure5Result,
    IBGPRunResult,
    figure5_study,
    format_figure5,
    run_configuration,
)

__all__ = [
    "ConvergencePoint",
    "Figure5Result",
    "GadgetRun",
    "IBGPRunResult",
    "MechanismResult",
    "PerturbationResult",
    "bad_gadget_run",
    "disagree_sweep",
    "extract_spp",
    "figure4_from_caida",
    "figure4_sweep",
    "figure5_study",
    "figure6_study",
    "format_figure5",
    "format_figure6",
    "format_runs",
    "format_series",
    "good_gadget_scaling",
    "perturbation_study",
    "run_configuration",
    "run_depth",
    "run_gadget",
    "threshold_sweep",
    "worst_case_bound",
]
