"""Scenario campaigns: randomized differential testing at scale.

The paper's core claim is that FSR's algebraic safety analysis agrees with
what the generated protocol actually does.  This package checks that claim
continuously, on thousands of randomized scenarios instead of a handful of
hand-written gadgets — and, through the pluggable execution backends of
:mod:`repro.exec`, on several independent *implementations* at once
(native GPV engine vs generated NDlog program):

* :mod:`repro.campaigns.spec` — declarative :class:`ScenarioSpec` (topology
  family × algebra × event schedule × seed) and the seeded
  :class:`ScenarioGenerator` spanning every topology generator and the
  full algebra library;
* :mod:`repro.campaigns.scenarios` — deterministic spec → scenario
  materialization;
* :mod:`repro.campaigns.canonical` — canonical keys for verdict
  memoization (table algebras relabeled by color refinement, SPP
  instances keyed by name);
* :mod:`repro.campaigns.oracle` — the differential oracle (SMT verdict vs
  N execution backends, pairwise cross-checks, per-worker verdict cache
  with optional cross-process persistence);
* :mod:`repro.campaigns.verdict_store` — the sqlite-backed persistent
  verdict cache;
* :mod:`repro.campaigns.runner` — :class:`CampaignRunner`: streaming
  chunked fan-out over a process pool, wall-clock budgets, early abort,
  crash accounting and resume;
* :mod:`repro.campaigns.sink` — streaming result sinks: the bounded
  in-memory aggregator, the incremental JSONL writer and its reader
  (what a resumed campaign replays);
* :mod:`repro.campaigns.report` — :class:`CampaignReport` with per-family
  and per-pair counters and reproducer seeds.
"""

from .canonical import canonical_key
from .oracle import (
    EvaluationOptions,
    cached_verdict,
    classify_backend_pair,
    clear_verdict_cache,
    configure_verdict_store,
    evaluate,
    evaluate_chunk,
    verdict_cache_size,
)
from .report import (
    AGREE,
    ANALYSIS,
    CLASSIFICATIONS,
    ERROR,
    FALSE_POSITIVE,
    HARD_DIVERGENCES,
    MULTI_STABLE,
    NONDETERMINISTIC,
    ROUTE_DIVERGED,
    SAFE_CONVERGED,
    SAFE_DIVERGED,
    STATUS_DIVERGED,
    UNSAFE_DIVERGED,
    CampaignReport,
    PairOutcome,
    ScenarioResult,
    classify,
    result_from_record,
    result_record,
)
from .runner import CampaignConfig, CampaignRunner
from .scenarios import (
    Scenario,
    best_path_link_pool,
    build_gadget_instance,
    materialize,
    perturb_rankings,
)
from .sink import (
    AggregatingSink,
    JsonlResultSink,
    ResultSink,
    TeeSink,
    read_results,
)
from .spec import (
    FAMILIES,
    GADGETS,
    INTERDOMAIN_ALGEBRAS,
    INTRADOMAIN_ALGEBRAS,
    PROFILES,
    LinkEventSpec,
    ScenarioGenerator,
    ScenarioSpec,
)
from .verdict_store import VerdictStore

__all__ = [
    "AGREE",
    "ANALYSIS",
    "AggregatingSink",
    "CLASSIFICATIONS",
    "CampaignConfig",
    "CampaignReport",
    "CampaignRunner",
    "ERROR",
    "EvaluationOptions",
    "FALSE_POSITIVE",
    "FAMILIES",
    "GADGETS",
    "HARD_DIVERGENCES",
    "INTERDOMAIN_ALGEBRAS",
    "INTRADOMAIN_ALGEBRAS",
    "JsonlResultSink",
    "LinkEventSpec",
    "MULTI_STABLE",
    "NONDETERMINISTIC",
    "PROFILES",
    "PairOutcome",
    "ROUTE_DIVERGED",
    "ResultSink",
    "SAFE_CONVERGED",
    "SAFE_DIVERGED",
    "STATUS_DIVERGED",
    "Scenario",
    "ScenarioGenerator",
    "ScenarioResult",
    "ScenarioSpec",
    "TeeSink",
    "UNSAFE_DIVERGED",
    "VerdictStore",
    "best_path_link_pool",
    "build_gadget_instance",
    "cached_verdict",
    "canonical_key",
    "classify",
    "classify_backend_pair",
    "clear_verdict_cache",
    "configure_verdict_store",
    "evaluate",
    "evaluate_chunk",
    "materialize",
    "perturb_rankings",
    "read_results",
    "result_from_record",
    "result_record",
    "verdict_cache_size",
]
