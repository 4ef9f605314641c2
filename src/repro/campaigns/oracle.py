"""The differential safety oracle: analyze, execute on N backends, cross-check.

Every scenario takes one path, alone or in a chunk:

1. the **chunk pass** (:func:`_prepare_chunk`; a direct :func:`evaluate`
   is a chunk of one) materializes each spec once, asks the ``batch``
   backend once to admit the scenario — ``supports`` scans, keys, looks
   the kernel up and returns the compiled problem, or counts a typed
   refusal — and runs the admitted problems through
   ``prepare_batch(...).run()``, the only way a batch outcome is
   produced.  A kernel group that declines at run time leaves its
   members without one (nothing retries); an exception in
   materialization or admission is that spec's ``ERROR`` result, one in
   the batch run makes every admitted member an ``ERROR`` result;
2. :func:`evaluate` obtains the safety verdict — from
   :class:`~repro.analysis.safety.SafetyAnalyzer` (the subject's type
   picks certificates, dispute digraph or SMT; the result's ``method``
   records the deciding tier) through the per-process **verdict cache**
   keyed by ``repr(canonical_key(...))``, a name-faithful rendering
   whose cost stays below the analysis it skips — warmed from and
   persisted to the cross-process
   :class:`~repro.campaigns.verdict_store.VerdictStore` when one is
   attached, so repeated campaigns pay for each distinct constraint
   system once *ever*;
3. executes the scenario on every configured scalar
   :class:`~repro.exec.base.ExecutionBackend` (native GPV engine,
   generated NDlog program, ...) over the same seeded simulator timeline
   and event schedule — the first on the prepared scenario itself (the
   batch pass only read it), each later one on its own copy of that
   scenario's network, because scalar sessions own a mutable network;
4. classifies every pair of outcomes, batch included
   (:func:`~repro.campaigns.report.classify` per analysis~backend pair,
   route-table comparison per backend~backend pair).

For the iBGP family the order of (2) and (3) flips: hot-potato signatures
carry no path information, so the instance is analyzed via the paper's
Sec. VI-B workflow — run first with route logging, extract the SPP from the
received advertisements (from the *primary* backend's log), then analyze
the extraction.

Nothing here attaches a store or a trace sink: the process's verdict
store, kernel store and span sink are whatever was last configured —
by :class:`~repro.campaigns.runner.CampaignRunner`, once per process,
or by a direct caller.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass, replace

from ..algebra.base import RoutingAlgebra
from ..algebra.secure import hijacked_route
from ..algebra.spp import SPPInstance
from ..analysis.safety import SafetyAnalyzer
from ..exec import (
    DEFAULT_BACKENDS,
    ExecutionOutcome,
    get_backend,
    route_mismatches,
    route_set_mismatches,
)
from ..experiments.extraction import extract_spp
from ..obs import metrics as _obs_metrics
from ..obs.trace import TRACER
from ..sqlite_cache import open_store
from .canonical import canonical_key
from .report import (
    AGREE,
    ANALYSIS,
    ERROR,
    MULTI_STABLE,
    NONDETERMINISTIC,
    ROUTE_DIVERGED,
    STATUS_DIVERGED,
    PairOutcome,
    ScenarioResult,
    classify,
)
from .scenarios import Scenario, materialize
from .spec import ScenarioSpec
from .verdict_store import VerdictStore

#: Per-process memo: repr(canonical key) → (safe, method).  Workers keep it
#: for their whole lifetime, so chunks arriving later reuse earlier solves.
_VERDICT_CACHE: dict[str, tuple[bool, str]] = {}

#: Holds no state between analyses, so one serves the whole process.
_ANALYZER = SafetyAnalyzer()

#: The attached store: what :func:`configure_verdict_store` last opened.
_STORE: VerdictStore | None = None

#: Which cache tier served each safety verdict (memo / shared store /
#: fresh analyzer solve).  What each scenario classified as is the result
#: sink's to count, not the registry's.
_VERDICT_LOOKUPS = {
    tier: _obs_metrics.counter("repro_verdict_lookups_total", tier=tier)
    for tier in ("memo", "store", "solved")
}
#: Where a verdict's wall time went: rendering the canonical key, or
#: everything behind it (memo, store, analyzer).
_VERDICT_SECONDS = {
    phase: _obs_metrics.counter("repro_verdict_seconds_total", phase=phase)
    for phase in ("key", "solve")
}
_BATCH = "batch"


def clear_verdict_cache() -> None:
    _VERDICT_CACHE.clear()


def verdict_cache_size() -> int:
    return len(_VERDICT_CACHE)


def configure_verdict_store(path: str | None) -> None:
    """Attach (or detach) the persistent verdict store for this process.

    Attaching loads every stored verdict into the in-process memo, so a
    warmed store turns repeat campaigns into pure cache hits; subsequent
    solves are written through.  Idempotent per (path, pid) and fork-safe
    (:func:`~repro.sqlite_cache.open_store`).  A path that cannot be
    opened raises ``sqlite3.Error``.
    """
    global _STORE
    attached, _STORE = _STORE, None  # nothing, if the path cannot be opened
    store = _STORE = open_store(VerdictStore, path)
    if store is not None and store is not attached:
        with store.best_effort():
            _VERDICT_CACHE.update(store.load_all())


def cached_verdict(
        subject: RoutingAlgebra | SPPInstance) -> tuple[bool, str, bool]:
    """``(safe, method, cache_hit)`` for the subject's constraint system;
    the key and solve times annotate the enclosing span."""
    started = time.perf_counter()
    key = repr(canonical_key(subject))
    keyed = time.perf_counter()
    tier = _lookup_or_solve(key, subject)
    solved = time.perf_counter()
    _VERDICT_SECONDS["key"].inc(keyed - started)
    _VERDICT_SECONDS["solve"].inc(solved - keyed)
    _VERDICT_LOOKUPS[tier].inc()
    safe, method = _VERDICT_CACHE[key]
    TRACER.annotate(key_ms=1e3 * (keyed - started),
                    solve_ms=1e3 * (solved - keyed),
                    verdict_tier=tier, method=method, safe=safe)
    return safe, method, tier != "solved"


def _lookup_or_solve(key: str, subject: RoutingAlgebra | SPPInstance) -> str:
    """Ensure ``key`` is in the memo; return the tier that served it."""
    hit = key in _VERDICT_CACHE
    tier = "memo" if hit else "solved"
    if not hit and _STORE is not None:
        # Read-through: the attach-time bulk load only saw rows that
        # existed then; with several processes writing through one store
        # a *sibling worker* may have solved this system since.  One
        # indexed lookup per memo miss buys every worker all their solves.
        stored = None
        with _STORE.best_effort():
            stored = _STORE.get(key)
        if stored is not None:
            _VERDICT_CACHE[key] = stored
            hit = True
            tier = "store"
    if not hit:
        report = _ANALYZER.analyze(subject)
        _VERDICT_CACHE[key] = (report.safe, report.method)
        if _STORE is not None:
            with _STORE.best_effort():
                _STORE.put(key, report.safe, report.method)
    return tier


@dataclass
class _Prepared:
    """What the chunk pass hands :func:`evaluate` for one spec."""

    #: The spec's one materialization (None: ``materialize`` raised).
    scenario: Scenario | None
    #: What it took: the scenario's own clock starts that much earlier.
    materialize_s: float
    #: The vectorized pass's outcome (None: ``batch`` not configured,
    #: scenario refused, or its kernel group declined at run time).
    batch: ExecutionOutcome | None = None
    #: ``ERROR`` text: ``materialize``, this spec's admission or the
    #: chunk's batch run raised.
    error: str | None = None


def _error_text(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}\n{traceback.format_exc(limit=3)}"


def _prepare_chunk(specs: list[ScenarioSpec],
                   backends: tuple) -> list[_Prepared]:
    """Materialize, admit and batch-execute a chunk, each exactly once.

    One :class:`_Prepared` per spec, index-aligned.  Scenarios sharing a
    kernel are relaxed together whatever their order (the session groups
    by kernel identity), so the chunk is not sorted.
    """
    batch = get_backend(_BATCH) if _BATCH in backends else None
    prepared: list[_Prepared] = []
    admitted: list[_Prepared] = []
    problems = []  # what ``supports`` compiled, aligned with ``admitted``
    for spec in specs:
        started = time.perf_counter()
        entry = _Prepared(None, 0.0)
        prepared.append(entry)
        try:
            try:
                entry.scenario = materialize(spec)
            finally:
                entry.materialize_s = time.perf_counter() - started
            problem = batch is not None and batch.supports(entry.scenario)
        except Exception as exc:  # noqa: BLE001 — this spec's ERROR result
            entry.error = _error_text(exc)
            continue
        if problem:
            admitted.append(entry)
            problems.append(problem)
    if admitted:
        try:
            with TRACER.span("batch:chunk", scenarios=len(admitted)):
                outcomes = batch.prepare_batch(problems).run()
        except Exception as exc:  # noqa: BLE001 — loud: ERROR, not scalar
            text = _error_text(exc)
            for entry in admitted:
                entry.error = text
        else:
            # None for kernel groups that declined at run time.
            for entry, outcome in zip(admitted, outcomes):
                entry.batch = outcome
    return prepared


def evaluate(spec: ScenarioSpec, backends: tuple = DEFAULT_BACKENDS, *,
             prepared: _Prepared | None = None) -> ScenarioResult:
    """Run the full differential check for one spec (never raises).

    ``prepared`` is the spec's entry of its chunk's :func:`_prepare_chunk`
    — only :func:`evaluate_chunk` passes it; a direct call prepares the
    spec as a chunk of one.  ``elapsed_s`` covers the scenario's own
    materialization and evaluation, not the chunk-level batch work.
    """
    if prepared is None:
        prepared, = _prepare_chunk([spec], backends)
    started = time.perf_counter() - prepared.materialize_s
    with TRACER.span("scenario", trace_id=spec.trace_id,
                     scenario_id=spec.scenario_id, family=spec.family,
                     algebra=spec.algebra,
                     materialize_ms=1e3 * prepared.materialize_s
                     ) as scenario_span:
        if prepared.error is not None:
            return _error_result(spec, started, scenario_span,
                                 prepared.error)
        return _evaluate_traced(spec, backends, prepared, started,
                                scenario_span)


def _error_result(spec, started, scenario_span, text: str) -> ScenarioResult:
    scenario_span.set_status("error")
    scenario_span.annotate(error=text.partition("\n")[0])
    return ScenarioResult(spec=spec, classification=ERROR,
                          elapsed_s=time.perf_counter() - started,
                          error=text)


def _count_backend_run(name: str, started: float,
                       outcome: ExecutionOutcome) -> None:
    """One live prepare + run in the registry — per run, never per
    message, so µs per message is the quotient of two counters."""
    _obs_metrics.counter("repro_backend_seconds_total", backend=name).inc(
        time.perf_counter() - started)
    _obs_metrics.counter("repro_backend_messages_total",
                         backend=name).inc(outcome.messages)
    _obs_metrics.counter(
        "repro_backend_runs_total", backend=name,
        outcome="converged" if outcome.converged else "diverged").inc()


def _evaluate_traced(spec, backends, prepared, started, scenario_span):
    try:
        scenario = prepared.scenario
        safe = method = None
        cache_hit = False
        if scenario.analysis_subject is not None:
            with TRACER.span("analysis:verdict"):
                safe, method, cache_hit = cached_verdict(
                    scenario.analysis_subject)

        # Backends declare per-scenario applicability (the HLP protocol
        # cannot execute, say, an iBGP reflection hierarchy), so one
        # --backends list can span heterogeneous families; batch applies
        # where the chunk pass produced an outcome.  The first applicable
        # backend is the scenario's primary.
        applicable = [name for name in backends
                      if (prepared.batch is not None if name == _BATCH
                          else get_backend(name).supports(scenario))]
        if not applicable:
            raise ValueError(
                f"no backend in {list(backends)} supports "
                f"family {spec.family!r}")
        # The primary session is kept only for iBGP extraction, which
        # reads its route log; every other engine is released once its
        # outcome is taken.
        primary = None
        outcomes: list[ExecutionOutcome] = []
        # Each scalar session owns a mutable network (``fail_link``
        # removes links, ``perturb_link`` relabels them): the prepared
        # scenario's serves the first, every later one gets a copy —
        # taken now, before any session has touched it.
        later = sum(name != _BATCH for name in applicable) - 1
        networks = iter([scenario.network,
                         *(scenario.network.copy() for _ in range(later))])
        for name in applicable:
            if name == _BATCH:
                outcomes.append(prepared.batch)
                scenario_span.annotate(batched=True)
                continue
            scn = replace(scenario, network=next(networks))
            run_started = time.perf_counter()
            with TRACER.span("backend:run", backend=name) as backend_span:
                session = get_backend(name).prepare(scn, seed=spec.seed)
                if scenario.analysis_subject is None and not outcomes:
                    session.sim.stats.route_log = []  # extraction reads it
                    primary = session
                outcome = session.run(until=spec.until,
                                      max_events=spec.max_events)
                backend_span.annotate(converged=outcome.converged,
                                      messages=outcome.messages)
            _count_backend_run(name, run_started, outcome)
            outcomes.append(outcome)

        if scenario.analysis_subject is None:
            # iBGP workflow: extract the realized SPP (from the primary
            # backend's route log, the only one kept) and analyze that.  The
            # batch backend refuses subjects requiring post-run extraction,
            # so the primary is a scalar session.
            with TRACER.span("analysis:verdict", extracted=True):
                extracted = extract_spp(primary, scenario.extract_dest)
                safe, method, cache_hit = cached_verdict(extracted)

        first = outcomes[0]
        result = ScenarioResult(
            spec=spec,
            classification=classify(safe, first.converged),
            safe=safe,
            converged=first.converged,
            stop_reason=first.stop_reason,
            method=method,
            cache_hit=cache_hit,
            messages=first.messages,
            sim_time_s=first.sim_time_s,
            elapsed_s=time.perf_counter() - started,
            outcomes=tuple(outcomes),
            pairwise=_pairwise(scenario, safe, outcomes),
            hijack=_hijack_verdict(scenario, outcomes),
        )
        scenario_span.annotate(classification=result.classification)
        if result.is_disagreement:
            scenario_span.set_status("error")
            scenario_span.annotate(disagreement=True)
        return result
    except Exception as exc:  # noqa: BLE001 — a worker must survive any spec
        return _error_result(spec, started, scenario_span, _error_text(exc))


def classify_backend_pair(safe: bool | None, first: ExecutionOutcome,
                          second: ExecutionOutcome,
                          algebra: RoutingAlgebra, *,
                          top_k: int = 1) -> tuple[str, str]:
    """``(status, detail)`` for one backend~backend cross-check.

    Convergence-status and route-table mismatches are *hard* divergences
    only under a safe verdict: unsafe algebras promise nothing, so there
    differing stable states (``multi-stable`` — DISAGREE has two) and
    timing-dependent divergence (``nondeterministic``) are documented
    outcomes, not failures.

    Multipath scenarios (``top_k > 1``) additionally compare the selected
    route *sets* rank-wise up to algebra preference-equality
    (:func:`~repro.exec.base.route_set_mismatches`) — agreeing on the best
    route while ranking or dropping alternates differently is still a
    divergence there.
    """
    if first.converged != second.converged:
        status = STATUS_DIVERGED if safe else NONDETERMINISTIC
        return status, (f"{first.backend}={first.stop_reason} "
                        f"{second.backend}={second.stop_reason}")
    if not first.converged:
        return AGREE, "both diverged"
    mismatches = route_mismatches(algebra, first, second)
    if not mismatches and top_k > 1:
        mismatches = route_set_mismatches(algebra, first, second)
    if not mismatches:
        return AGREE, ""
    status = ROUTE_DIVERGED if safe else MULTI_STABLE
    return status, "; ".join(mismatches)


def _hijack_verdict(scenario: Scenario,
                    outcomes: list[ExecutionOutcome]) -> dict | None:
    """Per-backend victim counts and "does the hijack win" (primary bit).

    A *victim* is any node other than the attacker whose selected best
    path toward the hijacked destination runs through the attacker's
    forged origination (the path tail is ``(..., attacker, dest)``).  The
    primary backend's count decides ``wins``; sibling backends' counts
    are recorded, but differing counts across backends are *not* hard
    divergences — preference-equal ties can legitimately mask whether the
    tied pick is the hijacked route (a documented false-positive bucket;
    see ``campaigns/README.md``).  The route tables themselves are still
    compared signature-wise by the ordinary pairwise cross-check.
    """
    attacker = getattr(scenario, "attacker", None)
    dest = getattr(scenario, "hijack_dest", None)
    if attacker is None or dest is None or not outcomes:
        return None
    victims: dict[str, int] = {}
    for outcome in outcomes:
        count = 0
        for (node, target), path in outcome.routes.items():
            if target != dest or node == attacker:
                continue
            if path is not None and hijacked_route(path, attacker):
                count += 1
        victims[outcome.backend] = count
    spec = scenario.spec
    return {
        "attacker": attacker,
        "dest": dest,
        "deployment": spec.param("deployment", "none"),
        "deployment_fraction": spec.param("deployment_fraction", 0.0),
        "victims": victims,
        "wins": victims[outcomes[0].backend] > 0,
    }


def _pairwise(scenario: Scenario, safe: bool | None,
              outcomes: list[ExecutionOutcome]) -> tuple[PairOutcome, ...]:
    pairs = [
        PairOutcome(ANALYSIS, outcome.backend,
                    classify(safe, outcome.converged))
        for outcome in outcomes
    ]
    for i, first in enumerate(outcomes):
        for second in outcomes[i + 1:]:
            status, detail = classify_backend_pair(
                safe, first, second, scenario.algebra,
                top_k=scenario.top_k)
            pairs.append(PairOutcome(first.backend, second.backend,
                                     status, detail))
    return tuple(pairs)


def evaluate_chunk(specs: list[ScenarioSpec],
                   backends: tuple = DEFAULT_BACKENDS) -> list[ScenarioResult]:
    """Worker entry point: evaluate a chunk, sharing the process cache.

    The chunk pass runs first — with the ``batch`` backend configured
    this is where the struct-of-arrays kernel amortizes, over the whole
    chunk's admitted scenarios in one vectorized call — and each
    per-spec evaluation consumes its prepared entry, which is dropped as
    soon as that evaluation returns.
    """
    prepared = _prepare_chunk(specs, backends)
    # Popped in spec order: each scenario is released as soon as its
    # evaluation returns, not when the chunk does.
    prepared.reverse()
    return [evaluate(spec, backends, prepared=prepared.pop())
            for spec in specs]
