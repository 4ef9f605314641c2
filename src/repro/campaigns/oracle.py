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
2. :func:`evaluate` obtains the safety verdict — from the tiered
   :class:`~repro.analysis.pipeline.AnalysisPipeline` (certificates →
   dispute digraph → SMT; the result's ``method`` records
   the deciding tier) through the per-process **verdict cache** keyed by
   ``repr(canonical_key(...))`` — an *isomorphism-invariant* rendering,
   so relabeled copies of one gadget share a single solve — optionally
   warmed from and persisted to a cross-process
   :class:`~repro.campaigns.verdict_store.VerdictStore`, so repeated
   campaigns pay for each distinct constraint system once *ever*;
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
    schedule_events,
)
from ..exec.batch import configure_kernel_store
from ..experiments.extraction import extract_spp
from ..obs import metrics as _obs_metrics
from ..obs.trace import TRACER, configure_tracing
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
#: fresh analyzer solve) and what each scenario classified as.
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
_SCENARIOS_FAMILY = "repro_scenarios_total"
_BATCH = "batch"
_DISAGREEMENTS = _obs_metrics.counter("repro_disagreements_total")


@dataclass(frozen=True)
class EvaluationOptions:
    """Per-evaluation knobs, picklable so chunks carry them to workers."""

    backends: tuple = DEFAULT_BACKENDS
    verdict_store_path: str | None = None
    #: Persistent tabulated-kernel store for the batch backend (None
    #: falls back to ``$REPRO_BATCH_KERNEL_CACHE``, unset = in-memory).
    kernel_store_path: str | None = None
    #: Structured-tracing sink directory (None = tracing off).  Carried
    #: in the options so ProcessPool workers configure their own sink.
    trace_dir: str | None = None


def clear_verdict_cache() -> None:
    _VERDICT_CACHE.clear()


def verdict_cache_size() -> int:
    return len(_VERDICT_CACHE)


def configure_verdict_store(path: str | None) -> None:
    """Attach (or detach) the persistent verdict store for this process.

    Attaching loads every stored verdict into the in-process memo, so a
    warmed store turns repeat campaigns into pure cache hits; subsequent
    solves are written through.  Idempotent per (path, pid) and fork-safe
    (:func:`~repro.sqlite_cache.open_store`) — workers call this once per
    chunk at negligible cost.  A path that cannot be opened raises
    ``sqlite3.Error``.
    """
    global _STORE
    attached, _STORE = _STORE, None  # nothing, if the path cannot be opened
    store = _STORE = open_store(VerdictStore, path)
    if store is not None and store is not attached:
        with store.best_effort():
            _VERDICT_CACHE.update(store.load_all())


def flush_store_hits() -> None:
    """Write accumulated memo-hit counts through to the attached store."""
    if _STORE is not None:
        _STORE.flush_hits()


def cached_verdict(
        subject: RoutingAlgebra | SPPInstance) -> tuple[bool, str, bool]:
    """``(safe, method, cache_hit)`` for the subject's constraint system."""
    with TRACER.span("verdict:key"):
        started = time.perf_counter()
        key = repr(canonical_key(subject))
        _VERDICT_SECONDS["key"].inc(time.perf_counter() - started)
    with TRACER.span("verdict:solve"):
        started = time.perf_counter()
        tier = _lookup_or_solve(key, subject)
        _VERDICT_SECONDS["solve"].inc(time.perf_counter() - started)
    _VERDICT_LOOKUPS[tier].inc()
    safe, method = _VERDICT_CACHE[key]
    TRACER.annotate(verdict_tier=tier, method=method, safe=safe)
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
    elif _STORE is not None:
        # Hit statistics are telemetry (`repro verdicts --stats`), tallied
        # so the warmed-cache fast path stays write-free.
        _STORE.count_hit(key)
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
                   options: EvaluationOptions) -> list[_Prepared]:
    """Materialize, admit and batch-execute a chunk, each exactly once.

    One :class:`_Prepared` per spec, index-aligned.  Scenarios sharing a
    kernel are relaxed together whatever their order (the session groups
    by kernel identity), so the chunk is not sorted.
    """
    batch = None
    if _BATCH in options.backends:
        configure_kernel_store(options.kernel_store_path)
        batch = get_backend(_BATCH)
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


def evaluate(spec: ScenarioSpec,
             options: EvaluationOptions | None = None, *,
             prepared: _Prepared | None = None) -> ScenarioResult:
    """Run the full differential check for one spec (never raises).

    ``prepared`` is the spec's entry of its chunk's :func:`_prepare_chunk`
    — only :func:`evaluate_chunk` passes it; a direct call prepares the
    spec as a chunk of one.  ``elapsed_s`` covers the scenario's own
    materialization and evaluation, not the chunk-level batch work.
    """
    options = options or EvaluationOptions()
    if prepared is None:
        prepared, = _prepare_chunk([spec], options)
    started = time.perf_counter() - prepared.materialize_s
    with TRACER.span("scenario", trace_id=spec.trace_id,
                     scenario_id=spec.scenario_id, family=spec.family,
                     algebra=spec.algebra,
                     materialize_ms=1e3 * prepared.materialize_s
                     ) as scenario_span:
        if prepared.error is not None:
            return _error_result(spec, started, scenario_span,
                                 prepared.error)
        return _evaluate_traced(spec, options, prepared, started,
                                scenario_span)


def _error_result(spec, started, scenario_span, text: str) -> ScenarioResult:
    _obs_metrics.counter(_SCENARIOS_FAMILY, classification=ERROR).inc()
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


def _evaluate_traced(spec, options, prepared, started, scenario_span):
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
        backends = [name for name in options.backends
                    if (prepared.batch is not None if name == _BATCH
                        else get_backend(name).supports(scenario))]
        if not backends:
            raise ValueError(
                f"no backend in {list(options.backends)} supports "
                f"family {spec.family!r}")
        sessions = []
        outcomes: list[ExecutionOutcome] = []
        # Each scalar session owns a mutable network (``fail_link``
        # removes links, ``perturb_link`` relabels them): the prepared
        # scenario's serves the first, every later one gets a copy —
        # taken now, before any session has touched it.
        later = sum(name != _BATCH for name in backends) - 1
        networks = iter([scenario.network,
                         *(scenario.network.copy() for _ in range(later))])
        for name in backends:
            if name == _BATCH:
                sessions.append(None)
                outcomes.append(prepared.batch)
                with TRACER.span("backend:run", backend=name,
                                 precomputed=True):
                    pass
                continue
            scn = replace(scenario, network=next(networks))
            run_started = time.perf_counter()
            with TRACER.span("backend:run", backend=name) as backend_span:
                session = get_backend(name).prepare(
                    scn, seed=spec.seed, log_routes=scn.log_routes)
                schedule_events(session, scn.events)
                outcome = session.run(until=spec.until,
                                      max_events=spec.max_events)
                backend_span.annotate(converged=outcome.converged,
                                      messages=outcome.messages)
            _count_backend_run(name, run_started, outcome)
            sessions.append(session)
            outcomes.append(outcome)

        if scenario.analysis_subject is None:
            # iBGP workflow: extract the realized SPP (from the primary
            # backend's route log) and analyze that.  The batch backend
            # refuses subjects requiring post-run extraction, so sessions[0]
            # is live.
            with TRACER.span("analysis:verdict", extracted=True):
                extracted = extract_spp(sessions[0], scenario.extract_dest)
                safe, method, cache_hit = cached_verdict(extracted)

        primary = outcomes[0]
        result = ScenarioResult(
            spec=spec,
            classification=classify(safe, primary.converged),
            safe=safe,
            converged=primary.converged,
            stop_reason=primary.stop_reason,
            method=method,
            cache_hit=cache_hit,
            messages=primary.messages,
            sim_time_s=primary.sim_time_s,
            elapsed_s=time.perf_counter() - started,
            outcomes=tuple(outcomes),
            pairwise=_pairwise(scenario, safe, outcomes),
            hijack=_hijack_verdict(scenario, outcomes),
        )
        _obs_metrics.counter(_SCENARIOS_FAMILY,
                             classification=result.classification).inc()
        scenario_span.annotate(classification=result.classification)
        if result.is_disagreement:
            _DISAGREEMENTS.inc()
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
                   options: EvaluationOptions | None = None
                   ) -> list[ScenarioResult]:
    """Worker entry point: evaluate a chunk, sharing the process cache.

    The chunk pass runs first — with the ``batch`` backend configured
    this is where the struct-of-arrays kernel amortizes, over the whole
    chunk's admitted scenarios in one vectorized call — and each
    per-spec evaluation consumes its prepared entry, which is dropped as
    soon as that evaluation returns.

    The store is (re)configured unconditionally — including to ``None`` —
    so a chunk from a cache-less campaign never writes through a store a
    previous campaign left attached in this process.
    """
    options = options or EvaluationOptions()
    configure_verdict_store(options.verdict_store_path)
    if options.trace_dir is not None:
        # Each pool process configures its own sink (pid-distinct worker
        # name), so spans are tagged with their owning worker.
        configure_tracing(options.trace_dir)
    try:
        prepared = _prepare_chunk(specs, options)
        # Popped in spec order: each scenario is released as soon as its
        # evaluation returns, not when the chunk does.
        prepared.reverse()
        return [evaluate(spec, options, prepared=prepared.pop())
                for spec in specs]
    finally:
        flush_store_hits()
