"""Campaign execution: streaming chunked fan-out with budgets and early abort.

:class:`CampaignRunner` is the one way a campaign is fanned out.  It deals
a *stream* of :class:`ScenarioSpec`s into chunks and drives each through
``evaluate_chunk`` — in this process (``jobs=1``: same process, same
verdict cache) or across a ``ProcessPoolExecutor`` (``jobs>1``) — and one
loop consumes the per-chunk result lists either way.  Chunks amortize
process-pool dispatch overhead and the vectorized ``batch`` pass; they
complete independently, so a slow scenario only delays its chunk.

Memory stays bounded at any campaign size:

* the spec source may be any iterable — generated specs are drawn lazily,
  never collected into a list (a resumed run holds the specs still to
  evaluate: it checks the whole stream against the records first);
* in parallel mode at most ``jobs * _PIPELINE_DEPTH`` chunks are in flight;
  new chunks are drawn from the stream only as workers free up;
* every result is handed to the sinks the moment its chunk returns: the
  :class:`~repro.campaigns.sink.AggregatingSink` counts it (retaining full
  results only under ``keep_results``, reproducers always), and an optional
  caller-supplied sink (e.g. the JSONL writer behind ``--stream-out``)
  records it durably.

Budgets: ``run()`` fixes one ``time.monotonic`` deadline for
``wall_clock_budget_s``, and a chunk starts only while no limit has fired
— checked before each chunk, in the serial loop and before each pool
submission alike, so a zero budget or ``abort_on_disagreements=0``
evaluates nothing at any ``jobs``.  The pool checks again after each
chunk it collects, since its stream may be all submitted.  The report is
marked aborted and covers the scenarios finished so far:

* ``wall_clock_budget_s`` — a chunk already being evaluated finishes (in
  the pool too, during shutdown), and a pool worker that picks a chunk
  up after the deadline hands it back unevaluated, since the executor
  cannot cancel a chunk once it is queued for a worker;
* ``abort_on_disagreements`` — stop as soon as that many disagreements
  exist (a campaign that has already falsified the pipeline need not
  finish; the reproducer seeds are what matters).

Crash accounting: a chunk whose worker raised, or whose pool died under it,
becomes one ``ERROR`` result per spec it carried (``"chunk lost: ..."``),
the run stops with ``aborted="worker process died"`` and the report is
still returned — every submitted spec is accounted for.

Counts: a pool chunk comes back with what its worker counted while
evaluating it (:meth:`~repro.obs.metrics.MetricsRegistry.take`), which the
runner adds into this process's registry
(:meth:`~repro.obs.metrics.MetricsRegistry.absorb`).  So after a run the
caller's registry holds the whole campaign's work at any ``jobs``.
Scenario outcomes are not registry counts: the aggregator counts them.

Resume: ``run(specs, sink=..., recorded=read_results(path))`` replays every
spec that already has a non-``ERROR`` record into the aggregator instead of
evaluating it, and evaluates (and streams) only the rest.  The records are
the JSONL sink's own lines, so an interrupted or crashed campaign is
finished by re-running it with ``--resume``: no second ledger.  Which
campaign wrote the file is the sink's check (the file's
``repro-results/1`` header, :func:`~repro.campaigns.sink.check_header`);
here each record's spec is checked.

Set-up: :func:`_attach` is the one place a process gets its verdict
store, kernel store and trace sink — this process at the start of every
``run``, each pool worker once, from its initializer.  Every call sets
all three, so a campaign without a store or a trace directory detaches
whatever an earlier campaign in the process left attached.
"""

from __future__ import annotations

import contextlib
import itertools
import sqlite3
import sys
import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Iterable, Iterator

from ..exec import DEFAULT_BACKENDS, resolve_backends
from ..exec.batch import configure_kernel_store, numpy_available
from ..obs import metrics as _obs_metrics
from ..obs.live import render_dashboard
from ..obs.trace import configure_tracing
from .oracle import configure_verdict_store, evaluate_chunk
from .report import ERROR, CampaignReport, ScenarioResult, result_from_record
from .sink import AggregatingSink, ResultSink
from .spec import ScenarioSpec

#: Chunks in flight per worker in parallel mode.
_PIPELINE_DEPTH = 2
#: Seconds between live dashboard refreshes under ``watch``.
_WATCH_INTERVAL_S = 2.0

_CHUNKS_LOST = _obs_metrics.counter("repro_campaign_chunks_lost_total")


@dataclass
class CampaignConfig:
    """Execution knobs for one campaign run."""

    jobs: int = 1
    chunk_size: int = 8
    wall_clock_budget_s: float | None = None
    abort_on_disagreements: int | None = None
    #: Execution backends evaluated per scenario, primary first.
    backends: tuple = DEFAULT_BACKENDS
    #: Retain every ScenarioResult on the report (False ⇒ constant memory:
    #: only counters plus bounded disagreement/error reproducers survive).
    keep_results: bool = True
    #: Optional path of a persistent cross-process verdict cache.
    verdict_cache_path: str | None = None
    #: Append the vectorized ``batch`` backend automatically (kernel-keyed
    #: chunk execution for every scenario it supports; scalar backends
    #: remain the differential ground truth).  ``--no-batch`` turns it off.
    auto_batch: bool = True
    #: Optional path of a persistent cross-process kernel cache (sqlite).
    kernel_cache_path: str | None = None
    #: Optional directory for per-scenario structured trace spans
    #: (``repro-span/1`` JSONL); ``None`` leaves tracing disabled.
    trace_dir: str | None = None
    #: Render a live registry dashboard to stderr while the campaign runs.
    watch: bool = False

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if self.chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        self.backends = resolve_backends(self.backends)
        if self.auto_batch and "batch" not in self.backends \
                and numpy_available():
            # Appended last: the configured scalar backends stay primary
            # (ground truth); batch rides along as the vectorized check.
            self.backends = self.backends + ("batch",)


class _CampaignWatch:
    """The live campaign dashboard (``repro campaign --watch``): renders
    this process's registry snapshot — the pool's counts included, as
    every chunk brings its worker's back — to stderr between results,
    headed by the aggregator's outcome counts.
    """

    def __init__(self, stream=None):
        self.stream = stream if stream is not None else sys.stderr
        self._last = 0.0

    def maybe_render(self, state: "_RunState", *,
                     force: bool = False) -> None:
        now = time.monotonic()
        if not force and now - self._last < _WATCH_INTERVAL_S:
            return
        self._last = now
        tally = state.aggregator.tally
        counts = tally.class_counts
        extra = [f"evaluated: {tally.total_scenarios - tally.resumed_count}"
                 f"  disagreements: {tally.disagreement_count}"
                 f"  errors: {counts.get(ERROR, 0)}"]
        if tally.resumed_count:
            extra.append(f"resumed: {tally.resumed_count}")
        if state.aborted:
            extra.append(f"aborted: {state.aborted}")
        if counts:
            extra.append("by classification")
            extra += [f"  {name:<22} {count}" for name, count in
                      sorted(counts.items(), key=lambda kv: -kv[1])]
        print(render_dashboard(_obs_metrics.snapshot(), title="campaign",
                               extra_lines=extra),
              file=self.stream, flush=True)


@dataclass
class _RunState:
    """Mutable bookkeeping shared by the serial and parallel paths."""

    aggregator: AggregatingSink
    #: ``time.monotonic`` deadline of the wall-clock budget, if any.
    deadline: float | None = None
    extra_sink: ResultSink | None = None
    aborted: str | None = None
    watch: _CampaignWatch | None = None

    def consume(self, result: ScenarioResult) -> None:
        self.aggregator.accept(result)
        if self.extra_sink is not None:
            self.extra_sink.accept(result)
        if self.watch is not None:
            self.watch.maybe_render(self)

    def replay(self, result: ScenarioResult) -> None:
        """Count a recorded result; the extra sink already holds it."""
        self.aggregator.accept(result)
        self.aggregator.tally.resumed_count += 1


class CampaignRunner:
    """Runs scenario campaigns serially or over a process pool."""

    def __init__(self, config: CampaignConfig):
        self.config = config

    # -- public API ----------------------------------------------------------

    def run(self, specs: Iterable[ScenarioSpec], *,
            sink: ResultSink | None = None,
            recorded: dict[int, dict] | None = None) -> CampaignReport:
        """Evaluate a spec stream; ``sink`` additionally receives every
        evaluated result in completion order (e.g. a JSONL writer).

        ``recorded`` resumes an earlier run of the same stream from its
        records (``read_results(path)``: scenario id → record): a spec
        with a non-``ERROR`` record is counted from the record and neither
        evaluated nor handed to ``sink``.  A record made from a different
        spec is a different campaign: ``ValueError``, before anything is
        evaluated or written — and so is a verdict or kernel cache path
        that cannot be opened.
        """
        started = time.monotonic()
        try:  # here, not in the initializer of whichever worker starts first
            _attach(self.config)
        except sqlite3.Error as error:
            raise ValueError(str(error)) from error
        budget = self.config.wall_clock_budget_s
        state = _RunState(
            aggregator=AggregatingSink(
                keep_results=self.config.keep_results,
                backends=self.config.backends),
            deadline=None if budget is None else started + budget,
            extra_sink=sink,
            watch=_CampaignWatch() if self.config.watch else None,
        )
        spec_iter = iter(specs)
        if recorded is not None:
            spec_iter = iter(_replay_recorded(spec_iter, recorded, state))
        chunks = self._startable(spec_iter, state)
        if self.config.jobs == 1:  # the same entry point the pool runs
            source = (evaluate_chunk(chunk, self.config.backends)
                      for chunk in chunks)
        else:
            source = self._pool_chunks(chunks, state)
        # closing() shuts the pool down at once if a sink raises.
        with contextlib.closing(source):
            for results in source:
                for result in results:
                    state.consume(result)
        if state.watch is not None:
            state.watch.maybe_render(state, force=True)
        return state.aggregator.report(
            wall_clock_s=time.monotonic() - started,
            jobs=self.config.jobs,
            chunk_size=self.config.chunk_size,
            aborted=state.aborted,
        )

    # -- the one stop rule ---------------------------------------------------

    def _startable(self, specs: Iterator[ScenarioSpec],
                   state: _RunState) -> Iterator[list[ScenarioSpec]]:
        """Deal the stream into chunks, each only while no limit has
        fired: the one place either source learns to stop."""
        chunks = _chunk_stream(specs, self.config.chunk_size)
        while True:
            state.aborted = state.aborted or self._abort_reason(state)
            chunk = None if state.aborted else next(chunks, None)
            if chunk is None:
                return
            yield chunk

    def _abort_reason(self, state: _RunState) -> str | None:
        if state.deadline is not None and time.monotonic() >= state.deadline:
            return "wall-clock budget exhausted"
        limit = self.config.abort_on_disagreements
        found = state.aggregator.tally.disagreement_count
        if limit is not None and found >= limit:
            return f"disagreement limit reached ({found})"
        return None

    # -- the pool ------------------------------------------------------------

    def _pool_chunks(self, chunks: Iterator[list[ScenarioSpec]],
                     state: _RunState) -> Iterator[list[ScenarioResult]]:
        """Every submitted chunk is accounted for: a finished one is
        counted, a failed one (its worker raised, or its pool died under
        it) is one ``ERROR`` per spec, and one still queued when a limit
        fired is cancelled, never evaluated, and left out."""
        #: Future → the chunk it carries, so every submitted spec can be
        #: accounted for even when its worker failed.
        inflight: dict = {}
        executor = ProcessPoolExecutor(max_workers=self.config.jobs,
                                       initializer=_pool_worker_init,
                                       initargs=(self.config,))

        def submit(count: int) -> None:
            for chunk in itertools.islice(chunks, count):
                try:
                    future = executor.submit(_pool_chunk, chunk,
                                             self.config.backends,
                                             state.deadline)
                except BrokenProcessPool:
                    # A worker died while a sibling chunk was finishing:
                    # the dead worker's chunk is still in flight and fails
                    # once the pool is shut down.  This chunk was never
                    # evaluated.
                    state.aborted = "worker process died"
                    return
                inflight[future] = chunk

        try:
            submit(self.config.jobs * _PIPELINE_DEPTH)
            while inflight and not state.aborted:
                done, _ = wait(inflight, return_when=FIRST_COMPLETED)
                for future in done:
                    yield _chunk_results(future, inflight.pop(future), state)
                # The stream may be all submitted already, so _startable
                # would not look again: a limit that fired meanwhile
                # (or the budget a worker skipped a chunk past) stops the
                # run here, and the queued chunks are cancelled.
                state.aborted = state.aborted or self._abort_reason(state)
                # Keep the pipeline full: one fresh chunk per finished one.
                submit(len(done))
        finally:
            # Queued chunks are cancelled; chunks already running finish
            # during shutdown.
            executor.shutdown(wait=True, cancel_futures=True)
        # A limit fired: keep the evidence of what finished meanwhile.
        for future, chunk in inflight.items():
            if future.done() and not future.cancelled():
                yield _chunk_results(future, chunk, state)


def _chunk_stream(specs: Iterator[ScenarioSpec],
                  size: int) -> Iterator[list[ScenarioSpec]]:
    """Lazily deal a spec stream into chunks (the last may be short)."""
    while True:
        chunk = list(itertools.islice(specs, size))
        if not chunk:
            return
        yield chunk


def _replay_recorded(specs: Iterator[ScenarioSpec], recorded: dict[int, dict],
                     state: _RunState) -> list[ScenarioSpec]:
    """Replay the recorded part of a stream; return the specs left to run.

    The whole stream is checked before the first evaluation, so a file
    from another campaign is rejected with nothing evaluated or written.
    ``ERROR`` records (a lost chunk, a scenario that raised) are not
    evidence: their specs are evaluated again.
    """
    pending = []
    for spec in specs:
        record = recorded.get(spec.scenario_id)
        if record is None:
            pending.append(spec)
            continue
        result = result_from_record(record)
        if result.spec != spec:
            raise ValueError(
                f"cannot resume: the record of scenario {spec.scenario_id} "
                f"was made from a different spec ({result.spec.describe()}) "
                f"than this campaign's ({spec.describe()})")
        if result.classification == ERROR:
            pending.append(spec)
        else:
            state.replay(result)
    return pending


def _attach(config: CampaignConfig) -> None:
    """Give this process the campaign's stores and trace sink.

    Each call is unconditional, so ``None`` detaches; the kernel store
    only matters to the ``batch`` backend.  The store and tracer
    ``configure`` functions are pid-guarded, so a forked worker opens
    its own handles instead of sharing the parent's.  A store path that
    cannot be opened raises ``sqlite3.Error``.
    """
    configure_verdict_store(config.verdict_cache_path)
    configure_kernel_store(config.kernel_cache_path
                           if "batch" in config.backends else None)
    configure_tracing(config.trace_dir)


def _pool_worker_init(config: CampaignConfig) -> None:
    """A forked worker starts with a copy of the parent's registry; the
    counts it hands back must be its own work only.  Then it is
    attached, once for its lifetime."""
    _obs_metrics.get_registry().reset()
    _attach(config)


def _pool_chunk(chunk: list[ScenarioSpec], backends: tuple,
                deadline: float | None) -> tuple[list[ScenarioResult], dict]:
    """What the pool runs: the chunk's results plus what this worker
    counted while evaluating it.  A chunk picked up after the budget's
    ``deadline`` (``time.monotonic``) is handed back unevaluated: the
    executor cannot cancel a chunk once it sits in its call queue."""
    results = []
    if deadline is None or time.monotonic() < deadline:
        results = evaluate_chunk(chunk, backends)
    return results, _obs_metrics.get_registry().take()


def _chunk_results(future: Future, chunk: list[ScenarioSpec],
                   state: _RunState) -> list[ScenarioResult]:
    """A finished future's results, its worker's counts absorbed — or,
    when its worker raised or its pool died, one ERROR per spec it
    carried, and the run stops."""
    try:
        returned = future.result()
    except Exception as exc:  # noqa: BLE001 - a lost chunk is evidence
        _CHUNKS_LOST.inc()
        state.aborted = state.aborted or "worker process died"
        return [ScenarioResult(spec=spec, classification=ERROR,
                               error=f"chunk lost: "
                                     f"{type(exc).__name__}: {exc}")
                for spec in chunk]
    results, counts = returned
    _obs_metrics.get_registry().absorb(counts)
    return results
