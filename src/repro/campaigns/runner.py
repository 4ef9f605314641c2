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

Budgets:

* ``wall_clock_budget_s`` — stop collecting once the budget elapses; the
  report is marked aborted and covers the scenarios finished so far;
* ``abort_on_disagreements`` — stop as soon as that many disagreements
  exist (a campaign that has already falsified the pipeline need not
  finish; the reproducer seeds are what matters).

Crash accounting: a chunk whose worker raised, or whose pool died under it,
becomes one ``ERROR`` result per spec it carried (``"chunk lost: ..."``),
the run stops with ``aborted="worker process died"`` and the report is
still returned — every submitted spec is accounted for.

Resume: ``run(specs, sink=..., recorded=read_results(path))`` replays every
spec that already has a non-``ERROR`` record into the aggregator instead of
evaluating it, and evaluates (and streams) only the rest.  The records are
the JSONL sink's own lines, so an interrupted or crashed campaign is
finished by re-running it with ``--resume``: no second ledger.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import sqlite3
import sys
import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from ..exec import DEFAULT_BACKENDS, resolve_backends
from ..exec.batch import configure_kernel_store, numpy_available
from ..obs import metrics as _obs_metrics
from ..obs.live import render_dashboard
from ..obs.trace import configure_tracing
from .oracle import EvaluationOptions, configure_verdict_store, evaluate_chunk
from .report import ERROR, CampaignReport, ScenarioResult, result_from_record
from .sink import AggregatingSink, ResultSink
from .spec import ScenarioSpec

#: Chunks in flight per worker in parallel mode.
_PIPELINE_DEPTH = 2
#: Seconds between live dashboard refreshes under ``watch``.
_WATCH_INTERVAL_S = 2.0

_CHUNKS_LOST = _obs_metrics.counter("repro_campaign_chunks_lost_total")
#: In a pool worker: numbers the chunks it has finished, which orders its
#: cumulative snapshots however the parent happens to collect them.
_WORKER_CHUNK_SEQ = itertools.count(1)


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
    #: Retention bound for full results / reproducers.
    max_retained: int = 200
    #: Optional path of a persistent cross-process verdict cache.
    verdict_cache_path: str | None = None
    #: Append the vectorized ``batch`` backend automatically (kernel-keyed
    #: chunk execution for every scenario it supports; scalar backends
    #: remain the differential ground truth).  ``--no-batch`` turns it off.
    auto_batch: bool = True
    #: Optional path of a persistent cross-process kernel cache (sqlite);
    #: also configurable via ``REPRO_BATCH_KERNEL_CACHE``.
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
        if self.max_retained < 1:
            raise ValueError("max_retained must be >= 1")
        self.backends = resolve_backends(self.backends)
        if self.auto_batch and "batch" not in self.backends \
                and numpy_available():
            # Appended last: the configured scalar backends stay primary
            # (ground truth); batch rides along as the vectorized check.
            self.backends = self.backends + ("batch",)

    def evaluation_options(self) -> EvaluationOptions:
        return EvaluationOptions(
            backends=self.backends,
            verdict_store_path=self.verdict_cache_path,
            kernel_store_path=self.kernel_cache_path,
            trace_dir=self.trace_dir)


class _CampaignWatch:
    """The live campaign dashboard (``repro campaign --watch``): renders
    the campaign's registry snapshot to stderr between results.

    In serial mode that is this process's registry (evaluation is
    in-process); in parallel mode the scenario counters live in the pool
    workers, each of which sends its snapshot back with every chunk, and
    the frame shows this process's merged with the latest one per worker.
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
        extra = [f"evaluated: {state.aggregator.total - state.resumed}"
                 f"  disagreements: {state.aggregator.disagreements}"]
        if state.resumed:
            extra.append(f"resumed: {state.resumed}")
        if state.aborted:
            extra.append(f"aborted: {state.aborted}")
        snapshot = _obs_metrics.merge_snapshots(
            [_obs_metrics.snapshot(),
             *(latest for _, latest in state.worker_snapshots.values())])
        print(render_dashboard(snapshot, title="campaign",
                               extra_lines=extra),
              file=self.stream, flush=True)


@dataclass
class _RunState:
    """Mutable bookkeeping shared by the serial and parallel paths."""

    started: float
    aggregator: AggregatingSink
    extra_sink: ResultSink | None = None
    #: Results replayed from an earlier run's records, not evaluated.
    resumed: int = 0
    aborted: str | None = field(default=None)
    watch: _CampaignWatch | None = None
    #: Pool worker pid → (sequence number, registry snapshot) of the
    #: latest chunk that worker finished.
    worker_snapshots: dict = field(default_factory=dict)

    def consume(self, result: ScenarioResult) -> None:
        self.aggregator.accept(result)
        if self.extra_sink is not None:
            self.extra_sink.accept(result)
        if self.watch is not None:
            self.watch.maybe_render(self)

    def replay(self, result: ScenarioResult) -> None:
        """Count a recorded result; the extra sink already holds it."""
        self.aggregator.accept(result)
        self.resumed += 1


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
        started = time.perf_counter()
        try:  # here, not in the first chunk of whichever worker gets it
            configure_verdict_store(self.config.verdict_cache_path)
            if "batch" in self.config.backends:
                configure_kernel_store(self.config.kernel_cache_path)
        except sqlite3.Error as error:
            raise ValueError(str(error)) from error
        if self.config.trace_dir is not None:
            # Serial evaluation runs in this process; pool workers
            # re-configure themselves from the options they receive.
            configure_tracing(self.config.trace_dir)
        state = _RunState(
            started=started,
            aggregator=AggregatingSink(
                keep_results=self.config.keep_results,
                max_retained=self.config.max_retained,
                backends=self.config.backends),
            extra_sink=sink,
            watch=_CampaignWatch() if self.config.watch else None,
        )
        spec_iter = iter(specs)
        if recorded is not None:
            spec_iter = iter(_replay_recorded(spec_iter, recorded, state))
            state.aborted = self._abort_reason(state)
        source = (self._serial_chunks if self.config.jobs == 1
                  else self._pool_chunks)
        # Both sources stop by themselves once ``state.aborted`` is set;
        # closing() shuts the pool down at once if a sink raises.
        with contextlib.closing(source(spec_iter, state)) as chunks:
            for results in chunks:
                for result in results:
                    state.consume(result)
                state.aborted = state.aborted or self._abort_reason(state)
        if state.watch is not None:
            state.watch.maybe_render(state, force=True)
        return state.aggregator.report(
            wall_clock_s=time.perf_counter() - started,
            jobs=self.config.jobs,
            chunk_size=self.config.chunk_size,
            aborted=state.aborted,
            resumed=state.resumed,
        )

    # -- the two chunk sources -----------------------------------------------

    def _serial_chunks(self, specs: Iterator[ScenarioSpec],
                       state: _RunState) -> Iterator[list[ScenarioResult]]:
        """In-process: the same worker entry point the pool uses."""
        options = self.config.evaluation_options()
        for chunk in _chunk_stream(specs, self.config.chunk_size):
            if state.aborted:
                return
            yield evaluate_chunk(chunk, options)

    def _pool_chunks(self, specs: Iterator[ScenarioSpec],
                     state: _RunState) -> Iterator[list[ScenarioResult]]:
        if state.aborted:  # the replayed records already hit a limit
            return
        options = self.config.evaluation_options()
        chunks = _chunk_stream(specs, self.config.chunk_size)
        #: Future → the chunk it carries, so every submitted spec can be
        #: accounted for even when its worker failed.
        inflight: dict = {}
        executor = ProcessPoolExecutor(max_workers=self.config.jobs,
                                       initializer=_pool_worker_init)

        def submit(count: int) -> None:
            for chunk in itertools.islice(chunks, count):
                try:
                    future = executor.submit(_pool_chunk, chunk, options)
                except BrokenProcessPool:
                    # A worker died while a sibling chunk was finishing:
                    # the dead worker's chunk is still in flight, and
                    # _drain_inflight accounts for it once the pool is
                    # shut down.  This chunk was never evaluated.
                    state.aborted = "worker process died"
                    return
                inflight[future] = chunk

        try:
            submit(self.config.jobs * _PIPELINE_DEPTH)
            while inflight and not state.aborted:
                timeout = self._remaining_budget(state.started)
                done, _ = wait(inflight, timeout=timeout,
                               return_when=FIRST_COMPLETED)
                if not done:  # budget elapsed with work still in flight
                    state.aborted = "wall-clock budget exhausted"
                    break
                for future in done:
                    yield _chunk_results(future, inflight.pop(future), state)
                    if state.aborted:
                        break  # the rest of ``done`` is drained below
                # Keep the pipeline full: one fresh chunk per finished one.
                if not state.aborted:
                    submit(len(done))
        finally:
            for future in inflight:
                future.cancel()
            # Queued chunks are cancelled, but chunks already running finish
            # during shutdown — keep their evidence instead of discarding it.
            executor.shutdown(wait=True, cancel_futures=True)
            self._drain_inflight(inflight, state)

    @staticmethod
    def _drain_inflight(inflight: dict, state: _RunState) -> None:
        """Account for every chunk still in flight when the run stopped.

        Chunks whose workers finished during shutdown contribute their
        results normally.  A chunk whose worker *raised* (or whose pool
        died under it) must not silently vanish from the merged report:
        each of its specs is synthesized into an ERROR result carrying
        the failure, so the report still accounts for every submitted
        scenario.  Cancelled chunks were never evaluated and are
        intentionally excluded — an abort dropping queued work is the
        documented budget semantics, not lost evidence.
        """
        for future, chunk in inflight.items():
            if not future.done() or future.cancelled():
                continue
            for result in _chunk_results(future, chunk, state):
                state.consume(result)

    # -- budget logic ---------------------------------------------------------

    def _remaining_budget(self, started: float) -> float | None:
        budget = self.config.wall_clock_budget_s
        if budget is None:
            return None
        return max(0.0, budget - (time.perf_counter() - started))

    def _abort_reason(self, state: _RunState) -> str | None:
        budget = self.config.wall_clock_budget_s
        if budget is not None and \
                time.perf_counter() - state.started >= budget:
            return "wall-clock budget exhausted"
        limit = self.config.abort_on_disagreements
        found = state.aggregator.disagreements
        if limit is not None and found >= limit:
            return f"disagreement limit reached ({found})"
        return None


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


def _pool_worker_init() -> None:
    """A forked worker starts with a copy of the parent's registry; the
    snapshots it sends back must hold its own work only."""
    _obs_metrics.get_registry().reset()


def _pool_chunk(chunk: list[ScenarioSpec], options: EvaluationOptions
                ) -> tuple[list[ScenarioResult], int, int, dict]:
    """What the pool runs: the chunk's results plus this worker's pid,
    chunk sequence number and cumulative registry snapshot (how
    pool-mode metrics reach the parent)."""
    return evaluate_chunk(chunk, options), os.getpid(), \
        next(_WORKER_CHUNK_SEQ), _obs_metrics.snapshot()


def _chunk_results(future: Future, chunk: list[ScenarioSpec],
                   state: _RunState) -> list[ScenarioResult]:
    """A finished future's results — or, when its worker raised or its
    pool died, one ERROR per spec it carried, and the run stops."""
    try:
        results = future.result()
    except Exception as exc:  # noqa: BLE001 - a lost chunk is evidence
        _CHUNKS_LOST.inc()
        state.aborted = state.aborted or "worker process died"
        return [ScenarioResult(spec=spec, classification=ERROR,
                               error=f"chunk lost: "
                                     f"{type(exc).__name__}: {exc}")
                for spec in chunk]
    if isinstance(results, tuple):  # _pool_chunk's; a bare list has none
        results, pid, seq, snapshot = results
        # ``wait`` hands finished futures back as a set: two chunks of one
        # worker may arrive newest first, and the older must not win.
        held = state.worker_snapshots.get(pid)
        if held is None or seq > held[0]:
            state.worker_snapshots[pid] = (seq, snapshot)
    return results
