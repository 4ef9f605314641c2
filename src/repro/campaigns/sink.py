"""Streaming result sinks: constant-memory campaign aggregation.

A :class:`ResultSink` receives each :class:`ScenarioResult` the moment its
chunk returns from a worker.  Two implementations cover the campaign
runner's needs:

* :class:`AggregatingSink` — the bounded in-memory aggregator behind every
  :class:`~repro.campaigns.report.CampaignReport`.  It counts
  classifications, families and pairwise statuses incrementally and
  retains full results either entirely (``keep_results=True``, the
  Python-API default for small campaigns) or only the disagreement/error
  reproducers up to ``max_retained`` (the streaming mode: a
  million-scenario campaign aggregates in constant memory);
* :class:`JsonlResultSink` — an incremental JSONL writer: one JSON object
  per scenario, flushed as produced, so an interrupted campaign still
  leaves a complete record of everything it evaluated.  Lines arrive in
  completion order under parallel execution; each carries its
  ``scenario_id`` (and full reproducer spec) for downstream sorting —
  and for :func:`read_results`, which turns the file back into the
  records a ``--resume`` run replays instead of evaluating again.

Sinks compose: the runner always feeds its aggregator and, when
``--stream-out`` is given, tees into a JSONL sink as well.
"""

from __future__ import annotations

import json
import os
from typing import IO, Iterable, Protocol

from .report import (  # noqa: F401 - result_record re-exported (moved)
    ERROR,
    CampaignReport,
    ScenarioResult,
    result_record,
)


class ResultSink(Protocol):
    """Anything that consumes scenario results as they are produced."""

    def accept(self, result: ScenarioResult) -> None: ...

    def close(self) -> None: ...


class AggregatingSink:
    """Incremental counters + bounded reproducer retention."""

    def __init__(self, *, keep_results: bool = True,
                 max_retained: int = 200,
                 backends: tuple = ("gpv",)):
        self.keep_results = keep_results
        self.max_retained = max_retained
        self.backends = tuple(backends)
        self.class_counts: dict = {}
        self.family_counts: dict = {}
        self.pair_counts: dict = {}
        self.total = 0
        self.cache_hits = 0
        self.analyzed = 0
        self.retained: list[ScenarioResult] = []
        #: Reproducers live in their own bounded buffer so bulk ordinary
        #: results can never evict a disagreement's replay spec.
        self.reproducers: list[ScenarioResult] = []
        self.truncated = 0

    def accept(self, result: ScenarioResult) -> None:
        self.total += 1
        self.class_counts[result.classification] = \
            self.class_counts.get(result.classification, 0) + 1
        family = self.family_counts.setdefault(result.family, {})
        family[result.classification] = \
            family.get(result.classification, 0) + 1
        for pair in result.pairwise:
            buckets = self.pair_counts.setdefault(pair.pair, {})
            buckets[pair.status] = buckets.get(pair.status, 0) + 1
        if result.classification != ERROR:
            self.analyzed += 1
            self.cache_hits += result.cache_hit
        if result.is_disagreement or result.classification == ERROR:
            bucket = self.reproducers
        elif self.keep_results:
            bucket = self.retained
        else:
            return
        if len(bucket) < self.max_retained:
            bucket.append(result)
        else:
            self.truncated += 1

    def close(self) -> None:
        pass

    def report(self, *, wall_clock_s: float, jobs: int, chunk_size: int,
               aborted: str | None, resumed: int = 0) -> CampaignReport:
        """Freeze the aggregates into a :class:`CampaignReport`."""
        results = sorted(self.retained + self.reproducers,
                         key=lambda r: r.scenario_id)
        return CampaignReport(
            results=results,
            wall_clock_s=wall_clock_s,
            jobs=jobs,
            chunk_size=chunk_size,
            aborted=aborted,
            backends=self.backends,
            total_scenarios=self.total,
            class_counts=dict(self.class_counts),
            family_counts={f: dict(b) for f, b in self.family_counts.items()},
            pair_counts={p: dict(b) for p, b in self.pair_counts.items()},
            cache_hit_count=self.cache_hits,
            analyzed_count=self.analyzed,
            results_truncated=self.truncated,
            resumed_count=resumed,
        )


class JsonlResultSink:
    """Append one JSON line per result to a path or open handle.

    A path is truncated unless ``append`` (``--resume``): then the file is
    kept, minus the unterminated last line a killed writer may have left
    — the next record must not be glued to it.
    """

    def __init__(self, target: str | IO[str], *, append: bool = False):
        if isinstance(target, str):
            if append:
                _drop_torn_tail(target)
            self._fh: IO[str] = open(target, "a" if append else "w",
                                     encoding="utf-8")
            self._owned = True
        else:
            self._fh = target
            self._owned = False

    def accept(self, result: ScenarioResult) -> None:
        self._fh.write(json.dumps(result_record(result), default=repr))
        self._fh.write("\n")
        self._fh.flush()

    def close(self) -> None:
        if self._owned:
            self._fh.close()


def _drop_torn_tail(path: str) -> None:
    """Cut a file back to the end of its last newline-terminated line."""
    try:
        fh = open(path, "rb+")
    except FileNotFoundError:
        return
    with fh:
        end = keep = fh.seek(0, os.SEEK_END)
        while keep:
            start = max(0, keep - 65536)
            fh.seek(start)
            newline = fh.read(keep - start).rfind(b"\n")
            if newline >= 0:
                keep = start + newline + 1
                break
            keep = start
        if keep < end:
            fh.truncate(keep)


def read_results(path: str) -> dict[int, dict]:
    """A JSONL result file as ``{scenario_id: record}`` — what
    ``CampaignRunner.run(..., recorded=)`` resumes from.

    The last record of a scenario wins (a resumed run appends the
    re-evaluation of an ``ERROR``); an unterminated last line is a torn
    write and is dropped, as :class:`JsonlResultSink` drops it on append.
    """
    records: dict[int, dict] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.endswith("\n"):
                break
            record = json.loads(line)
            records[record["scenario_id"]] = record
    return records


class TeeSink:
    """Fan one result stream out to several sinks."""

    def __init__(self, sinks: Iterable[ResultSink]):
        self.sinks = list(sinks)

    def accept(self, result: ScenarioResult) -> None:
        for sink in self.sinks:
            sink.accept(result)

    def close(self) -> None:
        for sink in self.sinks:
            sink.close()
