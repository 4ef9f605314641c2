"""Streaming result sinks: constant-memory campaign aggregation.

A :class:`ResultSink` receives each :class:`ScenarioResult` the moment its
chunk returns from a worker.  Two implementations cover the campaign
runner's needs:

* :class:`AggregatingSink` — the bounded in-memory aggregator whose tally
  *is* the campaign's :class:`~repro.campaigns.report.CampaignReport`.
  It counts classifications, families and pairwise statuses into the
  report's own fields as results arrive, and retains full results either
  entirely (``keep_results=True``, the Python-API default for small
  campaigns) or only the disagreement/error reproducers up to
  ``max_retained`` (the streaming mode: a million-scenario campaign
  aggregates in constant memory);
* :class:`JsonlResultSink` — an incremental JSONL writer: one JSON object
  per scenario, flushed as produced, so an interrupted campaign still
  leaves a complete record of everything it evaluated.  Lines arrive in
  completion order under parallel execution; each carries its
  ``scenario_id`` (and full reproducer spec) for downstream sorting —
  and for :func:`read_results`, which turns the file back into the
  records a ``--resume`` run replays instead of evaluating again.  A
  file the sink starts begins with one ``repro-results/1`` header
  (:func:`results_header`): the code and the campaign that wrote it,
  which the sink compares before a ``--resume`` appends
  (:func:`check_header`).

Sinks compose: the runner always feeds its aggregator and, when
``--stream-out`` is given, tees into a JSONL sink as well.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import pathlib
from typing import IO, Iterable, Iterator, Protocol

from .report import (
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
    """The campaign's tally (a :class:`CampaignReport`, counted as
    results arrive) plus bounded reproducer retention."""

    def __init__(self, *, keep_results: bool = True,
                 max_retained: int = 200,
                 backends: tuple = ("gpv",)):
        self.keep_results = keep_results
        self.max_retained = max_retained
        self.tally = CampaignReport(backends=tuple(backends))
        self.retained: list[ScenarioResult] = []
        #: Reproducers live in their own bounded buffer so bulk ordinary
        #: results can never evict a disagreement's replay spec.
        self.reproducers: list[ScenarioResult] = []

    def accept(self, result: ScenarioResult) -> None:
        tally = self.tally
        tally.total_scenarios += 1
        tally.class_counts[result.classification] = \
            tally.class_counts.get(result.classification, 0) + 1
        family = tally.family_counts.setdefault(result.family, {})
        family[result.classification] = \
            family.get(result.classification, 0) + 1
        for pair in result.pairwise:
            buckets = tally.pair_counts.setdefault(pair.pair, {})
            buckets[pair.status] = buckets.get(pair.status, 0) + 1
        if result.classification != ERROR:
            tally.analyzed_count += 1
            tally.cache_hit_count += result.cache_hit
        if result.is_disagreement:
            tally.disagreement_count += 1
        if result.hijack:
            tally.hijack_count += 1
            tally.hijack_win_count += bool(result.hijack.get("wins"))
        if result.is_disagreement or result.classification == ERROR:
            bucket = self.reproducers
        elif self.keep_results:
            bucket = self.retained
        else:
            return
        if len(bucket) < self.max_retained:
            bucket.append(result)
        else:
            tally.results_truncated += 1

    def close(self) -> None:
        pass

    def report(self, *, wall_clock_s: float, jobs: int, chunk_size: int,
               aborted: str | None) -> CampaignReport:
        """The tally, stamped with the run's fields and the retained
        results; nothing is accepted after it."""
        tally = self.tally
        tally.wall_clock_s = wall_clock_s
        tally.jobs = jobs
        tally.chunk_size = chunk_size
        tally.aborted = aborted
        tally.results = sorted(self.retained + self.reproducers,
                               key=lambda r: r.scenario_id)
        return tally


#: The format stamp of a results file's header record.
RESULTS_FORMAT = "repro-results/1"


@functools.cache
def source_fingerprint() -> str:
    """sha256 over the ``repro`` package's ``.py`` files (relative path
    and bytes of each): which code wrote a results file.  About 4 ms,
    once per process."""
    package = pathlib.Path(__file__).resolve().parents[1]
    digest = hashlib.sha256()
    for path in sorted(package.rglob("*.py")):
        digest.update(path.relative_to(package).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def results_header(**fields) -> dict:
    """The ``repro-results/1`` header record of a campaign: the format,
    the source fingerprint and ``fields`` (the CLI's seed, families,
    profile, deployment and backends), as its JSON line reads back."""
    return json.loads(json.dumps({"format": RESULTS_FORMAT,
                                  "source": source_fingerprint(), **fields}))


class JsonlResultSink:
    """Append one JSON line per result to a path or open handle.

    A path is truncated unless ``append`` (``--resume``): then the file is
    kept, minus the unterminated last line a killed writer may have left
    — the next record must not be glued to it.  Appending under a
    ``header`` first checks that the file is that campaign's
    (:func:`check_header`): ``ValueError``, the file untouched, when its
    header is missing or differs.  A path left empty either way starts
    with the ``repro-results/1`` header of ``header``'s fields
    (:func:`results_header`); a handle is the caller's, and gets none.
    """

    def __init__(self, target: str | IO[str], *, append: bool = False,
                 header: dict | None = None):
        if isinstance(target, str):
            if append:
                if header is not None:
                    check_header(target, header)
                _drop_torn_tail(target)
            self._fh: IO[str] = open(target, "a" if append else "w",
                                     encoding="utf-8")
            self._owned = True
            if self._fh.tell() == 0:
                self._write(results_header(**(header or {})))
        else:
            self._fh = target
            self._owned = False

    def accept(self, result: ScenarioResult) -> None:
        self._write(result_record(result))

    def _write(self, record: dict) -> None:
        self._fh.write(json.dumps(record, default=repr))
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


def check_header(path: str, fields: dict) -> None:
    """``ValueError`` unless the results file at ``path`` was written by
    this code for the campaign of ``fields``: its header must equal
    :func:`results_header` of them.  Only reads, so a refused file is
    left as it was.  A file with no complete first line (missing, empty,
    or a torn first write) passes: the sink starts it afresh."""
    try:
        with open(path, encoding="utf-8") as fh:
            first = fh.readline()
    except FileNotFoundError:
        return
    if not first.endswith("\n"):
        return
    try:
        found = json.loads(first)
    except ValueError:
        found = None
    if not isinstance(found, dict) or found.get("format") != RESULTS_FORMAT:
        raise ValueError(f"{path} has no {RESULTS_FORMAT} header")
    wanted = results_header(**fields)
    differs = [f"{key} {found.get(key)!r} in the file, {wanted.get(key)!r} "
               f"in this run" for key in sorted(found.keys() | wanted.keys())
               if found.get(key) != wanted.get(key)]
    if differs:
        raise ValueError(f"{path} holds another campaign: "
                         + "; ".join(differs))


def iter_records(path: str) -> Iterator[dict]:
    """A JSONL result file's scenario records in file order: the header
    is skipped, and an unterminated last line is a torn write and is
    dropped, as :class:`JsonlResultSink` drops it on append."""
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.endswith("\n"):
                return
            record = json.loads(line)
            if record.get("format") != RESULTS_FORMAT:
                yield record


def read_results(path: str) -> dict[int, dict]:
    """A JSONL result file's records as ``{scenario_id: record}`` — what
    ``CampaignRunner.run(..., recorded=)`` resumes from.

    The header is skipped (:func:`iter_records`).  The last record of a
    scenario wins: a resumed run appends the re-evaluation of an
    ``ERROR``.
    """
    return {record["scenario_id"]: record for record in iter_records(path)}


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
