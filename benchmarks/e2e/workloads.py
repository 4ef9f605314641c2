"""The workload table: what each benchmark workload runs, and how much of it.

A workload is a family mix, a campaign configuration and a *rate*.  One
benchmark run of ``--seconds S`` is ``REPEATS`` cold child processes (five on
``admitted-warm``), each
evaluating the same ``child_count(workload, S)`` scenarios; the rate is about the
number of scenarios this workload finished per second at the commit that
defined the benchmark (2 cores, Python 3.11), so ``--seconds`` buys about
that many seconds of timed campaign.  The amount of work is a pure function
of ``(workload, seconds)``: both sides of any comparison run the same
scenarios, and a faster program simply finishes them sooner.

**The corpus is fixed; ``--seed`` orders it.**  Scenario cost is heavy
tailed — an iBGP scenario costs ~450 ms (sd 230 ms) against ~2 ms for most
others, so a tenth of ``rotation``'s scenarios are nine tenths of its time —
and a run holds a few dozen of them.  Drawing the scenarios themselves from
``--seed`` made ``scenarios_per_s`` scatter by 10-28 % (interquartile
distance over median, ten seeds) on every workload, wider than any bound a
regression check could use.  So every run of a workload evaluates the first
``child_count`` scenarios of one stream, ``ScenarioGenerator(CORPUS_SEED)``,
and ``--seed`` permutes the order in which the campaign receives them, in
whole rounds of the family rotation (the stream stays shaped like the one
``repro campaign`` generates).  Order decides which scenarios share a chunk
and a kernel group and which one pays for each cold cache.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

#: Cold child processes per run, and the divisor of a run's scenario budget;
#: every end-to-end number is the children's median.
REPEATS = 3

#: ``run_seconds`` in ``BENCHMARK.json``: the ``--seconds`` at which the
#: corpus has the size the digest pins in ``expected/seed7.json`` were
#: taken at.
RUN_SECONDS = 12

#: Generator seed of the corpus (the default seed of the issue that defined
#: the benchmark).  A different corpus is a different benchmark.
CORPUS_SEED = 7

DEFAULT_SEED = 7

ALL_FAMILIES = ("gadget", "caida", "hierarchy", "rocketfuel", "ibgp", "hlp",
                "multipath", "tau-sweep", "secure-rov", "secure-hijack")
ADMITTED_FAMILIES = ("rocketfuel", "tau-sweep", "secure-rov", "secure-hijack")


@dataclass(frozen=True)
class Workload:
    name: str
    families: tuple
    #: Scenarios per budget second (see module docstring).
    rate: float
    #: Percentile of per-scenario latency reported as the tail: the 95th
    #: where >= 10 of a run's ``children * child_count`` samples lie beyond
    #: it at ``RUN_SECONDS``, else the highest that has 10 beyond it.  (A
    #: 99th has its 10 samples on the large workloads too, but read 28 %
    #: apart between seeds where the 95th read 6 % apart.)
    tail_pct: int
    jobs: int = 1
    profile: str = "default"
    backends: tuple = ("gpv",)
    #: Persist verdicts and kernels in sqlite stores that a separate
    #: child process fills during set-up.
    warm_stores: bool = False
    #: Cold children per run.  Reading the stores waits on the disk
    #: (every kernel read commits its hit count) for a tenth to a third of
    #: the wall, as the shared host's disk pleases: five children there.
    children: int = REPEATS
    #: Tee every result into a ``JsonlResultSink``.
    jsonl: bool = False
    #: The ``jobs=1`` workload with the same specs, which a traced run
    #: times beside this one (pool workers are out of the shims' reach).
    serial_twin: str | None = None
    #: Span names a traced run must see at least once — a renamed entry
    #: point fails the self-test instead of reporting 0 s.
    active: frozenset = frozenset()


_COMMON = {"spec.make", "scenarios.materialize", "canonical.key",
           "analysis.analyze", "exec.gpv.prepare", "exec.gpv.run",
           "exec.batch.supports", "oracle.cached_verdict", "oracle.evaluate",
           "oracle.evaluate_chunk", "oracle.pairwise", "sink.accept",
           "report.build"}
_BATCHED = {"exec.batch.kernel_key_of", "exec.batch.prepare_batch",
            "exec.batch.run"}

WORKLOADS = {w.name: w for w in (
    Workload("rotation", ALL_FAMILIES, rate=22, tail_pct=95,
             active=frozenset(_COMMON | _BATCHED | {"extraction.extract_spp"})),
    Workload("rotation-j2", ALL_FAMILIES, rate=22, tail_pct=95, jobs=2,
             serial_twin="rotation"),
    # One backend and no batch admission: no backend pair to cross-check.
    Workload("spp-keying", ("gadget", "ibgp"), rate=6, tail_pct=85,
             active=frozenset((_COMMON - {"oracle.pairwise"})
                              | {"extraction.extract_spp"})),
    Workload("scalar-gpv", ("caida", "hierarchy", "multipath", "hlp"),
             rate=190, tail_pct=95,
             active=frozenset(_COMMON | _BATCHED)),
    Workload("admitted-cold", ADMITTED_FAMILIES, rate=135, tail_pct=95,
             active=frozenset(_COMMON | _BATCHED)),
    Workload("admitted-warm", ADMITTED_FAMILIES, rate=135, tail_pct=95,
             warm_stores=True, children=5,
             active=frozenset((_COMMON - {"analysis.analyze"}) | _BATCHED | {
                 "kernel_store.get", "verdict_store.load_all"})),
    # 7 rounds a child: the 95th percentile of 210 has its 10 samples.
    Workload("differential", ALL_FAMILIES, rate=17, tail_pct=95,
             profile="quick", backends=("gpv", "ndlog", "hlp"), jsonl=True,
             active=frozenset(_COMMON | _BATCHED | {
                 "extraction.extract_spp", "exec.ndlog.prepare",
                 "exec.ndlog.run", "exec.hlp.prepare", "exec.hlp.run",
                 "sink.jsonl_accept"})),
)}


def child_count(workload: Workload, seconds: float) -> int:
    """Scenarios one child evaluates: whole rounds over the family mix."""
    rounds = round(workload.rate * seconds / REPEATS / len(workload.families))
    return max(1, rounds) * len(workload.families)


def ordered(specs: list, families: tuple, seed: int) -> list:
    """The corpus in the order run ``seed`` feeds it to the campaign: its
    rounds of the family rotation, permuted."""
    width = len(families)
    rounds = [specs[start:start + width]
              for start in range(0, len(specs), width)]
    random.Random(seed).shuffle(rounds)
    return [spec for one_round in rounds for spec in one_round]
