"""Differential-oracle classifications and campaign aggregation.

The oracle cross-checks the halves of FSR on every scenario:

* the **analysis half** — :class:`~repro.analysis.safety.SafetyAnalyzer`'s
  strict-monotonicity verdict;
* each **execution backend** — whether the protocol implementation
  actually quiesced under the simulator (native GPV engine, generated
  NDlog program, ...).

Strict monotonicity is *sufficient* for convergence (paper Thm. 4.1), so
per analysis~backend pair the four outcomes mean:

======================  =====================================================
``safe-converged``      agreement — the safety proof was honored in execution
``unsafe-diverged``     agreement — the suspected instability is real
``unsafe-converged``    documented **false positive** (paper Sec. IV-A):
                        strictness is sufficient, not necessary (DISAGREE)
``safe-diverged``       **disagreement** — would falsify the encoder, the
                        solver, or the protocol engines; campaigns exist to
                        prove this bucket stays empty
======================  =====================================================

Backend~backend pairs are classified by route-table comparison (up to
algebra preference-equality, because stickiness makes tied selections
arrival-order dependent):

======================  =====================================================
``agree``               same convergence status; same routes where converged
``route-diverged``      both converged on a *safe* algebra but selected
                        non-equivalent routes — a cross-backend semantic
                        drift (DISAGREEMENT)
``status-diverged``     one backend converged, the other did not, on a
                        *safe* algebra (DISAGREEMENT)
``multi-stable``        both converged on an *unsafe* algebra but settled in
                        different stable states — expected (DISAGREE has two)
``nondeterministic``    convergence status differs on an *unsafe* algebra —
                        expected (divergence there is timing-dependent)
======================  =====================================================

A ``safe-diverged`` result can also mean the scenario's event/time budget
was too small for an otherwise convergent run — that is deliberate: both
causes demand human eyes, and the reproducer spec carries the budgets, so
replaying with larger ones separates "under-budgeted" from "genuinely
never converges" in one step.  Generator profiles budget an order of
magnitude above observed convergence needs precisely so this stays rare.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .spec import ScenarioSpec

SAFE_CONVERGED = "safe-converged"
UNSAFE_DIVERGED = "unsafe-diverged"
FALSE_POSITIVE = "unsafe-converged"
SAFE_DIVERGED = "safe-diverged"
ERROR = "error"

CLASSIFICATIONS = (SAFE_CONVERGED, UNSAFE_DIVERGED, FALSE_POSITIVE,
                   SAFE_DIVERGED, ERROR)

#: Backend~backend pair statuses.
AGREE = "agree"
ROUTE_DIVERGED = "route-diverged"
STATUS_DIVERGED = "status-diverged"
MULTI_STABLE = "multi-stable"
NONDETERMINISTIC = "nondeterministic"

#: Pair statuses that constitute a disagreement (must stay empty).
HARD_DIVERGENCES = frozenset({ROUTE_DIVERGED, STATUS_DIVERGED,
                              SAFE_DIVERGED})

#: The left-hand name of analysis~backend pairs.
ANALYSIS = "analysis"


def classify(safe: bool, converged: bool) -> str:
    """Map (analysis verdict, execution outcome) to an oracle bucket."""
    if safe:
        return SAFE_CONVERGED if converged else SAFE_DIVERGED
    return UNSAFE_DIVERGED if not converged else FALSE_POSITIVE


@dataclass(frozen=True)
class PairOutcome:
    """One pairwise cross-check: analysis~backend or backend~backend."""

    left: str
    right: str
    status: str
    detail: str = ""

    @property
    def pair(self) -> str:
        return f"{self.left}~{self.right}"

    @property
    def is_divergence(self) -> bool:
        return self.status in HARD_DIVERGENCES


@dataclass
class ScenarioResult:
    """One scenario's differential outcome (picklable, worker → parent).

    ``classification`` / ``converged`` / ``stop_reason`` / ``messages`` /
    ``sim_time_s`` describe the *primary* (first-configured) backend, so
    single-backend campaigns read exactly as before; ``outcomes`` carries
    one :class:`~repro.exec.base.ExecutionOutcome` per backend and
    ``pairwise`` every cross-check.
    """

    spec: ScenarioSpec
    classification: str
    safe: bool | None = None
    converged: bool | None = None
    stop_reason: str = ""
    method: str = ""
    cache_hit: bool = False
    messages: int = 0
    sim_time_s: float = 0.0
    elapsed_s: float = 0.0
    error: str = ""
    outcomes: tuple = ()
    pairwise: tuple = ()
    #: Hijack-campaign verdict (secure families with an attacker event):
    #: attacker/dest, deployment draw, per-backend victim counts, and the
    #: primary backend's authoritative ``wins`` bit.  ``None`` elsewhere.
    hijack: dict | None = None

    @property
    def scenario_id(self) -> int:
        return self.spec.scenario_id

    @property
    def family(self) -> str:
        return self.spec.family

    @property
    def divergences(self) -> list[PairOutcome]:
        """Every pairwise cross-check that must never fail but did."""
        return [p for p in self.pairwise if p.is_divergence]

    @property
    def is_disagreement(self) -> bool:
        if self.classification == SAFE_DIVERGED:
            return True
        return any(p.is_divergence for p in self.pairwise)

    def describe(self) -> str:
        base = (f"{self.spec.describe()}: {self.classification} "
                f"(stop={self.stop_reason or '-'}")
        for pair in self.divergences:
            base += f", {pair.pair}={pair.status}"
        if self.error:
            base += f", error={self.error}"
        return base + ")"


def merge_counts(into: dict, extra: dict) -> dict:
    """Recursively add nested counter dicts (in place; returns ``into``)."""
    for key, value in extra.items():
        if isinstance(value, dict):
            merge_counts(into.setdefault(key, {}), value)
        else:
            into[key] = into.get(key, 0) + value
    return into


def result_record(result: ScenarioResult) -> dict:
    """One scenario's JSON-safe record (route tables summarized)."""
    record = {
        "scenario_id": result.scenario_id,
        "family": result.family,
        "algebra": result.spec.algebra,
        "classification": result.classification,
        "safe": result.safe,
        "converged": result.converged,
        "stop_reason": result.stop_reason,
        "method": result.method,
        "cache_hit": result.cache_hit,
        "messages": result.messages,
        "sim_time_s": result.sim_time_s,
        "elapsed_s": round(result.elapsed_s, 6),
        "backends": {o.backend: o.to_dict() for o in result.outcomes},
        "pairwise": {p.pair: p.status for p in result.pairwise},
        "spec": result.spec.to_dict(),
    }
    if result.error:
        record["error"] = result.error
    if result.hijack is not None:
        record["hijack"] = result.hijack
    divergences = [{"pair": p.pair, "status": p.status, "detail": p.detail}
                   for p in result.divergences]
    if divergences:
        record["divergences"] = divergences
    return record


def result_from_record(record: dict) -> ScenarioResult:
    """Rebuild a :class:`ScenarioResult` from its JSON record.

    The inverse of :func:`result_record` up to the raw backend outcomes
    (route tables are summaries in the record, so ``outcomes`` comes back
    empty) — everything the campaign aggregation and reproducer workflow
    reads (spec, classification, pairwise statuses, divergence details)
    round-trips exactly.  This is what lets a ``--resume`` run count a
    scenario from its JSONL record instead of evaluating it again.
    """
    details = {d["pair"]: d.get("detail", "")
               for d in record.get("divergences", ())}
    pairwise = tuple(
        PairOutcome(*pair.split("~", 1), status=status,
                    detail=details.get(pair, ""))
        for pair, status in (record.get("pairwise") or {}).items())
    return ScenarioResult(
        spec=ScenarioSpec.from_dict(record["spec"]),
        classification=record["classification"],
        safe=record.get("safe"),
        converged=record.get("converged"),
        stop_reason=record.get("stop_reason", ""),
        method=record.get("method", ""),
        cache_hit=bool(record.get("cache_hit", False)),
        messages=record.get("messages", 0),
        sim_time_s=record.get("sim_time_s", 0.0),
        elapsed_s=record.get("elapsed_s", 0.0),
        error=record.get("error", ""),
        pairwise=pairwise,
        hijack=record.get("hijack"),
    )


@dataclass
class CampaignReport:
    """Aggregate of a campaign run: counters, reproducers, throughput.

    Built by :meth:`AggregatingSink.report()
    <repro.campaigns.sink.AggregatingSink.report>` (and by :meth:`merge`
    from such reports): the aggregate fields are counted incrementally
    as results arrive, while ``results`` retains what the sink kept —
    everything for a small campaign, only the bounded disagreement/error
    reproducers for a streamed one, so a million-scenario campaign
    reports in constant memory.
    """

    #: The aggregates: every counter view below reads these, never
    #: ``results``.
    total_scenarios: int
    class_counts: dict
    family_counts: dict
    pair_counts: dict
    cache_hit_count: int
    analyzed_count: int
    results: list[ScenarioResult] = field(default_factory=list)
    wall_clock_s: float = 0.0
    jobs: int = 1
    chunk_size: int = 1
    aborted: str | None = None
    backends: tuple = ("gpv",)
    #: Results dropped from ``results`` by the retention bound.
    results_truncated: int = 0
    #: Scenarios counted from an earlier run's records (``--resume``)
    #: rather than evaluated in this one.
    resumed_count: int = 0

    # -- derived views --------------------------------------------------------

    @property
    def scenario_count(self) -> int:
        return self.total_scenarios

    @property
    def scenarios_per_second(self) -> float:
        """Throughput of this run: resumed scenarios cost it nothing."""
        if self.wall_clock_s <= 0:
            return 0.0
        return (self.scenario_count - self.resumed_count) / self.wall_clock_s

    @property
    def cache_hit_rate(self) -> float:
        if not self.analyzed_count:
            return 0.0
        return self.cache_hit_count / self.analyzed_count

    def counters(self) -> dict[str, int]:
        return {c: self.class_counts.get(c, 0) for c in CLASSIFICATIONS}

    def by_family(self) -> dict[str, dict[str, int]]:
        return {family: dict(buckets) for family, buckets
                in sorted(self.family_counts.items())}

    def pairwise_counters(self) -> dict[str, dict[str, int]]:
        """Per pair (``analysis~gpv``, ``gpv~ndlog``, ...) status counts."""
        return {pair: dict(buckets) for pair, buckets
                in sorted(self.pair_counts.items())}

    def disagreements(self) -> list[ScenarioResult]:
        """Analysis disagreements and cross-backend divergences — the
        reproducers that must be empty for a sound FSR."""
        return [r for r in self.results if r.is_disagreement]

    def false_positives(self) -> list[ScenarioResult]:
        return [r for r in self.results
                if r.classification == FALSE_POSITIVE]

    def errors(self) -> list[ScenarioResult]:
        return [r for r in self.results if r.classification == ERROR]

    @property
    def error_count(self) -> int:
        return self.class_counts.get(ERROR, 0)

    @property
    def disagreement_count(self) -> int:
        """Disagreement total that survives streaming truncation."""
        count = self.class_counts.get(SAFE_DIVERGED, 0)
        for buckets in self.pair_counts.values():
            for status, n in buckets.items():
                if status in HARD_DIVERGENCES and status != SAFE_DIVERGED:
                    count += n
        return max(count, len(self.disagreements()))

    def reproducer_seeds(self) -> list[dict]:
        """Spec dicts for every disagreement (and error), for replay."""
        return [r.spec.to_dict()
                for r in self.results
                if r.is_disagreement or r.classification == ERROR]

    # -- merging (sharded campaigns) -----------------------------------------

    @classmethod
    def merge(cls, reports: Iterable["CampaignReport"]) -> "CampaignReport":
        """Combine shard reports into one campaign-wide report.

        Shards run concurrently on separate machines, so wall clock is the
        *maximum* (campaign latency), while scenario counts, counters and
        retained reproducers add up.
        """
        reports = list(reports)
        if not reports:
            return cls(total_scenarios=0, class_counts={}, family_counts={},
                       pair_counts={}, cache_hit_count=0, analyzed_count=0)
        class_counts: dict = {}
        family_counts: dict = {}
        pair_counts: dict = {}
        results: list[ScenarioResult] = []
        truncated = 0
        cache_hits = analyzed = total = resumed = 0
        aborts = []
        for report in reports:
            merge_counts(class_counts, report.counters())
            merge_counts(family_counts, report.by_family())
            merge_counts(pair_counts, report.pairwise_counters())
            results.extend(report.results)
            truncated += report.results_truncated
            total += report.scenario_count
            resumed += report.resumed_count
            cache_hits += report.cache_hit_count
            analyzed += report.analyzed_count
            if report.aborted:
                aborts.append(report.aborted)
        results.sort(key=lambda r: r.scenario_id)
        first = reports[0]
        return cls(
            results=results,
            wall_clock_s=max(r.wall_clock_s for r in reports),
            jobs=max(r.jobs for r in reports),
            chunk_size=first.chunk_size,
            aborted="; ".join(aborts) or None,
            backends=first.backends,
            total_scenarios=total,
            class_counts=class_counts,
            family_counts=family_counts,
            pair_counts=pair_counts,
            cache_hit_count=cache_hits,
            analyzed_count=analyzed,
            results_truncated=truncated,
            resumed_count=resumed,
        )

    # -- rendering ------------------------------------------------------------

    def summary(self) -> str:
        counters = self.counters()
        lines = [
            f"campaign: {self.scenario_count} scenarios in "
            f"{self.wall_clock_s:.2f}s "
            f"({self.scenarios_per_second:.1f} scenarios/s, "
            f"jobs={self.jobs}, chunk={self.chunk_size}, "
            f"backends={','.join(self.backends)})",
            f"  verdict cache hit rate: {self.cache_hit_rate:.0%}",
        ]
        if self.resumed_count:
            lines.append(f"  resumed: {self.resumed_count} of "
                         f"{self.scenario_count} scenarios counted from "
                         f"their records, not evaluated again")
        if self.aborted:
            lines.append(f"  aborted early: {self.aborted}")
        lines.append("  outcome counters:")
        for name in CLASSIFICATIONS:
            if counters.get(name):
                note = ""
                if name == FALSE_POSITIVE:
                    note = "   (documented false positives, paper Sec. IV-A)"
                if name == SAFE_DIVERGED:
                    note = "   (DISAGREEMENTS — should be zero!)"
                lines.append(f"    {name:>17}: {counters[name]:>5}{note}")
        pairwise = self.pairwise_counters()
        if len(self.backends) > 1 and pairwise:
            lines.append("  pairwise cross-checks:")
            for pair, buckets in pairwise.items():
                detail = " ".join(
                    f"{status}={count}"
                    for status, count in sorted(buckets.items()) if count)
                flagged = sum(count for status, count in buckets.items()
                              if status in HARD_DIVERGENCES)
                note = "   (DIVERGENCES — should be zero!)" if flagged else ""
                lines.append(f"    {pair:>16}: [{detail}]{note}")
        lines.append("  per family:")
        for family, buckets in self.by_family().items():
            total = sum(buckets.values())
            detail = " ".join(f"{name}={count}"
                              for name, count in buckets.items() if count)
            lines.append(f"    {family:>10}: {total:>4}  [{detail}]")
        hijacked = [r for r in self.results if r.hijack]
        if hijacked:
            wins = sum(1 for r in hijacked if r.hijack.get("wins"))
            lines.append(
                f"  hijack verdicts: {wins}/{len(hijacked)} scenarios won "
                f"(primary-backend victim count > 0)")
        disagreements = self.disagreements()
        if disagreements:
            lines.append("  disagreement reproducers:")
            for result in disagreements:
                lines.append(f"    {result.describe()}")
        errors = self.errors()
        if errors or self.error_count:
            lines.append(f"  errors: {max(len(errors), self.error_count)}")
            for result in errors[:5]:
                lines.append(f"    {result.describe()}")
        if self.results_truncated:
            lines.append(f"  (full results truncated: "
                         f"{self.results_truncated} not retained in memory)")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "scenarios": self.scenario_count,
            "wall_clock_s": self.wall_clock_s,
            "scenarios_per_second": self.scenarios_per_second,
            "jobs": self.jobs,
            "chunk_size": self.chunk_size,
            "backends": list(self.backends),
            "aborted": self.aborted,
            "cache_hit_rate": self.cache_hit_rate,
            "counters": self.counters(),
            "by_family": self.by_family(),
            "pairwise": self.pairwise_counters(),
            "reproducers": self.reproducer_seeds(),
            "results_truncated": self.results_truncated,
            "resumed": self.resumed_count,
        }
