"""Streaming sinks: incremental JSONL records, bounded aggregation."""

import io
import json

import pytest

from repro.campaigns import (
    ERROR,
    SAFE_CONVERGED,
    SAFE_DIVERGED,
    AggregatingSink,
    CampaignConfig,
    CampaignRunner,
    JsonlResultSink,
    PairOutcome,
    ScenarioGenerator,
    ScenarioResult,
    ScenarioSpec,
    TeeSink,
)


def make_result(scenario_id: int, classification: str = SAFE_CONVERGED,
                **kwargs) -> ScenarioResult:
    spec = ScenarioSpec(scenario_id=scenario_id, family="gadget",
                        algebra="spp", seed=scenario_id, until=1.0,
                        max_events=10)
    return ScenarioResult(spec=spec, classification=classification, **kwargs)


class TestJsonlSink:
    def test_each_result_is_one_json_line(self):
        buffer = io.StringIO()
        sink = JsonlResultSink(buffer)
        sink.accept(make_result(0, safe=True, converged=True))
        sink.accept(make_result(1, ERROR, error="boom"))
        sink.close()
        lines = buffer.getvalue().splitlines()
        assert len(lines) == 2
        first, second = (json.loads(line) for line in lines)
        assert first["scenario_id"] == 0
        assert first["classification"] == SAFE_CONVERGED
        assert first["spec"]["family"] == "gadget"
        assert second["error"] == "boom"

    def test_records_flush_incrementally(self):
        """A crash mid-campaign must not lose already-produced records."""
        buffer = io.StringIO()
        sink = JsonlResultSink(buffer)
        sink.accept(make_result(0))
        assert buffer.getvalue().count("\n") == 1  # visible before close

    def test_divergence_details_are_recorded(self):
        buffer = io.StringIO()
        sink = JsonlResultSink(buffer)
        result = make_result(
            0, SAFE_DIVERGED,
            pairwise=(PairOutcome("gpv", "ndlog", "route-diverged",
                                  "a->d: gpv=None ndlog=('a','d')"),))
        sink.accept(result)
        record = json.loads(buffer.getvalue())
        assert record["pairwise"] == {"gpv~ndlog": "route-diverged"}
        assert record["divergences"][0]["detail"].startswith("a->d")

    def test_path_target_creates_file(self, tmp_path):
        path = tmp_path / "out.jsonl"
        sink = JsonlResultSink(str(path))
        sink.accept(make_result(5))
        sink.close()
        assert json.loads(path.read_text())["scenario_id"] == 5

    def test_end_to_end_streaming_from_runner(self, tmp_path):
        path = tmp_path / "campaign.jsonl"
        specs = ScenarioGenerator(7, profile="quick").generate(6)
        sink = JsonlResultSink(str(path))
        report = CampaignRunner(CampaignConfig(jobs=1)).run(specs, sink=sink)
        sink.close()
        records = [json.loads(line)
                   for line in path.read_text().splitlines()]
        assert len(records) == report.scenario_count == 6
        assert sorted(r["scenario_id"] for r in records) == list(range(6))


class TestAggregatingSink:
    def test_counts_without_retention_stay_bounded(self):
        sink = AggregatingSink(keep_results=False, max_retained=10)
        for i in range(500):
            sink.accept(make_result(i, cache_hit=i > 0))
        report = sink.report(wall_clock_s=1.0, jobs=1, chunk_size=8,
                             aborted=None)
        assert report.scenario_count == 500
        assert report.counters()[SAFE_CONVERGED] == 500
        assert report.results == []  # nothing retained, nothing lost: agree
        assert report.cache_hit_rate == pytest.approx(499 / 500)

    def test_disagreements_are_always_retained(self):
        sink = AggregatingSink(keep_results=False, max_retained=10)
        for i in range(50):
            sink.accept(make_result(i))
        sink.accept(make_result(50, SAFE_DIVERGED, safe=True,
                                converged=False))
        sink.accept(make_result(51, ERROR, error="boom"))
        report = sink.report(wall_clock_s=1.0, jobs=1, chunk_size=8,
                             aborted=None)
        assert [r.scenario_id for r in report.results] == [50, 51]
        assert len(report.disagreements()) == 1
        assert len(report.errors()) == 1
        assert report.reproducer_seeds()  # replayable

    def test_disagreement_count_counts_scenarios(self):
        """A safe-diverged scenario whose backends also diverge is one
        disagreement, not one per way it disagrees."""
        sink = AggregatingSink(keep_results=False, max_retained=10)
        sink.accept(make_result(0))
        for i in (1, 2):
            sink.accept(make_result(
                i, SAFE_DIVERGED, safe=True, converged=False,
                pairwise=(PairOutcome("gpv", "ndlog", "route-diverged"),)))
        report = sink.report(wall_clock_s=1.0, jobs=1, chunk_size=8,
                             aborted=None)
        assert report.disagreement_count == 2

    def test_bulk_results_cannot_evict_reproducers(self):
        """A late disagreement must survive even after the ordinary-result
        buffer filled up (reproducers have their own retention)."""
        sink = AggregatingSink(keep_results=True, max_retained=5)
        for i in range(20):
            sink.accept(make_result(i))
        sink.accept(make_result(20, SAFE_DIVERGED, safe=True,
                                converged=False))
        report = sink.report(wall_clock_s=1.0, jobs=1, chunk_size=1,
                             aborted=None)
        assert [r.scenario_id for r in report.disagreements()] == [20]
        assert report.reproducer_seeds()

    def test_retention_bound_counts_overflow(self):
        sink = AggregatingSink(keep_results=True, max_retained=5)
        for i in range(8):
            sink.accept(make_result(i))
        report = sink.report(wall_clock_s=1.0, jobs=1, chunk_size=1,
                             aborted=None)
        assert len(report.results) == 5
        assert report.results_truncated == 3
        assert report.scenario_count == 8  # counters see everything
        assert "truncated" in report.summary()

    def test_pairwise_counts_aggregate(self):
        sink = AggregatingSink(keep_results=False, backends=("gpv", "ndlog"))
        for i in range(3):
            sink.accept(make_result(
                i, pairwise=(PairOutcome("analysis", "gpv", SAFE_CONVERGED),
                             PairOutcome("gpv", "ndlog", "agree"))))
        report = sink.report(wall_clock_s=1.0, jobs=1, chunk_size=1,
                             aborted=None)
        assert report.pairwise_counters() == {
            "analysis~gpv": {SAFE_CONVERGED: 3},
            "gpv~ndlog": {"agree": 3},
        }
        assert report.backends == ("gpv", "ndlog")


class TestTeeSink:
    def test_fans_out_to_all_sinks(self):
        buffer = io.StringIO()
        aggregator = AggregatingSink()
        tee = TeeSink([aggregator, JsonlResultSink(buffer)])
        tee.accept(make_result(0))
        tee.close()
        assert aggregator.total == 1
        assert buffer.getvalue().count("\n") == 1
