"""CampaignRunner: serial/parallel equivalence, chunking, budgets,
multi-backend differential runs."""

import pytest

from repro.campaigns import (
    CampaignConfig,
    CampaignRunner,
    HARD_DIVERGENCES,
    ScenarioGenerator,
)
from repro.campaigns.runner import _chunk_stream


class TestConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            CampaignConfig(jobs=0)
        with pytest.raises(ValueError):
            CampaignConfig(chunk_size=0)

    def test_chunking_covers_everything_in_order(self):
        specs = ScenarioGenerator(0, profile="quick").generate(10)
        chunks = list(_chunk_stream(iter(specs), 3))
        assert [len(c) for c in chunks] == [3, 3, 3, 1]
        assert [s for c in chunks for s in c] == specs


class TestSerialParallelEquivalence:
    def test_fanout_does_not_change_verdicts(self):
        specs = ScenarioGenerator(7, profile="quick").generate(15)
        serial = CampaignRunner(CampaignConfig(jobs=1)).run(specs)
        parallel = CampaignRunner(
            CampaignConfig(jobs=2, chunk_size=4)).run(specs)
        assert [(r.scenario_id, r.classification, r.safe, r.converged)
                for r in serial.results] == \
               [(r.scenario_id, r.classification, r.safe, r.converged)
                for r in parallel.results]
        assert parallel.jobs == 2

    def test_results_come_back_in_scenario_order(self):
        report = CampaignRunner(CampaignConfig(jobs=2, chunk_size=3)).run(
            ScenarioGenerator(3, profile="quick").generate(12))
        ids = [r.scenario_id for r in report.results]
        assert ids == sorted(ids) == list(range(12))


class TestBudgets:
    def test_zero_budget_aborts_serial(self):
        report = CampaignRunner(CampaignConfig(
            jobs=1, wall_clock_budget_s=0.0)).run(
            ScenarioGenerator(1, profile="quick").generate(10))
        assert report.aborted == "wall-clock budget exhausted"
        assert report.scenario_count < 10

    def test_zero_budget_aborts_parallel(self):
        report = CampaignRunner(CampaignConfig(
            jobs=2, wall_clock_budget_s=0.0)).run(
            ScenarioGenerator(1, profile="quick").generate(10))
        assert report.aborted == "wall-clock budget exhausted"

    def test_a_pool_worker_starts_no_chunk_after_the_budget(self):
        """The executor cannot cancel a chunk once it is queued for a
        worker, so the worker hands a chunk it picks up after the budget
        back unevaluated: a zero budget evaluates nothing."""
        report = CampaignRunner(CampaignConfig(
            jobs=2, wall_clock_budget_s=0.0)).run(
            ScenarioGenerator(1, profile="quick").generate(40))
        assert report.aborted == "wall-clock budget exhausted"
        assert report.scenario_count == 0

    def test_disagreement_limit_zero_aborts_immediately(self):
        report = CampaignRunner(CampaignConfig(
            jobs=1, abort_on_disagreements=0)).run(
            ScenarioGenerator(1, profile="quick").generate(10))
        assert report.aborted is not None
        assert "disagreement limit" in report.aborted


class TestAbortAccounting:
    """An aborted parallel run must account for every submitted chunk.

    The drain used to swallow failed chunks (``except Exception: pass``),
    so a worker that died during an abort silently vanished from the
    merged report.  Now every completed-but-failed chunk synthesizes one
    ERROR result per spec it carried.
    """

    @staticmethod
    def _state():
        import time

        from repro.campaigns.runner import _RunState
        from repro.campaigns.sink import AggregatingSink

        return _RunState(started=time.perf_counter(),
                         aggregator=AggregatingSink(backends=("gpv",)))

    def test_failed_chunks_surface_as_error_results(self):
        from concurrent.futures import Future

        from repro.campaigns.report import ERROR, ScenarioResult
        from repro.obs.metrics import MetricsRegistry

        specs = ScenarioGenerator(5, profile="quick").generate(6)
        ok_chunk, lost_chunk, cancelled_chunk = (
            specs[:2], specs[2:4], specs[4:])
        finished = Future()  # what ``_pool_chunk`` returns: (results, counts)
        finished.set_result(([
            ScenarioResult(spec=spec, classification="safe-converged",
                           safe=True, converged=True)
            for spec in ok_chunk], MetricsRegistry().take()))
        failed = Future()
        failed.set_exception(RuntimeError("worker died mid-chunk"))
        cancelled = Future()
        cancelled.cancel()
        state = self._state()
        CampaignRunner._drain_inflight(
            {finished: ok_chunk, failed: lost_chunk,
             cancelled: cancelled_chunk}, state)
        report = state.aggregator.report(wall_clock_s=0.0, jobs=2,
                                         chunk_size=2, aborted="test")
        # Finished chunks contribute normally; the failed chunk appears
        # as one ERROR per submitted spec; cancelled work is excluded by
        # the documented budget semantics.
        assert report.scenario_count == len(ok_chunk) + len(lost_chunk)
        errors = [r for r in report.results if r.classification == ERROR]
        assert sorted(r.scenario_id for r in errors) == \
            sorted(s.scenario_id for s in lost_chunk)
        assert all("worker died mid-chunk" in r.error for r in errors)
        # Lost chunks are evidence: they land in the reproducer bucket.
        assert {r["scenario_id"] for r in report.reproducer_seeds()} >= \
            {s.scenario_id for s in lost_chunk}

    def test_pending_futures_are_not_consumed(self):
        from concurrent.futures import Future

        specs = ScenarioGenerator(5, profile="quick").generate(2)
        pending = Future()  # never completed: still queued at shutdown
        state = self._state()
        CampaignRunner._drain_inflight({pending: specs}, state)
        report = state.aggregator.report(wall_clock_s=0.0, jobs=2,
                                         chunk_size=2, aborted="test")
        assert report.scenario_count == 0


class TestStreaming:
    def test_specs_may_be_a_lazy_iterator(self):
        generator = ScenarioGenerator(7, profile="quick")
        report = CampaignRunner(CampaignConfig(jobs=1)).run(
            generator.iter_specs(9))
        assert report.scenario_count == 9

    def test_parallel_draws_from_the_stream_lazily(self):
        drawn = []

        def stream():
            generator = ScenarioGenerator(7, profile="quick")
            for spec in generator.iter_specs(10):
                drawn.append(spec.scenario_id)
                yield spec

        report = CampaignRunner(
            CampaignConfig(jobs=2, chunk_size=2)).run(stream())
        assert report.scenario_count == 10
        assert sorted(drawn) == list(range(10))

    def test_keep_results_false_still_counts_everything(self):
        specs = ScenarioGenerator(7, profile="quick").generate(10)
        full = CampaignRunner(CampaignConfig(jobs=1)).run(specs)
        lean = CampaignRunner(
            CampaignConfig(jobs=1, keep_results=False)).run(specs)
        assert lean.counters() == full.counters()
        assert lean.by_family() == full.by_family()
        assert lean.scenario_count == 10
        # Only reproducers survive; this fixed seed has none.
        assert lean.results == []
        assert "outcome counters" in lean.summary()


class TestMultiBackend:
    def test_differential_campaign_cross_checks_backends(self):
        report = CampaignRunner(CampaignConfig(
            jobs=1, backends=("gpv", "ndlog"), auto_batch=False)).run(
            ScenarioGenerator(7, profile="quick").generate(8))
        pairwise = report.pairwise_counters()
        assert set(pairwise) == {"analysis~gpv", "analysis~ndlog",
                                 "gpv~ndlog"}
        # Per-scenario, every backend got the same analysis verdict.
        assert pairwise["analysis~gpv"] == pairwise["analysis~ndlog"]
        statuses = pairwise["gpv~ndlog"]
        assert sum(statuses.values()) == 8
        assert not (set(statuses) & HARD_DIVERGENCES)
        assert report.backends == ("gpv", "ndlog")
        for result in report.results:
            assert [o.backend for o in result.outcomes] == ["gpv", "ndlog"]

    def test_auto_batch_appends_the_vectorized_backend(self):
        """Default routing: batch rides along last (scalar primary), and
        the supported scenarios it executed agree with the ground truth."""
        config = CampaignConfig(backends=("gpv",))
        assert config.backends == ("gpv", "batch")
        report = CampaignRunner(config).run(
            ScenarioGenerator(7, profile="quick").generate(10))
        pairwise = report.pairwise_counters()
        assert "gpv~batch" in pairwise
        statuses = pairwise["gpv~batch"]
        assert sum(statuses.values()) >= 1  # batch really ran somewhere
        assert not (set(statuses) & HARD_DIVERGENCES)
        for result in report.results:
            # The scalar backend stays primary on every scenario.
            assert result.outcomes[0].backend == "gpv"

    def test_auto_batch_escape_hatch(self):
        config = CampaignConfig(backends=("gpv",), auto_batch=False)
        assert config.backends == ("gpv",)
        # An explicit batch request is never duplicated.
        config = CampaignConfig(backends=("batch", "gpv"))
        assert config.backends == ("batch", "gpv")

    def test_parallel_differential_matches_serial(self):
        specs = ScenarioGenerator(11, profile="quick").generate(8)
        serial = CampaignRunner(CampaignConfig(
            jobs=1, backends=("gpv", "ndlog"))).run(specs)
        parallel = CampaignRunner(CampaignConfig(
            jobs=2, chunk_size=2, backends=("gpv", "ndlog"))).run(specs)
        assert serial.counters() == parallel.counters()
        assert serial.pairwise_counters() == parallel.pairwise_counters()

    def test_unknown_backend_is_a_config_error(self):
        with pytest.raises(ValueError, match="rapidnet"):
            CampaignConfig(backends=("gpv", "rapidnet"))


class TestReport:
    def test_counters_partition_the_results(self):
        report = CampaignRunner(CampaignConfig(jobs=1)).run(
            ScenarioGenerator(5, profile="quick").generate(20))
        assert sum(report.counters().values()) == report.scenario_count == 20
        family_total = sum(sum(buckets.values())
                           for buckets in report.by_family().values())
        assert family_total == 20

    def test_summary_reports_throughput_and_cache(self):
        report = CampaignRunner(CampaignConfig(jobs=1)).run(
            ScenarioGenerator(5, profile="quick").generate(10))
        text = report.summary()
        assert "scenarios/s" in text
        assert "cache hit rate" in text
