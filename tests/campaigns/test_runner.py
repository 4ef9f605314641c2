"""CampaignRunner: serial/parallel equivalence, chunking, budgets,
multi-backend differential runs."""

import threading
import time

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

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("limit", [
        {"wall_clock_budget_s": 0.0}, {"abort_on_disagreements": 0}])
    def test_a_limit_that_has_fired_starts_no_chunk(self, jobs, limit):
        """One stop rule: a limit is checked before any chunk starts, so
        serial and pool runs stop alike — a zero budget or a zero
        disagreement limit evaluates nothing."""
        report = CampaignRunner(CampaignConfig(jobs=jobs, **limit)).run(
            ScenarioGenerator(1, profile="quick").generate(24))
        assert report.aborted in ("wall-clock budget exhausted",
                                  "disagreement limit reached (0)")
        assert report.scenario_count == 0


class ScriptedPool:
    """A stand-in ``ProcessPoolExecutor`` whose chunks end as scripted:
    ``script[i]`` is what happens to the i-th submitted chunk —
    ``"finish"`` (evaluated at once), ``"raise"`` (its worker raised),
    ``"running"`` (finishes during shutdown), ``"queued"`` (shutdown
    cancels it, as the real pool's ``cancel_futures`` does, unless
    ``cancels`` is off and it stays pending) or ``"late"`` (a worker
    picks it up once the budget's deadline has passed)."""

    def __init__(self, script, cancels=True):
        self.script, self.cancels, self.submitted = script, cancels, []
        self.workers = []

    def __call__(self, max_workers, initializer, initargs):
        return self

    def submit(self, fn, *args):
        from concurrent.futures import Future

        future = Future()
        step = self.script[len(self.submitted)]
        self.submitted.append((future, fn, args))
        if step == "finish":
            future.set_result(fn(*args))
        elif step == "raise":
            future.set_exception(RuntimeError("worker died mid-chunk"))
        elif step == "running":
            future.set_running_or_notify_cancel()
        elif step == "late":
            future.set_running_or_notify_cancel()
            worker = threading.Thread(target=self._late, args=(future, fn,
                                                              args))
            worker.start()
            self.workers.append(worker)
        return future

    @staticmethod
    def _late(future, fn, args):
        deadline = args[2]
        while time.monotonic() < deadline:
            time.sleep(0.01)
        future.set_result(fn(*args))

    def shutdown(self, wait, cancel_futures):
        for worker in self.workers:
            worker.join()
        for future, fn, args in self.submitted:
            if future.running():
                future.set_result(fn(*args))
            elif self.cancels and cancel_futures:
                future.cancel()


class TestAbortAccounting:
    """An aborted parallel run must account for every submitted chunk.

    The drain used to swallow failed chunks (``except Exception: pass``),
    so a worker that died during an abort silently vanished from the
    merged report.  Now a finished chunk is counted, a failed one is one
    ERROR result per spec it carried, and one still queued when the run
    stopped is never evaluated and not counted.
    """

    SPECS = ScenarioGenerator(5, profile="quick").generate(8)

    def _run(self, monkeypatch, pool):
        from repro.campaigns import runner

        monkeypatch.setattr(runner, "ProcessPoolExecutor", pool)
        return CampaignRunner(CampaignConfig(jobs=2, chunk_size=2)).run(
            self.SPECS)

    def test_failed_chunks_surface_as_error_results(self, monkeypatch):
        from repro.campaigns.report import ERROR

        report = self._run(monkeypatch, ScriptedPool(
            ["finish", "raise", "running", "queued"]))
        finished, lost, running = (self.SPECS[:2], self.SPECS[2:4],
                                   self.SPECS[4:6])
        assert report.aborted == "worker process died"
        # The finished chunk and the one that finished during shutdown
        # count normally; the failed chunk appears as one ERROR per
        # submitted spec; the cancelled chunk was never evaluated.
        assert sorted(r.scenario_id for r in report.results) == \
            [s.scenario_id for s in finished + lost + running]
        errors = [r for r in report.results if r.classification == ERROR]
        assert sorted(r.scenario_id for r in errors) == \
            sorted(s.scenario_id for s in lost)
        assert all("worker died mid-chunk" in r.error for r in errors)
        # Lost chunks are evidence: they land in the reproducer bucket.
        assert {r["scenario_id"] for r in report.reproducer_seeds()} >= \
            {s.scenario_id for s in lost}

    def test_pending_futures_are_not_consumed(self, monkeypatch):
        report = self._run(monkeypatch, ScriptedPool(
            ["raise", "queued", "queued", "queued"], cancels=False))
        assert sorted(r.scenario_id for r in report.errors()) == [0, 1]
        assert report.scenario_count == 2


class TestBudgetAfterTheLastSubmission:
    """A stream of at most ``jobs * _PIPELINE_DEPTH`` chunks is all
    submitted at once, so the check before each submission never runs
    again; a budget that is spent while those chunks wait for a worker
    must still stop the run and mark it aborted, as serially."""

    def test_a_budget_spent_behind_queued_chunks_is_reported(
            self, monkeypatch):
        from repro.campaigns import runner

        pool = ScriptedPool(["finish", "late", "late"])
        monkeypatch.setattr(runner, "ProcessPoolExecutor", pool)
        report = CampaignRunner(CampaignConfig(
            jobs=2, chunk_size=8, wall_clock_budget_s=0.5)).run(
            ScenarioGenerator(1, profile="quick").generate(24))
        assert len(pool.submitted) == 3  # the whole stream, at once
        assert report.scenario_count < 24
        assert report.aborted == "wall-clock budget exhausted"

    def test_a_short_real_budget_never_drops_scenarios_silently(self):
        report = CampaignRunner(CampaignConfig(
            jobs=2, chunk_size=8, wall_clock_budget_s=0.05)).run(
            ScenarioGenerator(1, profile="quick").generate(24))
        if report.scenario_count < 24:
            assert report.aborted == "wall-clock budget exhausted"


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
