"""Crash accounting and resume on the one runner.

A pool worker that dies must not eat the report: every submitted spec is
accounted for, the lost ones as ``ERROR``.  And a campaign that was
interrupted or lost a worker is finished from its own JSONL file — the
result is the uninterrupted campaign's, at any ``jobs``.
"""

import json
import os

import pytest

from repro.campaigns import (
    ERROR,
    SAFE_DIVERGED,
    CampaignConfig,
    CampaignRunner,
    JsonlResultSink,
    ScenarioGenerator,
    oracle,
    read_results,
    result_record,
    runner,
)
from repro.obs import metrics


def _die_on_scenario_10(chunk, options=None):
    """``evaluate_chunk`` for a pool worker that dies mid-campaign."""
    if any(spec.scenario_id == 10 for spec in chunk):
        os._exit(9)
    return oracle.evaluate_chunk(chunk, options)


def _run(specs, path=None, *, resume=False, **config):
    """One campaign, streamed to ``path``; ``resume`` continues that file."""
    recorded = read_results(path) if resume else None
    sink = JsonlResultSink(path, append=resume) if path else None
    try:
        return CampaignRunner(CampaignConfig(**config)).run(
            specs, sink=sink, recorded=recorded)
    finally:
        if sink is not None:
            sink.close()


def _stable(record):
    return {key: value for key, value in record.items()
            if key not in ("elapsed_s", "cache_hit")}


def _digest(report):
    return (report.total_scenarios, report.class_counts,
            report.family_counts, report.pair_counts,
            report.reproducer_seeds())


class TestDeadWorker:
    def test_a_dead_pool_worker_does_not_eat_the_report(self, monkeypatch):
        monkeypatch.setattr(runner, "evaluate_chunk", _die_on_scenario_10)
        specs = ScenarioGenerator(7, families=("gadget",),
                                  profile="quick").generate(40)
        report = _run(specs, jobs=2, chunk_size=4)
        assert report.aborted == "worker process died"
        ids = [r.scenario_id for r in report.results]
        assert len(ids) == len(set(ids)) == report.scenario_count
        errors = {r.scenario_id for r in report.errors()}
        assert report.error_count == len(errors) > 0
        # The chunk that killed its worker — popped before its failure
        # was seen — and whatever else the broken pool took down: whole
        # chunks, each spec exactly once, every one a reproducer.
        assert errors >= {8, 9, 10, 11}
        assert all(r.error.startswith("chunk lost: BrokenProcessPool")
                   for r in report.errors())
        assert all({i - i % 4 + k for k in range(4)} <= errors
                   for i in errors)
        assert {seed["scenario_id"]
                for seed in report.reproducer_seeds()} == errors
        # Which other chunks were unfinished at that moment is a race; the
        # chunk whose completion freed the worker for the fatal one is not.
        assert set(ids) - errors

    def test_a_pool_that_breaks_under_a_finishing_sibling(self, monkeypatch):
        """The dead worker's chunk is still in flight when a sibling chunk
        finishes, so the next ``submit`` meets the broken pool: the run
        stops and the report holds every evaluated spec plus the dead
        chunk's ``chunk lost`` errors."""
        from concurrent.futures import Future
        from concurrent.futures.process import BrokenProcessPool

        class BreakingPool:
            """Chunk 1 runs on a worker that dies; chunks 2-4 finish at
            once; the 5th ``submit`` finds the pool broken, and the dead
            chunk fails only when the pool is shut down."""

            def __init__(self, max_workers, initializer):
                self.calls = 0
                self.dead = Future()

            def submit(self, fn, *args):
                self.calls += 1
                if self.calls == 5:
                    raise BrokenProcessPool("a child process terminated")
                if self.calls == 1:
                    self.dead.set_running_or_notify_cancel()
                    return self.dead
                future = Future()
                future.set_result(fn(*args))
                return future

            def shutdown(self, wait, cancel_futures):
                self.dead.set_exception(
                    BrokenProcessPool("a child process terminated"))

        monkeypatch.setattr(runner, "ProcessPoolExecutor", BreakingPool)
        specs = ScenarioGenerator(7, families=("gadget",),
                                  profile="quick").generate(40)
        report = _run(specs, jobs=2, chunk_size=4)
        assert report.aborted == "worker process died"
        assert sorted(r.scenario_id for r in report.results) == \
            list(range(16))
        assert sorted(r.scenario_id for r in report.errors()) == \
            [0, 1, 2, 3]
        assert all(r.error.startswith("chunk lost: BrokenProcessPool")
                   for r in report.errors())
        assert all(r.classification != ERROR for r in report.results
                   if r.scenario_id >= 4)

    def test_a_raising_chunk_is_lost_loudly_too(self, monkeypatch):
        def boom(chunk, options=None):
            raise RuntimeError("bug in the worker")

        monkeypatch.setattr(runner, "evaluate_chunk", boom)
        specs = ScenarioGenerator(7, families=("gadget",),
                                  profile="quick").generate(6)
        report = _run(specs, jobs=2, chunk_size=3)
        assert report.aborted == "worker process died"
        assert sorted(r.scenario_id for r in report.errors()) == \
            list(range(6))
        assert all("RuntimeError: bug in the worker" in r.error
                   for r in report.errors())


class TestDeterminismPin:
    def test_any_jobs_interrupted_or_crashed_is_one_campaign(
            self, tmp_path, monkeypatch):
        """jobs=1 ≡ jobs=2 ≡ interrupted + resumed ≡ crashed + resumed."""
        specs = ScenarioGenerator(7).generate(90)
        paths = {name: str(tmp_path / f"{name}.jsonl")
                 for name in ("serial", "pool", "interrupted", "crashed")}
        reports = {"serial": _run(specs, paths["serial"], jobs=1),
                   "pool": _run(specs, paths["pool"], jobs=2)}

        _run(specs[:37], paths["interrupted"], jobs=1)
        with open(paths["interrupted"], "rb+") as fh:
            fh.truncate(fh.seek(0, os.SEEK_END) - 25)  # killed mid-record
        reports["interrupted"] = _run(specs, paths["interrupted"],
                                      resume=True, jobs=1)
        assert reports["interrupted"].resumed_count == 36

        with monkeypatch.context() as patch:
            patch.setattr(runner, "evaluate_chunk", _die_on_scenario_10)
            crashed = _run(specs, paths["crashed"], jobs=2)
        assert crashed.aborted == "worker process died"
        lost = crashed.error_count
        assert lost >= 8
        reports["crashed"] = _run(specs, paths["crashed"], resume=True,
                                  jobs=2)
        assert reports["crashed"].resumed_count == \
            crashed.scenario_count - lost

        expected = _digest(reports["serial"])
        assert expected[0] == 90 and not reports["serial"].error_count
        wanted = {i: _stable(r)
                  for i, r in read_results(paths["serial"]).items()}
        assert sorted(wanted) == list(range(90))
        for name, report in reports.items():
            assert report.aborted is None, name
            assert _digest(report) == expected, name
            assert {i: _stable(r) for i, r
                    in read_results(paths[name]).items()} == wanted, name
        # The crashed file keeps its ERROR lines; last record wins.
        with open(paths["crashed"], encoding="utf-8") as fh:
            assert sum(1 for _ in fh) == 90 + lost


class TestResume:
    SPECS = ScenarioGenerator(7, families=("gadget", "caida"),
                              profile="quick").generate(12)

    def test_a_fully_recorded_campaign_evaluates_nothing(self, tmp_path,
                                                         monkeypatch):
        path = str(tmp_path / "r.jsonl")
        first = _run(self.SPECS, path, jobs=1)
        before = open(path, "rb").read()

        def forbidden(chunk, options=None):
            raise AssertionError("a recorded scenario was evaluated")

        monkeypatch.setattr(runner, "evaluate_chunk", forbidden)
        again = _run(self.SPECS, path, resume=True, jobs=1)
        assert _digest(again) == _digest(first)
        assert again.resumed_count == again.scenario_count == 12
        assert again.scenarios_per_second == 0.0
        assert "resumed: 12 of 12" in again.summary()
        assert open(path, "rb").read() == before

    def test_throughput_counts_only_this_runs_scenarios(self, tmp_path):
        path = str(tmp_path / "r.jsonl")
        _run(self.SPECS[:8], path, jobs=1)
        report = _run(self.SPECS, path, resume=True, jobs=1)
        assert "resumed: 8 of 12" in report.summary()
        assert report.scenarios_per_second == \
            pytest.approx(4 / report.wall_clock_s)
        # Replayed results go to the aggregator, not back into the file.
        with open(path, encoding="utf-8") as fh:
            assert sum(1 for _ in fh) == 12

    def test_error_records_are_evaluated_again(self, tmp_path):
        path = str(tmp_path / "r.jsonl")
        _run(self.SPECS, path, jobs=1)
        records = read_results(path)
        records[3] = dict(records[3], classification=ERROR,
                          error="chunk lost: BrokenProcessPool: ...")
        with open(path, "w", encoding="utf-8") as fh:
            for record in records.values():
                fh.write(json.dumps(record) + "\n")
        report = _run(self.SPECS, path, resume=True, jobs=1)
        assert report.resumed_count == 11 and not report.error_count
        assert read_results(path)[3]["classification"] != ERROR

    def test_another_campaigns_file_is_rejected_untouched(self, tmp_path):
        path = str(tmp_path / "r.jsonl")
        other = ScenarioGenerator(8, families=("gadget", "caida"),
                                  profile="quick").generate(12)
        _run(other[4:], path, jobs=1)
        before = open(path, "rb").read()
        with pytest.raises(ValueError, match="scenario 4 "):
            _run(self.SPECS, path, resume=True, jobs=1)
        assert open(path, "rb").read() == before

    def test_replayed_disagreements_count_toward_the_limit(self, tmp_path):
        path = str(tmp_path / "r.jsonl")
        _run(self.SPECS[:4], path, jobs=1)
        records = read_results(path)
        records[2] = dict(records[2], classification=SAFE_DIVERGED)
        with open(path, "w", encoding="utf-8") as fh:
            for record in records.values():
                fh.write(json.dumps(record) + "\n")
        for jobs in (1, 2):
            report = _run(self.SPECS, path, resume=True, jobs=jobs,
                          abort_on_disagreements=1)
            assert report.aborted == "disagreement limit reached (1)"
            assert report.scenario_count == report.resumed_count == 4
            assert report.disagreement_count == 1


class TestJsonlFile:
    def test_last_record_wins_and_a_torn_tail_is_dropped(self, tmp_path):
        path = tmp_path / "r.jsonl"
        spec = ScenarioGenerator(7, profile="quick").make(0)
        first = result_record(oracle.evaluate(spec))
        second = dict(first, stop_reason="second attempt")
        whole = json.dumps(first) + "\n" + json.dumps(second) + "\n"
        path.write_text(whole + json.dumps(first)[:40])
        assert read_results(str(path)) == {0: second}
        JsonlResultSink(str(path), append=True).close()
        assert path.read_text() == whole
        JsonlResultSink(str(path)).close()  # without append: truncated
        assert path.read_text() == ""

    def test_append_to_a_missing_or_newline_free_file(self, tmp_path):
        path = tmp_path / "r.jsonl"
        JsonlResultSink(str(path), append=True).close()
        assert path.read_text() == ""
        path.write_text('{"scenario_id": 0, "torn')
        JsonlResultSink(str(path), append=True).close()
        assert path.read_text() == ""


class TestPoolMetrics:
    def test_worker_snapshots_reach_the_watch_frame(self, capsys):
        """--jobs N --watch shows the campaign, not the parent's empty
        registry: each chunk carries its worker's snapshot back."""
        from repro.obs import metrics

        specs = ScenarioGenerator(7, families=("gadget",),
                                  profile="quick").generate(12)
        before = metrics.snapshot_family(metrics.snapshot(),
                                         "repro_scenarios_total")
        _run(specs, jobs=2, chunk_size=3, watch=True)
        frame = capsys.readouterr().err.rsplit("== campaign @", 1)[1]
        assert "evaluated: 12" in frame
        # Workers start from a zeroed registry, so the merged count is
        # this process's own (unchanged by a pool run) plus their 12.
        own = sum(entry["value"] for entry in before)
        assert f"scenarios {own + 12:g} " in frame
        # ... and why batch took none of them: the workers' typed
        # admission counts are in the merged snapshot too.
        refused = sum(
            entry["value"] for entry in metrics.snapshot_family(
                metrics.snapshot(), "repro_batch_admission_total")
            if entry["labels"]["reason"] == "path-valued-algebra")
        assert "batch admission by reason" in frame
        assert f"path-valued-algebra    {refused + 12:g}" in frame
        assert metrics.snapshot_family(
            metrics.snapshot(), "repro_scenarios_total") == before

    def test_an_older_snapshot_never_replaces_a_newer_one(self):
        """``wait`` returns finished futures as a set: when two chunks of
        one worker finish inside one ``wait``, the parent may collect the
        newer cumulative snapshot first — it must keep it."""
        import time
        from concurrent.futures import Future

        from repro.campaigns.sink import AggregatingSink

        def finished(seq, scenarios):
            registry = metrics.MetricsRegistry()
            registry.counter("repro_scenarios_total").inc(scenarios)
            future = Future()
            future.set_result(([], 4242, seq, registry.snapshot()))
            return future

        state = runner._RunState(
            started=time.perf_counter(),
            aggregator=AggregatingSink(backends=("gpv",)))
        for future in (finished(2, 6), finished(1, 3)):  # newest first
            assert runner._chunk_results(future, [], state) == []
        (seq, kept), = state.worker_snapshots.values()
        assert seq == 2
        assert metrics.snapshot_value(kept, "repro_scenarios_total") == 6
