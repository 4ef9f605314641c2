"""Tests for the command-line front end (repro.cli).

Exit-code convention under test: 0 = command ran and the verdict is good,
1 = analysis failure (unsafe verdict, non-convergence, disagreement) or a
rejected input, 2 = usage errors (raised by argparse as SystemExit).
"""

import pytest

from repro.cli import main


class TestAnalyze:
    def test_safe_gadget(self, capsys):
        assert main(["analyze", "good"]) == 0
        out = capsys.readouterr().out
        assert "SAFE" in out

    def test_unsafe_gadget_exits_nonzero_and_shows_core(self, capsys):
        assert main(["analyze", "figure3"]) == 1
        out = capsys.readouterr().out
        assert "NOT PROVED SAFE" in out
        assert "unsat core" in out

    def test_unsafe_bad_gadget_exits_nonzero(self, capsys):
        assert main(["analyze", "bad"]) == 1
        assert "NOT PROVED SAFE" in capsys.readouterr().out

    def test_unknown_gadget(self):
        with pytest.raises(SystemExit):
            main(["analyze", "nonsense"])

    def test_explain_reports_the_deciding_tier(self, capsys):
        assert main(["analyze", "good", "--explain"]) == 0
        out = capsys.readouterr().out
        assert "decided by: tier 1 (dispute-digraph)" in out
        assert "pipeline stages:" in out
        assert "tier 0 certificates" in out
        assert "tier 2" not in out  # the fast path never reached the solver

    def test_explain_keeps_the_unsafe_exit_code(self, capsys):
        assert main(["analyze", "figure3", "--explain"]) == 1
        out = capsys.readouterr().out
        assert "tier 1 dispute-digraph: decided" in out


class TestRun:
    def test_convergent_gadget(self, capsys):
        assert main(["run", "good", "--until", "10"]) == 0
        out = capsys.readouterr().out
        assert "converged" in out

    def test_divergent_gadget_exits_nonzero(self, capsys):
        assert main(["run", "bad", "--until", "2",
                     "--max-events", "20000"]) == 1
        out = capsys.readouterr().out
        assert "did not converge" in out


class TestModelcheck:
    def test_disagree_oscillation_exits_nonzero(self, capsys):
        assert main(["modelcheck", "disagree"]) == 1
        out = capsys.readouterr().out
        assert "stable solutions: 2" in out
        assert "oscillation trace" in out

    def test_good_async(self, capsys):
        assert main(["modelcheck", "good", "--mode", "async"]) == 0
        out = capsys.readouterr().out
        assert "stable solutions: 1" in out
        assert "no oscillation" in out


class TestAnalyzeConfig:
    def test_valid_file(self, tmp_path, capsys):
        path = tmp_path / "net.cfg"
        path.write_text("""
router a
  neighbor b customer
router b
  neighbor a provider
""")
        assert main(["analyze-config", str(path)]) == 0
        assert "2 router stanzas validated" in capsys.readouterr().out

    def test_with_destination(self, tmp_path, capsys):
        path = tmp_path / "net.cfg"
        path.write_text("""
router a
  neighbor b customer
  prefer b
router b
  neighbor a provider
""")
        code = main(["analyze-config", str(path), "--dest", "b"])
        out = capsys.readouterr().out
        assert "SPP" in out
        # Exit code mirrors the analysis verdict printed in the report.
        assert code == (0 if "SAFE (strictly monotonic)" in out else 1)

    def test_invalid_file(self, tmp_path, capsys):
        path = tmp_path / "net.cfg"
        path.write_text("router a\n  neighbor b customer\n")
        assert main(["analyze-config", str(path)]) == 1
        assert "rejected" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["analyze-config", "/nonexistent.cfg"]) == 1


class TestFigures:
    def test_fig4_quick(self, capsys):
        assert main(["figure", "fig4", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "chain" in out

    def test_fig6_quick(self, capsys):
        assert main(["figure", "fig6", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "HLP" in out

    def test_fig5_quick(self, capsys):
        assert main(["figure", "fig5", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "Gadget" in out


class TestCampaign:
    def test_small_campaign_reports_throughput(self, capsys):
        assert main(["campaign", "--scenarios", "10", "--seed", "7",
                     "--profile", "quick"]) == 0
        out = capsys.readouterr().out
        assert "scenarios/s" in out
        assert "outcome counters" in out
        assert "10 scenarios" in out

    def test_family_restriction(self, capsys):
        assert main(["campaign", "--scenarios", "6", "--seed", "3",
                     "--families", "gadget", "--profile", "quick"]) == 0
        out = capsys.readouterr().out
        assert "gadget" in out
        assert "rocketfuel" not in out

    def test_budget_abort_is_reported(self, capsys):
        assert main(["campaign", "--scenarios", "8", "--seed", "1",
                     "--profile", "quick", "--budget-s", "0"]) == 0
        out = capsys.readouterr().out
        assert "aborted early" in out

    def test_errored_scenarios_fail_the_gate(self, monkeypatch, capsys):
        """ERROR scenarios are ones the differential check never ran on —
        the campaign gate must not report success over them."""
        import repro.campaigns as campaigns
        from repro.campaigns import (
            ERROR,
            AggregatingSink,
            ScenarioResult,
            ScenarioSpec,
        )

        spec = ScenarioSpec(scenario_id=0, family="gadget", algebra="spp",
                            seed=0, until=1.0, max_events=1)
        sink = AggregatingSink()
        sink.accept(ScenarioResult(spec=spec, classification=ERROR,
                                   error="boom"))
        report = sink.report(wall_clock_s=0.1, jobs=1, chunk_size=1,
                             aborted=None)
        monkeypatch.setattr(campaigns, "run_campaign",
                            lambda *args, **kwargs: report)
        assert main(["campaign", "--scenarios", "1"]) == 1
        assert "errors: 1" in capsys.readouterr().out

    def test_zero_evaluated_scenarios_fail_the_gate(self, monkeypatch,
                                                    capsys):
        """A budget abort before any chunk returns evaluates nothing; the
        gate must not go green over an empty report."""
        import repro.campaigns as campaigns
        from repro.campaigns import AggregatingSink

        report = AggregatingSink().report(
            wall_clock_s=0.01, jobs=1, chunk_size=1,
            aborted="wall-clock budget exhausted")
        monkeypatch.setattr(campaigns, "run_campaign",
                            lambda *args, **kwargs: report)
        assert main(["campaign", "--scenarios", "16"]) == 1
        assert "zero scenarios" in capsys.readouterr().err

    def test_invalid_jobs_is_a_clean_usage_error(self, capsys):
        assert main(["campaign", "--scenarios", "2", "--jobs", "0"]) == 2
        assert "rejected" in capsys.readouterr().err

    def test_zero_scenarios_is_a_usage_error(self, capsys):
        """An empty campaign would be a vacuously green gate."""
        assert main(["campaign", "--scenarios", "0"]) == 2
        assert "rejected" in capsys.readouterr().err

    def test_unknown_family_is_a_usage_error(self, capsys):
        assert main(["campaign", "--families", "nonsense"]) == 2
        assert "rejected" in capsys.readouterr().err

    def test_unknown_profile_is_a_usage_error(self, capsys):
        assert main(["campaign", "--scenarios", "2",
                     "--profile", "warp"]) == 2
        assert "rejected" in capsys.readouterr().err

    def test_unknown_command_is_a_usage_error(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestCampaignBackends:
    def test_three_way_differential_campaign(self, capsys):
        assert main(["campaign", "--scenarios", "8", "--seed", "7",
                     "--profile", "quick",
                     "--backends", "gpv,ndlog"]) == 0
        out = capsys.readouterr().out
        assert "backends=gpv,ndlog" in out
        assert "gpv~ndlog" in out
        assert "DIVERGENCES" not in out

    def test_unknown_backend_is_a_usage_error(self, capsys):
        assert main(["campaign", "--scenarios", "2",
                     "--backends", "gpv,rapidnet"]) == 2
        assert "rapidnet" in capsys.readouterr().err

    def test_stream_out_writes_jsonl(self, tmp_path, capsys):
        import json

        path = tmp_path / "results.jsonl"
        assert main(["campaign", "--scenarios", "6", "--seed", "7",
                     "--profile", "quick",
                     "--stream-out", str(path)]) == 0
        records = [json.loads(line)
                   for line in path.read_text().splitlines()]
        assert sorted(r["scenario_id"] for r in records) == list(range(6))
        assert all("spec" in r for r in records)

    def test_stream_out_unwritable_is_a_usage_error(self, tmp_path, capsys):
        assert main(["campaign", "--scenarios", "2",
                     "--stream-out", str(tmp_path / "no" / "dir.jsonl")]) == 2
        assert "stream-out" in capsys.readouterr().err

    def test_verdict_cache_persists_across_invocations(self, tmp_path,
                                                       capsys):
        from repro.campaigns import clear_verdict_cache, configure_verdict_store

        path = str(tmp_path / "verdicts.sqlite")
        args = ["campaign", "--scenarios", "6", "--seed", "7",
                "--profile", "quick", "--families", "gadget",
                "--verdict-cache", path]
        try:
            clear_verdict_cache()           # cold memo: all solves hit the
            configure_verdict_store(None)   # store, none ride the memo
            assert main(args) == 0
            capsys.readouterr()
            clear_verdict_cache()           # simulate a fresh process
            configure_verdict_store(None)
            assert main(args) == 0
            assert "cache hit rate: 100%" in capsys.readouterr().out
        finally:
            configure_verdict_store(None)
            clear_verdict_cache()

    def test_sharded_invocations_stride_the_stream(self, capsys):
        assert main(["campaign", "--scenarios", "10", "--seed", "7",
                     "--profile", "quick",
                     "--shard-index", "1", "--shard-count", "2"]) == 0
        assert "5 scenarios" in capsys.readouterr().out

    def test_bad_shard_arguments_are_a_usage_error(self, capsys):
        assert main(["campaign", "--scenarios", "4",
                     "--shard-index", "3", "--shard-count", "2"]) == 2
        assert "shard" in capsys.readouterr().err


class TestCampaignFamilies:
    def test_comma_separated_families(self, capsys):
        assert main(["campaign", "--scenarios", "4", "--seed", "7",
                     "--profile", "quick",
                     "--families", "hlp,multipath",
                     "--backends", "gpv,ndlog,hlp"]) == 0
        out = capsys.readouterr().out
        assert "hlp" in out and "multipath" in out
        assert "DIVERGENCES" not in out

    def test_space_separated_families_still_work(self, capsys):
        assert main(["campaign", "--scenarios", "4", "--seed", "7",
                     "--profile", "quick",
                     "--families", "hlp", "multipath"]) == 0
        out = capsys.readouterr().out
        assert "hlp" in out and "multipath" in out

    def test_unknown_family_in_comma_list_is_a_usage_error(self, capsys):
        assert main(["campaign", "--scenarios", "2",
                     "--families", "hlp,nonsense"]) == 2
        assert "nonsense" in capsys.readouterr().err


class TestVerdictsCommand:
    def _populated_store(self, tmp_path, capsys):
        from repro.campaigns import clear_verdict_cache, configure_verdict_store

        path = str(tmp_path / "verdicts.sqlite")
        args = ["campaign", "--scenarios", "6", "--seed", "7",
                "--profile", "quick", "--families", "gadget",
                "--verdict-cache", path]
        try:
            clear_verdict_cache()
            configure_verdict_store(None)
            assert main(args) == 0
            clear_verdict_cache()           # fresh process: hits touch rows
            configure_verdict_store(None)
            assert main(args) == 0
        finally:
            configure_verdict_store(None)
            clear_verdict_cache()
        capsys.readouterr()
        return path

    def test_stats_reports_hits(self, tmp_path, capsys):
        path = self._populated_store(tmp_path, capsys)
        assert main(["verdicts", path, "--stats"]) == 0
        out = capsys.readouterr().out
        assert "verdicts:" in out
        assert "hits:" in out
        assert "hottest:" in out

    def test_stats_counts_raw_fallback_keys(self, tmp_path, capsys):
        """Rows keyed by a name-faithful fallback can never be hit across
        a relabeling: ``--stats`` says how many there are, in both
        formats, counting a raw rendering nested in a product too."""
        import json

        from repro.campaigns import VerdictStore

        path = self._populated_store(tmp_path, capsys)
        store = VerdictStore(path)
        store.put("('spp-raw', 'd', (), ())", True, "smt")
        store.put("('product', ('table-raw', ()), ('closed', 'X'))",
                  True, "smt")
        store.close()
        assert main(["verdicts", path, "--stats"]) == 0
        assert "raw keys: 1 spp-raw, 1 table-raw" in capsys.readouterr().out
        assert main(["verdicts", path, "--stats", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["store"]["raw_keys"] == {"spp-raw": 1, "table-raw": 1}

    def test_missing_store_is_rejected(self, tmp_path, capsys):
        assert main(["verdicts", str(tmp_path / "absent.sqlite")]) == 1
        assert "no such file" in capsys.readouterr().err


def _die_on_scenario_10(chunk, options=None):
    import os

    from repro.campaigns import oracle
    if any(spec.scenario_id == 10 for spec in chunk):
        os._exit(9)
    return oracle.evaluate_chunk(chunk, options)


class TestCampaignResume:
    ARGS = ["campaign", "--scenarios", "24", "--seed", "7",
            "--families", "gadget,caida", "--profile", "quick"]

    def test_resume_needs_the_stream_out_file(self, capsys):
        assert main(self.ARGS + ["--resume"]) == 2
        assert "--stream-out" in capsys.readouterr().err

    def test_dead_worker_exits_1_with_the_report_then_resumes(
            self, tmp_path, monkeypatch, capsys):
        from repro.campaigns import runner

        path = str(tmp_path / "r.jsonl")
        args = self.ARGS + ["--jobs", "2", "--chunk-size", "4",
                            "--stream-out", path]
        with monkeypatch.context() as patch:
            patch.setattr(runner, "evaluate_chunk", _die_on_scenario_10)
            assert main(args) == 1
        out = capsys.readouterr().out
        assert "aborted early: worker process died" in out
        assert "chunk lost: BrokenProcessPool" in out
        assert main(args + ["--resume"]) == 0
        out = capsys.readouterr().out
        assert "campaign: 24 scenarios" in out and "resumed: " in out
        assert "aborted" not in out and "errors" not in out

    def test_interrupted_run_resumes_to_the_whole_campaign(self, tmp_path,
                                                           capsys):
        path = str(tmp_path / "r.jsonl")
        args = self.ARGS + ["--stream-out", path]
        assert main(args + ["--budget-s", "0"]) == 0
        assert "aborted early" in capsys.readouterr().out
        assert main(args + ["--resume"]) == 0
        resumed = capsys.readouterr().out
        assert "resumed: 8 of 24" in resumed
        assert main(self.ARGS) == 0
        fresh = capsys.readouterr().out
        tables = [text[text.index("  outcome counters:"):]
                  for text in (resumed, fresh)]
        assert tables[0] == tables[1]

    def test_another_campaigns_file_is_a_usage_error(self, tmp_path, capsys):
        path = tmp_path / "r.jsonl"
        assert main(self.ARGS + ["--stream-out", str(path)]) == 0
        before = path.read_bytes()
        capsys.readouterr()
        assert main(["campaign", "--scenarios", "24", "--seed", "8",
                     "--families", "gadget,caida", "--profile", "quick",
                     "--stream-out", str(path), "--resume"]) == 2
        assert "cannot resume" in capsys.readouterr().err
        assert path.read_bytes() == before
        path.write_text("not json\n")
        assert main(self.ARGS + ["--stream-out", str(path),
                                 "--resume"]) == 2
        assert path.read_text() == "not json\n"
