"""Differential oracle: classification, caching, error containment."""

import pytest

from repro.campaigns import (
    ERROR,
    FALSE_POSITIVE,
    SAFE_CONVERGED,
    SAFE_DIVERGED,
    UNSAFE_DIVERGED,
    ScenarioSpec,
    build_gadget_instance,
    classify,
    clear_verdict_cache,
    evaluate,
    materialize,
    perturb_rankings,
    verdict_cache_size,
)


def gadget_spec(kind: str, *, seed: int = 1, **params) -> ScenarioSpec:
    all_params = (("gadget", kind),) + tuple(sorted(params.items()))
    return ScenarioSpec(scenario_id=0, family="gadget", algebra="spp",
                        seed=seed, until=30.0, max_events=20_000,
                        params=all_params)


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_verdict_cache()
    yield
    clear_verdict_cache()


class TestClassify:
    def test_truth_table(self):
        assert classify(True, True) == SAFE_CONVERGED
        assert classify(True, False) == SAFE_DIVERGED
        assert classify(False, False) == UNSAFE_DIVERGED
        assert classify(False, True) == FALSE_POSITIVE


class TestKnownGadgets:
    def test_good_gadget_agrees_safe(self):
        result = evaluate(gadget_spec("good"))
        assert result.classification == SAFE_CONVERGED
        assert result.safe and result.converged
        assert result.stop_reason == "quiescent"

    def test_bad_gadget_agrees_unsafe(self):
        result = evaluate(gadget_spec("bad"))
        assert result.classification == UNSAFE_DIVERGED
        assert not result.safe and not result.converged

    def test_disagree_oscillates_under_per_change_advertisement(self):
        """Message-driven DISAGREE flips on every received update, so with
        per-change advertisements over the ordered transport the pair
        stays in lockstep — the async oscillation the model checker
        exhibits."""
        result = evaluate(gadget_spec("disagree"))
        assert result.classification == UNSAFE_DIVERGED
        assert not result.safe and not result.converged

    def test_batched_disagree_is_the_documented_false_positive(self):
        """Under periodic (MRAI-style) advertisement the desynchronized
        timers coalesce one endpoint's flip away and DISAGREE wedges into
        a stable state: analysis says unsafe, execution converges — the
        paper's canonical false positive (Sec. IV-A)."""
        result = evaluate(gadget_spec("disagree", batch_interval=0.05))
        assert result.classification == FALSE_POSITIVE
        assert not result.safe and result.converged

    def test_figure3_fixed_agrees_safe(self):
        result = evaluate(gadget_spec("figure3-fixed"))
        assert result.classification == SAFE_CONVERGED


class TestVerdictCache:
    def test_second_evaluation_hits_the_cache(self):
        spec = gadget_spec("good")
        first = evaluate(spec)
        second = evaluate(spec)
        assert not first.cache_hit
        assert second.cache_hit
        assert verdict_cache_size() == 1

    def test_cache_keys_see_through_renaming(self):
        # replicate() renames nodes, so two different gadgets share nothing;
        # but the same gadget kind under different scenario seeds shares the
        # exact constraint system and must hit.
        first = evaluate(gadget_spec("bad", seed=1))
        second = evaluate(gadget_spec("bad", seed=999))
        assert not first.cache_hit
        assert second.cache_hit


class TestMaterialization:
    def test_materialize_is_deterministic(self):
        spec = gadget_spec("chain", pairs=3, conflict=0.5, perturb=0.8)
        a = materialize(spec)
        b = materialize(spec)
        assert a.analysis_subject.permitted == b.analysis_subject.permitted
        assert sorted(a.network.nodes()) == sorted(b.network.nodes())

    def test_perturbation_keeps_path_sets(self):
        import random

        base = build_gadget_instance(gadget_spec("figure3"))
        shuffled = perturb_rankings(base, 1.0, random.Random(0))
        for node, paths in base.permitted.items():
            assert sorted(shuffled.permitted[node]) == sorted(paths)
        assert shuffled.edges == base.edges

    def test_unknown_family_is_contained_as_error(self):
        spec = ScenarioSpec(scenario_id=0, family="warp", algebra="spp",
                            seed=0, until=1.0, max_events=10)
        result = evaluate(spec)
        assert result.classification == ERROR
        assert "warp" in result.error

    def test_ibgp_scenario_defers_analysis_to_extraction(self):
        spec = ScenarioSpec(
            scenario_id=0, family="ibgp", algebra="igp-cost", seed=4,
            until=6.0, max_events=20_000,
            params=(("routers", 14), ("links", 30), ("levels", 2),
                    ("reflector_count", 4), ("egress_count", 3),
                    ("embed_gadget", False)))
        scenario = materialize(spec)
        assert scenario.analysis_subject is None
        assert scenario.extract_dest
        result = evaluate(spec)
        assert result.classification in (SAFE_CONVERGED, FALSE_POSITIVE)

    def test_only_the_primary_session_keeps_a_route_log(self, monkeypatch):
        """Extraction reads the primary's log alone, so a ``gpv,ndlog``
        evaluation of an iBGP spec gives NDlog, run second, none."""
        from repro.campaigns import ScenarioGenerator
        from repro.exec.gpv import GPVBackend
        from repro.exec.ndlog import NDlogBackend

        sessions = []

        def recording(prepare):
            def wrapper(self, scenario, *, seed=0):
                sessions.append(prepare(self, scenario, seed=seed))
                return sessions[-1]
            return wrapper

        for backend in (GPVBackend, NDlogBackend):
            monkeypatch.setattr(backend, "prepare",
                                recording(backend.prepare))
        spec = ScenarioGenerator(7, families=("ibgp",),
                                 profile="quick").generate(1)[0]
        result = evaluate(spec, backends=("gpv", "ndlog"))
        assert result.safe is not None, result.error
        assert [type(s).__name__ for s in sessions] == ["GPVSession",
                                                        "NDlogSession"]
        assert sessions[0].sim.stats.route_log
        assert sessions[1].sim.stats.route_log is None

    def test_a_serial_campaign_keeps_no_send_log(self, monkeypatch):
        """Only the bandwidth figures read the send log, so no session a
        campaign builds keeps one — on any family or scalar backend."""
        from repro.campaigns import (CampaignConfig, CampaignRunner,
                                     ScenarioGenerator)
        from repro.exec.gpv import GPVBackend
        from repro.exec.hlp import HLPBackend
        from repro.exec.ndlog import NDlogBackend

        sessions = []

        def recording(prepare):
            def wrapper(self, scenario, *, seed=0):
                sessions.append(prepare(self, scenario, seed=seed))
                return sessions[-1]
            return wrapper

        for backend in (GPVBackend, NDlogBackend, HLPBackend):
            monkeypatch.setattr(backend, "prepare",
                                recording(backend.prepare))
        specs = ScenarioGenerator(7, profile="quick").generate(10)
        report = CampaignRunner(CampaignConfig(
            jobs=1, backends=("gpv", "ndlog", "hlp"))).run(specs)
        assert report.scenario_count == 10 and not report.error_count
        assert {type(s).__name__ for s in sessions} == {
            "GPVSession", "NDlogSession", "HLPSession"}
        assert all(s.sim.stats.messages_sent for s in sessions)
        assert all(s.sim.stats.send_log is None for s in sessions)

    def test_ibgp_trace_splits_the_verdict_into_key_and_solve(
            self, tmp_path, capsys):
        """``repro trace show`` must tell keying from solving: the
        extraction's verdict span has a ``verdict:key`` child (the
        canonical rendering) and a ``verdict:solve`` child (memo, store,
        analyzer tiers)."""
        from repro.cli import main
        from repro.obs.trace import configure_tracing, spans_for_scenario

        spec = ScenarioSpec(
            scenario_id=3, family="ibgp", algebra="igp-cost", seed=4,
            until=6.0, max_events=20_000,
            params=(("routers", 14), ("links", 30), ("levels", 2),
                    ("reflector_count", 4), ("egress_count", 3),
                    ("embed_gadget", False)))
        configure_tracing(str(tmp_path), worker="t")
        try:
            assert not evaluate(spec).error
        finally:
            configure_tracing(None)
        spans = {s["name"]: s for s in spans_for_scenario(str(tmp_path), 3)}
        verdict = spans["analysis:verdict"]
        assert verdict["attrs"]["extracted"] is True
        assert verdict["attrs"]["verdict_tier"] == "solved"
        assert spans["verdict:key"]["parent_id"] == verdict["span_id"]
        assert spans["verdict:solve"]["parent_id"] == verdict["span_id"]
        assert spans["analysis:tier1"]["parent_id"] == \
            spans["verdict:solve"]["span_id"]
        assert "analysis:tier0" not in spans
        assert main(["trace", "show", "3", "--trace-dir", str(tmp_path)]) == 0
        shown = capsys.readouterr().out
        assert "verdict:key" in shown and "verdict:solve" in shown


class TestBackendCounters:
    def test_a_two_scenario_campaign_leaves_gpv_seconds_and_messages(self):
        """µs per message must be a quotient of two registry counters."""
        from repro.campaigns import CampaignConfig, CampaignRunner
        from repro.obs import metrics

        def gpv_counters() -> dict:
            snap = metrics.snapshot()

            def read(name, **labels):
                return metrics.snapshot_value(snap, name, backend="gpv",
                                              **labels)
            counters = {outcome: read("repro_backend_runs_total",
                                      outcome=outcome)
                        for outcome in ("converged", "diverged", "declined")}
            counters["seconds"] = read("repro_backend_seconds_total")
            counters["messages"] = read("repro_backend_messages_total")
            return counters

        before = gpv_counters()
        report = CampaignRunner(CampaignConfig(jobs=1, backends=("gpv",))).run(
            [gadget_spec("good"), gadget_spec("bad")])
        delta = {name: value - before[name]
                 for name, value in gpv_counters().items()}
        assert delta["seconds"] > 0
        assert delta["messages"] == sum(
            result.outcomes[0].messages for result in report.results) > 0
        assert (delta["converged"], delta["diverged"],
                delta["declined"]) == (1, 1, 0)


class TestEvents:
    def test_link_failure_mid_convergence_stays_consistent(self):
        from repro.campaigns import LinkEventSpec

        spec = ScenarioSpec(
            scenario_id=0, family="hierarchy", algebra="gr-a-hopcount",
            seed=12, until=60.0, max_events=120_000,
            params=(("depth", 3), ("branching", 2), ("max_nodes", 20),
                    ("destinations", 2)),
            events=(LinkEventSpec(time=0.15, kind="fail", link_index=3),
                    LinkEventSpec(time=0.3, kind="fail", link_index=9)))
        result = evaluate(spec)
        # The composed policy is provably safe: failures may change the
        # routing outcome but never the convergence guarantee.
        assert result.classification == SAFE_CONVERGED, result.describe()

    def test_perturb_does_not_suppress_fail_on_the_same_link(self):
        from repro.campaigns import LinkEventSpec

        spec = ScenarioSpec(
            scenario_id=0, family="rocketfuel", algebra="shortest-path",
            seed=5, until=60.0, max_events=120_000,
            params=(("routers", 10), ("links", 24), ("weights", (2, 9)),
                    ("destinations", 1)),
            events=(LinkEventSpec(time=0.1, kind="perturb", link_index=7,
                                  weight=2),
                    LinkEventSpec(time=0.3, kind="fail", link_index=7)))
        scenario = materialize(spec)
        assert [e.kind for e in scenario.events] == ["perturb", "fail"]
        assert evaluate(spec).classification == SAFE_CONVERGED

    def test_metric_perturbation_on_shortest_path(self):
        from repro.campaigns import LinkEventSpec

        spec = ScenarioSpec(
            scenario_id=0, family="rocketfuel", algebra="shortest-path",
            seed=5, until=60.0, max_events=120_000,
            params=(("routers", 10), ("links", 24), ("weights", (2, 9)),
                    ("destinations", 1)),
            events=(LinkEventSpec(time=0.2, kind="perturb", link_index=7,
                                  weight=9),))
        result = evaluate(spec)
        assert result.classification == SAFE_CONVERGED, result.describe()


#: ``(family, outcome, reason) -> scenarios`` over the first 90 specs of
#: ``ScenarioGenerator(7)``; the quick profile draws the same algebras.
ADMISSION_TABLE = {
    ("gadget", "refused", "path-valued-algebra"): 9,
    ("hlp", "refused", "path-valued-algebra"): 9,
    ("ibgp", "refused", "post-run-extraction"): 9,
    ("multipath", "refused", "multipath"): 9,
    ("caida", "refused", "not-strictly-monotonic"): 3,
    ("hierarchy", "refused", "not-strictly-monotonic"): 4,
    ("caida", "admitted", "none"): 6,
    ("hierarchy", "admitted", "none"): 5,
    ("rocketfuel", "admitted", "none"): 9,
    ("secure-hijack", "admitted", "none"): 9,
    ("secure-rov", "admitted", "none"): 9,
    ("tau-sweep", "admitted", "none"): 9,
}


class TestOneBatchPath:
    """The chunk pass is the only way a batch outcome is produced: one
    materialization, one admission and one vectorized run per chunk, a
    direct ``evaluate`` being a chunk of one; run-time declines are
    final and anything else that goes wrong in the pass is loud."""

    @staticmethod
    def chunk():
        """One rotation of the ten families: batch admits some (the
        secure families, rocketfuel, tau-sweep) and refuses others
        (gadget, iBGP, multipath, hlp)."""
        from repro.campaigns import ScenarioGenerator

        return list(ScenarioGenerator(7, profile="quick").iter_specs(10))

    @staticmethod
    def comparable(result):
        from dataclasses import replace

        return replace(result, elapsed_s=0.0, cache_hit=False)

    @staticmethod
    def count_calls(monkeypatch, owner, name):
        calls = []
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
        return calls

    @staticmethod
    def force_declines(monkeypatch, *, error=None):
        """Every relaxation group declines at run time (or raises
        ``error``)."""
        import repro.exec.batch as batch_mod

        def bail(_group):
            raise error or batch_mod.BatchDeclined("forced for test")

        monkeypatch.setattr(batch_mod, "_relax_group", bail)

    def test_each_spec_is_materialized_and_admitted_once(self, monkeypatch):
        from repro.campaigns import evaluate_chunk
        from repro.campaigns import oracle
        from repro.exec.batch import BatchBackend, VectorizedBatchSession

        specs = self.chunk()
        materialized = self.count_calls(monkeypatch, oracle, "materialize")
        admissions = self.count_calls(monkeypatch, BatchBackend, "supports")
        runs = self.count_calls(monkeypatch, VectorizedBatchSession, "run")
        results = evaluate_chunk(specs, backends=("gpv", "batch"))
        assert [args[0] for args in materialized] == specs
        assert [args[1].spec for args in admissions] == specs
        assert len(runs) == 1
        batched = [r for r in results
                   if [o.backend for o in r.outcomes] == ["gpv", "batch"]]
        assert 3 <= len(batched) < len(specs)

        # Still once with more scalar backends: every session after the
        # first owns a copy of the one materialization's network.
        from repro.net.network import Network
        del materialized[:], admissions[:]
        copies = self.count_calls(monkeypatch, Network, "copy")
        results = evaluate_chunk(specs, backends=("gpv", "ndlog", "hlp", "batch"))
        live_scalar = [sum(o.backend != "batch" for o in r.outcomes)
                       for r in results]
        assert set(live_scalar) == {2, 3}  # hlp joins on its own family
        assert [args[0] for args in materialized] == specs
        assert len(copies) == sum(live_scalar) - len(specs)
        assert len(admissions) == len(specs)

    def test_admission_scans_and_keys_each_scenario_once(self, monkeypatch):
        """One pass, one lookup: over a 90-spec campaign every scenario
        that reaches the topology scan is scanned once and keyed once —
        by admission — and the vectorized run does neither."""
        import repro.exec.batch as batch_mod
        from repro.campaigns import (
            CampaignConfig,
            CampaignRunner,
            ScenarioGenerator,
        )

        in_run = []
        calls = {"scan": [], "key": [], "inside run": []}

        def counted(kind, original):
            def wrapper(scenario, *args):
                calls["inside run" if in_run else kind].append(
                    scenario.spec.scenario_id)
                return original(scenario, *args)
            return wrapper

        run = batch_mod.VectorizedBatchSession.run

        def flagged_run(session, **kwargs):
            in_run.append(True)
            try:
                return run(session, **kwargs)
            finally:
                in_run.pop()

        monkeypatch.setattr(batch_mod, "_scan_topology",
                            counted("scan", batch_mod._scan_topology))
        monkeypatch.setattr(batch_mod, "kernel_key_of",
                            counted("key", batch_mod.kernel_key_of))
        monkeypatch.setattr(batch_mod.VectorizedBatchSession, "run",
                            flagged_run)
        report = CampaignRunner(CampaignConfig(jobs=1)).run(
            ScenarioGenerator(7, profile="quick").generate(90))
        batched = sum("gpv~batch" in {pair.pair for pair in r.pairwise}
                      for r in report.results)
        assert batched >= 40
        assert len(calls["scan"]) == len(set(calls["scan"])) >= batched
        assert calls["key"] == calls["scan"]
        assert calls["inside run"] == []

    def test_admission_table_pin(self):
        """The floor every later batch PR is read against: who is
        admitted, who is refused and why, over the first 90 specs of the
        default and the quick rotation (seed 7).  No run-time decline
        falls in either window (10 hazard ties in the first 900)."""
        import collections

        from repro.campaigns import (
            CampaignConfig,
            CampaignRunner,
            ScenarioGenerator,
        )
        from repro.exec.batch import clear_kernel_cache
        from repro.obs import metrics

        def table():
            return collections.Counter({
                tuple(dict(labels)[key]
                      for key in ("family", "outcome", "reason")):
                    int(metric.value)
                for labels, metric in metrics.get_registry().family(
                    "repro_batch_admission_total").items()})

        for profile in ("default", "quick"):
            clear_kernel_cache()  # a cached refusal must not be a store's
            before = table()
            report = CampaignRunner(CampaignConfig(jobs=1)).run(
                ScenarioGenerator(7, profile=profile).generate(90))
            assert report.error_count == 0
            assert table() - before == ADMISSION_TABLE, profile

    def test_direct_evaluate_is_a_chunk_of_one(self, monkeypatch):
        from repro.campaigns import evaluate_chunk

        backends = ("gpv", "batch")
        specs = self.chunk()
        by_family = {spec.family: spec for spec in specs}
        admitted, refused = by_family["rocketfuel"], by_family["ibgp"]
        for spec, ran in ((admitted, ["gpv", "batch"]), (refused, ["gpv"])):
            direct = evaluate(spec, backends)
            assert [o.backend for o in direct.outcomes] == ran
            assert not direct.error
            assert self.comparable(direct) == \
                self.comparable(evaluate_chunk([spec], backends)[0])
        self.force_declines(monkeypatch)
        declined = evaluate(admitted, backends)
        assert [o.backend for o in declined.outcomes] == ["gpv"]
        assert self.comparable(declined) == \
            self.comparable(evaluate_chunk([admitted], backends)[0])

    def test_a_runtime_decline_is_final_and_keeps_the_scalar_result(
            self, monkeypatch):
        from repro.campaigns import evaluate_chunk
        from repro.campaigns import oracle
        from repro.exec.batch import VectorizedBatchSession

        specs = self.chunk()
        scalar_only = evaluate_chunk(specs, backends=("gpv",))
        self.force_declines(monkeypatch)
        materialized = self.count_calls(monkeypatch, oracle, "materialize")
        runs = self.count_calls(monkeypatch, VectorizedBatchSession, "run")
        results = evaluate_chunk(specs, backends=("gpv", "batch"))
        assert len(runs) == 1 and len(materialized) == len(specs)
        assert all([o.backend for o in r.outcomes] == ["gpv"]
                   for r in results)
        assert list(map(self.comparable, results)) == \
            list(map(self.comparable, scalar_only))

    def test_a_bug_in_the_batch_pass_is_an_error_not_a_scalar_result(
            self, monkeypatch):
        from repro.campaigns import evaluate_chunk

        backends = ("gpv", "batch")
        specs = self.chunk()
        healthy = evaluate_chunk(specs, backends)
        admitted = {r.scenario_id for r in healthy if len(r.outcomes) == 2}
        assert admitted
        self.force_declines(monkeypatch, error=TypeError("kernel bug"))
        results = evaluate_chunk(specs, backends)
        assert sum(r.classification == ERROR for r in results) == \
            len(admitted)
        for result, reference in zip(results, healthy):
            if result.scenario_id in admitted:
                assert result.classification == ERROR
                assert result.error.startswith("TypeError: kernel bug\n")
                assert "Traceback" in result.error
                assert not result.outcomes
            else:
                assert self.comparable(result) == self.comparable(reference)

    def test_a_raising_admission_errs_alone(self, monkeypatch):
        """A bug that only admission can reach — ``rank_key`` failing on
        a hop count past any path of the topology, which the closure
        tabulates and scalar GPV never compares — is that spec's
        ``ERROR``, not a silent refusal; the rest of the chunk is
        evaluated, cross-checks included.  On the 14-router topology a
        simple path has at most 13 hops, as many as the analyzer's spot
        check reaches, while the depth-13 closure grows the one-hop
        origin to hop 14."""
        from repro.algebra.library import ShortestHopCount
        from repro.campaigns import evaluate_chunk
        from repro.campaigns import scenarios

        class FaultyPastHop13(ShortestHopCount):
            def rank_key(self, sig):
                if sig > 13:
                    raise ZeroDivisionError("preference past hop 13")
                return sig

        def rocketfuel(scenario_id, algebra, weights, routers=10):
            return ScenarioSpec(
                scenario_id=scenario_id, family="rocketfuel",
                algebra=algebra, seed=5, until=60.0, max_events=120_000,
                params=(("routers", routers), ("links", 24),
                        ("weights", weights), ("destinations", 1)))

        specs = [rocketfuel(1, "shortest-path", (1, 2)),
                 rocketfuel(2, "hop-count", (1,), routers=14),
                 rocketfuel(3, "shortest-path", (2, 9)),
                 gadget_spec("good")]
        backends = ("gpv", "batch")
        healthy = evaluate_chunk(specs, backends)
        assert [len(r.outcomes) for r in healthy] == [2, 2, 2, 1]
        library = scenarios.build_library_algebra
        monkeypatch.setattr(
            scenarios, "build_library_algebra",
            lambda spec: FaultyPastHop13() if spec.algebra == "hop-count"
            else library(spec))
        scalar, = evaluate_chunk(specs[1:2], backends=("gpv",))
        assert scalar.classification == SAFE_CONVERGED  # GPV never sees it
        results = evaluate_chunk(specs, backends)
        assert results[1].classification == ERROR
        assert results[1].error.startswith(
            "ZeroDivisionError: preference past hop 13\n")
        assert not results[1].outcomes
        for index in (0, 2, 3):
            assert self.comparable(results[index]) == \
                self.comparable(healthy[index])

    def test_a_spec_that_cannot_materialize_errs_alone(self, monkeypatch):
        from dataclasses import replace

        from repro.campaigns import evaluate_chunk
        from repro.campaigns import oracle

        backends = ("gpv", "batch")
        specs = self.chunk()[:4]
        healthy = evaluate_chunk(specs, backends)
        broken = replace(specs[1], family="warp")
        materialized = self.count_calls(monkeypatch, oracle, "materialize")
        results = evaluate_chunk([specs[0], broken] + specs[2:], backends)
        assert len(materialized) == len(specs)  # the one attempt
        assert results[1].classification == ERROR
        assert results[1].error.startswith(
            "ValueError: unknown scenario family 'warp'\n")
        assert [self.comparable(r) for r in results[:1] + results[2:]] == \
            [self.comparable(r) for r in healthy[:1] + healthy[2:]]

    def test_batch_listed_first_is_the_primary_where_it_ran(self):
        from repro.campaigns import evaluate_chunk

        results = evaluate_chunk(self.chunk(), backends=("batch", "gpv"))
        primaries = {r.outcomes[0].backend for r in results}
        assert primaries == {"batch", "gpv"}
        for result in results:
            primary = result.outcomes[0]
            assert not result.is_disagreement
            assert (result.converged, result.messages) == \
                (primary.converged, primary.messages)
            if primary.backend == "batch":
                assert [p.pair for p in result.pairwise] == \
                    ["analysis~batch", "analysis~gpv", "batch~gpv"]

    def test_batch_shows_in_a_scenario_trace_as_precomputed(self, tmp_path):
        from repro.obs.trace import configure_tracing, spans_for_scenario

        spec = next(s for s in self.chunk() if s.family == "rocketfuel")
        configure_tracing(str(tmp_path), worker="t")
        try:
            evaluate(spec, backends=("gpv", "batch"))
        finally:
            configure_tracing(None)
        spans = spans_for_scenario(str(tmp_path), spec.scenario_id)
        scenario, = (s for s in spans if s["name"] == "scenario")
        assert scenario["attrs"]["materialize_ms"] > 0
        runs = {s["attrs"]["backend"]: s["attrs"]
                for s in spans if s["name"] == "backend:run"}
        assert runs["batch"] == {"backend": "batch", "precomputed": True}
        assert "precomputed" not in runs["gpv"]
