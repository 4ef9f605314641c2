"""CampaignReport.merge() under concurrent/partial inputs, and the
record round trip a resumed campaign replays.

merge() is fed shard reports that may be partial (aborted shards) or empty.
These tests pin the contract: merge is *additive* and trusts its inputs to
be disjoint.
"""

import json

from repro.campaigns import (
    AggregatingSink,
    CampaignReport,
    ScenarioGenerator,
    clear_verdict_cache,
    evaluate,
    result_from_record,
    result_record,
    run_campaign,
)


def small_report(count=4, seed=1, **kwargs):
    clear_verdict_cache()
    return run_campaign(count, seed=seed, families=("gadget",),
                        profile="quick", **kwargs)


def forced_disagreement_report(seed=1):
    """A report retaining one reproducer (synthesized, like the drill)."""
    from dataclasses import replace

    from repro.campaigns import SAFE_DIVERGED
    spec = ScenarioGenerator(seed, families=("gadget",),
                             profile="quick").make(0)
    clear_verdict_cache()
    sink = AggregatingSink()
    sink.accept(replace(evaluate(spec), classification=SAFE_DIVERGED))
    return sink.report(wall_clock_s=0.0, jobs=1, chunk_size=1, aborted=None)


class TestMergePartialInputs:
    def test_empty_shards_contribute_nothing(self):
        real = small_report(4)
        empty = AggregatingSink().report(wall_clock_s=0.0, jobs=1,
                                         chunk_size=1, aborted=None)
        merged = CampaignReport.merge([empty, real, empty])
        assert merged.scenario_count == real.scenario_count == 4
        assert merged.counters() == real.counters()
        assert merged.by_family() == real.by_family()

    def test_overlapping_reproducers_are_additive(self):
        """Two reports carrying the *same* reproducer merge additively —
        merge trusts its inputs to be disjoint shards."""
        a = forced_disagreement_report(seed=1)
        b = forced_disagreement_report(seed=1)
        merged = CampaignReport.merge([a, b])
        assert merged.scenario_count == 2
        assert merged.disagreement_count == 2
        ids = [r.scenario_id for r in merged.results]
        assert ids == sorted(ids) == [0, 0]
        # Both reproducer seeds survive retention (never evicted by bulk
        # results) and render identically.
        seeds = merged.reproducer_seeds()
        assert len(seeds) == 2 and seeds[0] == seeds[1]

    def test_merge_of_aborted_and_complete_shards(self):
        aborted = small_report(6, wall_clock_budget_s=0.0)
        complete = small_report(6)
        merged = CampaignReport.merge([aborted, complete])
        assert merged.aborted == "wall-clock budget exhausted"
        assert merged.scenario_count == \
            aborted.scenario_count + complete.scenario_count


class TestStateRoundTrip:
    def test_result_record_roundtrip(self):
        report = forced_disagreement_report()
        original = report.results[0]
        record = json.loads(json.dumps(result_record(original),
                                       default=repr))
        rebuilt = result_from_record(record)
        assert rebuilt.scenario_id == original.scenario_id
        assert rebuilt.classification == original.classification
        assert rebuilt.is_disagreement
        assert rebuilt.spec.to_dict() == original.spec.to_dict()
        assert [(p.pair, p.status) for p in rebuilt.pairwise] == \
            [(p.pair, p.status) for p in original.pairwise]
        assert [(p.pair, p.detail) for p in rebuilt.divergences] == \
            [(p.pair, p.detail) for p in original.divergences]
