"""The record round trip a resumed campaign replays."""

import json

from repro.campaigns import (
    AggregatingSink,
    ScenarioGenerator,
    clear_verdict_cache,
    evaluate,
    result_from_record,
    result_record,
)


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
