"""Persistent verdict cache: cross-process reuse of analysis verdicts.

What the verdict store shares with the kernel store (duplicate puts,
the ``MAX_ROWS`` bound, the open helper, the retrying write) is pinned
once for both in ``tests/test_store_contract.py``; this module keeps
what is its own.
"""

import pytest

from repro.campaigns import (
    CampaignConfig,
    CampaignRunner,
    ScenarioGenerator,
    ScenarioSpec,
    VerdictStore,
    clear_verdict_cache,
    configure_verdict_store,
    evaluate,
    verdict_cache_size,
)
from repro.campaigns.oracle import EvaluationOptions


@pytest.fixture(autouse=True)
def detached_store():
    """Every test starts and ends with a cold memo and no store."""
    configure_verdict_store(None)
    clear_verdict_cache()
    yield
    configure_verdict_store(None)
    clear_verdict_cache()


def gadget_spec(kind: str, *, seed: int = 1) -> ScenarioSpec:
    return ScenarioSpec(scenario_id=0, family="gadget", algebra="spp",
                        seed=seed, until=30.0, max_events=20_000,
                        params=(("gadget", kind),))


class TestVerdictStore:
    def test_roundtrip(self, tmp_path):
        store = VerdictStore(str(tmp_path / "v.sqlite"))
        store.put("key-1", True, "strict-monotonicity")
        store.put("key-2", False, "counterexample")
        assert store.get("key-1") == (True, "strict-monotonicity")
        assert store.load_all() == {
            "key-1": (True, "strict-monotonicity"),
            "key-2": (False, "counterexample"),
        }
        assert len(store) == 2
        store.close()


class TestOracleIntegration:
    def test_solves_are_written_through(self, tmp_path):
        path = str(tmp_path / "v.sqlite")
        configure_verdict_store(path)
        evaluate(gadget_spec("good"))
        evaluate(gadget_spec("bad"))
        configure_verdict_store(None)
        store = VerdictStore(path)
        assert len(store) == 2
        assert {safe for safe, _ in store.load_all().values()} == \
            {True, False}
        store.close()

    def test_fresh_process_hits_the_persisted_cache(self, tmp_path):
        """Simulate a worker restart: cold memo, warm store ⇒ cache hit."""
        path = str(tmp_path / "v.sqlite")
        configure_verdict_store(path)
        first = evaluate(gadget_spec("good"))
        assert not first.cache_hit

        configure_verdict_store(None)  # "process" exits...
        clear_verdict_cache()
        assert verdict_cache_size() == 0
        configure_verdict_store(path)  # ...a new worker attaches the store

        second = evaluate(gadget_spec("good", seed=999))
        assert second.cache_hit  # same constraint system, never re-solved

    def test_runner_wires_store_to_workers(self, tmp_path):
        path = str(tmp_path / "v.sqlite")
        specs = ScenarioGenerator(7, profile="quick").generate(8)
        report = CampaignRunner(CampaignConfig(
            jobs=2, chunk_size=2, verdict_cache_path=path)).run(specs)
        assert report.scenario_count == 8
        store = VerdictStore(path)
        assert len(store) > 0
        store.close()

        # A rerun in fresh worker processes is pure cache hits.
        clear_verdict_cache()
        configure_verdict_store(None)
        rerun = CampaignRunner(CampaignConfig(
            jobs=2, chunk_size=2, verdict_cache_path=path)).run(specs)
        assert rerun.cache_hit_rate == 1.0

    def test_options_carry_store_path_to_evaluate_chunk(self, tmp_path):
        from repro.campaigns import evaluate_chunk

        path = str(tmp_path / "v.sqlite")
        results = evaluate_chunk(
            [gadget_spec("good")],
            EvaluationOptions(verdict_store_path=path))
        assert results[0].classification == "safe-converged"
        configure_verdict_store(None)
        store = VerdictStore(path)
        assert len(store) == 1
        store.close()


class TestHygiene:
    def test_touch_counts_hits(self, tmp_path):
        store = VerdictStore(str(tmp_path / "v.sqlite"))
        store.put("k1", True, "smt")
        store.put("k2", False, "smt")
        store.count_hit("k1")
        store.count_hit("k1")
        assert store.stats()["hits"] == 0  # tallied, not yet written
        store.flush_hits()
        stats = store.stats()
        assert stats["verdicts"] == 2
        assert stats["hits"] == 2
        assert stats["never_hit"] == 1
        assert stats["hottest"] == [("k1", 2)]
        store.close()

    def test_oracle_hits_touch_the_store(self, tmp_path):
        from repro.campaigns.oracle import (
            cached_verdict,
            clear_verdict_cache,
            configure_verdict_store,
        )
        from repro.algebra import good_gadget

        path = str(tmp_path / "v.sqlite")
        try:
            clear_verdict_cache()
            configure_verdict_store(path)
            cached_verdict(good_gadget())   # solve + write-through
            cached_verdict(good_gadget())   # memo hit -> touch
            cached_verdict(good_gadget())
        finally:
            configure_verdict_store(None)
            clear_verdict_cache()
        store = VerdictStore(path)
        stats = store.stats()
        assert stats["verdicts"] == 1
        assert stats["hits"] == 2
        assert stats["never_hit"] == 0
        store.close()


def _legacy_spp_key(instance) -> str:
    """The pre-v3 name-faithful spp rendering (the baseline the
    isomorphism-invariant keys are measured against)."""
    rankings = tuple(
        (node, tuple(instance.permitted[node]))
        for node in sorted(instance.permitted))
    edges = tuple(sorted((tuple(sorted(edge)) for edge in instance.edges),
                         key=repr))
    return repr(("spp", instance.destination, rankings, edges))


class TestIsomorphismHitRate:
    def test_two_shard_campaign_hits_across_isomorphic_draws(self, tmp_path):
        """The acceptance bar: canonical keys demonstrably raise the
        verdict-store hit rate on a fixed-seed two-shard campaign.

        Seed 7's 24-scenario gadget stream draws 17 distinct instances by
        name but only 14 up to isomorphism, so the canonical store ends
        smaller than a name-keyed one would and the extra evaluations
        land as hits.
        """
        from repro.campaigns import build_gadget_instance, canonical_key

        path = str(tmp_path / "v.sqlite")
        seed, count = 7, 24
        generator = ScenarioGenerator(seed, families=("gadget",),
                                      profile="quick")
        specs = generator.generate(count)
        instances = [build_gadget_instance(s) for s in specs]
        canonical_distinct = len({repr(canonical_key(i)) for i in instances})
        legacy_distinct = len({_legacy_spp_key(i) for i in instances})
        assert canonical_distinct < legacy_distinct  # isomorphs exist

        for shard in (0, 1):
            # Each shard simulates a separate machine: cold memo, shared
            # store.
            clear_verdict_cache()
            configure_verdict_store(None)
            runner = CampaignRunner(CampaignConfig(
                jobs=1, verdict_cache_path=path))
            report = runner.run_generated(
                count, seed=seed, families=("gadget",), profile="quick",
                shard_index=shard, shard_count=2)
            assert report.scenario_count == count // 2
        configure_verdict_store(None)

        store = VerdictStore(path)
        stats = store.stats()
        store.close()
        # One stored verdict per isomorphism class — fewer rows than a
        # name-keyed store — and every repeat evaluation counted as a hit.
        assert stats["verdicts"] == canonical_distinct
        assert stats["hits"] == count - canonical_distinct
        assert stats["hits"] > count - legacy_distinct  # the v3 win


def _hammer_store(path: str, prefix: str, rows: int) -> None:
    """Child-process body: open the store and write through, hard."""
    store = VerdictStore(path)
    try:
        for i in range(rows):
            store.put(f"{prefix}-{i}", i % 2 == 0, "smt")
        store.touch_many({f"{prefix}-{i}": 3 for i in range(rows)})
        # Contend on the *same* keys too: racing duplicates must be
        # ignored, racing hit counts must add.
        for i in range(rows):
            store.put(f"shared-{i}", True, "smt")
        store.touch_many({f"shared-{i}": 1 for i in range(rows)})
    finally:
        store.close()


class TestMultiWriterHardening:
    """Two+ processes writing through one store simultaneously (pool
    workers, or several campaigns, sharing one ``--verdict-cache``)."""

    def test_concurrent_writers_lose_no_rows(self, tmp_path):
        import multiprocessing

        path = str(tmp_path / "v.sqlite")
        VerdictStore(path).close()  # settle schema before the stampede
        rows = 120
        workers = 3
        processes = [
            multiprocessing.Process(target=_hammer_store,
                                    args=(path, f"w{i}", rows))
            for i in range(workers)
        ]
        for process in processes:
            process.start()
        for process in processes:
            process.join(timeout=120)
            assert process.exitcode == 0

        store = VerdictStore(path)
        stats = store.stats()
        # Every private row landed; shared rows deduplicated by INSERT OR
        # IGNORE; hit counts added across writers.
        assert stats["verdicts"] == workers * rows + rows
        assert stats["hits"] == workers * rows * 3 + workers * rows
        for i in range(rows):
            assert store.get(f"shared-{i}") == (True, "smt")
        store.close()

    def test_read_through_sees_sibling_writes(self, tmp_path):
        """A worker attached before a sibling's solve still gets the
        sibling's verdict on its next memo miss (oracle read-through)."""
        from repro.campaigns.oracle import cached_verdict

        path = str(tmp_path / "v.sqlite")
        spec = gadget_spec("good")
        instance_key = None

        clear_verdict_cache()
        configure_verdict_store(path)  # attach over an empty store
        # A "sibling" (separate connection, as another process would)
        # writes the verdict after our attach-time bulk load.
        from repro.campaigns import build_gadget_instance, canonical_key
        instance = build_gadget_instance(spec)
        instance_key = repr(canonical_key(instance))
        sibling = VerdictStore(path)
        sibling.put(instance_key, True, "sibling-method")
        sibling.close()

        safe, method, hit = cached_verdict(instance)
        assert hit, "read-through must catch post-attach sibling writes"
        assert method == "sibling-method"
        configure_verdict_store(None)
        clear_verdict_cache()
