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

    def test_a_memo_hit_writes_nothing(self, tmp_path):
        """Reuse is not recorded: after the one write-through, hits leave
        the file byte-identical."""
        from repro.algebra import good_gadget
        from repro.campaigns.oracle import cached_verdict

        path = tmp_path / "v.sqlite"
        configure_verdict_store(str(path))
        assert not cached_verdict(good_gadget())[2]
        configure_verdict_store(None)
        written = path.read_bytes()
        configure_verdict_store(str(path))
        assert cached_verdict(good_gadget())[2]
        assert cached_verdict(good_gadget())[2]
        configure_verdict_store(None)
        assert path.read_bytes() == written

    def test_a_storeless_run_detaches_the_store(self, tmp_path):
        """A serial run attaches its store in this process, and the next
        run, which names none, writes nothing through it."""
        path = str(tmp_path / "v.sqlite")
        report = CampaignRunner(CampaignConfig(
            verdict_cache_path=path)).run([gadget_spec("good")])
        assert report.counters()["safe-converged"] == 1
        CampaignRunner(CampaignConfig()).run([gadget_spec("bad")])
        store = VerdictStore(path)
        assert len(store) == 1
        store.close()


class TestSPPKeyTrade:
    def test_a_relabeled_gadget_is_a_memo_miss_with_the_same_verdict(self):
        """SPP subjects are keyed by name: a relabeled copy is solved
        again (its dispute-digraph analysis costs less than a
        relabeling-invariant key) and, being isomorphic, gets the same
        verdict."""
        from repro.algebra import SPPInstance, disagree
        from repro.campaigns.oracle import cached_verdict

        original = disagree()
        rename = {"0": "d", "1": "x", "2": "y"}.__getitem__
        relabeled = SPPInstance.build(
            "relabeled", rename(original.destination),
            {rename(node): [tuple(map(rename, path)) for path in paths]
             for node, paths in original.permitted.items()})
        safe, method, hit = cached_verdict(original)
        assert not hit
        assert cached_verdict(original) == (safe, method, True)
        assert cached_verdict(relabeled) == (safe, method, False)
        assert verdict_cache_size() == 2


def _hammer_store(path: str, prefix: str, rows: int) -> None:
    """Child-process body: open the store and write through, hard."""
    store = VerdictStore(path)
    try:
        for i in range(rows):
            store.put(f"{prefix}-{i}", i % 2 == 0, "smt")
        # Contend on the *same* keys too: racing duplicates must be
        # ignored.
        for i in range(rows):
            store.put(f"shared-{i}", True, "smt")
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
        # Every private row landed; shared rows deduplicated by INSERT OR
        # IGNORE.
        assert len(store) == workers * rows + rows
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
