"""Tests for the NDlog runtime (repro.ndlog.runtime)."""

import pytest

from repro.algebra import (
    bad_gadget,
    disagree,
    good_gadget,
    ibgp_figure3_fixed,
)
from repro.ndlog import (
    FunctionRegistry,
    NDlogRuntime,
    Table,
    TransportPolicy,
    deploy_spp,
    parse_program,
)
from repro.ndlog.runtime import DEFAULT_SIZE_BYTES
from repro.net import Network, Simulator


class TestTable:
    def test_upsert_insert(self):
        table = Table("t", (0,))
        changed, old = table.upsert(("a", 1))
        assert changed and old is None

    def test_upsert_replace_same_key(self):
        table = Table("t", (0,))
        table.upsert(("a", 1))
        changed, old = table.upsert(("a", 2))
        assert changed and old == ("a", 1)
        assert list(table.rows()) == [("a", 2)]

    def test_upsert_identical_noop(self):
        table = Table("t", (0,))
        table.upsert(("a", 1))
        changed, old = table.upsert(("a", 1))
        assert not changed
        assert len(table) == 1

    def test_composite_keys(self):
        table = Table("t", (0, 1))
        table.upsert(("a", "b", 1))
        table.upsert(("a", "c", 2))
        assert len(table) == 2


def _reachability_runtime():
    """A two-rule reachability program over a 3-node line network."""
    source = """
        materialize(link, infinity, infinity, keys(1,2)).
        materialize(reach, infinity, infinity, keys(1,2)).
        r1 reach(@X,Y) :- start(@X,Y).
        r2 reach(@Z,Y) :- reach(@X,Y), link(@X,Z).
    """
    program = parse_program(source)
    net = Network()
    net.add_link("a", "b")
    net.add_link("b", "c")
    sim = Simulator(net)
    runtime = NDlogRuntime(program, sim, FunctionRegistry(),
                           TransportPolicy(msg_relation="reach"))
    for u, v in (("a", "b"), ("b", "a"), ("b", "c"), ("c", "b")):
        runtime.install_fact(u, "link", (u, v))
    return runtime


class TestDistributedEvaluation:
    def test_reachability_propagates(self):
        runtime = _reachability_runtime()
        runtime.inject("a", "start", ("a", "dest"))
        runtime.sim.run()
        assert ("c", "dest") in runtime.table_rows("c", "reach")

    def test_remote_heads_travel_as_messages(self):
        runtime = _reachability_runtime()
        runtime.inject("a", "start", ("a", "dest"))
        runtime.sim.run()
        assert runtime.sim.stats.messages_sent >= 2

    def test_table_rows_unknown_relation(self):
        runtime = _reachability_runtime()
        with pytest.raises(Exception, match="materialized"):
            runtime.table_rows("a", "nope")


class TestGPVOnGadgets:
    def _best_paths(self, runtime, instance):
        out = {}
        for node in instance.permitted:
            rows = runtime.table_rows(node, "localOpt")
            out[node] = rows[0][3] if rows else None
        return out

    def test_good_gadget_reaches_unique_stable_state(self):
        instance = good_gadget()
        runtime = deploy_spp(instance, seed=3)
        assert runtime.sim.run(until=30.0) == "quiescent"
        assert self._best_paths(runtime, instance) == {
            "1": ("1", "0"), "2": ("2", "3", "0"), "3": ("3", "0")}

    def test_figure3_fixed_prefers_own_clients(self):
        instance = ibgp_figure3_fixed()
        runtime = deploy_spp(instance, seed=3)
        assert runtime.sim.run(until=30.0) == "quiescent"
        best = self._best_paths(runtime, instance)
        assert best["a"] == ("a", "d", "0")
        assert best["b"] == ("b", "e", "0")
        assert best["c"] == ("c", "f", "0")

    def test_disagree_settles_into_valid_stable_state(self):
        """The withdraw (φ advertisement) flow prevents the mutual-loop
        pseudo-solution; one node defers to the other.  Runs under
        periodic (MRAI-style) advertisement — per-change advertisements
        over the ordered transport keep DISAGREE flipping in lockstep."""
        instance = disagree()
        runtime = deploy_spp(instance, seed=5, jitter_s=0.003,
                             batch_interval=0.05)
        assert runtime.sim.run(until=120.0) == "quiescent"
        best = self._best_paths(runtime, instance)
        assert best in (
            {"1": ("1", "2", "0"), "2": ("2", "0")},
            {"1": ("1", "0"), "2": ("2", "1", "0")},
        )

    def test_bad_gadget_never_converges(self):
        runtime = deploy_spp(bad_gadget(), seed=3, jitter_s=0.003)
        assert runtime.sim.run(until=10.0, max_events=100_000) != "quiescent"
        assert runtime.sim.stats.messages_sent > 1000


class TestTransportPolicy:
    def test_batching_coalesces_flaps(self):
        """With batching, only the latest advertisement per destination in
        a window goes on the wire."""
        instance = good_gadget()
        unbatched = deploy_spp(instance, seed=3)
        unbatched.sim.run(until=30.0)
        batched = deploy_spp(instance, seed=3, batch_interval=1.0)
        batched.sim.run(until=60.0)
        assert (batched.sim.stats.messages_sent
                <= unbatched.sim.stats.messages_sent)

    def test_batched_run_still_correct(self):
        instance = good_gadget()
        runtime = deploy_spp(instance, seed=3, batch_interval=1.0)
        assert runtime.sim.run(until=60.0) == "quiescent"
        rows = runtime.table_rows("2", "localOpt")
        assert rows[0][3] == ("2", "3", "0")

    def test_size_of_uses_path_length(self):
        policy = TransportPolicy(path_pos=1)
        small = policy.size_of(("d", ("a", "b")))
        large = policy.size_of(("d", ("a", "b", "c", "e")))
        assert large > small

    def test_size_of_default(self):
        policy = TransportPolicy()
        assert policy.size_of(("anything",)) == DEFAULT_SIZE_BYTES


class TestPhiSuppression:
    def test_phi_not_sent_to_uninvolved_neighbors(self):
        """A node that never received a route gets no withdraw for it."""
        instance = disagree()
        runtime = deploy_spp(instance, seed=5, jitter_s=0.003,
                             batch_interval=0.05)
        assert runtime.sim.run(until=120.0) == "quiescent"
        # All messages must either carry a real signature or follow a real
        # advertisement (checked indirectly: the run terminates instead of
        # ping-ponging withdraw noise).
        assert runtime.sim.run(max_events=10) == "quiescent"
