"""Tests for the NDlog runtime (repro.ndlog.runtime)."""

import pytest

from repro.algebra import (
    bad_gadget,
    disagree,
    good_gadget,
    ibgp_figure3_fixed,
)
from repro.ndlog import (
    Condition,
    Const,
    FunctionRegistry,
    NDlogRuntime,
    NDlogRuntimeError,
    Table,
    TransportPolicy,
    Var,
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
        assert list(table.rows()) == [("a", 1)]

    def test_composite_keys(self):
        table = Table("t", (0, 1))
        table.upsert(("a", "b", 1))
        table.upsert(("a", "c", 2))
        assert list(table.rows()) == [("a", "b", 1), ("a", "c", 2)]


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


#: Compiler paths neither GPV program reaches.  Each case is a program run
#: on node ``x`` alone (every head is located at ``X``), the operations
#: applied in order — ``fact`` installs a row silently, ``drop`` deletes one
#: silently, ``delta`` inserts one through the rules — and the rows of
#: ``out`` that changed, in the order they changed.
COMPILED_CASES = {
    "constant-in-body-atom": ("""
        materialize(edge, infinity, infinity, keys(1,2)).
        materialize(out, infinity, infinity, keys(1,2)).
        r1 out(@X,Y) :- trig(@X,Y,1), edge(@X,Y,"red").
        """, [("fact", "edge", ("x", "a", "red")),
              ("fact", "edge", ("x", "b", "blue")),
              ("fact", "edge", ("x", "c", "red")),
              ("delta", "trig", ("x", "a", 1)),
              ("delta", "trig", ("x", "b", 1)),
              ("delta", "trig", ("x", "c", 2)),
              ("delta", "trig", ("x", "c", 1))],
        [("x", "a"), ("x", "c")]),
    "variable-repeated-within-atom": ("""
        materialize(edge, infinity, infinity, keys(1,2)).
        materialize(out, infinity, infinity, keys(1,2,3)).
        r1 out(@X,Y,Z) :- trig(@X,Y,Y), edge(@X,Z,Z).
        """, [("fact", "edge", ("x", "a", "a")),
              ("fact", "edge", ("x", "b", "c")),
              ("fact", "edge", ("x", "d", "d")),
              ("delta", "trig", ("x", 1, 1)),
              ("delta", "trig", ("x", 2, 3))],
        [("x", 1, "a"), ("x", 1, "d")]),
    "assignment-deferred-past-later-atom": ("""
        materialize(cost, infinity, infinity, keys(1,2)).
        materialize(out, infinity, infinity, keys(1,2)).
        r1 out(@X,W) :- trig(@X,Y), W := f_sum(Y,C), cost(@X,C).
        """, [("fact", "cost", ("x", 10)),
              ("fact", "cost", ("x", 20)),
              ("delta", "trig", ("x", 1))],
        [("x", 11), ("x", 21)]),
    "condition-before-binding-atom": ("""
        materialize(val, infinity, infinity, keys(1,2)).
        materialize(out, infinity, infinity, keys(1,2)).
        r1 out(@X,Y) :- trig(@X), Y > 1, val(@X,Y).
        """, [("fact", "val", ("x", 1)),
              ("fact", "val", ("x", 2)),
              ("fact", "val", ("x", 3)),
              ("delta", "trig", ("x",))],
        [("x", 2), ("x", 3)]),
    "assignment-to-bound-variable-filters": ("""
        materialize(pair, infinity, infinity, keys(1,2,3)).
        materialize(out, infinity, infinity, keys(1,2,3)).
        r1 out(@X,Y,Z) :- trig(@X,Y), pair(@X,Y,Z), Z := f_sum(Y,1).
        """, [("fact", "pair", ("x", 1, 2)),
              ("fact", "pair", ("x", 1, 5)),
              ("fact", "pair", ("x", 2, 3)),
              ("delta", "trig", ("x", 1)),
              ("delta", "trig", ("x", 2))],
        [("x", 1, 2), ("x", 2, 3)]),
    # link(@X,K,Z,W) with X and K bound scans an index bucket: a replaced
    # row keeps its place, a deleted and re-inserted one moves to the end.
    "join-emits-in-table-order": ("""
        materialize(link, infinity, infinity, keys(1,2,3)).
        materialize(out, infinity, infinity, keys(1,2,3)).
        r1 out(@X,Y,Z,W) :- trig(@X,Y,K), link(@X,K,Z,W).
        """, [("fact", "link", ("x", "k", "a", 1)),
              ("fact", "link", ("x", "j", "e", 1)),
              ("fact", "link", ("x", "k", "b", 1)),
              ("fact", "link", ("x", "k", "c", 1)),
              ("delta", "trig", ("x", 1, "k")),
              ("fact", "link", ("x", "k", "a", 9)),
              ("drop", "link", ("x", "k", "b", 1)),
              ("fact", "link", ("x", "k", "b", 1)),
              ("delta", "trig", ("x", 2, "k"))],
        [("x", 1, "a", 1), ("x", 1, "b", 1), ("x", 1, "c", 1),
         ("x", 2, "a", 9), ("x", 2, "c", 1), ("x", 2, "b", 1)]),
    # Ties keep the incumbent; once it is gone, the first best row in
    # table order wins.
    "a_min-tie-keeps-incumbent": ("""
        materialize(cost, infinity, infinity, keys(1,2)).
        materialize(out, infinity, infinity, keys(1)).
        r1 out(@X,a_min<C>,N) :- cost(@X,N,C).
        """, [("delta", "cost", ("x", "n1", 5)),
              ("delta", "cost", ("x", "n2", 5)),
              ("delta", "cost", ("x", "n3", 3)),
              ("delta", "cost", ("x", "n4", 3)),
              ("delta", "cost", ("x", "n3", 7)),
              ("delta", "cost", ("x", "n4", 9))],
        [("x", 5, "n1"), ("x", 3, "n3"), ("x", 3, "n4"), ("x", 5, "n1")]),
    "a_max-tie-keeps-incumbent": ("""
        materialize(sample, infinity, infinity, keys(1,2)).
        materialize(out, infinity, infinity, keys(1)).
        r1 out(@X,a_max<V>,K) :- sample(@X,K,V).
        """, [("delta", "sample", ("x", "k1", 5)),
              ("delta", "sample", ("x", "k2", 5)),
              ("delta", "sample", ("x", "k3", 9)),
              ("delta", "sample", ("x", "k4", 9)),
              ("delta", "sample", ("x", "k3", 1)),
              ("delta", "sample", ("x", "k4", 0))],
        [("x", 5, "k1"), ("x", 9, "k3"), ("x", 9, "k4"), ("x", 5, "k1")]),
}


def _local_runtime(source: str) -> NDlogRuntime:
    net = Network()
    net.add_link("x", "y")
    return NDlogRuntime(parse_program(source), Simulator(net),
                        FunctionRegistry(), TransportPolicy(msg_relation="out"))


@pytest.mark.parametrize("case", sorted(COMPILED_CASES))
def test_compiled_rule_paths(case):
    source, operations, expected = COMPILED_CASES[case]
    runtime = _local_runtime(source)
    changes = []
    runtime.observers.append(
        lambda node, relation, row: changes.append(row)
        if relation == "out" else None)
    for operation, relation, row in operations:
        if operation == "fact":
            runtime.install_fact("x", relation, row)
        elif operation == "drop":
            runtime.delete_facts("x", relation, lambda r: r == row)
        else:
            runtime.apply_delta("x", relation, row)
    assert changes == expected


class TestStaticProgramErrors:
    """Errors the runtime raises when it is built, before any delta."""

    def test_undefined_function(self):
        with pytest.raises(NDlogRuntimeError, match="f_nope"):
            _local_runtime("""
                materialize(out, infinity, infinity, keys(1,2)).
                r1 out(@X,Z) :- trig(@X,Y), Z := f_nope(Y).
            """)

    def test_body_never_ready(self):
        with pytest.raises(NDlogRuntimeError, match="never became ready"):
            _local_runtime("""
                materialize(out, infinity, infinity, keys(1,2)).
                r1 out(@X,Z) :- trig(@X,Y), Z := f_sum(Y,W).
            """)

    def test_unknown_operator(self):
        program = parse_program("""
            materialize(out, infinity, infinity, keys(1,2)).
            r1 out(@X,Y) :- trig(@X,Y), Y > 1.
        """)
        rule = program.rules[0]
        rule.body[1] = Condition(Var("Y"), "<>", Const(1))
        net = Network()
        net.add_link("x", "y")
        with pytest.raises(NDlogRuntimeError, match="unknown operator"):
            NDlogRuntime(program, Simulator(net), FunctionRegistry())

    def test_arity_mismatch(self):
        runtime = _local_runtime("""
            materialize(out, infinity, infinity, keys(1,2)).
            r1 out(@X,Y) :- trig(@X,Y).
        """)
        with pytest.raises(NDlogRuntimeError, match="arity"):
            runtime.apply_delta("x", "trig", ("x", 1, 2))


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
