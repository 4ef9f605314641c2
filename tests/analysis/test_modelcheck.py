"""Tests for the oscillation model checker (repro.analysis.modelcheck)."""

import itertools

import pytest

from repro.algebra import (
    SPPAlgebra,
    SPPInstance,
    bad_gadget,
    disagree,
    good_gadget,
    ibgp_figure3,
    ibgp_figure3_fixed,
    replicate,
)
from repro.analysis import SafetyAnalyzer
from repro.analysis.modelcheck import BudgetExceeded, ModelChecker
from repro.campaigns import Scenario, ScenarioSpec
from repro.exec import get_backend
from repro.ndlog.codegen import network_from_spp


class TestStableStates:
    def test_bad_gadget_has_no_stable_state(self):
        assert ModelChecker(bad_gadget()).stable_states() == []

    def test_disagree_has_exactly_two(self):
        stable = ModelChecker(disagree()).stable_states()
        assert len(stable) == 2
        assert {"1": ("1", "2", "0"), "2": ("2", "0")} in stable
        assert {"1": ("1", "0"), "2": ("2", "1", "0")} in stable

    def test_good_gadget_has_exactly_one(self):
        stable = ModelChecker(good_gadget()).stable_states()
        assert stable == [{"1": ("1", "0"), "2": ("2", "3", "0"),
                           "3": ("3", "0")}]

    def test_figure3_instances(self):
        assert ModelChecker(ibgp_figure3()).stable_states() == []
        fixed = ModelChecker(ibgp_figure3_fixed()).stable_states()
        assert len(fixed) >= 1
        preferred = {
            "a": ("a", "d", "0"), "b": ("b", "e", "0"), "c": ("c", "f", "0"),
        }
        assert any(all(state.get(k) == v for k, v in preferred.items())
                   for state in fixed)

    def test_budget_guard(self):
        big = replicate(bad_gadget(), 12)
        with pytest.raises(BudgetExceeded):
            ModelChecker(big, max_states=1000).stable_states()


class TestBestResponse:
    def test_direct_route_always_available(self):
        checker = ModelChecker(disagree())
        state = checker.initial_state()
        assert checker.best_response(state, "1") == ("1", "0")

    def test_indirect_needs_neighbor_advertisement(self):
        checker = ModelChecker(disagree())
        # 2 selects its direct route -> 1 can take the preferred indirect.
        state = (("1", None), ("2", ("2", "0")))
        assert checker.best_response(state, "1") == ("1", "2", "0")

    def test_withdrawn_neighbor_route_unavailable(self):
        checker = ModelChecker(disagree())
        state = (("1", None), ("2", ("2", "1", "0")))
        assert checker.best_response(state, "1") == ("1", "0")


class TestOscillationTraces:
    def test_disagree_sync_oscillates(self):
        trace = ModelChecker(disagree()).find_oscillation()
        assert trace is not None
        assert len(trace.cycle) == 2  # the classic two-state flip

    def test_bad_gadget_sync_oscillates(self):
        trace = ModelChecker(bad_gadget()).find_oscillation()
        assert trace is not None
        states = {tuple(sorted(s)) for s in trace.cycle}
        assert len(states) == len(trace.cycle)  # simple cycle

    def test_disagree_cycle_is_two_subset_moves(self):
        """One node at a time never laps DISAGREE; both moving at once
        (as stale advertisements let them) flips it between the state
        where both route direct and the one where both route via the
        other."""
        checker = ModelChecker(disagree())
        trace = checker.find_oscillation()
        direct = (("1", ("1", "0")), ("2", ("2", "0")))
        via = (("1", ("1", "2", "0")), ("2", ("2", "1", "0")))
        assert trace.cycle == [direct, via]
        assert via in checker.successors(direct)
        assert direct in checker.successors(via)

    def test_trace_description_uses_path_names(self):
        trace = ModelChecker(ibgp_figure3()).find_oscillation()
        assert trace is not None
        text = trace.describe(ibgp_figure3())
        assert "oscillation trace" in text
        assert "aber2" in text or "adr1" in text

    def test_search_budget_raises(self):
        # Three GOOD GADGET copies reach 2 197 states: past the budget
        # the answer is "unknown", never "no oscillation".
        checker = ModelChecker(replicate(good_gadget(), 3), max_states=500)
        with pytest.raises(BudgetExceeded):
            checker.find_oscillation()


# -- small-scope conformance ----------------------------------------------------


def _instances(nodes, stride=1):
    """Every SPP instance on the clique of ``0`` and ``nodes`` with at
    most two ranked simple paths per node (not all empty), taking every
    ``stride``-th."""
    def rankings(node):
        rest = [n for n in nodes if n != node]
        paths = [(node, *middle, "0") for k in range(len(rest) + 1)
                 for middle in itertools.permutations(rest, k)]
        return [list(r) for k in range(3)
                for r in itertools.permutations(paths, k)]

    edges = list(itertools.combinations(("0",) + nodes, 2))
    choices = itertools.product(*(rankings(node) for node in nodes))
    for combo in itertools.islice(choices, 1, None, stride):
        yield SPPInstance.build("scope", "0", dict(zip(nodes, combo)),
                                extra_edges=edges)


def _diverges(instance, backend, seed):
    spec = ScenarioSpec(scenario_id=0, family="gadget", algebra="spp",
                        seed=seed, until=30.0, max_events=8_000)
    scenario = Scenario(spec=spec,
                        network=network_from_spp(instance, jitter_s=0.003),
                        algebra=SPPAlgebra(instance),
                        destinations=[instance.destination],
                        analysis_subject=instance)
    session = get_backend(backend).prepare(scenario, seed=seed)
    return not session.run(until=spec.until,
                           max_events=spec.max_events).converged


def _sync_lasso(checker):
    """Reference: every node moves at once until a state repeats."""
    state, history = checker.initial_state(), []
    while state not in history:
        history.append(state)
        state = tuple((node, checker.best_response(state, node))
                      for node, _ in state)
    start = history.index(state)
    if len(history) - start == 1:
        return None  # a fixpoint
    return history[:start], history[start:]


class TestSmallScope:
    def test_k3_lasso_iff_engines_diverge(self):
        analyzer = SafetyAnalyzer()
        instances = list(_instances(("1", "2")))
        assert len(instances) == 24
        lassos = 0
        for instance in instances:
            checker = ModelChecker(instance)
            lasso = checker.find_oscillation() is not None
            runs = {_diverges(instance, backend, seed)
                    for backend in ("gpv", "ndlog") for seed in (0, 1)}
            assert runs == {lasso}, instance.permitted
            if analyzer.analyze(instance).safe:
                assert not lasso and len(checker.stable_states()) == 1
            lassos += lasso
        assert lassos == 1  # DISAGREE

    def test_k4_sync_lasso_comes_first(self):
        """Wherever the synchronous run laps, the search returns exactly
        its lasso: the order that keeps CLI and bench traces unchanged."""
        lapping = 0
        for instance in _instances(("1", "2", "3"), stride=13):
            checker = ModelChecker(instance)
            reference = _sync_lasso(checker)
            if reference is not None:
                trace = checker.find_oscillation()
                assert (trace.prefix, trace.cycle) == reference
                lapping += 1
        assert lapping > 0
