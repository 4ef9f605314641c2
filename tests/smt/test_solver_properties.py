"""Property-based tests for the difference-logic solver (hypothesis)."""

import itertools

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.smt import Atom, ConstraintSystem, DifferenceSolver, IntVar, solve

VARIABLES = [IntVar(f"v{i}") for i in range(8)]


@st.composite
def atoms(draw, variables=VARIABLES):
    lhs = draw(st.sampled_from(variables))
    rhs = draw(st.sampled_from(variables))
    kind = draw(st.sampled_from(["lt", "le", "eq"]))
    return getattr(Atom, kind)(lhs, rhs)


@st.composite
def systems(draw):
    system = ConstraintSystem()
    system.extend(draw(st.lists(atoms(), min_size=0, max_size=24)))
    return system


def brute_force_sat(atom_list, variables, domain):
    """Reference decision procedure: try every assignment."""
    return any(
        all(atom.evaluate(dict(zip(variables, values))) for atom in atom_list)
        for values in itertools.product(domain, repeat=len(variables)))


@given(st.lists(atoms(VARIABLES[:5]), min_size=0, max_size=12))
@settings(max_examples=150, deadline=None)
def test_verdict_agrees_with_exhaustive_search(atom_list):
    """Completeness and soundness against an independent oracle.

    Order constraints over five positive variables are satisfiable iff
    they are satisfiable with the ranks 1..5, so searching that box is a
    complete decision procedure sharing no code with the solver.
    """
    expected = brute_force_sat(atom_list, VARIABLES[:5], range(1, 6))
    assert solve(atom_list).is_sat == expected


@given(systems())
@settings(max_examples=200, deadline=None)
def test_sat_models_satisfy_every_atom(system):
    """Soundness of sat answers: the model really satisfies the system."""
    result = solve(system)
    if result.is_sat:
        for atom in system:
            assert atom.evaluate(result.model), f"{atom} violated"
        assert all(value >= 1 for value in result.model.values())


@given(systems())
@settings(max_examples=150, deadline=None)
def test_unsat_cores_are_minimal_unsat_subsets(system):
    """Soundness of unsat answers: the core is unsat and minimal."""
    result = solve(system)
    if result.is_unsat:
        solver = DifferenceSolver()
        assert not solver.check(result.core)
        for i in range(len(result.core)):
            reduced = result.core[:i] + result.core[i + 1:]
            assert solver.check(reduced), "core not minimal"


@given(st.permutations(VARIABLES))
@settings(max_examples=50, deadline=None)
def test_total_strict_orders_are_sat(order):
    """Any chain v1 < v2 < ... < vn is satisfiable, whatever the order."""
    system = ConstraintSystem()
    for lo, hi in zip(order, order[1:]):
        system.add(Atom.lt(lo, hi))
    result = solve(system)
    assert result.is_sat
    values = [result.model[v] for v in order]
    assert values == sorted(values) and len(set(values)) == len(values)


@given(st.integers(min_value=2, max_value=8), st.data())
@settings(max_examples=50, deadline=None)
def test_strict_cycles_are_unsat(length, data):
    """Any strict cycle is unsatisfiable, with the cycle as the core."""
    cycle_vars = VARIABLES[:length]
    system = ConstraintSystem()
    for lo, hi in zip(cycle_vars, cycle_vars[1:]):
        system.add(Atom.lt(lo, hi))
    system.add(Atom.lt(cycle_vars[-1], cycle_vars[0]))
    result = solve(system)
    assert result.is_unsat
    assert len(result.core) == length


@given(systems(), st.randoms())
@settings(max_examples=100, deadline=None)
def test_verdict_is_order_independent(system, rng):
    """Shuffling the constraints never changes sat/unsat."""
    baseline = solve(system).verdict
    shuffled = list(system)
    rng.shuffle(shuffled)
    permuted = ConstraintSystem()
    permuted.extend(shuffled)
    assert solve(permuted).verdict == baseline


@given(systems())
@settings(max_examples=100, deadline=None)
def test_adding_constraints_never_turns_unsat_into_sat(system):
    """Monotonicity of unsatisfiability under conjunction."""
    atoms_list = list(system)
    if len(atoms_list) < 2:
        return
    half = ConstraintSystem()
    half.extend(atoms_list[: len(atoms_list) // 2])
    if solve(half).is_unsat:
        assert solve(system).is_unsat
