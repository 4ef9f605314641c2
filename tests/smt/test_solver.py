"""Unit tests for the difference-logic solver (repro.smt.solver)."""


from repro.smt import Atom, ConstraintSystem, DifferenceSolver, IntVar, Verdict, solve


def system_of(*atoms):
    return ConstraintSystem(list(atoms))


a, b, c, d = IntVar("a"), IntVar("b"), IntVar("c"), IntVar("d")


class TestSat:
    def test_empty_system_is_sat(self):
        assert solve(system_of()).is_sat

    def test_simple_chain(self):
        result = solve(system_of(Atom.lt(a, b), Atom.lt(b, c)))
        assert result.is_sat
        assert result.model[a] < result.model[b] < result.model[c]

    def test_model_is_positive(self):
        result = solve(system_of(Atom.lt(a, b)))
        assert all(v >= 1 for v in result.model.values())

    def test_model_satisfies_every_atom(self):
        atoms = [Atom.lt(a, b), Atom.le(b, c), Atom.eq(c, d)]
        result = solve(system_of(*atoms))
        assert result.is_sat
        for atom in atoms:
            assert atom.evaluate(result.model)

    def test_equality_chain(self):
        result = solve(system_of(Atom.eq(a, b), Atom.eq(b, c)))
        assert result.is_sat
        assert result.model[a] == result.model[b] == result.model[c]

    def test_paper_gao_rexford_monotone_model(self):
        """Paper Sec. IV-C: monotone GR-A is sat with C=1, P=2, R=2."""
        C, P, R = IntVar("C"), IntVar("P"), IntVar("R")
        result = solve(system_of(
            Atom.lt(C, R), Atom.lt(C, P), Atom.eq(R, P),
            Atom.le(C, C), Atom.le(C, R), Atom.le(C, P),
            Atom.le(R, P), Atom.le(P, P),
        ))
        assert result.is_sat
        assert result.model[C] == 1
        assert result.model[P] == result.model[R] == 2

    def test_le_cycle_is_sat(self):
        result = solve(system_of(Atom.le(a, b), Atom.le(b, a)))
        assert result.is_sat
        assert result.model[a] == result.model[b]


class TestUnsat:
    def test_self_strict(self):
        result = solve(system_of(Atom.lt(a, a)))
        assert result.is_unsat
        assert len(result.core) == 1

    def test_two_cycle(self):
        result = solve(system_of(Atom.lt(a, b), Atom.lt(b, a)))
        assert result.is_unsat
        assert len(result.core) == 2

    def test_eq_conflicts_with_lt(self):
        result = solve(system_of(Atom.eq(a, b), Atom.lt(a, b)))
        assert result.is_unsat

    def test_long_cycle_core_is_the_cycle(self):
        cycle = [Atom.lt(a, b), Atom.lt(b, c), Atom.lt(c, d), Atom.lt(d, a)]
        noise = [Atom.lt(IntVar("x"), IntVar("y")),
                 Atom.le(IntVar("y"), IntVar("z"))]
        result = solve(system_of(*noise, *cycle))
        assert result.is_unsat
        assert {atom.uid for atom in result.core} == {atom.uid for atom in cycle}

    def test_core_is_minimal(self):
        cycle = [Atom.lt(a, b), Atom.lt(b, c), Atom.lt(c, a)]
        solver = DifferenceSolver()
        for atoms in (cycle, cycle + [Atom.lt(a, d)]):
            result = solve(system_of(*atoms))
            assert result.is_unsat
            assert len(result.core) == 3
            # The core itself is unsat; dropping any one atom makes it sat.
            assert not solver.check(result.core)
            for i in range(len(result.core)):
                reduced = result.core[:i] + result.core[i + 1:]
                assert solver.check(reduced)

    def test_core_preserves_input_order(self):
        atoms = [Atom.lt(a, b), Atom.lt(b, c), Atom.lt(c, a)]
        result = solve(system_of(*atoms))
        positions = [atoms.index(x) for x in result.core]
        assert positions == sorted(positions)


class TestAllCores:
    def test_two_disjoint_conflicts(self):
        x, y = IntVar("x"), IntVar("y")
        cores = DifferenceSolver().all_cores(system_of(
            Atom.lt(a, b), Atom.lt(b, a),
            Atom.lt(x, y), Atom.lt(y, x),
        ))
        assert len(cores) == 2
        flattened = {atom.uid for core in cores for atom in core}
        assert len(flattened) == 4

    def test_sat_system_has_no_cores(self):
        assert DifferenceSolver().all_cores(system_of(Atom.lt(a, b))) == []

    def test_limit_respected(self):
        x, y = IntVar("x"), IntVar("y")
        cores = DifferenceSolver().all_cores(
            system_of(Atom.lt(a, b), Atom.lt(b, a),
                      Atom.lt(x, y), Atom.lt(y, x)),
            limit=1)
        assert len(cores) == 1


class TestVerdictAndResult:
    def test_verdict_values(self):
        assert Verdict.SAT.value == "sat"
        assert Verdict.UNSAT.value == "unsat"

    def test_result_flags(self):
        sat = solve(system_of(Atom.lt(a, b)))
        assert sat.is_sat and not sat.is_unsat
        unsat = solve(system_of(Atom.lt(a, a)))
        assert unsat.is_unsat and not unsat.is_sat

    def test_check_convenience(self):
        solver = DifferenceSolver()
        assert solver.check(system_of(Atom.lt(a, b)))
        assert not solver.check(system_of(Atom.lt(a, a)))
        # Growing one system atom by atom: the closing edge flips it.
        grown = [Atom.lt(a, b), Atom.lt(b, c), Atom.lt(c, a)]
        assert [solver.check(grown[:n]) for n in range(4)] == \
            [True, True, True, False]


class TestPositivityHandling:
    def test_positivity_never_in_core(self):
        result = solve(system_of(Atom.lt(a, a)))
        assert all(atom.rel.value == "<" for atom in result.core)

    def test_disable_positivity(self):
        solver = DifferenceSolver(enforce_positive=False)
        result = solver.solve(system_of(Atom.lt(a, b)))
        assert result.is_sat


class TestScaling:
    def test_long_chain(self):
        variables = [IntVar(f"v{i}") for i in range(300)]
        atoms = [Atom.lt(u, v) for u, v in zip(variables, variables[1:])]
        result = solve(system_of(*atoms))
        assert result.is_sat
        values = [result.model[v] for v in variables]
        assert values == sorted(values)
        assert len(set(values)) == len(values)

    def test_big_cycle_detected(self):
        variables = [IntVar(f"v{i}") for i in range(150)]
        atoms = [Atom.lt(u, v) for u, v in zip(variables, variables[1:])]
        atoms.append(Atom.lt(variables[-1], variables[0]))
        result = solve(system_of(*atoms))
        assert result.is_unsat
        assert len(result.core) == len(atoms)
