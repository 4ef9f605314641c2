"""Unit tests for the constraint language (repro.smt.terms)."""

from repro.smt import Atom, ConstraintSystem, IntVar, Relation


class TestIntVar:
    def test_equality_by_name(self):
        assert IntVar("C") == IntVar("C")
        assert IntVar("C") != IntVar("P")

    def test_hashable_and_usable_as_key(self):
        d = {IntVar("x"): 1}
        assert d[IntVar("x")] == 1

    def test_ordering_by_name(self):
        assert IntVar("a") < IntVar("b")


class TestAtomConstructors:
    def test_lt(self):
        atom = Atom.lt(IntVar("a"), IntVar("b"))
        assert atom.rel is Relation.LT
        assert str(atom) == "a < b"

    def test_le(self):
        atom = Atom.le(IntVar("a"), IntVar("b"))
        assert atom.rel is Relation.LE

    def test_eq(self):
        atom = Atom.eq(IntVar("a"), IntVar("b"))
        assert atom.rel is Relation.EQ

    def test_origin_is_preserved(self):
        atom = Atom.lt(IntVar("a"), IntVar("b"), origin="rank[x]")
        assert atom.origin == "rank[x]"

    def test_uids_are_unique(self):
        a1 = Atom.lt(IntVar("a"), IntVar("b"))
        a2 = Atom.lt(IntVar("a"), IntVar("b"))
        assert a1.uid != a2.uid


class TestDifferenceEdges:
    def test_le_normal_form(self):
        a, b = IntVar("a"), IntVar("b")
        assert Atom.le(a, b).difference_edges() == [(a, b, 0)]

    def test_lt_normal_form_strictness_via_minus_one(self):
        a, b = IntVar("a"), IntVar("b")
        assert Atom.lt(a, b).difference_edges() == [(a, b, -1)]

    def test_eq_gives_two_edges(self):
        a, b = IntVar("a"), IntVar("b")
        assert set(Atom.eq(a, b).difference_edges()) == {(a, b, 0), (b, a, 0)}


class TestEvaluate:
    def test_lt_true_false(self):
        a, b = IntVar("a"), IntVar("b")
        atom = Atom.lt(a, b)
        assert atom.evaluate({a: 1, b: 2})
        assert not atom.evaluate({a: 2, b: 2})

    def test_eq(self):
        a, b = IntVar("a"), IntVar("b")
        atom = Atom.eq(a, b)
        assert atom.evaluate({a: 3, b: 3})
        assert not atom.evaluate({a: 3, b: 4})


class TestConstraintSystem:
    def test_add_returns_atom(self):
        system = ConstraintSystem()
        atom = system.add(Atom.lt(IntVar("a"), IntVar("b")))
        assert atom in list(system)

    def test_len_and_iteration_order(self):
        system = ConstraintSystem()
        first = system.add(Atom.lt(IntVar("a"), IntVar("b")))
        second = system.add(Atom.lt(IntVar("b"), IntVar("c")))
        assert len(system) == 2
        assert list(system) == [first, second]

    def test_variables_in_insertion_order(self):
        system = ConstraintSystem()
        system.add(Atom.lt(IntVar("z"), IntVar("a")))
        system.add(Atom.lt(IntVar("a"), IntVar("m")))
        assert system.variables() == [IntVar("z"), IntVar("a"), IntVar("m")]

    def test_str_lists_atoms(self):
        system = ConstraintSystem()
        system.add(Atom.lt(IntVar("a"), IntVar("b")))
        assert "a < b" in str(system)

