"""Direct unit tests for the NDlog AST (repro.ndlog.ast)."""

import pytest

from repro.ndlog import (
    Aggregate,
    Assignment,
    Atom,
    Condition,
    Const,
    FuncCall,
    Materialize,
    Program,
    Rule,
    Var,
)


def atom(rel: str, *names: str) -> Atom:
    return Atom(relation=rel, args=tuple(Var(n) for n in names))


class TestAtom:
    def test_location_defaults_to_first_arg(self):
        a = atom("msg", "U", "V")
        assert a.location == Var("U")
        assert a.loc_index == 0

    def test_arity(self):
        assert atom("msg", "U", "V", "D").arity == 3

    def test_aggregate_index(self):
        a = Atom("best", (Var("U"), Aggregate("a_pref", Var("S")), Var("P")))
        assert a.aggregate_index() == 1
        assert atom("t", "X").aggregate_index() is None

    def test_str_marks_location(self):
        assert str(atom("msg", "U", "V")) == "msg(@U,V)"


class TestRule:
    def test_body_atoms_filters_elements(self):
        rule = Rule("r", atom("h", "X"), [
            atom("a", "X"),
            Assignment(Var("Y"), FuncCall("f_g", (Var("X"),))),
            Condition(Var("Y"), "==", Const(1)),
            atom("b", "X", "Y"),
        ])
        assert [a.relation for a in rule.body_atoms()] == ["a", "b"]

    def test_is_aggregate(self):
        head = Atom("best", (Var("U"), Aggregate("a_min", Var("C"))))
        assert Rule("r", head, [atom("t", "U", "C")]).is_aggregate
        assert not Rule("r", atom("h", "U"), [atom("t", "U")]).is_aggregate

    def test_str_renders_full_rule(self):
        rule = Rule("r1", atom("h", "X"), [atom("b", "X")])
        assert str(rule) == "r1 h(@X) :- b(@X)."


class TestMaterialize:
    def test_str_is_one_based(self):
        decl = Materialize("sig", (0, 1, 2))
        assert "keys(1,2,3)" in str(decl)


class TestProgramValidation:
    def make(self, rules, materialized=()):
        program = Program(name="p")
        for relation, keys in materialized:
            program.materialized[relation] = Materialize(relation, keys)
        program.rules.extend(rules)
        return program

    def test_rules_triggered_by_returns_positions(self):
        rule = Rule("r", atom("h", "X"),
                    [atom("a", "X"), atom("b", "X"), atom("a", "X")])
        program = self.make([rule], [("a", (0,)), ("b", (0,)), ("h", (0,))])
        hits = program.rules_triggered_by("a")
        assert [(r.name, pos) for r, pos in hits] == [("r", 0), ("r", 2)]

    def test_rejects_rule_without_atoms(self):
        rule = Rule("r", atom("h", "X"),
                    [Assignment(Var("X"), Const(1))])
        with pytest.raises(ValueError, match="no body atoms"):
            self.make([rule]).validate()

    def test_rejects_two_event_atoms(self):
        rule = Rule("r", atom("h", "X"), [atom("e1", "X"), atom("e2", "X")])
        with pytest.raises(ValueError, match="more than one event"):
            self.make([rule], [("h", (0,))]).validate()

    def test_rejects_aggregate_over_event(self):
        head = Atom("best", (Var("U"), Aggregate("a_min", Var("C"))))
        rule = Rule("r", head, [atom("ev", "U", "C")])
        with pytest.raises(ValueError, match="event relation"):
            self.make([rule], [("best", (0,))]).validate()

    def test_rejects_multi_atom_aggregate(self):
        head = Atom("best", (Var("U"), Aggregate("a_min", Var("C"))))
        rule = Rule("r", head, [atom("a", "U", "C"), atom("b", "U")])
        with pytest.raises(ValueError, match="exactly one body atom"):
            self.make([rule], [("a", (0,)), ("b", (0,)),
                               ("best", (0,))]).validate()

    def test_valid_program_passes(self):
        rule = Rule("r", atom("h", "X"), [atom("e", "X"), atom("t", "X")])
        self.make([rule], [("t", (0,)), ("h", (0,))]).validate()
