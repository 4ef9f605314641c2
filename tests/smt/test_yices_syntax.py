"""Tests for the Yices-syntax printer (repro.smt.yices_syntax)."""

from repro.smt import Atom, ConstraintSystem, IntVar, to_yices


def gao_rexford_strict_system() -> ConstraintSystem:
    C, P, R = IntVar("C"), IntVar("P"), IntVar("R")
    s = ConstraintSystem()
    s.add(Atom.lt(C, R, "pref: C < R"))
    s.add(Atom.lt(C, P, "pref: C < P"))
    s.add(Atom.eq(R, P, "pref: R = P"))
    s.add(Atom.lt(C, C, "mono: c (+) C"))
    return s


class TestPrinter:
    def test_header_matches_paper(self):
        text = to_yices(gao_rexford_strict_system())
        assert text.startswith(
            "(define-type Sig (subtype (n::nat) (> n 0)))")

    def test_defines_every_variable(self):
        text = to_yices(gao_rexford_strict_system())
        for name in ("C", "P", "R"):
            assert f"(define {name}::Sig)" in text

    def test_assert_syntax(self):
        text = to_yices(gao_rexford_strict_system())
        assert "(assert (< C R))" in text
        assert "(assert (= R P))" in text

    def test_comment_banners_from_origins(self):
        text = to_yices(gao_rexford_strict_system())
        assert ";; pref" in text
        assert ";; mono" in text

    def test_comments_can_be_disabled(self):
        text = to_yices(gao_rexford_strict_system(), comments=False)
        assert ";;" not in text

    def test_ends_with_check(self):
        assert to_yices(gao_rexford_strict_system()).strip().endswith("(check)")

