"""Property-based tests over randomly generated finite algebras."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.algebra import PHI, AlgebraTables, TableAlgebra
from repro.algebra.laws import validate_algebra
from repro.analysis import SafetyAnalyzer

SIGS = ["S0", "S1", "S2"]
LABELS = ["l0", "l1"]


@st.composite
def table_algebras(draw):
    """Random finite algebras with total rank-based preference."""
    ranks = {s: draw(st.integers(min_value=0, max_value=2)) for s in SIGS}
    concat = {}
    for label in LABELS:
        for sig in SIGS:
            target = draw(st.sampled_from(SIGS + [None]))
            if target is not None:
                concat[(label, sig)] = target
    reverse = {"l0": draw(st.sampled_from(LABELS))}
    # Force involution: l1 maps back consistently.
    reverse["l1"] = "l0" if reverse["l0"] == "l1" else "l1"
    if reverse["l0"] == "l0":
        reverse["l1"] = "l1"
    tables = AlgebraTables(
        labels=LABELS, signatures=SIGS, preference=ranks,
        concat=concat, reverse=reverse,
        origination={label: draw(st.sampled_from(SIGS))
                     for label in LABELS},
    )
    return TableAlgebra("random", tables)


@given(table_algebras())
@settings(max_examples=100, deadline=None)
def test_random_algebras_are_well_formed(algebra):
    """Rank-based tables always satisfy the structural laws."""
    assert validate_algebra(algebra) == []


@given(table_algebras())
@settings(max_examples=100, deadline=None)
def test_verdict_matches_bruteforce_semantics(algebra):
    """The solver verdict equals a brute-force search for a strictly
    monotonic rank assignment (tiny domain => exhaustive check)."""
    import itertools

    report = SafetyAnalyzer().analyze(algebra)

    def satisfies(assignment: dict) -> bool:
        for statement in algebra.preference_statements():
            a, b = assignment[statement.s1], assignment[statement.s2]
            if statement.rel.value == "<" and not a < b:
                return False
            if statement.rel.value == "=" and a != b:
                return False
            if statement.rel.value == "<=" and not a <= b:
                return False
        for entry in algebra.mono_entries():
            if not assignment[entry.sig] < assignment[entry.result]:
                return False
        return True

    # 3 signatures, values 1..6 suffice for any consistent total order.
    exists = any(
        satisfies(dict(zip(SIGS, values)))
        for values in itertools.product(range(1, 7), repeat=len(SIGS)))
    assert report.safe == exists


@given(table_algebras())
@settings(max_examples=60, deadline=None)
def test_safe_verdict_model_is_a_witness(algebra):
    """When safe, the returned model itself satisfies every constraint."""
    report = SafetyAnalyzer().analyze(algebra)
    if not report.safe:
        return
    model = report.model
    for statement in algebra.preference_statements():
        a, b = model[statement.s1], model[statement.s2]
        if statement.rel.value == "<":
            assert a < b
        elif statement.rel.value == "=":
            assert a == b
        else:
            assert a <= b
    for entry in algebra.mono_entries():
        assert model[entry.sig] < model[entry.result]


@given(table_algebras(), st.sampled_from(LABELS), st.sampled_from(SIGS))
@settings(max_examples=100, deadline=None)
def test_oplus_respects_filters(algebra, label, sig):
    """The combined ⊕ is φ exactly when a filter fires or ⊕P is undefined."""
    expected_phi = (
        not algebra.export_allows(algebra.reverse_label(label), sig)
        or not algebra.import_allows(label, sig)
        or (label, sig) not in algebra.tables.concat
    )
    assert (algebra.oplus(label, sig) is PHI) == expected_phi
