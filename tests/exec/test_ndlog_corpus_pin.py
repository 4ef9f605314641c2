"""Per-spec pin of the NDlog and HLP outcomes over the ``differential`` corpus.

Each of the 70 specs the ``differential`` benchmark workload evaluates is
run with ``gpv,ndlog,hlp`` and its NDlog outcome — and, on the ``hlp``
family, its HLP outcome — must reproduce its row in ``ndlog_corpus.json``
(stop reason, message count and :func:`pins.outcome_digest`) bit for bit.
The rows are the evaluator's behaviour — tuple order inside a table, the
FIFO local worklist, the first-best tie rule and stickiness all reach the
digest — so a change to how NDlog rules are evaluated must leave this
file unedited.  Both backends run after the primary, on the oracle's copy
of the network, so a row also moves when a later backend is handed a
different network.  See ``pins.py`` for how the rows were made.
"""

import functools

import pytest
from pins import (
    NDLOG_CORPUS,
    NDLOG_CORPUS_SPECS,
    load_rows,
    ndlog_corpus_rows,
    ndlog_corpus_specs,
    ndlog_row_id,
)

ROWS = load_rows(NDLOG_CORPUS)
NDLOG_ROWS = [row for row in ROWS if row["backend"] == "ndlog"]
HLP_ROWS = [row for row in ROWS if row["backend"] == "hlp"]


@functools.lru_cache(maxsize=None)
def specs_by_id() -> dict:
    return {spec.scenario_id: spec for spec in ndlog_corpus_specs()}


@functools.lru_cache(maxsize=None)
def fresh_rows(spec_id) -> dict:
    """backend → the spec's row as evaluated now."""
    return {row["backend"]: row
            for row in ndlog_corpus_rows(specs_by_id()[spec_id])}


def test_corpus_is_the_differential_workload():
    assert len(NDLOG_ROWS) == NDLOG_CORPUS_SPECS
    assert [row["spec"] for row in NDLOG_ROWS] == sorted(specs_by_id())
    families = [row["family"] for row in NDLOG_ROWS]
    assert families.count("ibgp") == 7
    assert families.count("multipath") == 7
    assert [row["spec"] for row in HLP_ROWS] == [
        row["spec"] for row in NDLOG_ROWS if row["family"] == "hlp"]
    assert len(ROWS) == NDLOG_CORPUS_SPECS + 7


@pytest.mark.parametrize("row", ROWS, ids=ndlog_row_id)
def test_ndlog_outcome_is_pinned(row):
    assert fresh_rows(row["spec"])[row["backend"]] == row
