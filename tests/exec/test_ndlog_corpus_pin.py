"""Per-spec pin of the NDlog outcomes over the ``differential`` corpus.

Each of the 70 specs the ``differential`` benchmark workload evaluates is
run with ``gpv,ndlog,hlp`` and its NDlog outcome must reproduce the row in
``ndlog_corpus.json`` (stop reason, message count and
:func:`pins.outcome_digest`) bit for bit.  The rows are the evaluator's
behaviour — tuple order inside a table, the FIFO local worklist, the
first-best tie rule and stickiness all reach the digest — so a change to
how NDlog rules are evaluated must leave this file unedited.  See
``pins.py`` for how the rows were made.
"""

import functools

import pytest
from pins import (
    NDLOG_CORPUS,
    NDLOG_CORPUS_SPECS,
    load_rows,
    ndlog_corpus_row,
    ndlog_corpus_specs,
)

ROWS = load_rows(NDLOG_CORPUS)


@functools.lru_cache(maxsize=None)
def specs_by_id() -> dict:
    return {spec.scenario_id: spec for spec in ndlog_corpus_specs()}


def test_corpus_is_the_differential_workload():
    assert len(ROWS) == NDLOG_CORPUS_SPECS
    assert [row["spec"] for row in ROWS] == sorted(specs_by_id())
    families = [row["family"] for row in ROWS]
    assert families.count("ibgp") == 7
    assert families.count("multipath") == 7
    assert all(row["backend"] == "ndlog" for row in ROWS)


@pytest.mark.parametrize("row", ROWS, ids=lambda row: f"spec{row['spec']}")
def test_ndlog_outcome_is_pinned(row):
    assert ndlog_corpus_row(specs_by_id()[row["spec"]]) == row
