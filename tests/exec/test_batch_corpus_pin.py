"""Per-run pin of the batch backend over the ``admitted-cold`` corpus.

Each batch-admitted spec among the first 135 ``admitted-cold`` specs (see
``pins.py``) is admitted on an empty kernel cache and relaxed alone; its
kernel's ``hazard`` flag, signature and hole counts, its run-time decline
reason and its outcome digest must reproduce the row in
``batch_corpus.json``.  Tabulation rank-sorts the closure, draws the
preference classes and verifies strictness from the algebra's order, and
the hazard flag and every rendered signature follow from them — so a
change to how tabulation orders signatures must leave this file
unedited.
"""

import functools

import pytest
from pins import (
    BATCH_CORPUS,
    BATCH_CORPUS_SPECS,
    batch_corpus_row,
    batch_row_id,
    batch_corpus_specs,
    load_rows,
)

ROWS = load_rows(BATCH_CORPUS)


@functools.lru_cache(maxsize=None)
def specs_by_id() -> dict:
    return {spec.scenario_id: spec for spec in batch_corpus_specs()}


def test_corpus_is_the_admitted_prefix():
    """Every one of the 135 specs is batch-admitted, so every one has a
    row; the rows reach kernels with and without a tie hazard and a
    run-time decline."""
    assert [row["spec"] for row in ROWS] == sorted(specs_by_id())
    assert len(ROWS) == BATCH_CORPUS_SPECS
    assert {row["hazard"] for row in ROWS} == {False, True}
    assert any(row["decline"] for row in ROWS)


@pytest.mark.parametrize("row", ROWS, ids=batch_row_id)
def test_batch_outcome_is_pinned(row):
    assert batch_corpus_row(specs_by_id()[row["spec"]]) == row
