"""Per-run pin of GPV and NDlog under periodic batching.

Both scalar path-vector engines put every advertisement through the same
wire discipline — RIB-out dedup, φ-suppression, and under a
``batch_interval`` the MRAI out-buffer with its per-node flush timer.
The batched half of that discipline is where the subtle rules live (a
withdraw judged against the *buffered* advert, bookkeeping at flush,
one timer draw per flush).  Every run of the ``multipath`` and ``fail``
corpora (see ``pins.py``), on each engine, must reproduce its row in
``batched_wire_corpus.json``: stop reason, message count,
:func:`pins.outcome_digest` and the digest of the run's route log.
"""

import functools

import pytest
from pins import (
    BATCHED_WIRE_BACKENDS,
    BATCHED_WIRE_CORPUS,
    batched_wire_row,
    batched_wire_row_id,
    batched_wire_run,
    batched_wire_specs,
    load_rows,
)

ROWS = load_rows(BATCHED_WIRE_CORPUS)


@functools.lru_cache(maxsize=None)
def specs_by_key() -> dict:
    return {(corpus, spec.scenario_id): spec
            for corpus, spec in batched_wire_specs()}


def test_corpora_reach_the_batched_paths():
    multipath = [spec for (corpus, _id), spec in specs_by_key().items()
                 if corpus == "multipath"]
    assert len(multipath) == 10
    assert all(spec.param("top_k") > 1 for spec in multipath)
    fail = [spec for (corpus, _id), spec in specs_by_key().items()
            if corpus == "fail"]
    assert len(fail) >= 10
    assert len({spec.family for spec in fail}) >= 4
    assert [(row["corpus"], row["spec"], row["backend"]) for row in ROWS] \
        == [(corpus, spec_id, backend) for corpus, spec_id in specs_by_key()
            for backend in BATCHED_WIRE_BACKENDS]


@pytest.mark.parametrize("row", ROWS, ids=batched_wire_row_id)
def test_batched_run_is_pinned(row):
    spec = specs_by_key()[(row["corpus"], row["spec"])]
    assert batched_wire_row(row["corpus"], spec, row["backend"]) == row


def test_backends_render_the_same_k_best_pairs():
    """A pair with no route is left out of ``route_sets`` by every backend:
    spec 30's NDlog run holds pools of φ rows only."""
    spec = specs_by_key()[("multipath", 30)]
    route_sets = {backend: batched_wire_run(spec, backend)[1].route_sets
                  for backend in BATCHED_WIRE_BACKENDS}
    assert route_sets["gpv"].keys() == route_sets["ndlog"].keys()
    assert all(all(sets.values()) for sets in route_sets.values())
