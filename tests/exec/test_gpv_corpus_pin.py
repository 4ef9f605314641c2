"""Per-run pin of the scalar GPV outcomes over three benchmark corpora.

Each spec of the ``rotation``, ``spp-keying`` and ``scalar-gpv`` corpora
(see ``pins.py``) is run on the ``gpv`` backend alone and must reproduce
its row in ``gpv_corpus.json`` — stop reason, message count,
:func:`pins.outcome_digest` and the route-log digest — bit for bit.  The
rows are the simulator's and the engine's behaviour: every ``sim.rng``
draw, every timestamp's rounding and every event's sequence number reach
the digest through the message count and ``sim_time_s``, and every
accepted route reaches the ``route_log`` column, so a faster send path or
link lookup must leave this file unedited.  A changed row names the run
that changed.
"""

import functools

import pytest
from pins import (
    GPV_CORPORA,
    GPV_CORPUS,
    gpv_corpus_row,
    gpv_corpus_specs,
    load_rows,
)

ROWS = load_rows(GPV_CORPUS)


@functools.lru_cache(maxsize=None)
def specs_by_key() -> dict:
    return {(corpus, spec.scenario_id): spec
            for corpus, spec in gpv_corpus_specs()}


def test_corpora_are_the_benchmark_prefixes():
    assert [(row["corpus"], row["spec"]) for row in ROWS] == list(
        specs_by_key())
    for corpus, (_families, count) in GPV_CORPORA.items():
        assert sum(row["corpus"] == corpus for row in ROWS) == count
    assert all(row["backend"] == "gpv" for row in ROWS)


@pytest.mark.parametrize("row", ROWS,
                         ids=lambda row: f"{row['corpus']}-spec{row['spec']}")
def test_gpv_outcome_is_pinned(row):
    spec = specs_by_key()[(row["corpus"], row["spec"])]
    assert gpv_corpus_row(row["corpus"], spec) == row
