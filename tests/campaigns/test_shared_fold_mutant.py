"""What the oracle loses when GPV and the generated NDlog share their folds.

The native engine and the NDlog code generator take the same ⊕ folds
from :func:`~repro.algebra.extended.path_vector_folds`, so a bug planted
there moves both evaluators alike and ``gpv~ndlog`` keeps agreeing.  The
check that still sees it is ``batch``, whose kernels tabulate the
algebra's combined ⊕ instead.  The mutant here drops ⊕I from the receive
fold; over the first 40 seed-7 specs of the caida, hierarchy,
rocketfuel and secure families it is a hard divergence in two (specs 4
and 29, both ``secure-hijack`` over a ``filter``-mode algebra), caught by
``gpv~batch`` and ``ndlog~batch`` alone.
"""

import pytest

from repro.algebra import PHI
from repro.algebra.extended import path_vector_folds, split_operators
from repro.campaigns import ScenarioGenerator, evaluate
from repro.campaigns.report import AGREE, ROUTE_DIVERGED

FAMILIES = ("caida", "hierarchy", "rocketfuel", "secure-rov",
            "secure-hijack")
BACKENDS = ("gpv", "ndlog", "batch")


def folds_without_import_filter(algebra):
    _import_allows, concat, _export_allows = split_operators(algebra)
    _combine, export = path_vector_folds(algebra)

    def combine(label, sig, path, node):
        if sig is PHI or node in path:
            return PHI
        return concat(label, sig)

    return combine, export


def pair_statuses(spec) -> dict[str, str]:
    result = evaluate(spec, BACKENDS)
    assert not result.error, result.error
    return {pair.pair: pair.status for pair in result.pairwise
            if pair.left != "analysis"}


@pytest.fixture(params=[4, 29])
def spec(request):
    return ScenarioGenerator(7, families=FAMILIES).make(request.param)


def test_unmutated_backends_agree(spec):
    assert set(pair_statuses(spec).values()) == {AGREE}


def test_fold_mutant_is_caught_through_batch_only(spec, monkeypatch):
    for module in ("repro.protocols.gpv", "repro.ndlog.codegen"):
        monkeypatch.setattr(f"{module}.path_vector_folds",
                            folds_without_import_filter)
    assert pair_statuses(spec) == {"gpv~ndlog": AGREE,
                                   "gpv~batch": ROUTE_DIVERGED,
                                   "ndlog~batch": ROUTE_DIVERGED}
