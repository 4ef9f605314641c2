"""Outcome-fingerprint pin for the later scalar backends of an evaluation.

The oracle runs every configured scalar backend over the same seeded
timeline; only the first gets the scenario's own network, so whatever
the later ones are handed (a re-materialization, a copy) must make them
send the same messages at the same instants and end holding the same
routes.  Each of the first 20 quick-profile specs of seed 7 — all ten
families, with ``fail``, ``perturb`` and ``hijack`` events among them —
is evaluated with ``--backends gpv,ndlog,hlp`` and every outcome *after
the primary* (NDlog everywhere, HLP third on the ``hlp`` family) is
reduced to a sha1 over ``(backend, stop_reason, messages, bytes_sent,
sim_time_s, sorted routes, sorted sigs, sorted route_sets)``; the
digests of one family fold into one aggregate.  The aggregates below
were generated at commit ef600da (PR 18), where every later backend ran
on its own ``materialize(spec)``.  A changed digest means a later
backend now sees a different network — a link, label or ``rib_in``
insertion order that moved.

Regenerate (only when a behaviour change is intended) with::

    PYTHONPATH=src python tests/exec/test_ndlog_fingerprint.py
"""

import functools
import hashlib
from collections import defaultdict

import pytest

from repro.campaigns import ScenarioGenerator, evaluate
from repro.campaigns.oracle import EvaluationOptions

SPECS = 20
BACKENDS = ("gpv", "ndlog", "hlp")

EXPECTED = {
    "caida": "e4ad3256200d64bc1d861c79b4927b70b2082023",
    "gadget": "17baf6f09d524d56dc81afe331c5d3cdb28bc149",
    "hierarchy": "561522dd7f4b3873f936d8ffd1b4bbf6dbd4995a",
    "hlp": "d1ec5d067c73ef5199c0bba92f634bd7ef0099b0",
    "ibgp": "208b60bac6fed8e468c63f4fb5fd5577287622b0",
    "multipath": "090d202a2fbec7e9543132d8ceeaf3ef7b631b91",
    "rocketfuel": "68f25c29e7c7a017d74bcf66b8d95f4dc613c4ee",
    "secure-hijack": "83d1e48c75aa4e4fc78565f70d329672171a70e0",
    "secure-rov": "f48a84916cc579ce2f7e4f2a6048497601b1b83d",
    "tau-sweep": "a2ea62b55deed3272451f0b64dd33a04b8bf64e2",
}


def scenario_digest(spec) -> str:
    result = evaluate(spec, EvaluationOptions(backends=BACKENDS))
    assert not result.error, result.error
    later = result.outcomes[1:]
    assert later and later[0].backend == "ndlog"
    fingerprint = [
        (outcome.backend, outcome.stop_reason, outcome.messages,
         outcome.bytes_sent, outcome.sim_time_s,
         sorted(outcome.routes.items()), sorted(outcome.sigs.items()),
         sorted(outcome.route_sets.items()))
        for outcome in later]
    return hashlib.sha1(repr(fingerprint).encode()).hexdigest()


@functools.lru_cache(maxsize=None)
def family_digests() -> dict[str, str]:
    per_family: dict[str, list[str]] = defaultdict(list)
    for spec in ScenarioGenerator(7, profile="quick").generate(SPECS):
        per_family[spec.family].append(scenario_digest(spec))
    return {family: hashlib.sha1("".join(digests).encode()).hexdigest()
            for family, digests in per_family.items()}


@pytest.mark.parametrize("family", sorted(EXPECTED))
def test_later_backend_outcomes_are_bit_identical(family):
    assert family_digests()[family] == EXPECTED[family]


def test_every_family_is_pinned():
    assert set(family_digests()) == set(EXPECTED)


if __name__ == "__main__":
    import pprint
    pprint.pprint(family_digests())
