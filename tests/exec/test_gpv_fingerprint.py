"""Outcome-fingerprint pin for the scalar GPV engine.

A speed-up of the event loop, the link lookups or the per-message body of
:class:`~repro.protocols.gpv.GPVEngine` must not change what any run
*does*: which messages are sent, when, and what every node ends up
holding.  Each scenario is reduced to a sha1 over ``(stop_reason,
messages, bytes_sent, sim_time_s, sorted routes, sorted route_sets,
route_log)``; the per-scenario digests of one family fold into one
aggregate, and the aggregates below were generated at commit 9353d9f
(PR 13), before any engine edit.  A changed digest means the engine now
sends a different message somewhere — e.g. re-keying ``rib_in`` by
destination changes the order ``fail_link`` reselects in and moves one
``multipath`` run by a single message.

Regenerate (only when a behaviour change is intended) with::

    PYTHONPATH=src python tests/exec/test_gpv_fingerprint.py
"""

import functools
import hashlib
from collections import defaultdict

import pytest

from repro.campaigns import ScenarioGenerator, materialize
from repro.exec import get_backend, schedule_events

#: corpus name → (families or None for all ten, number of specs).
CORPORA = {
    "rotation": (None, 90),
    "scalar-gpv": (("caida", "hierarchy", "multipath", "hlp"), 80),
}

EXPECTED = {
    "rotation": {
        "caida": "4d9525571beb15df7eef2fb8403a99134e8240e4",
        "gadget": "44a4a84efabb77291eed22457f2b44180a0310b7",
        "hierarchy": "6902447f094fdb2a55a0f98436eeab446f389aaa",
        "hlp": "bc9870ba9c5fedba5f5a150d21b56b918d81f88a",
        "ibgp": "dc555cc72f615b2cc4917526d5b11ab614b3aebd",
        "multipath": "aa65f5ec305155ea5d7381518aec5c07277143a1",
        "rocketfuel": "d229a70cfe70e5c957c0523c941f4cb705926dce",
        "secure-hijack": "08f5188259f5e2a8740665ef342861628f5994dc",
        "secure-rov": "f548aac4ddcff8af8434d59fbbb9ca0300cef03e",
        "tau-sweep": "d3c7314b5f7ff4ac1040619b5b802480dc8d87f4",
    },
    "scalar-gpv": {
        "caida": "5b30c8608eb30d5d517935d35d7c0a287bca4200",
        "hierarchy": "90f15ab7ba301db04546c9dc127cecfe829b292e",
        "hlp": "b3757f339c043a1af5fd2d8c26313eea333c7f9e",
        "multipath": "156fa6009f84fd611df023a45b84895b2d966116",
    },
}


def scenario_digest(spec) -> str:
    scenario = materialize(spec)
    session = get_backend("gpv").prepare(scenario, seed=spec.seed,
                                         log_routes=scenario.log_routes)
    schedule_events(session, scenario.events)
    outcome = session.run(until=spec.until, max_events=spec.max_events)
    fingerprint = (outcome.stop_reason, outcome.messages, outcome.bytes_sent,
                   outcome.sim_time_s, sorted(outcome.routes.items()),
                   sorted(outcome.route_sets.items()),
                   list(session.route_log))
    return hashlib.sha1(repr(fingerprint).encode()).hexdigest()


@functools.lru_cache(maxsize=None)
def family_digests(corpus: str) -> dict[str, str]:
    families, count = CORPORA[corpus]
    per_family: dict[str, list[str]] = defaultdict(list)
    for spec in ScenarioGenerator(7, families=families).generate(count):
        per_family[spec.family].append(scenario_digest(spec))
    return {family: hashlib.sha1("".join(digests).encode()).hexdigest()
            for family, digests in per_family.items()}


@pytest.mark.parametrize("corpus,family", [
    (corpus, family) for corpus, expected in EXPECTED.items()
    for family in expected])
def test_family_outcomes_are_bit_identical(corpus, family):
    assert family_digests(corpus)[family] == EXPECTED[corpus][family]


@pytest.mark.parametrize("corpus", CORPORA)
def test_every_family_of_the_corpus_is_pinned(corpus):
    assert set(family_digests(corpus)) == set(EXPECTED[corpus])


if __name__ == "__main__":
    import pprint
    pprint.pprint({corpus: family_digests(corpus) for corpus in CORPORA})
