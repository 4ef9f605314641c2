"""Outcome-fingerprint pin for GPV and NDlog under periodic batching.

Both scalar path-vector engines put every advertisement through the same
wire discipline — RIB-out dedup, φ-suppression, and under a
``batch_interval`` the MRAI out-buffer with its per-node flush timer.
The batched half of that discipline is where the subtle rules live (a
withdraw judged against the *buffered* advert, bookkeeping at flush,
one timer draw per flush), and the other pins barely reach it: the
NDlog pin holds 6 batched specs and no batched top-k one.  This pin
runs both engines, each on its own materialization with the spec's
event timeline, over two corpora of quick-profile seed-7 specs:

* ``multipath`` — the first 10 batched specs of the ``multipath``
  family, every one with ``top_k > 1``;
* ``fail`` — the batched specs of the first 120 over all families that
  carry at least one ``fail`` event (session failure while adverts may
  sit in an out-buffer).

Each run is reduced to a sha1 over ``(stop_reason, messages,
bytes_sent, sim_time_s, sorted routes, sorted sigs, sorted route_sets,
route_log)``; the per-spec digests of one corpus and backend fold into
one aggregate.  The aggregates below were generated at commit 241eb6e,
before the two engines' transports were merged into one.

Regenerate (only when a behaviour change is intended) with::

    PYTHONPATH=src python tests/exec/test_batched_wire_fingerprint.py
"""

import functools
import hashlib

import pytest

from repro.campaigns import ScenarioGenerator, materialize
from repro.exec import get_backend, schedule_events

BACKENDS = ("gpv", "ndlog")

EXPECTED = {
    "multipath": {
        "gpv": "c78b142364486d339e60781c9898189266d8c43e",
        "ndlog": "e817d28977036ea343924bedf4ef0d7d3f2c8ed6",
    },
    "fail": {
        "gpv": "d0fb19d5e3c8ae55c1ce3de79ce35f8f73f1021f",
        "ndlog": "3b52da069d0998e42fc47743a282054a50f50da2",
    },
}


def _batched(spec) -> bool:
    return spec.param("batch_interval") is not None


@functools.lru_cache(maxsize=None)
def corpus(name: str) -> tuple:
    if name == "multipath":
        specs = ScenarioGenerator(7, families=("multipath",),
                                  profile="quick").generate(40)
        return tuple([s for s in specs if _batched(s)][:10])
    specs = ScenarioGenerator(7, profile="quick").generate(120)
    return tuple(s for s in specs if _batched(s)
                 and any(e.kind == "fail" for e in s.events))


def scenario_digest(spec, backend: str) -> str:
    scenario = materialize(spec)
    session = get_backend(backend).prepare(scenario, seed=spec.seed,
                                           log_routes=True)
    schedule_events(session, scenario.events)
    outcome = session.run(until=spec.until, max_events=spec.max_events)
    fingerprint = (outcome.stop_reason, outcome.messages, outcome.bytes_sent,
                   outcome.sim_time_s, sorted(outcome.routes.items()),
                   sorted(outcome.sigs.items()),
                   sorted(outcome.route_sets.items()),
                   list(session.route_log))
    return hashlib.sha1(repr(fingerprint).encode()).hexdigest()


@functools.lru_cache(maxsize=None)
def corpus_digest(name: str, backend: str) -> str:
    digests = [scenario_digest(spec, backend) for spec in corpus(name)]
    return hashlib.sha1("".join(digests).encode()).hexdigest()


def test_corpora_reach_the_batched_paths():
    multipath = corpus("multipath")
    assert len(multipath) == 10
    assert all(spec.param("top_k") > 1 for spec in multipath)
    fail = corpus("fail")
    assert len(fail) >= 10
    assert len({spec.family for spec in fail}) >= 4


@pytest.mark.parametrize("name,backend", [
    (name, backend) for name in EXPECTED for backend in BACKENDS])
def test_batched_outcomes_are_bit_identical(name, backend):
    assert corpus_digest(name, backend) == EXPECTED[name][backend]


if __name__ == "__main__":
    import pprint
    pprint.pprint({name: {backend: corpus_digest(name, backend)
                          for backend in BACKENDS} for name in EXPECTED})
