"""Per-run outcome pins: one row per (spec, backend), stop reason in the clear.

:func:`outcome_digest` reduces an :class:`~repro.exec.base.ExecutionOutcome`
to a sha1 over ``(backend, stop_reason, messages, bytes_sent, sim_time_s,
sorted routes, sorted sigs, sorted route_sets)``.  A pin file is a JSON list
of rows ``{"spec", "family", "backend", "stop_reason", "messages",
"digest"}``: the stop reason and the message count are written out, so a
diff of the file names the runs that changed and says how.

``ndlog_corpus.json`` pins the NDlog outcome of every spec the
``differential`` benchmark workload evaluates — the first 70 quick-profile
specs of ``ScenarioGenerator(7)`` over all ten families in the workload's
rotation order — each evaluated with ``--backends gpv,ndlog,hlp`` (NDlog
runs second, on the oracle's copy of the network).  That is 7 ``ibgp``
runs and 7 top-k ``multipath`` runs.  Its rows were generated at commit
f1aae6e, before the NDlog rule interpreter was replaced by compiled rules.

``gpv_corpus.json`` pins the scalar GPV run of every spec in three
default-profile corpora of ``ScenarioGenerator(7)`` — the first 90
``rotation`` specs (all ten families), the first 24 ``spp-keying`` specs
(``gadget``, ``ibgp``) and the first 80 ``scalar-gpv`` specs (``caida``,
``hierarchy``, ``multipath``, ``hlp``) — each run on its own
materialization with the spec's event timeline, as
``test_gpv_fingerprint.py`` runs them; rows carry their corpus name.  Its
rows were generated at commit 417ade0, before the simulator's send path
and the engine's link table were rewritten.

Regenerate (only when a behaviour change is intended) with::

    PYTHONPATH=src python tests/exec/pins.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.campaigns import ScenarioGenerator, evaluate, materialize
from repro.campaigns.oracle import EvaluationOptions
from repro.exec import get_backend, schedule_events

GPV_CORPUS = Path(__file__).with_name("gpv_corpus.json")
#: corpus name → (families, or None for all ten; number of specs).
GPV_CORPORA = {
    "rotation": (None, 90),
    "spp-keying": (("gadget", "ibgp"), 24),
    "scalar-gpv": (("caida", "hierarchy", "multipath", "hlp"), 80),
}

NDLOG_CORPUS = Path(__file__).with_name("ndlog_corpus.json")
NDLOG_CORPUS_SPECS = 70
NDLOG_CORPUS_FAMILIES = ("gadget", "caida", "hierarchy", "rocketfuel", "ibgp",
                         "hlp", "multipath", "tau-sweep", "secure-rov",
                         "secure-hijack")
NDLOG_CORPUS_BACKENDS = ("gpv", "ndlog", "hlp")


def outcome_digest(outcome) -> str:
    fingerprint = (outcome.backend, outcome.stop_reason, outcome.messages,
                   outcome.bytes_sent, outcome.sim_time_s,
                   sorted(outcome.routes.items()),
                   sorted(outcome.sigs.items()),
                   sorted(outcome.route_sets.items()))
    return hashlib.sha1(repr(fingerprint).encode()).hexdigest()


def pin_row(spec, outcome) -> dict:
    return {"spec": spec.scenario_id, "family": spec.family,
            "backend": outcome.backend, "stop_reason": outcome.stop_reason,
            "messages": outcome.messages, "digest": outcome_digest(outcome)}


def gpv_corpus_specs() -> list[tuple[str, object]]:
    """``(corpus, spec)`` in corpus order, then generation order."""
    return [(corpus, spec)
            for corpus, (families, count) in GPV_CORPORA.items()
            for spec in ScenarioGenerator(7, families=families).generate(count)]


def gpv_corpus_row(corpus: str, spec) -> dict:
    scenario = materialize(spec)
    session = get_backend("gpv").prepare(scenario, seed=spec.seed,
                                         log_routes=scenario.log_routes)
    schedule_events(session, scenario.events)
    outcome = session.run(until=spec.until, max_events=spec.max_events)
    return {"corpus": corpus, **pin_row(spec, outcome)}


def ndlog_corpus_specs() -> list:
    return ScenarioGenerator(7, families=NDLOG_CORPUS_FAMILIES,
                             profile="quick").generate(NDLOG_CORPUS_SPECS)


def ndlog_corpus_row(spec) -> dict:
    result = evaluate(spec, EvaluationOptions(backends=NDLOG_CORPUS_BACKENDS))
    assert not result.error, result.error
    outcome, = [o for o in result.outcomes if o.backend == "ndlog"]
    return pin_row(spec, outcome)


def load_rows(path: Path) -> list[dict]:
    return json.loads(path.read_text(encoding="utf-8"))


def write_rows(path: Path, rows: list[dict]) -> None:
    lines = ",\n".join(" " + json.dumps(row, sort_keys=True) for row in rows)
    path.write_text(f"[\n{lines}\n]\n", encoding="utf-8")


if __name__ == "__main__":
    write_rows(GPV_CORPUS, [gpv_corpus_row(corpus, spec)
                            for corpus, spec in gpv_corpus_specs()])
    print(f"wrote {GPV_CORPUS}")
    write_rows(NDLOG_CORPUS,
               [ndlog_corpus_row(spec) for spec in ndlog_corpus_specs()])
    print(f"wrote {NDLOG_CORPUS}")
