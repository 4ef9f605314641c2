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

Regenerate (only when a behaviour change is intended) with::

    PYTHONPATH=src python tests/exec/pins.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.campaigns import ScenarioGenerator, evaluate
from repro.campaigns.oracle import EvaluationOptions

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
    write_rows(NDLOG_CORPUS,
               [ndlog_corpus_row(spec) for spec in ndlog_corpus_specs()])
    print(f"wrote {NDLOG_CORPUS}")
