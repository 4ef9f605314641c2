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
runs and 7 top-k ``multipath`` runs.  Each of the 7 ``hlp``-family specs
adds an ``hlp`` row after its NDlog row: the HLP backend runs third there.
The NDlog rows were generated at commit f1aae6e, before the NDlog rule
interpreter was replaced by compiled rules; the ``hlp`` rows at e3d8fd4.

``gpv_corpus.json`` pins the scalar GPV run of every spec in three
default-profile corpora of ``ScenarioGenerator(7)`` — the first 90
``rotation`` specs (all ten families), the first 24 ``spp-keying`` specs
(``gadget``, ``ibgp``) and the first 80 ``scalar-gpv`` specs (``caida``,
``hierarchy``, ``multipath``, ``hlp``) — each run on its own
materialization with the spec's event timeline; rows carry their corpus
name and a ``route_log`` column (see below).  Its rows were generated at
commit 417ade0, before the simulator's send path and the engine's link
table were rewritten; the ``route_log`` column at e3d8fd4.

``batch_corpus.json`` pins the batch backend on the first 135 specs of the
``admitted-cold`` benchmark corpus (``rocketfuel``, ``tau-sweep``,
``secure-rov``, ``secure-hijack``; default profile), every one of them
batch-admitted.  Each spec is admitted on an empty kernel cache, so its row
records the kernel tabulated for it alone — relaxation ``mode``,
``hazard``, the number of signatures and of hole entries — then the
run-time decline reason (``None`` when the group settles) and the
outcome's digest.  Tabulation's rank sort, preference classes and
strictness checks all reach those columns.

``batched_wire_corpus.json`` pins the GPV and NDlog runs of two corpora of
quick-profile seed-7 specs that run under periodic batching (the MRAI
out-buffer):

* ``multipath`` — the first 10 batched specs of the ``multipath`` family,
  every one with ``top_k > 1``;
* ``fail`` — the batched specs of the first 120 over all families that
  carry at least one ``fail`` event.

Each run is on its own materialization with the spec's event timeline and
route logging on.  Its row, like a ``gpv_corpus.json`` row, adds a
``route_log`` column (:func:`route_log_digest`, a sha1 over the logged
acceptances), which :func:`outcome_digest` does not cover.  The rows were
generated at commit 9d050d0, before signatures were ranked by key.

Regenerate (only when a behaviour change is intended) with::

    PYTHONPATH=src python tests/exec/pins.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.campaigns import ScenarioGenerator, evaluate, materialize
from repro.campaigns.oracle import EvaluationOptions
from repro.exec import batch, get_backend, schedule_events

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

BATCH_CORPUS = Path(__file__).with_name("batch_corpus.json")
BATCH_CORPUS_SPECS = 135
BATCH_CORPUS_FAMILIES = ("rocketfuel", "tau-sweep", "secure-rov",
                         "secure-hijack")

BATCHED_WIRE_CORPUS = Path(__file__).with_name("batched_wire_corpus.json")
BATCHED_WIRE_BACKENDS = ("gpv", "ndlog")


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


def route_log_digest(session) -> str:
    return hashlib.sha1(repr(list(session.route_log)).encode()).hexdigest()


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
    return {"corpus": corpus, **pin_row(spec, outcome),
            "route_log": route_log_digest(session)}


def ndlog_corpus_specs() -> list:
    return ScenarioGenerator(7, families=NDLOG_CORPUS_FAMILIES,
                             profile="quick").generate(NDLOG_CORPUS_SPECS)


def ndlog_corpus_rows(spec) -> list[dict]:
    """The spec's NDlog row, then its HLP row if the HLP backend ran."""
    result = evaluate(spec, EvaluationOptions(backends=NDLOG_CORPUS_BACKENDS))
    assert not result.error, result.error
    return [pin_row(spec, outcome) for outcome in result.outcomes
            if outcome.backend in ("ndlog", "hlp")]


def batch_corpus_specs() -> list:
    return ScenarioGenerator(7, families=BATCH_CORPUS_FAMILIES).generate(
        BATCH_CORPUS_SPECS)


def batch_corpus_row(spec) -> dict | None:
    """The spec's batch row, or ``None`` when admission refuses it."""
    batch.clear_kernel_cache()
    problem = get_backend("batch").supports(materialize(spec))
    if problem is None:
        return None
    kernel = problem.kernel
    row = {"spec": spec.scenario_id, "family": spec.family,
           "mode": kernel.mode, "hazard": kernel.hazard,
           "sigs": len(kernel.sigs), "holes": kernel.hole_count}
    try:
        batch._relax_group([problem])
    except batch.BatchDeclined as decline:
        return {**row, "decline": str(decline), "digest": None}
    return {**row, "decline": None,
            "digest": outcome_digest(problem.outcome())}


def _batched(spec) -> bool:
    return spec.param("batch_interval") is not None


def batched_wire_corpus(name: str) -> list:
    if name == "multipath":
        specs = ScenarioGenerator(7, families=("multipath",),
                                  profile="quick").generate(40)
        return [s for s in specs if _batched(s)][:10]
    specs = ScenarioGenerator(7, profile="quick").generate(120)
    return [s for s in specs if _batched(s)
            and any(e.kind == "fail" for e in s.events)]


def batched_wire_specs() -> list[tuple[str, object]]:
    """``(corpus, spec)`` in corpus order, then generation order."""
    return [(name, spec) for name in ("multipath", "fail")
            for spec in batched_wire_corpus(name)]


def batched_wire_row(corpus: str, spec, backend: str) -> dict:
    scenario = materialize(spec)
    session = get_backend(backend).prepare(scenario, seed=spec.seed,
                                           log_routes=True)
    schedule_events(session, scenario.events)
    outcome = session.run(until=spec.until, max_events=spec.max_events)
    return {"corpus": corpus, **pin_row(spec, outcome),
            "route_log": route_log_digest(session)}


def load_rows(path: Path) -> list[dict]:
    return json.loads(path.read_text(encoding="utf-8"))


def write_rows(path: Path, rows: list[dict]) -> None:
    lines = ",\n".join(" " + json.dumps(row, sort_keys=True) for row in rows)
    path.write_text(f"[\n{lines}\n]\n", encoding="utf-8")


if __name__ == "__main__":
    write_rows(GPV_CORPUS, [gpv_corpus_row(corpus, spec)
                            for corpus, spec in gpv_corpus_specs()])
    print(f"wrote {GPV_CORPUS}")
    write_rows(NDLOG_CORPUS, [row for spec in ndlog_corpus_specs()
                              for row in ndlog_corpus_rows(spec)])
    print(f"wrote {NDLOG_CORPUS}")
    batch_rows = [batch_corpus_row(spec) for spec in batch_corpus_specs()]
    write_rows(BATCH_CORPUS, [row for row in batch_rows if row is not None])
    print(f"wrote {BATCH_CORPUS}")
    write_rows(BATCHED_WIRE_CORPUS,
               [batched_wire_row(corpus, spec, backend)
                for corpus, spec in batched_wire_specs()
                for backend in BATCHED_WIRE_BACKENDS])
    print(f"wrote {BATCHED_WIRE_CORPUS}")
