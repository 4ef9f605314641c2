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
records the kernel tabulated for it alone — ``hazard`` (whether it carries
a ``tie_class``), the number of signatures and of hole entries — then the
run-time decline reason (``None`` when the group settles) and the
outcome's digest.  Tabulation's rank sort, preference classes and
strictness checks all reach those columns.  The rows were generated at
commit 9d050d0.  Their ``mode`` column (which of two relaxations the
kernel took) was dropped by ``--rebase`` when the accumulating-min
relaxation was deleted after 5758ec0; no other column changed.

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
generated at commit 9d050d0, before signatures were ranked by key.  After
36a0d9c, ``multipath-spec30-ndlog`` was rebased in its ``digest`` alone:
its NDlog run holds three pairs whose ``sig`` rows are all φ, which
``route_sets`` now leaves out, as it always did for GPV.

Regenerate every pin file (only when a behaviour change is intended) with::

    PYTHONPATH=src python tests/exec/pins.py

or rewrite just the rows one selector picks, printing each row's old and
new ``stop_reason``/``messages`` (``decline``/``digest`` for batch rows)::

    PYTHONPATH=src python -m tests.exec.pins --rebase SELECTOR

``SELECTOR`` is ``FILE`` or ``FILE:PATTERN``: ``FILE`` is one of
``ndlog``, ``gpv``, ``batched-wire``, ``batch``, and ``PATTERN`` an
``fnmatch`` pattern over the row ids the pin tests print (``spec12``,
``rotation-spec3``, ``fail-spec7-ndlog``, ``spec5-hlp``), ``*`` if left
out.  Rows the selector does not pick are kept byte for byte.
"""

from __future__ import annotations

import argparse
import fnmatch
import hashlib
import json
from pathlib import Path

from repro.campaigns import ScenarioGenerator, evaluate, materialize
from repro.campaigns.oracle import EvaluationOptions
from repro.exec import batch, get_backend

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
    session = get_backend("gpv").prepare(scenario, seed=spec.seed)
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
           "hazard": kernel.tie_class is not None,
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


def batched_wire_run(spec, backend: str) -> tuple:
    """``(session, outcome)`` of the spec on one backend, route logging on."""
    scenario = materialize(spec)
    scenario.log_routes = True
    session = get_backend(backend).prepare(scenario, seed=spec.seed)
    return session, session.run(until=spec.until, max_events=spec.max_events)


def batched_wire_row(corpus: str, spec, backend: str) -> dict:
    session, outcome = batched_wire_run(spec, backend)
    return {"corpus": corpus, **pin_row(spec, outcome),
            "route_log": route_log_digest(session)}


def load_rows(path: Path) -> list[dict]:
    return json.loads(path.read_text(encoding="utf-8"))


def write_rows(path: Path, rows: list[dict]) -> None:
    lines = ",\n".join(" " + json.dumps(row, sort_keys=True) for row in rows)
    path.write_text(f"[\n{lines}\n]\n", encoding="utf-8")


def gpv_row_id(row) -> str:
    return f"{row['corpus']}-spec{row['spec']}"


def ndlog_row_id(row) -> str:
    suffix = "" if row["backend"] == "ndlog" else f"-{row['backend']}"
    return f"spec{row['spec']}{suffix}"


def batched_wire_row_id(row) -> str:
    return f"{row['corpus']}-spec{row['spec']}-{row['backend']}"


def batch_row_id(row) -> str:
    return f"spec{row['spec']}"


#: selector name → (pin file, its specs in row order, the rows of one
#: spec, row id).  A spec is a ``ScenarioSpec`` or a ``(corpus, spec)``.
PINS = {
    "ndlog": (NDLOG_CORPUS, ndlog_corpus_specs, ndlog_corpus_rows,
              ndlog_row_id),
    "gpv": (GPV_CORPUS, gpv_corpus_specs,
            lambda item: [gpv_corpus_row(*item)], gpv_row_id),
    "batched-wire": (BATCHED_WIRE_CORPUS, batched_wire_specs,
                     lambda item: [batched_wire_row(*item, backend)
                                   for backend in BATCHED_WIRE_BACKENDS],
                     batched_wire_row_id),
    "batch": (BATCH_CORPUS, batch_corpus_specs,
              lambda spec: [row for row in [batch_corpus_row(spec)]
                            if row is not None], batch_row_id),
}


def _spec_key(item) -> tuple:
    corpus, spec = item if isinstance(item, tuple) else (None, item)
    return corpus, spec.scenario_id


def _summary(row) -> str:
    if row is None:
        return "gone"
    columns = ("decline", "digest") if "decline" in row \
        else ("stop_reason", "messages")
    return " ".join(f"{column}={str(row[column])[:12]}"
                    for column in columns)


def rebase(selector: str) -> None:
    """Rewrite the rows ``selector`` picks, printing each change."""
    name, _, pattern = selector.partition(":")
    if name not in PINS:
        raise SystemExit(f"--rebase {selector}: FILE is one of "
                         + ", ".join(PINS))
    path, specs, rows_of, row_id = PINS[name]
    old_rows = load_rows(path)
    picked = [row for row in old_rows
              if fnmatch.fnmatchcase(row_id(row), pattern or "*")]
    if not picked:
        raise SystemExit(f"--rebase {selector}: no row of {path.name} "
                         "matches")
    picked_ids = {row_id(row) for row in picked}
    wanted = {(row.get("corpus"), row["spec"]) for row in picked}
    fresh = {}
    for item in specs():
        if _spec_key(item) in wanted:
            fresh.update((row_id(row), row) for row in rows_of(item))
    new_rows = []
    for row in old_rows:
        if row_id(row) not in picked_ids:
            new_rows.append(row)
            continue
        new = fresh.get(row_id(row))
        changed = sorted(key for key in {**row, **(new or {})}
                         if new is None or row.get(key) != new.get(key))
        print(f"{name} {row_id(row)}: {_summary(row)} -> {_summary(new)}"
              f" (changed: {', '.join(changed) or 'nothing'})")
        if new is not None:
            new_rows.append(new)
    write_rows(path, new_rows)
    print(f"rebased {len(picked)} of {len(old_rows)} rows of {path.name}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(
        description="Regenerate the per-run pin files (all of them, or "
                    "the rows each --rebase selector picks).")
    parser.add_argument("--rebase", action="append", metavar="SELECTOR",
                        help="FILE or FILE:PATTERN, FILE one of "
                             + ", ".join(PINS))
    args = parser.parse_args()
    for selector in args.rebase or ():
        rebase(selector)
    if not args.rebase:
        for path, specs, rows_of, _row_id in PINS.values():
            write_rows(path, [row for item in specs()
                              for row in rows_of(item)])
            print(f"wrote {path}")
