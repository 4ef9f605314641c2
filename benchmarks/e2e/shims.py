"""Boundary shims: spans around each layer's public entry points.

The program is not instrumented.  A traced benchmark run wraps, at run
time and from outside, the functions and methods through which one layer
calls the next, and records one span per call: name, start, end, the span
that caused it, and the scenario it belongs to.  Spans stay in memory
until the run ends.  A layer's *self* time is its span's duration minus
the part its child spans cover, so the self times of all spans add up to
the time spent under the outermost ones.

Functions are rebound in their defining module *and in every loaded
``repro`` module that holds the same object* (``from .scenarios import
materialize`` copies the reference), so a later change that moves a call
site does not blind the shim.  Methods are replaced on the class.  A
target that no longer exists raises at install time.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# Span fields, by position (lists, not objects: ~10^4 spans per run).
NAME, PARENT, START, END, SCENARIO, NOTE = range(6)


def _spec_id(args):
    return args[0].scenario_id


def _self_spec_id(args):
    return args[1].scenario_id


def _outcome_note(outcome):
    return {"messages": outcome.messages, "converged": outcome.converged}


#: (module, attribute, span name, scenario-id getter, result -> note)
FUNCTIONS = (
    ("repro.campaigns.scenarios", "materialize", "scenarios.materialize",
     _spec_id, None),
    ("repro.campaigns.canonical", "canonical_key", "canonical.key",
     None, None),
    ("repro.experiments.extraction", "extract_spp", "extraction.extract_spp",
     None, None),
    ("repro.exec.batch", "kernel_key_of", "exec.batch.kernel_key_of",
     None, None),
    ("repro.campaigns.oracle", "cached_verdict", "oracle.cached_verdict",
     None, lambda result: {"hit": result[2]}),
    ("repro.campaigns.oracle", "classify_backend_pair", "oracle.pairwise",
     None, None),
    ("repro.campaigns.oracle", "evaluate", "oracle.evaluate",
     _spec_id, None),
    ("repro.campaigns.oracle", "evaluate_chunk", "oracle.evaluate_chunk",
     None, None),
)

#: (module, class, method, span name, scenario-id getter, result -> note)
METHODS = (
    ("repro.campaigns.spec", "ScenarioGenerator", "make", "spec.make",
     None, None),
    ("repro.analysis.safety", "SafetyAnalyzer", "analyze", "analysis.analyze",
     None, lambda report: {"tier": report.tier}),
    ("repro.exec.gpv", "GPVBackend", "prepare", "exec.gpv.prepare",
     None, None),
    ("repro.exec.gpv", "GPVSession", "run", "exec.gpv.run",
     None, _outcome_note),
    ("repro.exec.ndlog", "NDlogBackend", "prepare", "exec.ndlog.prepare",
     None, None),
    ("repro.exec.ndlog", "NDlogSession", "run", "exec.ndlog.run",
     None, _outcome_note),
    ("repro.exec.hlp", "HLPBackend", "prepare", "exec.hlp.prepare",
     None, None),
    ("repro.exec.hlp", "HLPSession", "run", "exec.hlp.run",
     None, _outcome_note),
    ("repro.exec.batch", "BatchBackend", "supports", "exec.batch.supports",
     lambda args: args[1].spec.scenario_id,
     lambda admitted: {"admitted": bool(admitted)}),
    ("repro.exec.batch", "BatchBackend", "prepare_batch",
     "exec.batch.prepare_batch", None, None),
    ("repro.exec.batch", "VectorizedBatchSession", "run", "exec.batch.run",
     None, lambda outcomes: {
         "declined": sum(outcome is None for outcome in outcomes)}),
    ("repro.campaigns.sink", "AggregatingSink", "accept", "sink.accept",
     _self_spec_id, None),
    ("repro.campaigns.sink", "AggregatingSink", "report", "report.build",
     None, None),
    ("repro.campaigns.sink", "JsonlResultSink", "accept", "sink.jsonl_accept",
     _self_spec_id, None),
    ("repro.campaigns.verdict_store", "VerdictStore", "load_all",
     "verdict_store.load_all", None, None),
    ("repro.campaigns.verdict_store", "VerdictStore", "get",
     "verdict_store.get", None, lambda row: {"hit": row is not None}),
    ("repro.campaigns.verdict_store", "VerdictStore", "put",
     "verdict_store.put", None, None),
    ("repro.campaigns.verdict_store", "VerdictStore", "touch_many",
     "verdict_store.touch_many", None, None),
    ("repro.exec.kernel_store", "KernelStore", "get", "kernel_store.get",
     None, lambda found: {"hit": bool(found[0])}),
    ("repro.exec.kernel_store", "KernelStore", "put", "kernel_store.put",
     None, None),
)

SPAN_NAMES = tuple(t[2] for t in FUNCTIONS) + tuple(t[3] for t in METHODS)


class Tracer:
    """Installs the shims, collects their spans, removes them again."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        #: (owner, attribute, original) for every rebinding made.
        self._undo: list[tuple] = []

    # -- recording ------------------------------------------------------------

    def _wrap(self, name, fn, scenario_of, note_of):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            parent = stack[-1] if stack else None
            if scenario_of is not None:
                scenario = scenario_of(args)
            else:
                scenario = spans[parent][SCENARIO] if stack else None
            span = [name, parent, 0.0, 0.0, scenario, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if note_of is not None:
                span[NOTE] = note_of(result)
            return result

        return shim

    # -- install / remove -----------------------------------------------------

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("shims are already installed")
        try:
            for module, attr, name, scenario_of, note_of in FUNCTIONS:
                original = getattr(importlib.import_module(module), attr)
                shim = self._wrap(name, original, scenario_of, note_of)
                for holder in _repro_modules():
                    for alias, value in list(vars(holder).items()):
                        if value is original:
                            self._rebind(holder, alias, original, shim)
            for module, cls, attr, name, scenario_of, note_of in METHODS:
                owner = getattr(importlib.import_module(module), cls)
                # vars(), not getattr(): an inherited method would be
                # patched on a base class and time its siblings too.
                original = vars(owner)[attr]
                self._rebind(owner, attr, original,
                             self._wrap(name, original, scenario_of, note_of))
        except BaseException:
            self.remove()
            raise

    def _rebind(self, owner, attr, original, shim) -> None:
        setattr(owner, attr, shim)
        self._undo.append((owner, attr, original))

    def remove(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()


def _repro_modules():
    return [module for name, module in list(sys.modules.items())
            if module is not None
            and (name == "repro" or name.startswith("repro."))]


def self_times(spans: list[list]) -> list[float]:
    """Per span: duration minus the durations of its direct children."""
    out = [span[END] - span[START] for span in spans]
    for span in spans:
        if span[PARENT] is not None:
            out[span[PARENT]] -= span[END] - span[START]
    return out
