"""Scenario-scoped structured tracing: spans, trace IDs, the JSONL sink.

A disagreement without a trace is a rerun; with one it is a diagnosis.
Every scenario evaluated by the differential oracle can carry a **trace**
— a tree of timed spans recording which backends ran, which analysis tier
decided, which cache tier served the verdict, and what each phase cost —
so an ERROR or disagreement arrives with its full causal timeline.

Trace identity
    A scenario's trace ID is *minted at spec generation* and is a pure
    function of ``(family, scenario_id, seed)`` — see
    :func:`scenario_trace_id` and ``ScenarioSpec.trace_id``.  Because the
    spec stream is deterministic, a scenario evaluated again (a resumed
    campaign re-running a chunk lost with a dead worker, a reproducer
    rerun) re-mints the *same* trace ID: the second attempt's spans land
    in the same trace, under the tag of the process that ran it.

Span emission
    :meth:`Tracer.span` returns a :class:`Span` pushed onto the tracer's
    stack, so nested spans parent automatically — through the oracle,
    the deciding analysis tier, and each backend — or, disabled, the
    shared :data:`NULL_SPAN`.  One thread per process opens spans (the
    runner's).  Span IDs count up from one draw per ``configure``.

The sink
    Spans are JSONL lines (``repro-span/1``, one object per line — the
    wire format of ``schemas/span.schema.json``) in a *trace directory*.
    Each process appends to its own ``spans-<worker>.jsonl`` through one
    descriptor.  A closed span's line is buffered until its root (a
    ``scenario`` or a ``batch:chunk``) closes, and then goes out with the
    root's others in one ``O_APPEND`` ``os.write``: a crash loses at most
    the spans of the root still open.  The sink keeps every span (about
    2 KB per scenario), so ``repro trace show`` finds any scenario a
    campaign ran.  Readers merge ``spans-*.jsonl`` wholesale.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import socket
import time

#: Version tag stamped into every span record (the wire format contract).
SPAN_FORMAT = "repro-span/1"

_SPAN_GLOB_PREFIX = "spans-"

#: ``json.dumps`` with ``default`` would build an encoder per record.
_ENCODER = json.JSONEncoder(default=repr)


def scenario_trace_id(family: str, scenario_id: int, seed: int) -> str:
    """The deterministic per-scenario trace ID.

    Derived, not drawn: regenerating a spec (same generator seed, same
    index) re-mints the identical ID, which is what lets a resumed
    campaign's re-evaluation merge into the original trace.
    """
    digest = hashlib.sha1(
        f"scenario:{family}:{scenario_id}:{seed}".encode()).hexdigest()
    return digest[:16]


def default_worker_name() -> str:
    return f"{socket.gethostname()}-{os.getpid()}"


class Span:
    """An open span on its tracer's stack; a JSONL line once closed."""

    __slots__ = ("_tracer", "trace_id", "span_id", "parent_id", "name",
                 "start", "attrs", "status")

    def __init__(self, tracer: "Tracer", trace_id: str, span_id: str,
                 parent_id: str | None, name: str, attrs: dict):
        self._tracer = tracer
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start = time.time()
        self.attrs = attrs
        self.status = "ok"

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc is not None:
            self.status = "error"
            self.attrs.setdefault("error", f"{exc_type.__name__}: {exc}")
        self._tracer._finish(self)

    def annotate(self, **attrs) -> None:
        self.attrs.update(attrs)

    def set_status(self, status: str) -> None:
        self.status = status


class _NullSpan:
    """The disabled-tracer span: swallows annotations for free."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass

    def annotate(self, **attrs) -> None:
        pass

    def set_status(self, status: str) -> None:
        pass


NULL_SPAN = _NullSpan()


class Tracer:
    """A JSONL span emitter bound to one trace directory (or disabled).

    ``configure`` is idempotent per ``(directory, pid, worker)`` and
    pid-guarded: a forked pool worker inherits a configured parent but
    stays *disabled* until it configures its own sink under its own
    worker name, so span files never interleave worker tags.  It is
    never called inside a span, so it never has lines buffered.
    """

    def __init__(self):
        self._dir: str | None = None
        self._pid: int | None = None
        self._path: str | None = None
        #: The sink file's descriptor, opened by the first write.
        self._fd: int | None = None
        self.worker: str | None = None
        #: Open spans, innermost last, and the lines of closed ones.
        self._stack: list[Span] = []
        self._lines: list[str] = []
        self._last_id = 0

    # -- configuration --------------------------------------------------------

    def configure(self, directory: str | None, *,
                  worker: str | None = None) -> None:
        """Attach (or, with None, detach) the span sink for this process."""
        if directory is None:
            self._close()
            self._dir = self._path = None
            self._pid = None
            self.worker = None
            return
        pid = os.getpid()
        if (directory == self._dir and pid == self._pid
                and (worker is None or worker == self.worker)):
            return
        self._close()
        self._dir = directory
        self._pid = pid
        self.worker = worker or default_worker_name()
        os.makedirs(directory, exist_ok=True)
        safe = re.sub(r"[^A-Za-z0-9._-]", "_", self.worker)
        self._path = os.path.join(directory,
                                  f"{_SPAN_GLOB_PREFIX}{safe}.jsonl")
        # A random start: processes sharing the directory never collide.
        self._last_id = int.from_bytes(os.urandom(8), "big")

    def _close(self) -> None:
        # In a forked worker this closes the inherited copy only.
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None

    @property
    def enabled(self) -> bool:
        return self._path is not None and self._pid == os.getpid()

    # -- span API -------------------------------------------------------------

    def span(self, name: str, *, trace_id: str | None = None, **attrs):
        """A child of the innermost open span, in its trace unless
        ``trace_id`` is given; a root without one starts a trace named
        by its own span ID."""
        if not self.enabled:
            return NULL_SPAN
        self._last_id = (self._last_id + 1) % 2**64
        span_id = f"{self._last_id:016x}"
        parent = self._stack[-1] if self._stack else None
        span = Span(self,
                    trace_id or (parent.trace_id if parent else span_id),
                    span_id, parent.span_id if parent else None, name, attrs)
        self._stack.append(span)
        return span

    def annotate(self, **attrs) -> None:
        """Attach attributes to the innermost open span (no-op when
        disabled or outside any span)."""
        if self._stack:
            self._stack[-1].attrs.update(attrs)

    # -- the sink -------------------------------------------------------------

    def _finish(self, span: Span) -> None:
        """Buffer the innermost span's line; write out a closed root's."""
        end = time.time()
        self._stack.pop()
        self._lines.append(_ENCODER.encode({
            "format": SPAN_FORMAT,
            "trace_id": span.trace_id,
            "span_id": span.span_id,
            "parent_id": span.parent_id,
            "name": span.name,
            "worker": self.worker,
            "start": span.start,
            "end": end,
            "elapsed_ms": (end - span.start) * 1e3,
            "status": span.status,
            "attrs": span.attrs,
        }) + "\n")
        if self._stack:
            return
        data = "".join(self._lines).encode("utf-8")
        self._lines.clear()
        if self._fd is None:
            self._fd = os.open(self._path,
                               os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
        os.write(self._fd, data)


#: The process tracer every instrumented module emits through.
TRACER = Tracer()


def configure_tracing(directory: str | None, *,
                      worker: str | None = None) -> None:
    TRACER.configure(directory, worker=worker)


# -- reading traces back ------------------------------------------------------


def read_spans(directory: str) -> list[dict]:
    """Every span record in a trace directory (all workers), torn
    trailing lines skipped, ordered by start time."""
    spans: list[dict] = []
    try:
        names = sorted(os.listdir(directory))
    except OSError:
        return spans
    for name in names:
        if not name.startswith(_SPAN_GLOB_PREFIX) or ".jsonl" not in name:
            continue
        with open(os.path.join(directory, name), encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    continue  # torn trailing line
                spans.append(record)
    spans.sort(key=lambda s: s.get("start", 0.0))
    return spans


def spans_for_scenario(directory: str, scenario_id: int) -> list[dict]:
    """One scenario's merged trace: every span (any worker, any
    attempt) whose trace carries the scenario's deterministic trace ID."""
    spans = read_spans(directory)
    trace_ids = {span["trace_id"] for span in spans
                 if span.get("attrs", {}).get("scenario_id") == scenario_id}
    return [span for span in spans if span["trace_id"] in trace_ids]


def render_span_tree(spans: list[dict]) -> str:
    """Pretty-print one scenario's span forest (``repro trace show``).

    Spans from distinct workers (a scenario evaluated twice: lost with a
    dead worker, then resumed) render as sibling roots of the same trace,
    each tagged with its worker.
    """
    if not spans:
        return "(no spans)"
    by_id = {span["span_id"]: span for span in spans}
    children: dict[str | None, list[dict]] = {}
    for span in spans:
        parent = span.get("parent_id")
        if parent not in by_id:
            parent = None  # cross-trace or missing parent: a root
        children.setdefault(parent, []).append(span)
    for siblings in children.values():
        siblings.sort(key=lambda s: s.get("start", 0.0))

    lines: list[str] = []

    def _attr_text(span: dict) -> str:
        attrs = span.get("attrs") or {}
        shown = {k: v for k, v in attrs.items() if k != "scenario_id"}
        body = " ".join(f"{k}={v:.3f}" if isinstance(v, float) else f"{k}={v}"
                        for k, v in shown.items())
        return f" [{body}]" if body else ""

    def _render(span: dict, prefix: str, is_last: bool) -> None:
        connector = "└─ " if is_last else "├─ "
        status = "" if span.get("status") == "ok" \
            else f" !{span.get('status')}"
        lines.append(
            f"{prefix}{connector}{span['name']} "
            f"{span.get('elapsed_ms', 0.0):.2f}ms "
            f"worker={span.get('worker')}{status}{_attr_text(span)}")
        child_prefix = prefix + ("   " if is_last else "│  ")
        kids = children.get(span["span_id"], [])
        for i, kid in enumerate(kids):
            _render(kid, child_prefix, i == len(kids) - 1)

    roots = children.get(None, [])
    traces = sorted({span["trace_id"] for span in spans})
    lines.append(f"trace {', '.join(traces)} — {len(spans)} span(s), "
                 f"{len(roots)} root(s)")
    for i, root in enumerate(roots):
        _render(root, "", i == len(roots) - 1)
    return "\n".join(lines)
