"""The metrics registry: one schema for every runtime counter.

Every subsystem's telemetry — batch phases and kernel lookups, verdict
lookups, store operations, admission outcomes — goes through one
process-local registry, so it shares a schema and survives a process
boundary.  There is one metric kind, the :class:`Counter`: a monotonically
increasing total (events, seconds).

Handles are cheap and stable: a module acquires them once
(``counter("repro_x_total", phase="scan")``) and increments a plain
attribute thereafter, so instrumentation can stay in hot paths; there
is no off switch.  Labeled families share a name; the ``(name, labels)``
pair identifies the series, exactly as in Prometheus.

One serialization, a stable wire format (see ``obs/README.md``):
:meth:`MetricsRegistry.snapshot` — the JSON form (``repro-metrics/1``),
validated by ``schemas/metrics.schema.json``.  Counts cross a process
boundary as a snapshot of what was counted since the last hand-over:
:meth:`MetricsRegistry.take` in the process that counted, then
:meth:`MetricsRegistry.absorb` in the one that collects (the campaign
runner, once per pool chunk), so one registry holds a campaign's work
at any ``--jobs``.

Naming conventions: ``repro_<subsystem>_<what>[_total|_seconds_total]``,
labels for bounded vocabularies only (never scenario ids).
"""

from __future__ import annotations

import threading

#: Version tag stamped into every snapshot (the wire format contract).
SNAPSHOT_FORMAT = "repro-metrics/1"

_LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: dict) -> _LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing total.  ``inc`` only; the registry keys
    it by ``(name, labels)``."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def reset(self) -> None:
        self.value = 0.0


class MetricsRegistry:
    """Process-local registry of named, labeled metrics.

    Get-or-create is the only locked path; increments on returned handles
    are plain attribute writes, so the registry can back hot loops (the
    batch backend's relaxation rounds route through it).
    """

    def __init__(self):
        self._metrics: dict[tuple[str, _LabelKey], Counter] = {}
        self._lock = threading.Lock()

    # -- get-or-create handles ------------------------------------------------

    def counter(self, name: str, **labels) -> Counter:
        key = (name, _label_key(labels))
        metric = self._metrics.get(key)  # lock-free hot path
        if metric is not None:
            return metric
        with self._lock:
            metric = self._metrics.get(key)
            if metric is None:
                metric = self._metrics[key] = Counter()
        return metric

    # -- reads ----------------------------------------------------------------

    def family(self, name: str) -> dict[_LabelKey, Counter]:
        """Every label-series of one metric name."""
        return {labels: metric
                for (metric_name, labels), metric in self._metrics.items()
                if metric_name == name}

    def value(self, name: str, **labels) -> float:
        """A single series' value (0.0 when the series does not exist)."""
        metric = self._metrics.get((name, _label_key(labels)))
        return 0.0 if metric is None else metric.value

    # -- resets ---------------------------------------------------------------

    def reset(self, name: str | None = None, *, drop: bool = False) -> None:
        """Zero every metric of ``name`` (or all).  ``drop`` additionally
        forgets the series — use it only for families whose handles are
        re-acquired per call (dynamically-labeled counters), never for
        handles a module holds across the reset."""
        with self._lock:
            keys = [key for key in self._metrics
                    if name is None or key[0] == name]
            for key in keys:
                self._metrics[key].reset()
                if drop:
                    del self._metrics[key]

    # -- serialization --------------------------------------------------------

    def snapshot(self) -> dict:
        """The JSON wire format (``repro-metrics/1``); see module docs."""
        return _serialize((key, metric.value)
                          for key, metric in self._metrics.items())

    def take(self) -> dict:
        """A snapshot of the nonzero series, which are then zeroed: what
        this registry counted since the last ``take``."""
        with self._lock:
            taken = [(key, metric.value)
                     for key, metric in self._metrics.items() if metric.value]
            for key, _ in taken:
                self._metrics[key].reset()
        return _serialize(taken)

    def absorb(self, snapshot: dict) -> None:
        """Add another registry's counts (a snapshot, e.g. a pool
        worker's :meth:`take`) into this one; counters sum."""
        for name, entries in snapshot["counters"].items():
            for entry in entries:
                self.counter(name, **entry["labels"]).inc(entry["value"])


def _serialize(series) -> dict:
    counters: dict[str, list] = {}
    for (name, labels), value in sorted(series):
        counters.setdefault(name, []).append(
            {"labels": dict(labels), "value": value})
    return {"format": SNAPSHOT_FORMAT, "counters": counters}


# -- snapshot utilities (wire-format side) ------------------------------------


def snapshot_value(snapshot: dict, name: str, **labels) -> float:
    """Read one counter series out of a snapshot dict."""
    want = dict(_label_key(labels))
    for entry in snapshot.get("counters", {}).get(name, ()):
        if entry.get("labels", {}) == want:
            return entry.get("value", 0.0)
    return 0.0


def snapshot_family(snapshot: dict, name: str) -> list[dict]:
    """Every series entry of one metric name."""
    return list(snapshot.get("counters", {}).get(name, ()))


# -- the process default registry ---------------------------------------------

_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    return _REGISTRY


def counter(name: str, **labels) -> Counter:
    return _REGISTRY.counter(name, **labels)


def snapshot() -> dict:
    return _REGISTRY.snapshot()
