"""The metrics registry: one schema for every runtime counter.

Every subsystem's telemetry — batch phases and kernel lookups, verdict
lookups, store operations, admission outcomes — goes through one
process-local registry, so it shares a schema and survives a process
boundary.  There is one metric kind, the :class:`Counter`: a monotonically
increasing total (events, seconds).

Handles are cheap and stable: a module acquires them once
(``counter("repro_x_total", phase="scan")``) and increments a plain
attribute thereafter — one ``enabled`` branch is the entire disabled-mode
cost, so instrumentation can stay in hot paths.  Labeled families share a
name; the ``(name, labels)`` pair identifies the series, exactly as in
Prometheus.

One serialization, a stable wire format (see ``obs/README.md``):
:meth:`MetricsRegistry.snapshot` — the JSON form (``repro-metrics/1``),
validated by ``schemas/metrics.schema.json``.  Snapshots from many
processes merge with :func:`merge_snapshots` (counters sum) — the
campaign runner merges its own with the one each pool worker returns
per chunk.

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

    __slots__ = ("_registry", "value")

    def __init__(self, registry: "MetricsRegistry"):
        self._registry = registry
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if self._registry._enabled:
            self.value += amount

    def reset(self) -> None:
        self.value = 0.0


class MetricsRegistry:
    """Process-local registry of named, labeled metrics.

    Get-or-create is the only locked path; increments on returned handles
    are plain attribute writes guarded by one ``enabled`` check, so the
    registry can back hot loops (the batch backend's relaxation rounds
    route through it).
    """

    def __init__(self, enabled: bool = True):
        self._enabled = enabled
        self._metrics: dict[tuple[str, _LabelKey], Counter] = {}
        self._lock = threading.Lock()

    # -- configuration --------------------------------------------------------

    def set_enabled(self, flag: bool) -> None:
        self._enabled = bool(flag)

    # -- get-or-create handles ------------------------------------------------

    def counter(self, name: str, **labels) -> Counter:
        key = (name, _label_key(labels))
        metric = self._metrics.get(key)  # lock-free hot path
        if metric is not None:
            return metric
        with self._lock:
            metric = self._metrics.get(key)
            if metric is None:
                metric = self._metrics[key] = Counter(self)
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
        counters: dict[str, list] = {}
        for (name, labels), metric in sorted(self._metrics.items()):
            counters.setdefault(name, []).append(
                {"labels": dict(labels), "value": metric.value})
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


def merge_snapshots(snapshots: list[dict]) -> dict:
    """Merge many processes' snapshots into one campaign view.

    Counters *add*: the merge reads as campaign totals
    (``CampaignRunner`` feeds it its own snapshot plus the latest one of
    every pool worker).
    """
    merged: dict = {"format": SNAPSHOT_FORMAT, "counters": {}}
    for snapshot in snapshots:
        for name, entries in (snapshot.get("counters") or {}).items():
            out = merged["counters"].setdefault(name, [])
            for entry in entries:
                slot = _find_slot(out, entry["labels"])
                if slot is None:
                    out.append({"labels": dict(entry["labels"]),
                                "value": entry.get("value", 0.0)})
                else:
                    slot["value"] = (slot.get("value", 0.0)
                                     + entry.get("value", 0.0))
    return merged


def _find_slot(entries: list[dict], labels: dict) -> dict | None:
    for entry in entries:
        if entry["labels"] == labels:
            return entry
    return None


# -- the process default registry ---------------------------------------------

_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    return _REGISTRY


def counter(name: str, **labels) -> Counter:
    return _REGISTRY.counter(name, **labels)


def snapshot() -> dict:
    return _REGISTRY.snapshot()


def set_metrics_enabled(flag: bool) -> None:
    _REGISTRY.set_enabled(flag)
