"""The metrics registry: one schema for every runtime counter.

Every subsystem's telemetry — batch phases and kernel lookups, verdict
lookups, store operations, admission outcomes — goes through one
process-local registry, so it shares a schema and survives a process
boundary.  Two metric kinds:

* :class:`Counter` — monotonically increasing totals (events, seconds);
* :class:`Histogram` — fixed-bucket distributions (latencies).

Handles are cheap and stable: a module acquires them once
(``counter("repro_x_total", phase="scan")``) and increments a plain
attribute thereafter — one ``enabled`` branch is the entire disabled-mode
cost, so instrumentation can stay in hot paths.  Labeled families share a
name; the ``(name, labels)`` pair identifies the series, exactly as in
Prometheus.

One serialization, a stable wire format (see ``obs/README.md``):
:meth:`MetricsRegistry.snapshot` — the JSON form (``repro-metrics/1``),
validated by ``schemas/metrics.schema.json``; its ``gauges`` section is
part of the format and always empty.  Snapshots from many processes
merge with :func:`merge_snapshots` (counters and histograms sum) — the
campaign runner merges its own with the one each pool worker returns
per chunk.

Naming conventions: ``repro_<subsystem>_<what>[_total|_seconds_total]``,
labels for bounded vocabularies only (never scenario ids).
"""

from __future__ import annotations

import threading

#: Version tag stamped into every snapshot (the wire format contract).
SNAPSHOT_FORMAT = "repro-metrics/1"

#: Default histogram bucket upper bounds (seconds-flavoured).
DEFAULT_BUCKETS = (0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0)

_LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: dict) -> _LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class _Metric:
    """Shared identity: name + sorted labels + owning registry."""

    __slots__ = ("name", "labels", "_registry")
    kind = "metric"

    def __init__(self, registry: "MetricsRegistry", name: str,
                 labels: _LabelKey):
        self.name = name
        self.labels = labels
        self._registry = registry


class Counter(_Metric):
    """A monotonically increasing total.  ``inc`` only."""

    __slots__ = ("value",)
    kind = "counter"

    def __init__(self, registry, name, labels):
        super().__init__(registry, name, labels)
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if self._registry._enabled:
            self.value += amount

    def reset(self) -> None:
        self.value = 0.0


class Histogram(_Metric):
    """A fixed-bucket distribution (per-bucket counts, sum, count)."""

    __slots__ = ("buckets", "counts", "sum", "count")
    kind = "histogram"

    def __init__(self, registry, name, labels,
                 buckets: tuple = DEFAULT_BUCKETS):
        super().__init__(registry, name, labels)
        self.buckets = tuple(sorted(buckets))
        self.counts = [0] * (len(self.buckets) + 1)  # +1: the +Inf bucket
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        if not self._registry._enabled:
            return
        index = len(self.buckets)
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                index = i
                break
        self.counts[index] += 1
        self.sum += value
        self.count += 1

    def reset(self) -> None:
        self.counts = [0] * (len(self.buckets) + 1)
        self.sum = 0.0
        self.count = 0

    def cumulative(self) -> dict[str, int]:
        """Prometheus-style cumulative ``le`` buckets, ``+Inf`` last."""
        out, running = {}, 0
        for bound, count in zip(self.buckets, self.counts):
            running += count
            out[_format_bound(bound)] = running
        out["+Inf"] = running + self.counts[-1]
        return out


def _format_bound(bound: float) -> str:
    text = repr(float(bound))
    return text[:-2] if text.endswith(".0") else text


class MetricsRegistry:
    """Process-local registry of named, labeled metrics.

    Get-or-create is the only locked path; increments on returned handles
    are plain attribute writes guarded by one ``enabled`` check, so the
    registry can back hot loops (the batch backend's relaxation rounds
    route through it).
    """

    def __init__(self, enabled: bool = True):
        self._enabled = enabled
        self._metrics: dict[tuple[str, _LabelKey], _Metric] = {}
        self._kinds: dict[str, str] = {}
        self._lock = threading.Lock()

    # -- configuration --------------------------------------------------------

    def set_enabled(self, flag: bool) -> None:
        self._enabled = bool(flag)

    # -- get-or-create handles ------------------------------------------------

    def counter(self, name: str, **labels) -> Counter:
        return self._get(Counter, name, labels)

    def histogram(self, name: str, *, buckets: tuple = DEFAULT_BUCKETS,
                  **labels) -> Histogram:
        return self._get(Histogram, name, labels, buckets=buckets)

    def _get(self, cls, name: str, labels: dict, **extra) -> _Metric:
        key = (name, _label_key(labels))
        metric = self._metrics.get(key)  # lock-free hot path
        if metric is not None:
            if metric.kind != cls.kind:
                raise ValueError(
                    f"metric {name!r} already registered as {metric.kind}, "
                    f"cannot re-register as {cls.kind}")
            return metric
        with self._lock:
            metric = self._metrics.get(key)
            if metric is None:
                kind = self._kinds.setdefault(name, cls.kind)
                if kind != cls.kind:
                    raise ValueError(
                        f"metric {name!r} already registered as {kind}, "
                        f"cannot re-register as {cls.kind}")
                metric = cls(self, name, key[1], **extra)
                self._metrics[key] = metric
        return metric

    # -- reads ----------------------------------------------------------------

    def family(self, name: str) -> dict[_LabelKey, _Metric]:
        """Every label-series of one metric name."""
        return {labels: metric
                for (metric_name, labels), metric in self._metrics.items()
                if metric_name == name}

    def value(self, name: str, **labels) -> float:
        """A single series' value (0.0 when the series does not exist)."""
        metric = self._metrics.get((name, _label_key(labels)))
        if metric is None or isinstance(metric, Histogram):
            return 0.0
        return metric.value

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
        histograms: dict[str, list] = {}
        for (name, labels), metric in sorted(self._metrics.items()):
            entry: dict = {"labels": dict(labels)}
            if isinstance(metric, Histogram):
                entry.update(count=metric.count, sum=metric.sum,
                             buckets=metric.cumulative())
                histograms.setdefault(name, []).append(entry)
            else:
                entry["value"] = metric.value
                counters.setdefault(name, []).append(entry)
        return {"format": SNAPSHOT_FORMAT, "counters": counters,
                "gauges": {}, "histograms": histograms}


# -- snapshot utilities (wire-format side) ------------------------------------


def snapshot_value(snapshot: dict, name: str, **labels) -> float:
    """Read one counter series out of a snapshot dict."""
    want = dict(_label_key(labels))
    for entry in snapshot.get("counters", {}).get(name, ()):
        if entry.get("labels", {}) == want:
            return entry.get("value", 0.0)
    return 0.0


def snapshot_family(snapshot: dict, name: str) -> list[dict]:
    """Every series entry of one metric name, whatever its kind."""
    for section in ("counters", "histograms"):
        entries = snapshot.get(section, {}).get(name)
        if entries:
            return list(entries)
    return []


def merge_snapshots(snapshots: list[dict]) -> dict:
    """Merge many processes' snapshots into one campaign view.

    Counters and histogram buckets/sums/counts all *add*: the merge
    reads as campaign totals (``CampaignRunner`` feeds it its own
    snapshot plus the latest one of every pool worker).
    """
    merged: dict = {"format": SNAPSHOT_FORMAT, "counters": {},
                    "gauges": {}, "histograms": {}}
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
        for name, entries in (snapshot.get("histograms") or {}).items():
            out = merged["histograms"].setdefault(name, [])
            for entry in entries:
                slot = _find_slot(out, entry["labels"])
                if slot is None:
                    out.append({"labels": dict(entry["labels"]),
                                "count": entry.get("count", 0),
                                "sum": entry.get("sum", 0.0),
                                "buckets": dict(entry.get("buckets", {}))})
                else:
                    slot["count"] += entry.get("count", 0)
                    slot["sum"] += entry.get("sum", 0.0)
                    for bound, count in (entry.get("buckets") or {}).items():
                        slot["buckets"][bound] = (
                            slot["buckets"].get(bound, 0) + count)
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


def histogram(name: str, *, buckets: tuple = DEFAULT_BUCKETS,
              **labels) -> Histogram:
    return _REGISTRY.histogram(name, buckets=buckets, **labels)


def snapshot() -> dict:
    return _REGISTRY.snapshot()


def set_metrics_enabled(flag: bool) -> None:
    _REGISTRY.set_enabled(flag)
