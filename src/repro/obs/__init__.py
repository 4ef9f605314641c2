"""The unified observability plane: metrics, tracing, wire formats.

Three layers, one schema (see ``obs/README.md`` for the conventions):

* :mod:`repro.obs.metrics` — the process-local registry every former
  stats island now feeds; snapshots are the ``repro-metrics/1`` wire
  format and merge across a campaign's processes;
* :mod:`repro.obs.trace` — scenario-scoped structured spans
  (``repro-span/1`` JSONL) with trace IDs minted at spec generation;
* :mod:`repro.obs.live` / :mod:`repro.obs.schema` — the dashboard
  renderer, the ``repro-obs/1`` envelope, and the checked-in schemas CI
  validates emissions against.
"""

from .live import OBS_FORMAT, obs_payload, render_dashboard
from .metrics import (
    DEFAULT_BUCKETS,
    MetricsRegistry,
    SNAPSHOT_FORMAT,
    counter,
    get_registry,
    histogram,
    merge_snapshots,
    metrics_enabled,
    set_metrics_enabled,
    snapshot,
    snapshot_family,
    snapshot_value,
)
from .schema import (
    SchemaError,
    load_schema,
    validate,
    validate_metrics_snapshot,
    validate_span,
)
from .trace import (
    SPAN_FORMAT,
    TRACE_DIR_ENV,
    TRACER,
    Tracer,
    configure_tracing,
    read_spans,
    render_span_tree,
    scenario_trace_id,
    spans_for_scenario,
    tracing_enabled,
)

__all__ = [
    "DEFAULT_BUCKETS",
    "MetricsRegistry",
    "OBS_FORMAT",
    "SNAPSHOT_FORMAT",
    "SPAN_FORMAT",
    "SchemaError",
    "TRACE_DIR_ENV",
    "TRACER",
    "Tracer",
    "configure_tracing",
    "counter",
    "get_registry",
    "histogram",
    "load_schema",
    "merge_snapshots",
    "metrics_enabled",
    "obs_payload",
    "read_spans",
    "render_dashboard",
    "render_span_tree",
    "scenario_trace_id",
    "set_metrics_enabled",
    "snapshot",
    "snapshot_family",
    "snapshot_value",
    "spans_for_scenario",
    "tracing_enabled",
    "validate",
    "validate_metrics_snapshot",
    "validate_span",
]
