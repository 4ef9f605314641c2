"""The unified observability plane: metrics, tracing, wire formats.

Three layers, one schema (see ``obs/README.md`` for the conventions):

* :mod:`repro.obs.metrics` — the process-local registry of counters every
  former stats island now feeds; snapshots are the ``repro-metrics/1``
  wire format (one ``counters`` section); a pool worker hands its counts
  to the campaign's registry with every chunk;
* :mod:`repro.obs.trace` — scenario-scoped structured spans
  (``repro-span/1`` JSONL) with trace IDs minted at spec generation;
* :mod:`repro.obs.live` / :mod:`repro.obs.schema` — the dashboard
  renderer and the checked-in schemas CI validates emissions against.
"""

from .live import render_dashboard
from .metrics import (
    MetricsRegistry,
    SNAPSHOT_FORMAT,
    counter,
    get_registry,
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
    TRACER,
    Tracer,
    configure_tracing,
    read_spans,
    render_span_tree,
    scenario_trace_id,
    spans_for_scenario,
)

__all__ = [
    "MetricsRegistry",
    "SNAPSHOT_FORMAT",
    "SPAN_FORMAT",
    "SchemaError",
    "TRACER",
    "Tracer",
    "configure_tracing",
    "counter",
    "get_registry",
    "load_schema",
    "read_spans",
    "render_dashboard",
    "render_span_tree",
    "scenario_trace_id",
    "set_metrics_enabled",
    "snapshot",
    "snapshot_family",
    "snapshot_value",
    "spans_for_scenario",
    "validate",
    "validate_metrics_snapshot",
    "validate_span",
]
