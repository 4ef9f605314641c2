"""The live view: dashboard rendering.

``repro campaign --watch`` calls :func:`render_dashboard` on a metrics
snapshot: this process's, or under ``--jobs N`` this process's merged
(:func:`~repro.obs.metrics.merge_snapshots`) with the latest snapshot each
pool worker sent back with a chunk.
"""

from __future__ import annotations

import time

from .metrics import snapshot_family, snapshot_value


def _family_lines(snapshot: dict, name: str, label: str,
                  heading: str, *, seconds: bool = False) -> list[str]:
    entries = snapshot_family(snapshot, name)
    if not entries:
        return []
    # Aggregate over any labels other than the one displayed (e.g. the
    # decisions family carries both ``tier`` and ``method``).
    totals: dict[str, float] = {}
    for entry in entries:
        key = str(entry.get("labels", {}).get(label, "?"))
        totals[key] = totals.get(key, 0.0) + entry.get("value", 0.0)
    lines = [f"  {heading}"]
    for key, value in sorted(totals.items(), key=lambda kv: -kv[1]):
        rendered = f"{value:.3f}s" if seconds else f"{value:g}"
        lines.append(f"    {key:<22} {rendered}")
    return lines


def render_dashboard(snapshot: dict, *, title: str = "campaign",
                     extra_lines: list[str] | None = None) -> str:
    """One refresh frame of the live campaign dashboard."""
    lines = [f"== {title} @ {time.strftime('%H:%M:%S')} =="]
    if extra_lines:
        lines.extend(f"  {line}" for line in extra_lines)

    scenarios = snapshot_family(snapshot, "repro_scenarios_total")
    if scenarios:
        total = sum(entry.get("value", 0.0) for entry in scenarios)
        disagreed = snapshot_value(snapshot, "repro_disagreements_total")
        errors = snapshot_value(snapshot, "repro_scenarios_total",
                                classification="error")
        lines.append(f"  scenarios {total:g}  disagreements {disagreed:g}"
                     f"  errors {errors:g}")

    lines += _family_lines(snapshot, "repro_scenarios_total",
                           "classification", "by classification")
    lines += _family_lines(snapshot, "repro_verdict_lookups_total",
                           "tier", "verdict lookups by cache tier")
    lines += _family_lines(snapshot, "repro_analysis_decided_total",
                           "tier", "analysis decisions by tier")
    lines += _family_lines(snapshot, "repro_batch_phase_seconds_total",
                           "phase", "batch phase wall clock", seconds=True)
    lines += _family_lines(snapshot, "repro_batch_kernel_events_total",
                           "event", "batch kernel cache")
    lines += _family_lines(snapshot, "repro_batch_admission_total",
                           "reason", "batch admission by reason")
    for entry in snapshot_family(snapshot, "repro_store_ops_total"):
        labels = entry.get("labels", {})
        if labels.get("op") == "error" and entry.get("value"):
            lines.append(f"  store errors ({labels.get('store')}): "
                         f"{entry['value']:g}  (counted as misses / "
                         f"dropped writes)")
    lost = snapshot_value(snapshot, "repro_campaign_chunks_lost_total")
    if lost:
        lines.append(f"  chunks lost with a dead worker: {lost:g}")
    if len(lines) == 1:
        lines.append("  (no metrics yet)")
    return "\n".join(lines)
