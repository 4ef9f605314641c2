"""The layer ledger: per-layer metrics of one traced run.

Every number here is taken at a layer's public boundary (the spans of
:mod:`shims`) or read from a public statistics function of the program
(``kernel_cache_stats`` / ``batch_phase_stats``).  ``_s`` metrics are
summed *self* times, so they add up to the run's wall time and
``trace.unaccounted_share`` says how much of it no span covered.
"""

from __future__ import annotations

from shims import END, NAME, NOTE, PARENT, SCENARIO, START, self_times


def percentile(values: list[float], pct: int) -> float:
    """Nearest-rank percentile (0.0 for an empty sample)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, len(ordered) * pct // 100)]


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(spans: list[list], *, run_start: float, run_end: float,
                  scenarios: int, batch_pairs: int, batch_stats: dict,
                  store_file_mb: float) -> dict[str, float]:
    """Per-layer metrics of the traced run (spans outside the timed run —
    spec generation — count toward their own layer only)."""
    selfs = self_times(spans)
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    durations: dict[str, list[float]] = {}
    notes: dict[str, list[dict]] = {}
    covered = 0.0
    for span, own in zip(spans, selfs):
        name = span[NAME]
        self_s[name] = self_s.get(name, 0.0) + own
        calls[name] = calls.get(name, 0) + 1
        durations.setdefault(name, []).append(span[END] - span[START])
        if span[NOTE] is not None:
            notes.setdefault(name, []).append(span[NOTE])
        if span[PARENT] is None and span[START] >= run_start:
            covered += span[END] - span[START]

    def s(name):
        return self_s.get(name, 0.0)

    def n(name):
        return calls.get(name, 0)

    def noted(name, key):
        return sum(note[key] for note in notes.get(name, ()))

    wall = run_end - run_start
    out = {
        "spec.make_s": s("spec.make"),
        "spec.make_calls": n("spec.make"),
        "scenarios.materialize_s": s("scenarios.materialize"),
        "scenarios.materialize_calls": n("scenarios.materialize"),
        "scenarios.materialize_per_scenario":
            _share(n("scenarios.materialize"), scenarios),
        "canonical.key_s": s("canonical.key"),
        "canonical.key_calls": n("canonical.key"),
        "canonical.key_per_scenario": _share(n("canonical.key"), scenarios),
        "canonical.key_p95_ms":
            1e3 * percentile(durations.get("canonical.key", []), 95),
        "canonical.key_max_ms":
            1e3 * max(durations.get("canonical.key", [0.0])),
        "canonical.hit_share":
            _share(noted("oracle.cached_verdict", "hit"),
                   n("oracle.cached_verdict")),
        "analysis.analyze_s": s("analysis.analyze"),
        "analysis.analyze_calls": n("analysis.analyze"),
        "extraction.extract_spp_s": s("extraction.extract_spp"),
        "extraction.extract_spp_calls": n("extraction.extract_spp"),
    }
    tiers = [note["tier"] for note in notes.get("analysis.analyze", ())]
    for tier in (0, 1, 2):
        out[f"analysis.tier{tier}_calls"] = tiers.count(tier)

    for backend in ("gpv", "ndlog", "hlp"):
        run = f"exec.{backend}.run"
        messages = noted(run, "messages")
        out[f"exec.{backend}.prepare_s"] = s(f"exec.{backend}.prepare")
        out[f"{run}_s"] = s(run)
        out[f"{run}s"] = n(run)
        out[f"exec.{backend}.messages"] = messages
        out[f"exec.{backend}.us_per_message"] = 1e6 * _share(s(run), messages)
    out["exec.gpv.diverged_runs"] = sum(
        not note["converged"] for note in notes.get("exec.gpv.run", ()))
    out["exec.gpv.run_p95_ms"] = \
        1e3 * percentile(durations.get("exec.gpv.run", []), 95)

    # supports() answers twice per scenario (chunk pre-scan, evaluate()):
    # count scenarios, not answers.
    batched = len({span[SCENARIO] for span in spans
                   if span[NAME] == "exec.batch.supports"
                   and span[NOTE]["admitted"]})
    lookups = sum(batch_stats[k] for k in
                  ("memo_hits", "cache_hits", "cache_misses"))
    out.update({
        "exec.batch.supports_s": s("exec.batch.supports"),
        "exec.batch.supports_calls": n("exec.batch.supports"),
        "exec.batch.supports_per_scenario":
            _share(n("exec.batch.supports"), scenarios),
        "exec.batch.admitted": batched,
        "exec.batch.admitted_share": _share(batched, scenarios),
        "exec.batch.crosschecked_share": _share(batch_pairs, scenarios),
        "exec.batch.prepare_s": s("exec.batch.prepare_batch"),
        "exec.batch.run_s": s("exec.batch.run"),
        "exec.batch.run_calls": n("exec.batch.run"),
        "exec.batch.declined": noted("exec.batch.run", "declined"),
        "exec.batch.kernel_key_of_s": s("exec.batch.kernel_key_of"),
        "exec.batch.tabulations": batch_stats["tabulations"],
        "exec.batch.tabulation_s": batch_stats["tabulation_s"],
        "exec.batch.kernel_memo_hits": batch_stats["memo_hits"],
        "exec.batch.kernel_cache_hits": batch_stats["cache_hits"],
        "exec.batch.kernel_cache_misses": batch_stats["cache_misses"],
        "exec.batch.kernel_hit_share":
            _share(lookups - batch_stats["cache_misses"], lookups),
        "exec.batch.scan_s": batch_stats["scan_s"],
        "exec.batch.relax_s": batch_stats["relax_s"],
        "exec.batch.render_s": batch_stats["render_s"],
        "kernel_store.get_s": s("kernel_store.get"),
        "kernel_store.get_calls": n("kernel_store.get"),
        "kernel_store.hit_share":
            _share(noted("kernel_store.get", "hit"), n("kernel_store.get")),
        "kernel_store.put_s": s("kernel_store.put"),
        "kernel_store.put_calls": n("kernel_store.put"),
        "kernel_store.file_mb": store_file_mb,
        "verdict_store.load_all_s": s("verdict_store.load_all"),
        "verdict_store.get_s": s("verdict_store.get"),
        "verdict_store.get_calls": n("verdict_store.get"),
        "verdict_store.hit_share":
            _share(noted("verdict_store.get", "hit"), n("verdict_store.get")),
        "verdict_store.put_s": s("verdict_store.put"),
        "verdict_store.put_calls": n("verdict_store.put"),
        "verdict_store.touch_many_s": s("verdict_store.touch_many"),
        "oracle.evaluate_self_s":
            s("oracle.evaluate") + s("oracle.cached_verdict"),
        "oracle.evaluate_chunk_self_s": s("oracle.evaluate_chunk"),
        "oracle.pairwise_s": s("oracle.pairwise"),
        "oracle.pairwise_calls": n("oracle.pairwise"),
        "sink.accept_s": s("sink.accept"),
        "sink.jsonl_accept_s": s("sink.jsonl_accept"),
        "report.build_s": s("report.build"),
        "runner.self_s": wall - sum(
            span[END] - span[START] for span in spans
            if span[PARENT] is None and span[START] >= run_start
            and span[NAME].startswith("oracle.")),
        "trace.unaccounted_share": _share(wall - covered, wall),
    })
    return out


def dominant_layer(spans: list[list], run_start: float) -> tuple[str, float]:
    """The span name with the largest summed self time inside the timed
    run, and its share of all self time there."""
    totals: dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        if span[START] >= run_start:
            totals[span[NAME]] = totals.get(span[NAME], 0.0) + own
    name = max(totals, key=totals.get)
    return name, _share(totals[name], sum(totals.values()))
