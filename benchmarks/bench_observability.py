"""Observability overhead: instrumentation must be nearly free.

The obs plane's contract is that it can stay wired into every hot path
permanently: with metrics disabled and no trace sink configured the
call sites are no-ops, and even fully instrumented (registry enabled,
spans streaming to a JSONL sink) a serial campaign may not cost more
than 5% more CPU.

The bench times ``time.process_time()``: the campaign is serial, so the
process's CPU time is the campaign's, and time it spends waiting does
not count.  What a busy host still moves is the speed of the CPU time
itself (shared caches, clock changes, a virtual CPU descheduled), by
tens of percent over seconds.  So each round pairs the two
sides closely: the specs run in segments of ``SEGMENT``, each segment
once disabled and once instrumented back to back, the side that goes
first alternating from segment to segment and from round to round.  A
round's ratio is its instrumented CPU seconds over its disabled ones,
and the gate reads the median of the rounds' ratios.
"""

import gc
import statistics
import time

from repro.campaigns import (
    CampaignConfig,
    CampaignRunner,
    ScenarioGenerator,
    clear_verdict_cache,
)
from repro.obs import metrics as obs_metrics
from repro.obs.trace import configure_tracing, read_spans

SEED = 11
ROUNDS = 9
#: Specs per campaign run: short enough that both sides of a pair see
#: the same machine, and a multiple of the runner's chunk size, so the
#: segments' chunks (and batch kernel groups) are the whole campaign's.
SEGMENT = 2 * CampaignConfig.chunk_size
OVERHEAD_CEILING = 0.05


def _cpu_seconds(specs, trace_dir=None) -> float:
    """CPU seconds of one serial campaign, instrumented when given a
    trace directory."""
    # Clear the verdict memo so every run does the full evaluation
    # work — otherwise the first run would be the only one that pays
    # for analysis and the comparison would be noise.
    clear_verdict_cache()
    obs_metrics.set_metrics_enabled(trace_dir is not None)
    gc.collect()  # neither side pays for the other's garbage
    started = time.process_time()
    report = CampaignRunner(CampaignConfig(
        jobs=1, keep_results=False, trace_dir=trace_dir)).run(specs)
    elapsed = time.process_time() - started
    assert report.scenario_count == len(specs)
    return elapsed


def _round(segments, trace_dir, offset: int) -> tuple[float, float]:
    """(disabled, instrumented) CPU seconds of one pass over the specs."""
    disabled = instrumented = 0.0
    for index, segment in enumerate(segments):
        if (index + offset) % 2:
            instrumented += _cpu_seconds(segment, trace_dir)
            disabled += _cpu_seconds(segment)
        else:
            disabled += _cpu_seconds(segment)
            instrumented += _cpu_seconds(segment, trace_dir)
    return disabled, instrumented


def test_instrumentation_overhead(benchmark, save_result, smoke, tmp_path):
    # 80 quick specs are ~0.6 CPU s a side per round.  On a busy 2-core
    # host a whole-campaign pair (one 0.6 s run a side) read -16 % to
    # +15 %; pairing segment by segment narrows a round's spread.
    count = 80 if smoke else 160
    specs = ScenarioGenerator(SEED, profile="quick").generate(count)
    segments = [specs[i:i + SEGMENT] for i in range(0, count, SEGMENT)]
    trace_dir = str(tmp_path / "traces")

    def measure():
        # Warmup outside the clock, on both sides: imports, kernel
        # tabulation, and any first-touch allocation happen before either
        # side is timed.
        _cpu_seconds(specs)
        _cpu_seconds(specs, str(tmp_path / "warmup"))
        try:
            return [_round(segments, trace_dir, offset)
                    for offset in range(ROUNDS)]
        finally:
            obs_metrics.set_metrics_enabled(True)
            configure_tracing(None)

    rounds = benchmark.pedantic(measure, rounds=1, iterations=1)

    # The instrumented rounds must actually have instrumented: spans on
    # disk and scenario counters in the registry, else the gate is
    # vacuously comparing two disabled runs.
    assert read_spans(trace_dir), "instrumented rounds emitted no spans"
    snap = obs_metrics.snapshot()
    counted = sum(entry["value"] for entry in obs_metrics.snapshot_family(
        snap, "repro_scenarios_total"))
    assert counted >= count

    disabled = [base for base, _ in rounds]
    instrumented = [instr for _, instr in rounds]
    ratios = [instr / base for base, instr in rounds]
    overhead = statistics.median(ratios) - 1.0
    base = statistics.median(disabled)
    instr = statistics.median(instrumented)
    save_result(
        "observability_overhead",
        f"scenarios: {count} (fixed seed {SEED}, {ROUNDS} paired rounds "
        f"in segments of {SEGMENT}, CPU seconds)\n"
        f"disabled:     median {base:.3f}s "
        f"(min {min(disabled):.3f}s, max {max(disabled):.3f}s)\n"
        f"instrumented: median {instr:.3f}s "
        f"(min {min(instrumented):.3f}s, max {max(instrumented):.3f}s)\n"
        f"round ratios: {' '.join(f'{r - 1:+.1%}' for r in ratios)}\n"
        f"overhead:     {overhead:+.1%} median of the round ratios "
        f"(ceiling {OVERHEAD_CEILING:.0%})")
    benchmark.extra_info["disabled_median_s"] = base
    benchmark.extra_info["instrumented_median_s"] = instr
    benchmark.extra_info["overhead"] = overhead

    assert overhead <= OVERHEAD_CEILING, (
        f"instrumentation costs {overhead:.1%} more CPU than the disabled "
        f"path (median of {ROUNDS} round ratios: "
        f"{' '.join(f'{r - 1:+.1%}' for r in ratios)})")
