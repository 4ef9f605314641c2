"""Observability overhead: instrumentation must be nearly free.

The obs plane's contract is that it can stay wired into every hot path
permanently: fully instrumented (counters counting, spans streaming to a
JSONL sink) a serial campaign may not cost more than 5% more CPU than
the disabled path.  The registry has no off switch, so the bench makes
the disabled side itself: ``Counter.inc`` patched to a no-op and no
trace sink configured.

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

A second, deterministic check counts instead of timing: over one pass,
the spans emitted per scenario and the extra Python calls per scenario
of the instrumented path (cProfile's ``total_calls``, instrumented
minus disabled).  Neither moves with the host, so an emission
regression (a new span per backend run, a span that does more work)
fails it on every run.
"""

import cProfile
import gc
import pstats
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
ROUNDS = 15
#: Specs per campaign run: short enough that both sides of a pair see
#: the same machine, and a multiple of the runner's chunk size, so the
#: segments' chunks (and batch kernel groups) are the whole campaign's.
SEGMENT = 2 * CampaignConfig.chunk_size
OVERHEAD_CEILING = 0.05
#: Per-scenario ceilings of the deterministic check, ≈ 10 % over the
#: measured 4.33 spans and 65.8 extra calls per quick spec (the 80 smoke
#: specs at seed 11, under any hash seed; the 160 of a full run read
#: 4.01 and 61.2).  One more span per scenario (≈ 15 calls a span)
#: fails both.
SPANS_PER_SCENARIO_CEILING = 4.75
CALLS_PER_SCENARIO_CEILING = 72


_INC = obs_metrics.Counter.inc


def _uncounted(counter, amount=1.0) -> None:
    pass


def _count(on: bool) -> None:
    """Restore ``Counter.inc``, or patch it to a no-op for the disabled
    side."""
    obs_metrics.Counter.inc = _INC if on else _uncounted


def _cpu_seconds(specs, trace_dir=None) -> float:
    """CPU seconds of one serial campaign, instrumented when given a
    trace directory."""
    # Clear the verdict memo so every run does the full evaluation
    # work — otherwise the first run would be the only one that pays
    # for analysis and the comparison would be noise.
    clear_verdict_cache()
    _count(trace_dir is not None)
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
            _count(True)
            configure_tracing(None)

    rounds = benchmark.pedantic(measure, rounds=1, iterations=1)

    # The instrumented rounds must actually have instrumented: spans on
    # disk and backend-run counters in the registry (every spec runs GPV
    # live once), else the gate is vacuously comparing two disabled runs.
    assert read_spans(trace_dir), "instrumented rounds emitted no spans"
    snap = obs_metrics.snapshot()
    counted = sum(entry["value"] for entry in obs_metrics.snapshot_family(
        snap, "repro_backend_runs_total"))
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


def _python_calls(specs, trace_dir=None) -> int:
    """cProfile's ``total_calls`` of one serial campaign, instrumented
    when given a trace directory."""
    clear_verdict_cache()
    _count(trace_dir is not None)
    profile = cProfile.Profile()
    profile.enable()
    report = CampaignRunner(CampaignConfig(
        jobs=1, keep_results=False, trace_dir=trace_dir)).run(specs)
    profile.disable()
    assert report.scenario_count == len(specs)
    return pstats.Stats(profile).total_calls


def test_instrumentation_emission_per_scenario(save_result, smoke, tmp_path):
    count = 80 if smoke else 160
    specs = ScenarioGenerator(SEED, profile="quick").generate(count)
    trace_dir = str(tmp_path / "traces")
    try:
        # Warm both sides first: kernels tabulated and modules imported
        # in neither counted pass.
        _cpu_seconds(specs)
        _cpu_seconds(specs, str(tmp_path / "warmup"))
        disabled = _python_calls(specs)
        instrumented = _python_calls(specs, trace_dir)
    finally:
        _count(True)
        configure_tracing(None)
    spans = len(read_spans(trace_dir)) / count
    calls = (instrumented - disabled) / count
    save_result(
        "observability_emission",
        f"scenarios: {count} (fixed seed {SEED}, one pass a side)\n"
        f"spans per scenario:        {spans:.2f} "
        f"(ceiling {SPANS_PER_SCENARIO_CEILING})\n"
        f"extra calls per scenario:  {calls:.1f} "
        f"(ceiling {CALLS_PER_SCENARIO_CEILING}; {instrumented} "
        f"instrumented, {disabled} disabled)")
    assert spans > 0, "the instrumented pass emitted no spans"
    assert spans <= SPANS_PER_SCENARIO_CEILING, spans
    assert calls <= CALLS_PER_SCENARIO_CEILING, calls
