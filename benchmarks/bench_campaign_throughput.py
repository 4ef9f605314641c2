"""Campaign engine throughput: scenarios/second, serial vs parallel.

The campaign subsystem is the substrate every scale-out PR builds on, so
its throughput is a first-class benchmark.  This bench runs the same
fixed-seed scenario stream

* serially (``jobs=1``, in-process, shared verdict cache), and
* over a 4-worker process pool (``jobs=4``, per-worker caches),

and reports both rates.  On a machine with >= 4 usable cores the parallel
path must beat serial by at least 2x; on smaller boxes the ratio is
reported but not asserted (a process pool cannot beat the GIL-free serial
loop without real parallel hardware).

A third measurement isolates the effect of the verdict memoization by
running the serial campaign with the cache cleared before every
scenario, and a fourth reports per-execution-backend throughput —
the native GPV engine vs the generated NDlog program vs the two run
differentially — so the cost of three-way cross-checking stays visible.
"""

import json
import os
from collections import Counter

from repro.campaigns import (
    ERROR,
    FAMILIES,
    CampaignConfig,
    CampaignRunner,
    ScenarioGenerator,
    clear_verdict_cache,
    evaluate,
)

SEED = 7
JOBS = 4
#: Interleaved repetitions of the batch gate's passes; the gated ratios
#: are their medians.
GATE_REPEATS = 5

#: Single-backend columns plus the differential configuration.
BACKEND_CONFIGS = (("gpv",), ("ndlog",), ("gpv", "ndlog"))


def _specs(smoke: bool):
    count = 24 if smoke else 96
    return ScenarioGenerator(SEED, profile="quick").generate(count)


def test_campaign_throughput_parallel_vs_serial(benchmark, save_result, smoke):
    specs = _specs(smoke)

    clear_verdict_cache()
    serial = CampaignRunner(CampaignConfig(jobs=1)).run(specs)

    def parallel_run():
        return CampaignRunner(CampaignConfig(jobs=JOBS, chunk_size=4)).run(specs)

    parallel = benchmark.pedantic(parallel_run, rounds=1, iterations=1)

    assert serial.scenario_count == parallel.scenario_count == len(specs)
    serial_kinds = [(r.scenario_id, r.classification) for r in serial.results]
    parallel_kinds = [(r.scenario_id, r.classification)
                      for r in parallel.results]
    assert serial_kinds == parallel_kinds  # fan-out must not change verdicts

    speedup = (parallel.scenarios_per_second /
               max(serial.scenarios_per_second, 1e-9))
    cores = os.cpu_count() or 1
    text = "\n".join([
        f"scenarios: {len(specs)} (fixed seed {SEED})",
        f"serial:   {serial.scenarios_per_second:>8.1f} scenarios/s "
        f"({serial.wall_clock_s:.2f}s)",
        f"parallel: {parallel.scenarios_per_second:>8.1f} scenarios/s "
        f"({parallel.wall_clock_s:.2f}s, jobs={JOBS})",
        f"speedup:  {speedup:>8.2f}x on {cores} core(s)",
    ])
    save_result("campaign_throughput", text)
    benchmark.extra_info["serial_sps"] = serial.scenarios_per_second
    benchmark.extra_info["parallel_sps"] = parallel.scenarios_per_second
    benchmark.extra_info["speedup"] = speedup
    benchmark.extra_info["cores"] = cores

    if cores >= JOBS and not smoke:
        # The smoke workload (~0.2s serial) is dominated by pool dispatch
        # overhead, so the speedup bar only applies to the full workload.
        assert speedup >= 2.0, (
            f"parallel path must beat serial by >=2x on {JOBS} workers "
            f"(got {speedup:.2f}x on {cores} cores)")


def test_verdict_cache_pays_for_itself(benchmark, save_result, smoke):
    """Serial campaign with memoization vs cold-cache per scenario."""
    specs = _specs(smoke)[:12 if smoke else 40]

    def cold():
        results = []
        for spec in specs:
            clear_verdict_cache()
            results.append(evaluate(spec))
        return results

    cold_results = benchmark(cold)

    clear_verdict_cache()
    warm = CampaignRunner(CampaignConfig(jobs=1)).run(specs)
    assert [r.classification for r in cold_results] == \
        [r.classification for r in warm.results]
    hits = sum(r.cache_hit for r in warm.results)
    save_result(
        "campaign_verdict_cache",
        f"scenarios: {len(specs)}\n"
        f"warm-cache hits: {hits}/{len(specs)} "
        f"({warm.cache_hit_rate:.0%})\n"
        f"warm wall clock: {warm.wall_clock_s:.2f}s")
    benchmark.extra_info["cache_hit_rate"] = warm.cache_hit_rate


def test_per_backend_throughput(benchmark, save_result, smoke):
    """Scenarios/second per execution backend, and the differential cost.

    The three columns are the native engine alone, the generated NDlog
    program alone, and the two cross-checked per scenario.  The NDlog
    interpreter is expected to trail the native engine; the differential
    run pays roughly the sum of both plus the route-table comparison.
    """
    specs = _specs(smoke)[:12 if smoke else 48]
    rates: dict[str, float] = {}
    reports = {}

    for backends in BACKEND_CONFIGS:
        clear_verdict_cache()
        report = CampaignRunner(
            CampaignConfig(jobs=1, backends=backends)).run(specs)
        key = "+".join(backends)
        rates[key] = report.scenarios_per_second
        reports[key] = report

    def differential_run():
        return CampaignRunner(CampaignConfig(
            jobs=1, backends=("gpv", "ndlog"))).run(specs)

    report = benchmark.pedantic(differential_run, rounds=1, iterations=1)
    assert report.scenario_count == len(specs)
    # Cross-backend agreement is the whole point of paying for two runs.
    pairwise = report.pairwise_counters().get("gpv~ndlog", {})
    assert pairwise.get("route-diverged", 0) == 0
    assert pairwise.get("status-diverged", 0) == 0

    lines = [f"scenarios: {len(specs)} (fixed seed {SEED})"]
    for key, rate in rates.items():
        lines.append(f"{key:>11}: {rate:>8.1f} scenarios/s "
                     f"({reports[key].wall_clock_s:.2f}s)")
    save_result("campaign_backend_throughput", "\n".join(lines))
    for key, rate in rates.items():
        benchmark.extra_info[f"sps_{key}"] = rate


def test_analysis_tier_rates(benchmark, save_result, smoke, results_dir):
    """Tier-hit and cache-hit rates of the safety analyzer.

    Two sub-campaigns on the same fixed seed: the gadget (SPP) family
    alone — where the tier-1 dispute-digraph fast path must decide a
    majority of scenarios without ever invoking the solver — and the full
    family rotation, showing the per-tier method mix (closed-form /
    composition / dispute-digraph / smt).  Headline numbers land in
    ``benchmarks/results/BENCH_analysis.json`` for the CI artifact trail.

    A third sub-campaign, the iBGP family alone, prices the canonical
    keying that guards the analysis: its extracted SPPs (interchangeable
    route-reflector clients) are the subjects whose relabeling-invariant
    keys once cost ten times the analysis they could skip.  The
    ``keying`` block is read from the registry — seconds keying vs
    seconds solving — and the gate is that keying costs less than
    solving.
    """
    from repro.obs import metrics as obs_metrics

    spp_count = 24 if smoke else 96
    mixed_count = 21 if smoke else 70
    ibgp_count = 12 if smoke else 36

    def method_mix(report):
        return Counter(r.method for r in report.results
                       if r.classification != ERROR and r.method)

    def run_spp():
        clear_verdict_cache()
        specs = ScenarioGenerator(
            SEED, families=("gadget",), profile="quick").generate(spp_count)
        return CampaignRunner(CampaignConfig(jobs=1)).run(specs)

    spp_report = benchmark.pedantic(run_spp, rounds=1, iterations=1)
    spp_methods = method_mix(spp_report)
    spp_analyzed = sum(spp_methods.values())
    tier1 = spp_methods.get("dispute-digraph", 0)
    assert spp_analyzed > 0
    tier1_rate = tier1 / spp_analyzed
    # The acceptance bar: the combinatorial fast path carries the SPP
    # family; the solver is the fallback, not the workhorse.
    assert tier1_rate > 0.5, (
        f"tier-1 decided only {tier1}/{spp_analyzed} SPP scenarios")

    clear_verdict_cache()
    mixed_specs = ScenarioGenerator(
        SEED, profile="quick").generate(mixed_count)
    mixed_report = CampaignRunner(CampaignConfig(jobs=1)).run(mixed_specs)
    mixed_methods = method_mix(mixed_report)

    clear_verdict_cache()
    before = obs_metrics.snapshot()
    ibgp_report = CampaignRunner(CampaignConfig(jobs=1)).run(
        ScenarioGenerator(SEED, families=("ibgp",)).generate(ibgp_count))
    assert ibgp_report.error_count == 0, ibgp_report.summary()
    after = obs_metrics.snapshot()

    def spent(name, **labels):
        return obs_metrics.snapshot_value(after, name, **labels) \
            - obs_metrics.snapshot_value(before, name, **labels)

    key_s = spent("repro_verdict_seconds_total", phase="key")
    solve_s = spent("repro_verdict_seconds_total", phase="solve")
    assert key_s < solve_s, (
        f"keying the iBGP extractions ({key_s:.3f} s) cost more than "
        f"solving them ({solve_s:.3f} s)")

    lines = [
        f"scenarios: {spp_count} gadget-family + {mixed_count} mixed + "
        f"{ibgp_count} ibgp (fixed seed {SEED})",
        f"ibgp keying: {key_s:.3f} s keying vs {solve_s:.3f} s solving",
        f"gadget family: tier-1 hit rate "
        f"{tier1_rate:.0%} ({tier1}/{spp_analyzed} dispute-digraph), "
        f"cache-hit rate {spp_report.cache_hit_rate:.0%}",
        "mixed families, methods: " + " ".join(
            f"{m}={n}" for m, n in sorted(mixed_methods.items())),
        f"mixed cache-hit rate: {mixed_report.cache_hit_rate:.0%}",
    ]
    save_result("analysis_tier_rates", "\n".join(lines))
    payload = {
        "seed": SEED,
        "spp_scenarios": spp_count,
        "spp_methods": dict(spp_methods),
        "tier1_rate": tier1_rate,
        "spp_cache_hit_rate": spp_report.cache_hit_rate,
        "mixed_scenarios": mixed_count,
        "mixed_methods": dict(mixed_methods),
        "mixed_cache_hit_rate": mixed_report.cache_hit_rate,
        "spp_scenarios_per_second": spp_report.scenarios_per_second,
        "keying": {
            "key_s": round(key_s, 6),
            "solve_s": round(solve_s, 6),
        },
    }
    (results_dir / "BENCH_analysis.json").write_text(
        json.dumps(payload, indent=2) + "\n")
    benchmark.extra_info["tier1_rate"] = tier1_rate
    benchmark.extra_info["cache_hit_rate"] = spp_report.cache_hit_rate


def _batch_specs(smoke: bool):
    """Fixed-seed scenarios per batch-supported family, near the node cap
    (where the vectorized path amortizes best and the scalar engines pay
    the most per scenario)."""
    from repro.campaigns import LinkEventSpec, ScenarioSpec

    per_family = 8 if smoke else 40
    specs = {"caida/hop-count": [], "hierarchy/safe-backup": [],
             "rocketfuel/shortest-path": [], "tau-sweep/hlp-tau": [],
             "caida/gr-a-hopcount": [], "caida/widest-shortest": [],
             "rocketfuel/shortest-path-wide": []}
    for i in range(per_family):
        # The hole-aware admissions: lexical products relaxed in the
        # monotone mode, and wide weights injecting beyond-horizon holes
        # into the additive kernel.
        specs["caida/gr-a-hopcount"].append(ScenarioSpec(
            scenario_id=4000 + i, family="caida", algebra="gr-a-hopcount",
            seed=400 + i, until=60.0, max_events=200_000,
            params=(("as_count", 40), ("peer_fraction", 0.2),
                    ("destinations", 3))))
        specs["caida/widest-shortest"].append(ScenarioSpec(
            scenario_id=5000 + i, family="caida", algebra="widest-shortest",
            seed=400 + i, until=60.0, max_events=200_000,
            params=(("as_count", 40), ("peer_fraction", 0.2),
                    ("destinations", 3))))
        specs["rocketfuel/shortest-path-wide"].append(ScenarioSpec(
            scenario_id=6000 + i, family="rocketfuel",
            algebra="shortest-path",
            seed=500 + i, until=60.0, max_events=200_000,
            params=(("routers", 48), ("links", 120), ("weights", (1, 19)),
                    ("destinations", 3))))
    for i in range(per_family):
        specs["caida/hop-count"].append(ScenarioSpec(
            scenario_id=1000 + i, family="caida", algebra="hop-count",
            seed=100 + i, until=60.0, max_events=200_000,
            params=(("as_count", 56), ("peer_fraction", 0.2),
                    ("destinations", 3)),
            events=(LinkEventSpec(time=0.2, kind="fail",
                                  link_index=i % 11),)))
        specs["hierarchy/safe-backup"].append(ScenarioSpec(
            scenario_id=2000 + i, family="hierarchy", algebra="safe-backup",
            seed=200 + i, until=60.0, max_events=200_000,
            params=(("depth", 4), ("branching", 3), ("max_nodes", 56),
                    ("destinations", 3)),
            events=(LinkEventSpec(time=0.2, kind="fail",
                                  link_index=i % 7),)))
        specs["rocketfuel/shortest-path"].append(ScenarioSpec(
            scenario_id=3000 + i, family="rocketfuel",
            algebra="shortest-path",
            seed=300 + i, until=60.0, max_events=200_000,
            params=(("routers", 48), ("links", 120), ("weights", (1, 2)),
                    ("destinations", 3)),
            events=(LinkEventSpec(time=0.1, kind="perturb",
                                  link_index=i % 13, weight=2),)))
    generator = ScenarioGenerator(SEED, families=("tau-sweep",),
                                  profile="quick")
    specs["tau-sweep/hlp-tau"] = generator.generate(per_family)
    return specs


def test_batch_backend_equality_and_speedup(benchmark, save_result, smoke,
                                            kernel_cache, results_dir):
    """The vectorized backend's twin acceptance gates, on fixed seeds.

    *Equality*: on every scenario the batch backend declares supported —
    across all batch-supported families, including the hole-aware
    admissions (``gr-a-hopcount``, ``widest-shortest``, wide-weight
    shortest path) — its route tables must be preference-equal to the
    scalar GPV engine (``route_mismatches`` empty per scenario,
    non-vacuously per family).

    *Throughput*: two measured passes per family, timed on
    ``time.process_time()``.  Each gated ratio is the median over
    ``GATE_REPEATS`` interleaved repetitions of the scalar, cold and warm
    passes (one wall-clock pass a side read 1.7x against the 2x
    tau-sweep floor on a busy host).  The *cold* pass
    (kernel caches cleared) must beat the scalar per-scenario loop by
    >= 10x aggregated over the large-topology families (smoke floor 2x —
    kernel tabulation is a fixed cost the small run cannot amortize).
    The gate is a *ratio against the scalar engine*: the floor was 15x
    until the scalar message path got a third cheaper, which lowers this
    ratio with the batch engine untouched — ``batch_sps`` and
    ``scalar_us_per_message`` in the artifact tell the two apart.
    The *warm* pass replays the oracle's exact flow — ``supports()``
    compiles each scenario (one scan, one process-cache lookup), ``run()``
    takes what it returned and must neither scan nor look anything up
    (asserted from the registry).  The warm clock is on ``run()``, as it
    always was; admission's share is recorded per family as
    ``warm_admission_s``.  It gates tau-sweep at >= 2x: each sweep
    spec draws distinct weights, so tabulation dominated its cold figure
    (~0.5x before canonical-token keying and the kernel cache; the cold
    number is recorded, un-gated).  Kernel cache tier counters,
    per-phase wall time (scan/tabulate/relax/render) and the
    fixpoints-per-round-count counter
    ``repro_batch_relax_rounds_total{rounds}`` for both passes land in
    ``benchmarks/results/BENCH_batch.json`` (the checked-in
    ``BENCH_batch.json`` at the repository root is a copy of a full run's);
    ``runtime_declines`` (kernel groups) must stay
    zero — no group of the gated families, the wide-weight admissions
    included, touches a hole, ties a hazard or runs out of rounds.  Each
    phase section's ``hazard_declines`` is read from
    ``repro_batch_admission_total{outcome="declined",reason="hazard-tie"}``,
    which counts *scenarios* (every member of a declined group), not
    groups.  ``--kernel-cache PATH`` runs every pass over a persistent
    kernel store.
    """
    from repro.campaigns import materialize
    from repro.exec import get_backend, route_mismatches
    from repro.exec.batch import (
        batch_phase_stats,
        clear_kernel_cache,
        configure_kernel_store,
        kernel_cache_stats,
        reset_batch_phase_stats,
        reset_kernel_cache_stats,
    )
    from repro.obs import metrics as obs_metrics

    import statistics
    import time as _time

    def _relax_seconds() -> float:
        return obs_metrics.snapshot_value(
            obs_metrics.snapshot(),
            "repro_batch_phase_seconds_total", phase="relax")

    def kernel_stats() -> dict:
        # ``memo_hits`` survives in the stats view only for the e2e
        # ledger (always 0: the per-instance tier is gone).
        stats = kernel_cache_stats()
        del stats["memo_hits"]
        return stats

    configure_kernel_store(kernel_cache)
    batch = get_backend("batch")
    gpv = get_backend("gpv")
    by_family = _batch_specs(smoke)

    # The supports() filter is where kernels are first tabulated (and,
    # when a persistent store is configured, written through).  Snapshot
    # its counters separately: on a process whose store is already warm,
    # setup tabulations are zero — the cross-process cache contract CI
    # asserts by running this bench twice over one sqlite file.
    reset_kernel_cache_stats()
    supported: dict[str, list] = {}
    for family_key, specs in by_family.items():
        supported[family_key] = [
            spec for spec in specs if batch.supports(materialize(spec))]
        assert supported[family_key], (
            f"equality gate is vacuous: no supported scenario "
            f"in {family_key}")
    setup_stats = kernel_stats()
    family_counts = Counter(
        {key: len(specs) for key, specs in supported.items()})
    total = sum(family_counts.values())

    # Scalar reference pass (timed per family): one GPV run per scenario.
    def scalar_run():
        references, seconds = {}, {}
        for family_key, specs in supported.items():
            scenarios = [materialize(spec) for spec in specs]
            started = _time.process_time()
            refs = []
            for spec, scenario in zip(specs, scenarios):
                session = gpv.prepare(scenario, seed=spec.seed)
                refs.append((scenario.algebra,
                             session.run(until=spec.until,
                                         max_events=spec.max_events)))
            seconds[family_key] = _time.process_time() - started
            references[family_key] = refs
        return references, seconds

    references, scalar_s = scalar_run()
    scalar_messages = {key: sum(outcome.messages for _, outcome in refs)
                       for key, refs in references.items()}

    # Vectorized cold pass (timed per family, fresh kernels): admission
    # plus one batch per family — the amortization unit, since kernels
    # are per-algebra.
    def batched_run():
        clear_kernel_cache()
        reset_kernel_cache_stats()
        reset_batch_phase_stats()
        fresh = {key: [materialize(spec) for spec in specs]
                 for key, specs in supported.items()}
        outcomes, seconds = {}, {}
        for family_key, scenarios in fresh.items():
            started = _time.process_time()
            outcomes[family_key] = batch.prepare_batch(
                [batch.supports(scn) for scn in scenarios]).run()
            seconds[family_key] = _time.process_time() - started
        return outcomes, seconds

    phase_setup = obs_metrics.snapshot()
    outcomes, batch_s = benchmark.pedantic(batched_run, rounds=1,
                                           iterations=1)
    cold_stats = kernel_stats()
    # The phase sections come straight from the metrics registry — the
    # same ``repro-metrics/1`` snapshot the live dashboards render — so
    # the bench has no bookkeeping of its own to keep in sync.
    phase_cold = obs_metrics.snapshot()

    # Warm pass: the production steady state, in the oracle's exact
    # shape — materialize once, admit with ``supports()`` (one scan, the
    # kernel out of the hot process cache, the compiled problem back),
    # then ``run()`` what it returned.  This is what every chunk after a
    # worker's first sees.  As before the clock is on ``run()`` and
    # admission is off it — but ``run()`` no longer repeats the scan and
    # the compilation, so what admission costs is recorded beside it
    # (``warm_admission_s``) rather than hidden.
    def warm_run():
        reset_kernel_cache_stats()
        reset_batch_phase_stats()
        seconds, admission, relax = {}, {}, {}
        for family_key, specs in supported.items():
            scenarios = [materialize(spec) for spec in specs]
            started = _time.process_time()
            problems = [batch.supports(scn) for scn in scenarios]
            admission[family_key] = _time.process_time() - started
            assert all(problems)
            admitted = (kernel_stats(), batch_phase_stats()["scan_s"])
            relax_before = _relax_seconds()
            started = _time.process_time()
            batch.prepare_batch(problems).run()
            seconds[family_key] = _time.process_time() - started
            relax[family_key] = _relax_seconds() - relax_before
            # ``run()`` only groups, relaxes and renders: no lookup (hence
            # no tabulation) and no scan happens inside it.
            assert (kernel_stats(), batch_phase_stats()["scan_s"]) == \
                admitted
        return seconds, admission, relax

    warm_s, admission_warm, relax_warm = warm_run()
    warm_stats = kernel_stats()
    phase_warm = obs_metrics.snapshot()
    # One lookup per scenario, all of them process-cache hits.
    assert warm_stats["tabulations"] == 0, warm_stats
    assert warm_stats["cache_hits"] == total, warm_stats
    assert warm_stats["cache_misses"] == 0, warm_stats

    # The passes above are the first of the gate's repetitions; the rest
    # alternate which side goes first, the warm pass always after a
    # cold one.
    repetitions = [(scalar_s, batch_s, warm_s)]
    for rep in range(1, GATE_REPEATS):
        if rep % 2:
            cold, warm = batched_run()[1], warm_run()[0]
            scalar = scalar_run()[1]
        else:
            scalar = scalar_run()[1]
            cold, warm = batched_run()[1], warm_run()[0]
        repetitions.append((scalar, cold, warm))
    scalar_s, batch_s, warm_s = (
        {key: statistics.median(rep[side][key] for rep in repetitions)
         for key in supported}
        for side in range(3))

    # The equality gate: preference-equal tables on every scenario of
    # every family, tau-sweep included.
    mismatched = []
    family_mismatches = {key: 0 for key in supported}
    for family_key, specs in supported.items():
        for spec, (algebra, reference), outcome in zip(
                specs, references[family_key], outcomes[family_key]):
            diffs = route_mismatches(algebra, reference, outcome)
            if diffs:
                family_mismatches[family_key] += len(diffs)
                mismatched.append((spec.describe(), diffs[:2]))
    assert not mismatched, f"batch != gpv on {mismatched}"

    per_family = {
        key: {
            "scenarios": family_counts[key],
            "scalar_sps": family_counts[key] / scalar_s[key],
            "scalar_us_per_message": (scalar_s[key] * 1e6
                                      / scalar_messages[key]),
            "batch_sps": family_counts[key] / batch_s[key],
            "batch_warm_sps": family_counts[key] / warm_s[key],
            "speedup": scalar_s[key] / batch_s[key],
            "warm_speedup": scalar_s[key] / warm_s[key],
            "route_mismatches": family_mismatches[key],
            "relax_s": relax_warm[key],
            "warm_admission_s": admission_warm[key],
        }
        for key in supported
    }

    def hazard_declines(snap) -> int:
        return int(sum(
            entry["value"] for entry in obs_metrics.snapshot_family(
                snap, "repro_batch_admission_total")
            if entry["labels"].get("outcome") == "declined"
            and entry["labels"].get("reason") == "hazard-tie"))

    def phase_summary(snap, since):
        def phase(name):
            return obs_metrics.snapshot_value(
                snap, "repro_batch_phase_seconds_total", phase=name)
        events = {
            entry["labels"].get("event", "?"): int(entry["value"])
            for entry in obs_metrics.snapshot_family(
                snap, "repro_batch_relax_events_total")}
        rounds = {
            int(entry["labels"]["rounds"]): int(entry["value"])
            for entry in obs_metrics.snapshot_family(
                snap, "repro_batch_relax_rounds_total")}
        groups = sum(rounds.values())
        return {
            "scan_s": round(phase("scan"), 6),
            "tabulate_s": round(phase("tabulate"), 6),
            "relax_s": round(phase("relax"), 6),
            "render_s": round(phase("render"), 6),
            "rounds_hist": {str(k): v for k, v in sorted(rounds.items())},
            "mean_rounds": (sum(k * v for k, v in rounds.items()) / groups
                            if groups else 0.0),
            "state_cells": events.get("state_cells", 0),
            "hazard_declines": hazard_declines(snap) - hazard_declines(since),
        }

    cold_summary = phase_summary(phase_cold, phase_setup)
    warm_summary = phase_summary(phase_warm, phase_cold)
    tau = "tau-sweep/hlp-tau"
    amortized = [key for key in supported if key != tau]
    gated_n = sum(family_counts[key] for key in amortized)

    def median_ratio(ratio) -> float:
        """The median over the repetitions of one scalar/batch ratio."""
        return statistics.median(ratio(*rep) for rep in repetitions)

    gated_speedup = median_ratio(
        lambda scalar, cold, _: (sum(scalar[key] for key in amortized)
                                 / sum(cold[key] for key in amortized)))
    tau_cold = median_ratio(lambda scalar, cold, _: scalar[tau] / cold[tau])
    tau_warm = median_ratio(lambda scalar, _, warm: scalar[tau] / warm[tau])
    scalar_sps = total / sum(scalar_s.values())
    scalar_us_per_message = (sum(scalar_s.values()) * 1e6
                             / sum(scalar_messages.values()))
    batch_sps = total / sum(batch_s.values())
    speedup = sum(scalar_s.values()) / sum(batch_s.values())
    lines = [
        f"scenarios: {total} supported (fixed seeds), "
        f"families: " + " ".join(f"{k}={n}"
                                 for k, n in sorted(family_counts.items())),
        f"scalar gpv: {scalar_sps:>8.1f} scenarios/s "
        f"({sum(scalar_s.values()):.2f}s, "
        f"{scalar_us_per_message:.1f} us/message)",
        f"batch:      {batch_sps:>8.1f} scenarios/s "
        f"({sum(batch_s.values()):.2f}s cold, "
        f"{sum(warm_s.values()):.2f}s warm after "
        f"{sum(admission_warm.values()):.2f}s admission)",
        f"speedup:    {speedup:>8.1f}x overall, "
        f"{gated_speedup:.1f}x on the {gated_n} large-topology scenarios, "
        f"tau-sweep {tau_cold:.1f}x cold / {tau_warm:.1f}x warm, "
        f"route mismatches: 0",
        f"kernels:    {cold_stats['tabulations']} tabulated in "
        f"{cold_stats['tabulation_s']:.3f}s cold; warm pass "
        f"{warm_stats['tabulations']} tabulations, "
        f"{warm_stats['cache_hits']} process-cache hits",
        f"phases:     cold scan {cold_summary['scan_s']:.3f}s "
        f"tabulate {cold_summary['tabulate_s']:.3f}s "
        f"relax {cold_summary['relax_s']:.3f}s "
        f"render {cold_summary['render_s']:.3f}s; "
        f"warm mean rounds {warm_summary['mean_rounds']:.1f}",
    ] + [
        f"  {key}: {stats['speedup']:.1f}x cold / "
        f"{stats['warm_speedup']:.1f}x warm, "
        f"warm relax {stats['relax_s'] * 1e3:.1f}ms "
        f"({stats['batch_sps']:.0f} vs {stats['scalar_sps']:.0f} "
        f"scenarios/s)"
        for key, stats in sorted(per_family.items())
    ]
    save_result("batch_backend_speedup", "\n".join(lines))
    payload = {
        "seed": SEED,
        "smoke": smoke,
        "scenarios": total,
        "family_counts": dict(family_counts),
        "route_mismatches": 0,
        "scalar_sps": scalar_sps,
        "scalar_us_per_message": scalar_us_per_message,
        "batch_sps": batch_sps,
        "speedup": speedup,
        "gated_families": amortized,
        "gated_speedup": gated_speedup,
        "newly_admitted": ["caida/gr-a-hopcount", "caida/widest-shortest",
                           "rocketfuel/shortest-path-wide"],
        "tau_sweep_cold_speedup": tau_cold,
        "tau_sweep_warm_speedup": tau_warm,
        "runtime_declines": (setup_stats["runtime_declines"] +
                             cold_stats["runtime_declines"] +
                             warm_stats["runtime_declines"]),
        "kernel_stats_setup": setup_stats,
        "kernel_stats_cold": cold_stats,
        "kernel_stats_warm": warm_stats,
        "phase_cold": cold_summary,
        "phase_warm": warm_summary,
        "per_family": per_family,
    }
    (results_dir / "BENCH_batch.json").write_text(
        json.dumps(payload, indent=2) + "\n")
    benchmark.extra_info.update(payload)

    # The gated families (wide weights included) never touch a hole or
    # tie a hazard, so none of their groups may fall back to scalar.
    assert payload["runtime_declines"] == 0, payload["kernel_stats_cold"]

    # 10x, not the former 15x: a faster denominator (scalar GPV) is not a
    # batch regression; batch_sps is the number that must not drop.
    floor = 2.0 if smoke else 10.0
    assert gated_speedup >= floor, (
        f"batch backend must beat scalar gpv by >={floor}x on the "
        f"large-topology families "
        f"(got {gated_speedup:.1f}x on {gated_n} scenarios)")
    # The tau-sweep gate rides the warm pass: with kernels cached (one
    # worker's steady state; every worker's start under a persistent
    # store) the sweep must beat scalar by >= 2x — it regressed at 0.52x
    # before kernel-keyed scheduling and canonical-token keying.
    assert tau_warm >= 2.0, (
        f"tau-sweep must beat scalar gpv by >=2x with warm kernels "
        f"(got {tau_warm:.2f}x; cold was {tau_cold:.2f}x)")


def test_per_family_throughput(benchmark, save_result, smoke):
    """Scenarios/second per workload family, on every applicable backend.

    One column per family in the generator's rotation — including the HLP
    hierarchies (three-way gpv/ndlog/hlp) and the top-k multipath
    scenarios (ranked-aggregate NDlog program) — so a family that regresses
    (or a newly added one that is disproportionately expensive) shows up
    in the perf trajectory instead of hiding inside the blended rate.
    """
    per_family = 4 if smoke else 16
    backends = ("gpv", "ndlog", "hlp")

    def sweep():
        results = {}
        for family in FAMILIES:
            clear_verdict_cache()
            specs = ScenarioGenerator(
                SEED, families=(family,), profile="quick").generate(per_family)
            report = CampaignRunner(
                CampaignConfig(jobs=1, backends=backends)).run(specs)
            results[family] = report
        return results

    reports = benchmark.pedantic(sweep, rounds=1, iterations=1)

    lines = [f"scenarios per family: {per_family} (fixed seed {SEED}, "
             f"backends {'+'.join(backends)})"]
    for family, report in reports.items():
        assert report.scenario_count == per_family
        assert report.disagreement_count == 0, report.summary()
        rate = report.scenarios_per_second
        # Errored scenarios never ran the differential check — surface
        # them per family instead of letting them hide in the rate.
        errors = report.error_count
        lines.append(f"{family:>11}: {rate:>8.1f} scenarios/s "
                     f"({report.wall_clock_s:.2f}s, errors={errors})")
        benchmark.extra_info[f"sps_{family}"] = rate
        benchmark.extra_info[f"errors_{family}"] = errors
    save_result("campaign_family_throughput", "\n".join(lines))
