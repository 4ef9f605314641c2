"""Command-line front end: ``python -m repro <command> ...``.

Gives operators and researchers the paper's workflows without writing
Python:

* ``analyze <gadget>`` — safety verdict + unsat core for a built-in gadget;
* ``run <gadget>`` — execute the generated NDlog implementation and report
  convergence / message counts;
* ``modelcheck <gadget>`` — stable states and an oscillation trace;
* ``analyze-config <file> [--dest NODE]`` — validate router configuration
  files and (given a destination) analyze the implied SPP instance;
* ``figure {fig4,fig5,fig6} [--quick]`` — regenerate an evaluation figure;
* ``campaign`` — run a randomized differential-testing campaign
  (analysis verdict vs one or more execution backends over many
  scenarios; ``--backends gpv,ndlog,hlp`` cross-checks the native engine
  against the generated NDlog implementation and the hierarchical HLP
  protocol, ``--families hlp,multipath`` selects the workload families,
  ``--stream-out`` records every scenario as JSONL in constant memory,
  ``--resume`` finishes an interrupted or crashed run of the same command
  from that file instead of starting over,
  ``--shard-index`` / ``--shard-count`` stride the deterministic spec
  stream across machines, ``--verdict-cache`` persists SMT verdicts
  across invocations);
* ``verdicts <path> [--stats]`` — inspect a persistent verdict cache's
  row and hit statistics;
* ``trace show <scenario-id> [--trace-dir DIR]`` — render the merged
  span tree a traced campaign (``campaign --trace-dir``) recorded for one
  scenario: spec materialization, every backend run, analysis tiers,
  verdict, each span tagged with the worker process that emitted it.
  ``campaign --watch`` renders a live dashboard from the same metrics
  registry (pool workers' snapshots merged in); ``--format json`` on
  ``verdicts --stats`` emits the versioned ``repro-obs/1`` envelope.

Exit codes are consistent across subcommands: **0** when the command ran
and the verdict is good (safe / converged / no disagreement), **1** when
the analysis fails (unsafe verdict, non-convergence, oracle disagreement
or scenario errors) or an input *file* is rejected, **2** for usage
errors — bad command-line arguments, whether caught by argparse or by
option validation (e.g. ``campaign --jobs 0``).
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Sequence

from .algebra import GADGET_ZOO, SPPInstance
from .analysis import ModelChecker, SafetyAnalyzer
from .ndlog import deploy_spp

GADGETS: dict[str, Callable[[], SPPInstance]] = dict(GADGET_ZOO)


def _gadget(name: str) -> SPPInstance:
    try:
        return GADGETS[name]()
    except KeyError:
        raise SystemExit(
            f"unknown gadget {name!r}; choose from {sorted(GADGETS)}")


def cmd_analyze(args: argparse.Namespace) -> int:
    instance = _gadget(args.gadget)
    print(instance)
    print()
    report = SafetyAnalyzer().analyze(instance)
    print(report.summary())
    if args.explain:
        print()
        print(report.explain())
    # Exit codes stay aligned with the campaign subcommand: 0 verdict-good,
    # 1 analysis failure (unsafe), 2 usage errors (argparse).
    return 0 if report.safe else 1


def cmd_run(args: argparse.Namespace) -> int:
    instance = _gadget(args.gadget)
    runtime = deploy_spp(instance, seed=args.seed, jitter_s=0.003)
    reason = runtime.sim.run(until=args.until, max_events=args.max_events)
    stats = runtime.sim.stats
    if reason == "quiescent":
        print(f"converged at t={stats.convergence_time:.3f}s "
              f"({stats.messages_sent} messages)")
        for node in sorted(instance.permitted):
            rows = runtime.table_rows(node, "localOpt")
            if rows:
                print(f"  {node}: {instance.path_name(rows[0][3])}")
        return 0
    print(f"did not converge within {args.until}s "
          f"({stats.messages_sent} messages, stop reason: {reason})")
    return 1


def cmd_modelcheck(args: argparse.Namespace) -> int:
    instance = _gadget(args.gadget)
    checker = ModelChecker(instance)
    stable = checker.stable_states()
    print(f"stable solutions: {len(stable)}")
    for state in stable:
        rendered = {node: instance.path_name(path)
                    for node, path in sorted(state.items())}
        print(f"  {rendered}")
    trace = checker.find_oscillation(mode=args.mode)
    if trace is None:
        print("no oscillation under these dynamics")
        return 0
    print(trace.describe(instance))
    return 1


def cmd_analyze_config(args: argparse.Namespace) -> int:
    from .config import ConfigError, parse_configs, to_spp
    try:
        with open(args.file) as handle:
            configs = parse_configs(handle.read())
    except (OSError, ConfigError) as error:
        print(f"configuration rejected: {error}", file=sys.stderr)
        return 1
    print(f"{len(configs)} router stanzas validated")
    if args.dest:
        try:
            instance = to_spp(configs, args.dest)
        except ConfigError as error:
            print(f"cannot derive SPP: {error}", file=sys.stderr)
            return 1
        print(instance)
        print()
        report = SafetyAnalyzer().analyze(instance)
        print(report.summary())
        if not report.safe:
            return 1
    return 0


def cmd_figure(args: argparse.Namespace) -> int:
    if args.name == "fig4":
        from .experiments import figure4_sweep, format_series
        depths = (3, 5) if args.quick else (3, 5, 7, 9, 11, 13, 16)
        points = figure4_sweep(depths, seed=1,
                               max_nodes=40 if args.quick else 160)
        print(format_series(points, "CAIDA-Sim"))
    elif args.name == "fig5":
        from .experiments import figure5_study, format_figure5
        print(format_figure5(figure5_study(
            seed=0, window_s=1.0 if args.quick else 2.0,
            analyze=not args.quick)))
    elif args.name == "fig6":
        from .experiments import figure6_study, format_figure6
        if args.quick:
            results = figure6_study(seed=1, domains=3, nodes_per_domain=6,
                                    cross_links=8, until=30.0)
        else:
            results = figure6_study(seed=0, until=60.0)
        print(format_figure6(results))
    else:  # pragma: no cover - argparse restricts choices
        return 2
    return 0


def _parse_families(tokens) -> list[str] | None:
    """Both spellings: ``--families hlp multipath`` and ``hlp,multipath``."""
    if not tokens:
        return None
    return [name for token in tokens
            for name in token.split(",") if name]


def cmd_campaign(args: argparse.Namespace) -> int:
    import os

    from .campaigns import JsonlResultSink, read_results, run_campaign
    if args.scenarios < 1:
        # A zero-scenario campaign would exit 0 without testing anything —
        # refuse rather than hand CI a vacuously green gate.
        print("campaign rejected: --scenarios must be >= 1",
              file=sys.stderr)
        return 2
    if args.resume and not args.stream_out:
        print("campaign rejected: --resume needs the --stream-out file "
              "of the run to resume", file=sys.stderr)
        return 2
    families = _parse_families(args.families)
    sink = recorded = None
    if args.stream_out:
        try:
            if args.resume:
                # Read before the sink opens: a file that does not parse
                # is rejected untouched.  No file yet is nothing to resume.
                recorded = (read_results(args.stream_out)
                            if os.path.exists(args.stream_out) else {})
            sink = JsonlResultSink(args.stream_out, append=args.resume)
        except (OSError, ValueError) as error:
            print(f"campaign rejected: cannot "
                  f"{'resume from' if args.resume else 'open'} "
                  f"--stream-out: {error}", file=sys.stderr)
            return 2
    try:
        report = run_campaign(
            args.scenarios,
            seed=args.seed,
            jobs=args.jobs,
            families=families,
            profile=args.profile,
            deployment=args.deployment,
            chunk_size=args.chunk_size,
            wall_clock_budget_s=args.budget_s,
            abort_on_disagreements=args.abort_on_disagreements,
            backends=tuple(args.backends.split(",")),
            # The CLI is the million-scenario path: aggregate in constant
            # memory; full per-scenario records belong in --stream-out.
            keep_results=False,
            verdict_cache_path=args.verdict_cache,
            auto_batch=not args.no_batch,
            kernel_cache_path=args.kernel_cache,
            trace_dir=args.trace_dir,
            watch=args.watch,
            shard_index=args.shard_index,
            shard_count=args.shard_count,
            sink=sink,
            recorded=recorded,
        )
    except ValueError as error:
        print(f"campaign rejected: {error}", file=sys.stderr)
        return 2
    finally:
        if sink is not None:
            sink.close()
    print(report.summary())
    # Errors fail the gate too: an errored scenario is one the differential
    # check silently never ran on.
    if report.disagreement_count or report.error_count:
        return 1
    if report.scenario_count == 0:
        # e.g. a wall-clock budget that expired before any chunk returned —
        # a gate that evaluated nothing must not report success.
        print("campaign rejected: zero scenarios were evaluated",
              file=sys.stderr)
        return 1
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """``repro trace show <scenario-id>``: render one scenario's merged
    span tree (materialization → backends → oracle verdict) from the
    JSONL trace sink a traced campaign wrote."""
    import os

    from .obs.trace import TRACE_DIR_ENV, render_span_tree, spans_for_scenario
    directory = args.trace_dir or os.environ.get(TRACE_DIR_ENV)
    if not directory:
        print(f"trace rejected: pass --trace-dir or set {TRACE_DIR_ENV}",
              file=sys.stderr)
        return 2
    if not os.path.isdir(directory):
        print(f"trace rejected: no such directory: {directory}",
              file=sys.stderr)
        return 2
    spans = spans_for_scenario(directory, args.scenario_id)
    if not spans:
        print(f"no spans recorded for scenario {args.scenario_id} "
              f"in {directory}", file=sys.stderr)
        return 1
    print(render_span_tree(spans))
    return 0


def cmd_verdicts(args: argparse.Namespace) -> int:
    import os

    from .campaigns import VerdictStore
    if not os.path.exists(args.path):
        print(f"verdict cache rejected: no such file: {args.path}",
              file=sys.stderr)
        return 1
    store = VerdictStore(args.path)
    try:
        stats = store.stats()
    finally:
        store.close()
    if getattr(args, "format", "text") == "json":
        import json as _json

        from .obs import metrics as _obs_metrics
        from .obs.live import obs_payload
        # The versioned envelope: the registry snapshot (this process's
        # store-op counters) plus the store's persistent statistics.
        print(_json.dumps(obs_payload("verdict-stats",
                                      _obs_metrics.snapshot(),
                                      store=stats),
                          indent=2, default=repr))
        return 0
    print(f"verdict cache {args.path}:")
    print(f"  schema:   v{stats['schema_version']}")
    if stats["retention"]:
        hygiene = " ".join(f"{name}={count}" for name, count
                           in sorted(stats["retention"].items()))
        print(f"  hygiene:  {hygiene}   (applied on open)")
    print(f"  verdicts: {stats['verdicts']} "
          f"({stats['safe']} safe, {stats['unsafe']} unsafe)")
    methods = " ".join(f"{method}={count}"
                       for method, count in sorted(stats["methods"].items()))
    if methods:
        print(f"  methods:  {methods}")
    print(f"  hits:     {stats['hits']} total; "
          f"{stats['never_hit']} verdicts never hit")
    raw = stats["raw_keys"]
    print(f"  raw keys: {raw['spp-raw']} spp-raw, {raw['table-raw']} "
          f"table-raw (name-faithful fallbacks: no hit across a relabeling)")
    if stats["hottest"]:
        print("  hottest:")
        for key, hits in stats["hottest"]:
            rendered = key if len(key) <= 64 else key[:61] + "..."
            print(f"    {hits:>6}  {rendered}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="FSR: formal analysis and implementation toolkit "
                    "for safe inter-domain routing (reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="safety verdict for a gadget")
    p.add_argument("gadget", choices=sorted(GADGETS))
    p.add_argument("--explain", action="store_true",
                   help="print per-tier pipeline timings alongside the "
                        "verdict")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("run", help="execute a gadget's implementation")
    p.add_argument("gadget", choices=sorted(GADGETS))
    p.add_argument("--until", type=float, default=10.0)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--max-events", type=int, default=100_000)
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("modelcheck",
                       help="stable states and oscillation traces")
    p.add_argument("gadget", choices=sorted(GADGETS))
    p.add_argument("--mode", choices=("sync", "async"), default="sync")
    p.set_defaults(fn=cmd_modelcheck)

    p = sub.add_parser("analyze-config",
                       help="validate router configuration files")
    p.add_argument("file")
    p.add_argument("--dest", default=None)
    p.set_defaults(fn=cmd_analyze_config)

    p = sub.add_parser("figure", help="regenerate an evaluation figure")
    p.add_argument("name", choices=("fig4", "fig5", "fig6"))
    p.add_argument("--quick", action="store_true")
    p.set_defaults(fn=cmd_figure)

    # Family/profile values are validated by ScenarioGenerator inside
    # cmd_campaign (ValueError → exit 2), keeping the campaigns subsystem
    # off the import path of every other subcommand.
    p = sub.add_parser(
        "campaign",
        help="randomized differential campaign: analysis vs execution")
    p.add_argument("--scenarios", type=int, default=200,
                   help="number of scenarios to generate (default 200)")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes (1 = run in-process)")
    p.add_argument("--seed", type=int, default=0,
                   help="campaign seed (reproducible scenario stream)")
    p.add_argument("--families", nargs="+", default=None, metavar="FAMILY",
                   help="restrict to these scenario families, space- or "
                        "comma-separated (gadget, caida, hierarchy, "
                        "rocketfuel, ibgp, hlp, multipath, tau-sweep, "
                        "secure-rov, secure-hijack)")
    p.add_argument("--profile", default="default",
                   help="workload profile: default or quick")
    p.add_argument("--deployment", default=None,
                   choices=("none", "random", "top-degree", "full"),
                   help="pin the secure families' validation-deployment "
                        "draw (default: per-scenario random sweep over all "
                        "modes); non-secure families ignore this")
    p.add_argument("--chunk-size", type=int, default=8,
                   help="scenarios per worker chunk")
    p.add_argument("--budget-s", type=float, default=None,
                   help="wall-clock budget in seconds (early abort)")
    p.add_argument("--abort-on-disagreements", type=int, default=None,
                   help="stop once this many disagreements were found")
    p.add_argument("--backends", default="gpv", metavar="NAME[,NAME...]",
                   help="execution backends to cross-check per scenario, "
                        "comma-separated (gpv, ndlog, hlp, batch; default: "
                        "gpv). Backends skip scenarios they cannot execute "
                        "(hlp runs the hlp family only; batch runs strictly "
                        "monotonic algebras, vectorized per chunk)")
    p.add_argument("--stream-out", default=None, metavar="PATH",
                   help="stream one JSONL record per scenario to PATH as "
                        "results are produced (constant memory)")
    p.add_argument("--resume", action="store_true",
                   help="finish an earlier run of this same command from "
                        "its --stream-out file: scenarios it recorded are "
                        "counted from the file, the rest (and any recorded "
                        "as errors, e.g. lost with a dead worker) are "
                        "evaluated and appended")
    p.add_argument("--verdict-cache", default=None, metavar="PATH",
                   help="persistent sqlite verdict cache shared across "
                        "processes and campaign invocations")
    p.add_argument("--no-batch", action="store_true",
                   help="do not auto-append the vectorized batch backend "
                        "(by default supported scenarios also run batched, "
                        "with the scalar backends as ground truth)")
    p.add_argument("--kernel-cache", default=None, metavar="PATH",
                   help="persistent sqlite cache of tabulated batch "
                        "kernels (default: $REPRO_BATCH_KERNEL_CACHE "
                        "if set, else in-memory only)")
    p.add_argument("--trace-dir", default=None, metavar="DIR",
                   help="emit per-scenario structured trace spans "
                        "(repro-span/1 JSONL) into DIR; inspect them "
                        "with `repro trace show <scenario-id>`")
    p.add_argument("--watch", action="store_true",
                   help="render a live metrics dashboard to stderr "
                        "while the campaign runs")
    p.add_argument("--shard-index", type=int, default=0,
                   help="this shard's index into the spec stream")
    p.add_argument("--shard-count", type=int, default=1,
                   help="total shards striding the spec stream")
    p.set_defaults(fn=cmd_campaign)

    p = sub.add_parser(
        "trace",
        help="inspect structured trace spans from a traced campaign")
    p.add_argument("action", choices=("show",))
    p.add_argument("scenario_id", type=int,
                   help="scenario id whose merged span tree to render")
    p.add_argument("--trace-dir", default=None, metavar="DIR",
                   help="trace sink directory (default: $REPRO_TRACE_DIR)")
    p.set_defaults(fn=cmd_trace)

    p = sub.add_parser(
        "verdicts",
        help="inspect a persistent verdict cache")
    p.add_argument("path", help="sqlite verdict cache written by "
                                "campaign --verdict-cache")
    p.add_argument("--stats", action="store_true",
                   help="print row/hit statistics (the default action)")
    p.add_argument("--format", choices=("text", "json"), default="text",
                   help="text (default) or the repro-obs/1 envelope: "
                        "registry snapshot plus store statistics")
    p.set_defaults(fn=cmd_verdicts)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:
        # e.g. `repro verdicts STORE --format json | head`: the reader
        # closed early.  Detach stdout so interpreter shutdown doesn't
        # print a second traceback — but exit non-zero (the conventional
        # 128+SIGPIPE): the command's verdict gating never ran, and a
        # truncated pipe must not read as a clean campaign to CI.
        import os
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
