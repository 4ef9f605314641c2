"""The campaign benchmark: run a workload, print its metrics, check outputs.

One benchmark run (the form ``BENCHMARK.json`` declares)::

    python3 benchmarks/e2e/run.py --workload rotation --seed 7 \
        --seconds 12 --trace 0

prints every end-to-end metric (``--trace 1``: every per-layer metric) by
name with its unit and sample count, and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``.

The whole suite, for a baseline or a comparison::

    python3 benchmarks/e2e/run.py [--seed 7] [--repeats 5]
        [--workloads a,b] [--out FILE]

makes ``--repeats`` untraced runs of every workload on seeds ``seed``,
``seed + 1``, ... and one traced run, and writes one results JSON for
``compare.py``.  Both forms exit non-zero when an output check fails.
Every run of a workload evaluates the same scenarios; the seed orders
them (``workloads.py`` says why).

This process only orchestrates: every campaign runs in a fresh child
(``child.py``), strictly one at a time, with ``PYTHONHASHSEED=0`` — a
``repro campaign`` user pays cold process caches on every invocation.

Every time taken while a campaign runs is reported at reference machine
speed: the seconds a child measured, multiplied by the speed its probe saw
the machine run at meanwhile (``child.SpeedProbe``).  The host is shared,
and without this the same commit reads a quarter slower for minutes at a
time.  A child's set-up comes before its probe starts and is reported as
measured: it did not follow the speed the campaign after it saw.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import pathlib
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

from ledger import percentile
from workloads import (
    CORPUS_SEED,
    DEFAULT_SEED,
    RUN_SECONDS,
    WORKLOADS,
    child_count,
)

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
RESULTS = HERE / "results"
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())

#: A child that runs longer than this has hung; the whole run must end
#: within the contract's 180 s.
CHILD_TIMEOUT_S = 100

TIME_UNITS = ("s", "ms", "us")


# -- children -----------------------------------------------------------------


def spawn_child(workload: str, seed: int, count: int, scratch: pathlib.Path,
                *, trace: bool = False, spans_file: str | None = None) -> dict:
    """Run one cold campaign; the record gains ``process_s``, the child's
    whole lifetime as its parent saw it."""
    request = {"workload": workload, "seed": seed, "count": count,
               "scratch": str(scratch), "trace": trace,
               "spans_file": spans_file}
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + env.get("PYTHONPATH", "").split(os.pathsep))
    started = time.perf_counter()
    # Its own process group: however this ends (hung child, interrupt,
    # SIGTERM), the child goes together with its pool workers.
    child = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), json.dumps(request)],
        env=env, stdout=subprocess.PIPE, text=True, process_group=0)
    try:
        stdout, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(child.pid, signal.SIGKILL)
        child.wait()
    if child.returncode != 0:
        raise subprocess.CalledProcessError(child.returncode, child.args)
    record = json.loads(stdout.splitlines()[-1])
    record["process_s"] = time.perf_counter() - started
    return record


@contextlib.contextmanager
def _scratch():
    """A temp dir inside the checkout (stores, JSONL), removed on exit."""
    RESULTS.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="scratch-", dir=RESULTS) as path:
        yield pathlib.Path(path)


def _child_dir(scratch: pathlib.Path, label: str,
               filled: pathlib.Path | None) -> pathlib.Path:
    """A directory for one child: empty, or a copy of the filled stores."""
    path = scratch / label
    if filled is None:
        path.mkdir()
    else:
        shutil.copytree(filled, path)
    return path


# -- one benchmark run ----------------------------------------------------------


def end_to_end(workload, records: list[dict]) -> dict[str, float]:
    pooled = [ms * r["speed"] for r in records for ms in r["elapsed_ms"]]
    return {
        "scenarios_per_s": statistics.median(
            r["count"] / (r["wall_s"] * r["speed"]) for r in records),
        "scenario_tail_ms": percentile(pooled, workload.tail_pct),
        "cpu_ms_per_scenario": statistics.median(
            1e3 * r["cpu_s"] * r["speed"] / r["count"] for r in records),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in records),
        "setup_s": statistics.median(r["setup_s"] for r in records),
    }


#: The part of a report digest that is pinned in ``expected/seed7.json``.
#: ``pair_counts`` is compared between runs of one commit only: which
#: backends cross-check a scenario is the program's choice (a change that
#: admits more scenarios to ``batch`` moves it), its verdicts are not.
PINNED_FIELDS = ("total_scenarios", "class_counts", "family_counts")


def _digest_problems(name: str, seconds: float, digests: list[dict]) -> list:
    """Every child of a run evaluates the same scenarios, so their reports
    must agree with each other and, at the declared size, with the pin."""
    problems = []
    if any(digest != digests[0] for digest in digests[1:]):
        problems.append(f"{name}: runs of one spec list disagree on the "
                        "report digest")
    pins = json.loads((HERE / "expected" / "seed7.json").read_text())
    if CORPUS_SEED == pins["corpus_seed"] and seconds == pins["seconds"]:
        pinned = {key: digests[0][key] for key in PINNED_FIELDS}
        if pinned != pins["digests"][name]:
            problems.append(f"{name}: report digest differs from the pin "
                            "in expected/seed7.json")
    return problems


def _failure_lines(name: str, records: list[dict]) -> list[str]:
    return [f"{name}: child {index}: {check} check failed for scenarios "
            f"{ids[:10]}"
            for index, record in enumerate(records)
            for check, ids in record["failures"].items() if ids]


def _checked(name: str, seed: int, seconds: float, records: list[dict],
             **fields) -> dict:
    """The result of one run: what its children's output checks found."""
    failed = sum(len({scenario for ids in record["failures"].values()
                      for scenario in ids}) for record in records)
    return {
        "workload": name, "seed": seed, "seconds": seconds,
        "count": records[0]["count"], "children": len(records),
        "attempted": sum(record["count"] for record in records),
        "failed": failed,
        "problems": _failure_lines(name, records) + _digest_problems(
            name, seconds, [record["digest"] for record in records]),
        "digest": records[0]["digest"],
        **fields,
    }


def summarize(name: str, seed: int, seconds: float,
              records: list[dict]) -> dict:
    """End-to-end result of the untraced children of one run."""
    return _checked(
        name, seed, seconds, records,
        metrics=end_to_end(WORKLOADS[name], records),
        tail_samples=sum(len(r["elapsed_ms"]) for r in records),
        machine_speed=statistics.median(r["speed"] for r in records),
        measured_scenarios_per_s=statistics.median(
            r["count"] / r["wall_s"] for r in records))


def _fill_stores(name: str, seed: int, count: int, scratch: pathlib.Path,
                 *, trace: bool = False) -> tuple[pathlib.Path, dict]:
    """A separate process fills the sqlite stores; that write-through pass
    is part of the workload's set-up.  Every measured child gets a copy."""
    filled = scratch / "filled"
    filled.mkdir()
    return filled, spawn_child(name, seed, count, filled, trace=trace)


def run_untraced(name: str, seed: int, seconds: float) -> dict:
    workload = WORKLOADS[name]
    count = child_count(workload, seconds)
    with _scratch() as scratch:
        filled = populate = None
        if workload.warm_stores:
            filled, populate = _fill_stores(name, seed, count, scratch)
        records = [
            spawn_child(name, seed, count,
                        _child_dir(scratch, f"child{index}", filled))
            for index in range(workload.children)]
    if populate is not None:
        for record in records:
            record["setup_s"] += populate["process_s"] * populate["speed"]
    return summarize(name, seed, seconds, records)


def run_traced(name: str, seed: int, seconds: float,
               spans_dir: pathlib.Path = RESULTS) -> dict:
    """Per-layer metrics: one untraced and one traced child on the same
    specs, whose reports must agree.  ``plain`` is the untraced record."""
    workload = WORKLOADS[name]
    count = child_count(workload, seconds)
    spans_dir.mkdir(exist_ok=True)
    units = _units("per_layer")
    layers = dict.fromkeys(units, 0.0)

    def at_reference_speed(record: dict) -> dict:
        return {metric: value * record["speed"]
                if units[metric] in TIME_UNITS else value
                for metric, value in record["layers"].items()}

    with _scratch() as scratch:
        filled = populate = None
        if workload.warm_stores:
            filled, populate = _fill_stores(name, seed, count, scratch,
                                            trace=True)
        plain = spawn_child(name, seed, count,
                            _child_dir(scratch, "plain", filled))
        if workload.jobs > 1:
            # Pool workers are out of the shims' reach; what the runner
            # layer adds is measured against the same specs in one process.
            other = spawn_child(workload.serial_twin, seed, count,
                                _child_dir(scratch, "serial", filled))
            layers["runner.speedup_vs_rotation"] = \
                other["wall_s"] * other["speed"] \
                / (plain["wall_s"] * plain["speed"])
        else:
            other = spawn_child(
                name, seed, count, _child_dir(scratch, "traced", filled),
                trace=True, spans_file=str(spans_dir / f"{name}.spans.jsonl"))
            layers.update(at_reference_speed(other))
            layers["trace.overhead_share"] = \
                other["wall_s"] * other["speed"] \
                / (plain["wall_s"] * plain["speed"]) - 1
    if populate is not None:
        # The write-through pass is where the stores are written.
        written = at_reference_speed(populate)
        for metric in ("kernel_store.put_s", "kernel_store.put_calls",
                       "verdict_store.put_s", "verdict_store.put_calls"):
            layers[metric] = written[metric]
    layers["runner.cpu_utilization"] = \
        plain["cpu_s"] / plain["wall_s"] / workload.jobs
    result = _checked(name, seed, seconds, [plain, other], metrics=layers,
                      dominant=other.get("dominant"), plain=plain,
                      machine_speed=other["speed"])
    if workload.jobs == 1:
        silent = sorted(workload.active - set(other["span_calls"]))
        if silent:
            result["problems"].append(
                f"{name}: no shimmed call seen for {silent}")
    return result


# -- printing -------------------------------------------------------------------


def _units(kind: str) -> dict[str, str]:
    return {metric["name"]: metric["unit"] for metric in DECLARED[kind]}


def print_run(result: dict, kind: str) -> None:
    samples = (f"median of {result['children']} cold children"
               if kind == "end_to_end" else "one traced child")
    print(f"== {result['workload']}  seed={result['seed']} "
          f"scenarios/child={result['count']}  ({samples}; times at "
          f"reference speed, the machine ran at "
          f"{result['machine_speed']:.3f} of it)")
    for name, unit in _units(kind).items():
        note = ""
        if name == "scenario_tail_ms":
            pct = WORKLOADS[result["workload"]].tail_pct
            note = f"  (p{pct} of {result['tail_samples']} scenarios)"
        if name == "scenarios_per_s":
            note = (f"  ({result['measured_scenarios_per_s']:.4f} by the "
                    "clock)")
        print(f"  {name:38s} {result['metrics'][name]:14.4f} {unit}{note}")
    if result.get("dominant"):
        layer, share = result["dominant"]
        print(f"  dominant self-time layer: {layer} ({share:.1%})")
    print(f"  failed {result['failed']} of {result['attempted']} scenarios")
    for problem in result["problems"]:
        print(f"  CHECK FAILED: {problem}")


def contract_line(result: dict, kind: str) -> str:
    return json.dumps({
        "correct": result["failed"] == 0 and not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": result["metrics"][name], "unit": unit}
                    for name, unit in _units(kind).items()},
    })


# -- the suite ------------------------------------------------------------------


def stamp(seed: int, repeats: int, seconds: float) -> dict:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True).stdout.strip() or None
    except OSError:
        commit = None
    return {
        "seed": seed, "repeats": repeats, "seconds": seconds,
        "corpus_seed": CORPUS_SEED,
        "children_per_run": {name: w.children for name, w in WORKLOADS.items()},
        "scenarios_per_child": {name: child_count(w, seconds)
                                for name, w in WORKLOADS.items()},
        "commit": commit, "python": platform.python_version(),
        "numpy": numpy_version, "platform": platform.platform(),
        "nproc": os.cpu_count(),
    }


def run_suite(names: list[str], seed: int, repeats: int,
              out: pathlib.Path) -> bool:
    results = {"stamp": stamp(seed, repeats, RUN_SECONDS),
               "runs": {name: [] for name in names},
               "layers": {}, "digests": {}}
    ok = True
    # Workloads interleave inside each repeat, so slow drift of the
    # machine spreads over all of them instead of landing on one.
    for repeat in range(repeats):
        for name in names:
            result = run_untraced(name, seed + repeat, RUN_SECONDS)
            print_run(result, "end_to_end")
            ok &= result["failed"] == 0 and not result["problems"]
            results["digests"][name] = result["digest"]
            results["runs"][name].append(
                {key: result[key] for key in
                 ("seed", "attempted", "failed", "problems", "metrics",
                  "machine_speed", "measured_scenarios_per_s")})
    for name in names:
        result = run_traced(name, seed, RUN_SECONDS)
        print_run(result, "per_layer")
        ok &= result["failed"] == 0 and not result["problems"]
        results["layers"][name] = {"metrics": result["metrics"],
                                   "dominant": result["dominant"]}
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results, indent=1) + "\n")
    print(f"results written to {out}")
    return ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one benchmark run of this workload")
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="with --workload: seconds of timed campaign")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: per-layer metrics instead")
    parser.add_argument("--repeats", type=int, default=5,
                        help="suite: untraced runs per workload")
    parser.add_argument("--workloads", default=",".join(WORKLOADS),
                        help="suite: comma-separated subset")
    parser.add_argument("--out", type=pathlib.Path,
                        default=RESULTS / "latest.json",
                        help="suite: results file")
    args = parser.parse_args(argv)
    # Unwind through spawn_child's clean-up instead of dying in place.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    if args.workload is None:
        names = args.workloads.split(",")
        unknown = sorted(set(names) - set(WORKLOADS))
        if unknown:
            parser.error(f"unknown workloads {unknown}")
        return 0 if run_suite(names, args.seed, args.repeats, args.out) else 1
    if args.trace:
        result, kind = run_traced(args.workload, args.seed, args.seconds), \
            "per_layer"
    else:
        result, kind = run_untraced(args.workload, args.seed, args.seconds), \
            "end_to_end"
    print_run(result, kind)
    print(contract_line(result, kind))
    return 0 if result["failed"] == 0 and not result["problems"] else 1


if __name__ == "__main__":
    sys.exit(main())
