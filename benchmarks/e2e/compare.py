"""Compare two suite results: ``python3 compare.py A.json B.json``.

``A`` is the base (the parent commit, or the first of two runs of one
commit), ``B`` the candidate.  For every workload and end-to-end metric
it prints both medians with their quartiles, the ratio ``B / A`` with its
base, each side's spread (interquartile distance over the median, across
the suite's seeds) and a verdict against the bound ``BENCHMARK.json``
fixes for that metric:

* ``regressed``  — B's median is worse than A's by more than the bound;
* ``unresolved`` — it is not, but A's own spread is wider than the bound,
  so "unchanged" cannot be told from "changed" (unless every run of B
  reads better than every run of A);
* ``ok``         — otherwise.

Results of shortened runs are refused, differing stamps are reported.
Exits 1 when any metric regressed or any scenario failed a check.
"""

from __future__ import annotations

import json
import pathlib
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent.parent
STAMP_KEYS = ("seed", "repeats", "seconds", "corpus_seed", "children_per_run",
              "scenarios_per_child", "python", "numpy", "nproc")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``; a single run is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: list[float]) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median


def verdict(base: list[float], cand: list[float], *, better: str,
            bound: float) -> str:
    sign = 1 if better == "lower" else -1
    base_median = statistics.median(base)
    worsening = sign * (statistics.median(cand) - base_median) / base_median
    if worsening > bound:
        return "regressed"
    all_better = all(sign * c < sign * b for c in cand for b in base)
    if spread(base) > bound and not all_better:
        return "unresolved"
    return "ok"


def compare(base: dict, cand: dict, declared: dict) -> int:
    """Print the comparison; the number of regressed metrics and failed
    scenarios."""
    for key in STAMP_KEYS:
        if base["stamp"].get(key) != cand["stamp"].get(key):
            print(f"warning: stamps differ on {key}: "
                  f"{base['stamp'].get(key)!r} vs {cand['stamp'].get(key)!r}")
    bad = 0
    for name in base["runs"]:
        if name not in cand["runs"]:
            print(f"warning: {name} is missing from B")
            continue
        a_runs, b_runs = base["runs"][name], cand["runs"][name]
        failed = sum(run["failed"] + len(run["problems"])
                     for run in a_runs + b_runs)
        bad += failed
        speeds = [statistics.median(run["machine_speed"] for run in runs)
                  for runs in (a_runs, b_runs)]
        print(f"== {name}  (A: {len(a_runs)} runs, B: {len(b_runs)} runs, "
              f"failed checks: {failed}; the machine ran at "
              f"{speeds[0]:.2f} and {speeds[1]:.2f} of reference speed)")
        for metric in declared["end_to_end"]:
            a = [run["metrics"][metric["name"]] for run in a_runs]
            b = [run["metrics"][metric["name"]] for run in b_runs]
            (a1, am, a3), (b1, bm, b3) = quartiles(a), quartiles(b)
            outcome = verdict(a, b, better=metric["better"],
                              bound=metric["bound"])
            bad += outcome == "regressed"
            print(f"  {metric['name']:20s} A {am:10.3f} [{a1:.3f}, {a3:.3f}]"
                  f"  B {bm:10.3f} [{b1:.3f}, {b3:.3f}] {metric['unit']:4s}"
                  f"  B/A {bm / am:.3f} of {am:.3f}"
                  f"  spread A {spread(a):.3f} B {spread(b):.3f}"
                  f"  bound {metric['bound']:.2f}  {outcome}")
    return bad


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    base, cand = (json.loads(pathlib.Path(path).read_text()) for path in argv)
    for label, doc in (("A", base), ("B", cand)):
        if doc["stamp"]["seconds"] != declared["run_seconds"]:
            print(f"refused: {label} was measured at "
                  f"--seconds {doc['stamp']['seconds']}, not the declared "
                  f"{declared['run_seconds']}", file=sys.stderr)
            return 2
    return 1 if compare(base, cand, declared) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
