"""Extension bench — oscillation traces via model checking (Sec. VIII).

The paper's future-work item, implemented: for unsafe configurations the
model checker produces a concrete oscillation trace (a state lasso), and
for any gadget it enumerates the stable routing trees.  This bench
regenerates the trace for the Figure-3 instance and cross-validates the
checker against the constraint-based analyzer on the gadget zoo.
"""

from repro.algebra import (
    bad_gadget,
    disagree,
    good_gadget,
    ibgp_figure3,
    ibgp_figure3_fixed,
)
from repro.analysis import ModelChecker, SafetyAnalyzer


def test_figure3_oscillation_trace(benchmark, save_result):
    instance = ibgp_figure3()
    checker = ModelChecker(instance)

    trace = benchmark(checker.find_oscillation)
    assert trace is not None
    save_result("modelcheck_figure3_trace", trace.describe(instance))
    benchmark.extra_info["cycle_length"] = len(trace.cycle)


def test_stable_state_census(benchmark, save_result):
    """Stable-solution counts across the zoo (BAD 0 / DISAGREE 2 / ...)."""

    def census():
        rows = []
        for instance in (good_gadget(), bad_gadget(), disagree(),
                         ibgp_figure3(), ibgp_figure3_fixed()):
            stable = ModelChecker(instance).stable_states()
            rows.append((instance.name, len(stable)))
        return rows

    rows = benchmark(census)
    text = "\n".join(f"{name:>22}: {count} stable solution(s)"
                     for name, count in rows)
    save_result("modelcheck_stable_census", text)
    counts = dict(rows)
    assert counts["bad-gadget"] == 0
    assert counts["disagree"] == 2
    assert counts["good-gadget"] == 1
    assert counts["ibgp-figure3"] == 0


def test_checker_agrees_with_analyzer(benchmark, save_result):
    """Safe verdicts imply a stable state exists and no oscillation."""
    analyzer = SafetyAnalyzer()

    def cross_validate():
        rows = []
        for instance in (good_gadget(), bad_gadget(), disagree(),
                         ibgp_figure3(), ibgp_figure3_fixed()):
            verdict = analyzer.analyze(instance).safe
            checker = ModelChecker(instance)
            rows.append((instance.name, verdict,
                         bool(checker.stable_states()),
                         checker.find_oscillation() is not None))
        return rows

    rows = benchmark(cross_validate)
    lines = [f"{'instance':>22} {'proved safe':>12} {'stable?':>8} "
             f"{'oscillation?':>13}"]
    for name, safe, stable, osc in rows:
        lines.append(f"{name:>22} {str(safe):>12} {str(stable):>8} "
                     f"{str(osc):>13}")
        if safe:
            assert stable and not osc  # sufficiency, machine-checked
    save_result("modelcheck_cross_validation", "\n".join(lines))
