"""Reach census: which functions under ``src/repro`` the product calls.

    PYTHONPATH=src python benchmarks/reach.py [--out REACH.json]
    PYTHONPATH=src python benchmarks/reach.py --check

Runs every product drive, each in a fresh process under
``sys.setprofile``:

* the seven benchmark workloads (``benchmarks/e2e``, at the corpus size
  ``BENCHMARK.json`` runs: ``child.main``, the set-up and timed run of one
  benchmark child; ``admitted-warm`` fills its stores in a drive of its
  own first);
* every CLI subcommand (``repro.cli.main``), campaign options included;
* ``examples/*.py``;
* the paper benches (``benchmarks/bench_*.py`` that regenerate a figure or
  table of the paper, ``--smoke``).

Tests are not drives: a function only a test calls has no product
caller.  Pool workers are counted too (each forked worker writes its own
counts when it exits).  The census counts profile ``call`` events of
every function and method defined under ``src/repro`` (a generator counts
each resume) and writes ``REACH.json``: the count of each, and, for each
function no drive reached, the one line in ``KEPT`` that says why it
stays.  The census exits non-zero when a function with zero calls has no
line in ``KEPT``, ``KEPT`` names a function that is reached or gone, or a
reason names a caller outside the repository ("user code", "scripts").
``--check`` re-runs the census and compares its reach with the
checked-in ``REACH.json`` instead of writing it.  Counts vary a little
from run to run (budgets, pool scheduling); reach does not.
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import io
import json
import multiprocessing.util
import os
import pathlib
import runpy
import subprocess
import sys
import tempfile
import threading
import time
import types

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
E2E = HERE / "e2e"
EXAMPLES = ROOT / "examples"

#: The benches that regenerate one of the paper's figures or tables.
PAPER_BENCHES = ("bench_fig4_convergence.py", "bench_fig5_ibgp_gadget.py",
                 "bench_fig6_hlp.py", "bench_table1_policy_spectrum.py",
                 "bench_ebgp_gadgets.py", "bench_analysis_case_studies.py",
                 "bench_analysis_scaling.py", "bench_modelcheck.py")

# -- the functions there are ----------------------------------------------------


def _code_objects(code):
    yield code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _code_objects(const)


def defined_functions() -> dict[tuple[str, int, str], str]:
    """``(file, first line, qualname) → key`` for every function and
    method defined under ``src/repro``.  A key is ``path::qualname``; the
    definitions one file gives one qualname (a property's getter and
    setter) share it."""
    keys = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        key = path.relative_to(SRC).as_posix()
        source = path.read_text(encoding="utf-8")
        for code in _code_objects(compile(source, str(path), "exec")):
            # A module or class body has no CO_NEWLOCALS; lambdas and
            # comprehensions are named "<...>".
            if code.co_flags & inspect.CO_NEWLOCALS \
                    and not code.co_name.startswith("<"):
                keys[(str(path), code.co_firstlineno, code.co_qualname)] = \
                    f"{key}::{code.co_qualname}"
    return keys


# -- counting -------------------------------------------------------------------

#: ``id(code) → calls`` and ``id(code) → code`` (kept alive, so no id is
#: reused) of this process.
_CALLS: dict[int, int] = {}
_CODES: dict[int, object] = {}


def _profile(frame, event, arg):
    if event == "call":
        key = id(frame.f_code)
        calls = _CALLS.get(key)
        if calls is None:
            _CODES[key] = frame.f_code
            _CALLS[key] = 1
        else:
            _CALLS[key] = calls + 1


def _start() -> None:
    threading.setprofile(_profile)
    sys.setprofile(_profile)


def _counts() -> dict[str, int]:
    """This process's calls, by ``(file, line, qualname)`` under ``src``."""
    prefix = str(PACKAGE)
    out = {}
    for key, calls in _CALLS.items():
        code = _CODES[key]
        if code.co_filename.startswith(prefix):
            name = f"{code.co_filename}\0{code.co_firstlineno}\0" \
                   f"{code.co_qualname}"
            out[name] = out.get(name, 0) + calls
    return out


def _write_counts(path: pathlib.Path) -> None:
    sys.setprofile(None)
    path.write_text(json.dumps(_counts()))


class _ForkedCensus:
    """Counts a forked process (a pool worker) from scratch and writes
    its counts into ``directory`` when it exits."""

    def __init__(self, directory: pathlib.Path):
        self.directory = directory
        multiprocessing.util.register_after_fork(self, _ForkedCensus._forked)

    def _forked(self) -> None:
        # Runs in the child after multiprocessing cleared the finalizers
        # it inherited; the profile hook itself survives the fork.
        _CALLS.clear()
        multiprocessing.util.Finalize(
            None, _write_counts,
            args=(self.directory / f"worker-{os.getpid()}.json",),
            exitpriority=100)


#: This process's fork hook (``register_after_fork`` holds it weakly).
_FORKED: _ForkedCensus | None = None


# -- drives ---------------------------------------------------------------------


def _workload(name: str, scratch: pathlib.Path) -> None:
    sys.path.insert(0, str(E2E))
    import child
    from workloads import RUN_SECONDS, WORKLOADS, child_count
    directory = scratch / name
    directory.mkdir(exist_ok=True)
    child.main({"workload": name, "seed": 7, "trace": False,
                "count": child_count(WORKLOADS[name], RUN_SECONDS),
                "scratch": str(directory)})


def _cli(argvs: list[list[str]], scratch: pathlib.Path) -> None:
    from repro.cli import main
    for argv in argvs:
        argv = [arg.replace("{scratch}", str(scratch)) for arg in argv]
        with contextlib.redirect_stderr(io.StringIO()):
            main(argv)


def _example(name: str, scratch: pathlib.Path) -> None:
    runpy.run_path(str(EXAMPLES / name), run_name="__main__")


def _bench(name: str, scratch: pathlib.Path) -> None:
    import pytest
    code = pytest.main([str(HERE / name), "--smoke", "--benchmark-disable",
                        "-q", "-p", "no:cacheprovider",
                        "--rootdir", str(ROOT)])
    if code != 0:
        raise SystemExit(f"{name} failed under the census")


_CONFIG = """\
router a
  neighbor b customer
  neighbor c peer
router b
  neighbor a provider
router c
  neighbor a peer
"""

#: The command lines of each CLI drive, in the order the census runs them
#: (``trace`` reads what ``campaign`` wrote); ``{scratch}`` is the
#: census's scratch directory.
_CAMPAIGN = ["campaign", "--scenarios", "40", "--seed", "7"]
CLI_DRIVES = {
    "analyze": [["analyze", "disagree"], ["analyze", "good"],
                ["analyze", "figure3-fixed"]],
    "run": [["run", "good"], ["run", "bad", "--until", "2"]],
    "modelcheck": [["modelcheck", "disagree"],
                   ["modelcheck", "good"]],
    "analyze-config": [["analyze-config", "{scratch}/routers.conf",
                        "--dest", "b"],
                       ["analyze-config", "{scratch}/missing.conf"]],
    "figure": [["figure", "fig4", "--quick"], ["figure", "fig5", "--quick"],
               ["figure", "fig6", "--quick"]],
    "campaign": [
        _CAMPAIGN + ["--jobs", "2", "--watch",
                     "--verdict-cache", "{scratch}/verdicts.sqlite",
                     "--kernel-cache", "{scratch}/kernels.sqlite",
                     "--trace-dir", "{scratch}/trace",
                     "--stream-out", "{scratch}/results.jsonl"],
        _CAMPAIGN + ["--scenarios", "60", "--resume",
                     "--stream-out", "{scratch}/results.jsonl"],
        _CAMPAIGN + ["--profile", "quick", "--backends", "gpv,ndlog,hlp",
                     "--verdict-cache", "{scratch}/verdicts.sqlite"],
        _CAMPAIGN + ["--families", "secure-hijack", "--deployment", "full",
                     "--no-batch", "--budget-s", "30",
                     "--abort-on-disagreements", "1"],
        ["campaign", "--scenarios", "0"],
    ],
    "trace": [["trace", "show", "3", "--trace-dir", "{scratch}/trace"]],
}


def drives() -> dict[str, tuple]:
    """Label → (function, argument), in the order the census runs them."""
    sys.path.insert(0, str(E2E))
    from workloads import WORKLOADS
    out = {}
    for name, workload in WORKLOADS.items():
        if workload.warm_stores:  # the store fill, as run.py's set-up
            out[f"workload {name} (fill)"] = (_workload, name)
        out[f"workload {name}"] = (_workload, name)
    for command, argvs in CLI_DRIVES.items():
        out[f"cli {command}"] = (_cli, argvs)
    for path in sorted(EXAMPLES.glob("*.py")):
        out[f"example {path.name}"] = (_example, path.name)
    for name in PAPER_BENCHES:
        out[f"bench {name}"] = (_bench, name)
    return out


def run_drive(label: str, scratch: pathlib.Path, counts: pathlib.Path) -> None:
    """One drive, in this process, under the profile hook."""
    global _FORKED
    function, argument = drives()[label]
    _FORKED = _ForkedCensus(counts.parent)  # held: the registry is weak
    _start()
    with contextlib.redirect_stdout(io.StringIO()):
        function(argument, scratch)
    _write_counts(counts)


# -- what stays unreached, and why ----------------------------------------------
#
# One reason per kind of function no drive reaches; ``KEPT`` gives each
# such function its reason.

ABSTRACT = "abstract: the interface states it; every concrete class overrides it"
DEFAULT = "the base-class default; every algebra the drives build overrides it"
REPR = "text rendering for debugging and failure messages; no drive prints one"
PREFERENCE = ("the comparison derived from rank_key that the algebra tests "
              "state orders through (tests/algebra/test_library.py, "
              "test_product.py, test_secure.py); engines sort on rank_key "
              "itself")
PICKLE = "keeps phi a singleton when a process pool pickles it"
SAMPLE = ("a sample of an infinite or composed signature set, for the laws "
          "checker (validate_algebra)")
LAWS = ("the algebra laws checker, the first check of a hand-written "
        "algebra; the library's tests run it on every shipped policy")
COMPOSED = ("the L or sigma or oplus of a composed algebra: the analyzer "
            "certifies products by composition and batch tabulates "
            "components, so nothing enumerates the product")
REVERSE = "the reverse label of a composed label, for export filters and the laws checker"
BEST_PATH = ("the selected path the protocol tests read "
             "(tests/protocols/test_failures.py, test_gpv.py, "
             "test_multipath.py)")
RIBOUT_LAST = ("the last advert a RIB-out sent a neighbour: the wire state "
               "tests/net/test_ribout.py and "
               "tests/ndlog/test_topk_codegen.py read")
PENDING = ("the queue length tests/net/test_ribout.py and "
           "tests/net/test_simulator.py read to see what a call scheduled")
MEMO_SIZE = ("the verdict memo's size, through which "
             "tests/campaigns/test_oracle.py and test_verdict_store.py "
             "observe memoization")
SPP_LABELS = "an SPP subject is decided by its dispute digraph, which never enumerates L"
DISPUTE = ("the dispute-wheel check as a value (is_dispute_free, the cycle "
           "text); dispute_report reads the digraph directly")
FAILURE = "failure path: renders or records an error or disagreement; no drive hits one"
RESET = "resets process-wide caches between measured runs (benches, tests)"
REPRODUCERS = ("the replayable specs of a report's disagreements and errors: "
               "CI's resume step and tests/campaigns/test_resume.py compare "
               "two runs' lists")
NOOP_CLOSE = "the sink interface's close; the aggregating sink holds nothing to close"
SHIM = ("no-op: the e2e benchmark's boundary shims still wrap this name; it "
        "goes with their next change")
BATCH_STATS = "batch statistics the e2e benchmark's ledger and the batch bench read"
KERNEL_STATS = "kernel-store statistics; CI and the store contract read its schema stamp"
READ_METRIC = "reads one metric series (batch_phase_stats, CI checks, tests)"
SCHEMA = ("validates emitted records against the checked-in JSON schemas "
          "(CI, tests)")
EVALUATE = ("the reference semantics tests/smt/test_solver_properties.py "
            "checks solver models against")
LABEL_FN = ("the CAIDA builders' default label function: "
            "tests/topology/test_caida.py builds with it; every family "
            "passes its own")
IBGP = ("an iBGP algebra is analyzed through SPP extraction (paper Sec. "
        "VI-B), so nothing enumerates it")

#: Functions no drive reaches that stay, each with the line that says why.
KEPT: dict[str, str] = {
    "repro/algebra/base.py::RoutingAlgebra.__repr__": REPR,
    "repro/algebra/base.py::RoutingAlgebra.closed_form_monotonicity": DEFAULT,
    "repro/algebra/base.py::RoutingAlgebra.labels": ABSTRACT,
    "repro/algebra/base.py::RoutingAlgebra.oplus": ABSTRACT,
    "repro/algebra/base.py::RoutingAlgebra.origin_seed": ABSTRACT,
    "repro/algebra/base.py::RoutingAlgebra.preference": PREFERENCE,
    "repro/algebra/base.py::RoutingAlgebra.rank_key": ABSTRACT,
    "repro/algebra/base.py::RoutingAlgebra.sample_signatures": DEFAULT,
    "repro/algebra/base.py::_Phi.__reduce__": PICKLE,
    "repro/algebra/base.py::_Phi.__repr__": REPR,
    "repro/algebra/extended.py::ExtendedAlgebra.concat": ABSTRACT,
    "repro/algebra/extended.py::ExtendedAlgebra.export_allows": DEFAULT,
    "repro/algebra/extended.py::ExtendedAlgebra.import_allows": DEFAULT,
    "repro/algebra/extended.py::ExtendedAlgebra.reverse_label": DEFAULT,
    "repro/algebra/hlp.py::HLPTauAlgebra.sample_signatures": SAMPLE,
    "repro/algebra/laws.py::_check_extended_laws": LAWS,
    "repro/algebra/laws.py::_check_order": LAWS,
    "repro/algebra/laws.py::validate_algebra": LAWS,
    "repro/algebra/product.py::LexicalProduct.labels": COMPOSED,
    "repro/algebra/product.py::LexicalProduct.oplus": COMPOSED,
    "repro/algebra/product.py::LexicalProduct.reverse_label": REVERSE,
    "repro/algebra/product.py::LexicalProduct.sample_signatures": SAMPLE,
    "repro/algebra/product.py::LexicalProduct.signatures": COMPOSED,
    "repro/algebra/product.py::_reverse_component": REVERSE,
    "repro/algebra/secure.py::SecureAlgebra.labels": COMPOSED,
    "repro/algebra/secure.py::SecureAlgebra.reverse_label": REVERSE,
    "repro/algebra/secure.py::SecureAlgebra.sample_signatures": SAMPLE,
    "repro/algebra/secure.py::SecureAlgebra.signatures": COMPOSED,
    "repro/algebra/spp.py::SPPAlgebra.labels": SPP_LABELS,
    "repro/analysis/dispute.py::DisputeDigraph.describe_cycle": DISPUTE,
    "repro/analysis/dispute.py::DisputeDigraph.is_acyclic": DISPUTE,
    "repro/analysis/dispute.py::is_dispute_free": DISPUTE,
    "repro/campaigns/oracle.py::_error_result": FAILURE,
    "repro/campaigns/oracle.py::_error_text": FAILURE,
    "repro/campaigns/oracle.py::clear_verdict_cache": RESET,
    "repro/campaigns/oracle.py::verdict_cache_size": MEMO_SIZE,
    "repro/campaigns/report.py::CampaignReport.reproducer_seeds": REPRODUCERS,
    "repro/campaigns/report.py::ScenarioResult.describe": FAILURE,
    "repro/campaigns/sink.py::AggregatingSink.close": NOOP_CLOSE,
    "repro/campaigns/sink.py::ResultSink.accept": ABSTRACT,
    "repro/campaigns/sink.py::ResultSink.close": ABSTRACT,
    "repro/campaigns/verdict_store.py::VerdictStore.touch_many": SHIM,
    "repro/exec/base.py::ExecutionBackend.prepare": ABSTRACT,
    "repro/exec/base.py::ExecutionSession._selected_routes": ABSTRACT,
    "repro/exec/base.py::ExecutionSession._wire": ABSTRACT,
    "repro/exec/base.py::ExecutionSession.run": ABSTRACT,
    "repro/exec/batch.py::batch_phase_stats": BATCH_STATS,
    "repro/exec/batch.py::clear_kernel_cache": RESET,
    "repro/exec/batch.py::kernel_cache_stats": BATCH_STATS,
    "repro/exec/batch.py::reset_batch_phase_stats": RESET,
    "repro/exec/batch.py::reset_kernel_cache_stats": RESET,
    "repro/exec/kernel_store.py::KernelStore.stats": KERNEL_STATS,
    "repro/ndlog/ast.py::Const.__str__": REPR,
    "repro/net/ribout.py::RibOut.last": RIBOUT_LAST,
    "repro/net/simulator.py::Simulator.pending_events": PENDING,
    "repro/net/simulator.py::_dropped": FAILURE,
    "repro/obs/metrics.py::MetricsRegistry.family": READ_METRIC,
    "repro/obs/metrics.py::MetricsRegistry.value": READ_METRIC,
    "repro/obs/schema.py::_check_type": SCHEMA,
    "repro/obs/schema.py::_resolve_ref": SCHEMA,
    "repro/obs/schema.py::_validate": SCHEMA,
    "repro/obs/schema.py::load_schema": SCHEMA,
    "repro/obs/schema.py::validate": SCHEMA,
    "repro/obs/schema.py::validate_metrics_snapshot": SCHEMA,
    "repro/obs/schema.py::validate_span": SCHEMA,
    "repro/obs/trace.py::Span.set_status": FAILURE,
    "repro/obs/trace.py::_NullSpan.set_status": FAILURE,
    "repro/protocols/gpv.py::GPVEngine.best_path": BEST_PATH,
    "repro/smt/terms.py::Atom.__str__": REPR,
    "repro/smt/terms.py::Atom.evaluate": EVALUATE,
    "repro/smt/terms.py::ConstraintSystem.__str__": REPR,
    "repro/smt/terms.py::IntVar.__str__": REPR,
    "repro/topology/caida.py::_identity_label": LABEL_FN,
    "repro/topology/ibgp.py::IGPCostAlgebra.labels": IBGP,
    "repro/topology/ibgp.py::IGPCostAlgebra.mono_entries": IBGP,
    "repro/topology/ibgp.py::IGPCostAlgebra.preference_statements": IBGP,
    "repro/topology/ibgp.py::IGPCostAlgebra.signatures": IBGP,
}


# -- the census -----------------------------------------------------------------


def census() -> dict[str, int]:
    """Calls per function key, summed over every drive and its workers."""
    keys = defined_functions()
    totals = dict.fromkeys(sorted(keys.values()), 0)
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + env.get("PYTHONPATH", "").split(os.pathsep))
    with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
        scratch = pathlib.Path(tmp) / "scratch"
        scratch.mkdir()
        (scratch / "routers.conf").write_text(_CONFIG)
        for index, label in enumerate(drives()):
            out = pathlib.Path(tmp) / f"drive-{index}"
            out.mkdir()
            started = time.perf_counter()
            subprocess.run(
                [sys.executable, __file__, "--drive", label,
                 "--scratch", str(scratch),
                 "--counts", str(out / "main.json")],
                env=env, check=True, cwd=ROOT)
            print(f"{label:<44} {time.perf_counter() - started:6.1f} s",
                  file=sys.stderr, flush=True)
            for path in out.glob("*.json"):
                for name, calls in json.loads(path.read_text()).items():
                    file, line, qualname = name.split("\0")
                    # Module and class bodies, lambdas and comprehensions
                    # are not functions of their own.
                    key = keys.get((file, int(line), qualname))
                    if key is not None:
                        totals[key] += calls
    return totals


#: Callers a reason may not name: this repository has no users beyond its
#: CLI, examples, benches, CI and tests, so a function kept for them is
#: kept for nobody.
ABSENT_CALLERS = ("user code", "scripts", "library API")


def problems(functions: dict[str, int]) -> list[str]:
    out = []
    for key, calls in functions.items():
        if calls == 0 and key not in KEPT:
            out.append(f"unreached and not in KEPT: {key}")
    for key, reason in KEPT.items():
        if key not in functions:
            out.append(f"KEPT names a function that is gone: {key}")
        elif functions[key]:
            out.append(f"KEPT names a reached function: {key}")
        out += [f"KEPT keeps {key} for {caller}, which does not exist"
                for caller in ABSENT_CALLERS if caller in reason]
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default=str(ROOT / "REACH.json"))
    parser.add_argument("--check", action="store_true",
                        help="compare reach with the checked-in file")
    parser.add_argument("--drive", help=argparse.SUPPRESS)
    parser.add_argument("--scratch", help=argparse.SUPPRESS)
    parser.add_argument("--counts", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.drive:
        run_drive(args.drive, pathlib.Path(args.scratch),
                  pathlib.Path(args.counts))
        return 0

    functions = census()
    found = problems(functions)
    document = {
        "schema": "repro-reach/1",
        "command": "PYTHONPATH=src python benchmarks/reach.py",
        "drives": list(drives()),
        "reached": sum(calls > 0 for calls in functions.values()),
        "functions": functions,
        "kept": {key: KEPT[key] for key in sorted(KEPT) if key in functions},
    }
    if args.check:
        held = json.loads(pathlib.Path(args.out).read_text())
        moved = sorted(key for key in functions.keys() | held["functions"]
                       if bool(functions.get(key)) !=
                       bool(held["functions"].get(key)))
        found += [f"reach differs from {args.out}: {key}" for key in moved]
    else:
        pathlib.Path(args.out).write_text(
            json.dumps(document, indent=1, sort_keys=False) + "\n")
    for line in found:
        print(line, file=sys.stderr)
    print(f"{document['reached']} of {len(functions)} functions reached; "
          f"{len(found)} problems", file=sys.stderr)
    return 1 if found else 0


if __name__ == "__main__":
    raise SystemExit(main())
