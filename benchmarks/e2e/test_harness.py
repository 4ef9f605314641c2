"""Self-test of the campaign benchmark harness (collected by tier-1).

Runs every workload once at a fraction of its declared size — cold
children, like the real thing — and checks the harness against its own
declaration: every metric ``BENCHMARK.json`` names is emitted for every
workload, every layer a workload is said to exercise saw a shimmed call,
the shims put back what they replaced, and the README documents exactly
the declared names.
"""

import json
import math
import pathlib
import re
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

import compare
import run
import shims
from workloads import WORKLOADS

HERE = pathlib.Path(__file__).resolve().parent
DECLARED = run.DECLARED
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

#: Small enough for tier-1, large enough that every workload reaches
#: every layer it is declared to exercise.
SECONDS = 1.0
SEED = 3


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    """Per workload: the end-to-end result of the traced run's untraced
    child, and the traced result."""
    spans = tmp_path_factory.mktemp("spans")

    def one(name):
        traced = run.run_traced(name, SEED, SECONDS, spans_dir=spans)
        return run.summarize(name, SEED, SECONDS, [traced["plain"]]), traced

    # The parent only waits on children; two at a time fit the CI cores.
    with ThreadPoolExecutor(max_workers=2) as pool:
        return dict(zip(WORKLOADS, pool.map(one, WORKLOADS)))


def test_declaration_stays_inside_the_contract():
    assert DECLARED["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in DECLARED["workloads"]] == list(WORKLOADS)
    assert 2 <= len(DECLARED["workloads"]) <= 8
    assert 1 <= len(DECLARED["end_to_end"]) <= 16
    assert 1 <= len(DECLARED["per_layer"]) <= 128
    names = [entry["name"] for kind in ("workloads", "end_to_end", "per_layer")
             for entry in DECLARED[kind]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for metric in DECLARED["end_to_end"] + DECLARED["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher"), metric
    assert all(0 < m["bound"] <= 0.25 for m in DECLARED["end_to_end"])
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= \
        next(m for m in DECLARED["end_to_end"]
             if m["name"] == "setup_s").items()
    assert DECLARED["run_seconds"] == run.RUN_SECONDS


def test_pins_cover_the_declared_size():
    pins = json.loads((HERE / "expected" / "seed7.json").read_text())
    assert pins["corpus_seed"] == run.CORPUS_SEED
    assert pins["seconds"] == run.RUN_SECONDS
    assert set(pins["digests"]) == set(WORKLOADS)
    # Same specs, so the same report: any --jobs, with or without stores.
    assert pins["digests"]["rotation-j2"] == pins["digests"]["rotation"]
    assert pins["digests"]["admitted-warm"] == pins["digests"]["admitted-cold"]


@pytest.mark.parametrize("name", WORKLOADS)
def test_every_declared_metric_is_emitted(results, name):
    untraced, traced = results[name]
    for result, kind in ((untraced, "end_to_end"), (traced, "per_layer")):
        line = json.loads(run.contract_line(result, kind))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0
        assert line["attempted"] >= 1
        assert list(line["metrics"]) == [m["name"] for m in DECLARED[kind]]
        for metric in DECLARED[kind]:
            emitted = line["metrics"][metric["name"]]
            assert emitted["unit"] == metric["unit"]
            assert math.isfinite(emitted["value"]), metric["name"]
    assert all(value > 0 for value in untraced["metrics"].values())


@pytest.mark.parametrize("name", WORKLOADS)
def test_active_layers_saw_shimmed_calls(results, name):
    # run_traced() lists a declared-active span that never fired, and a
    # digest that differs between the traced and the untraced child (on
    # rotation-j2: between the pool and the serial run of the same specs).
    _, traced = results[name]
    assert traced["problems"] == []
    assert WORKLOADS[name].active <= set(shims.SPAN_NAMES)
    if WORKLOADS[name].jobs == 1:
        assert traced["metrics"]["trace.unaccounted_share"] <= 0.05


def test_separation_of_the_keying_and_batch_workloads(results):
    assert results["spp-keying"][1]["metrics"]["exec.batch.admitted"] == 0
    assert results["admitted-cold"][1]["metrics"]["exec.batch.admitted_share"] \
        > 0.8
    warm = results["admitted-warm"][1]["metrics"]
    assert warm["kernel_store.hit_share"] == 1.0
    assert warm["kernel_store.put_calls"] > 0  # from the populate pass
    assert warm["exec.batch.tabulations"] == 0
    assert results["rotation-j2"][0]["digest"] == \
        results["rotation"][0]["digest"]


def test_the_seed_orders_one_corpus():
    from workloads import ordered

    specs = list(range(20))
    first, second = ordered(specs, "abcd", 1), ordered(specs, "abcd", 2)
    assert first == ordered(specs, "abcd", 1) != second
    assert sorted(first) == sorted(second) == specs
    # Whole rounds of the family rotation move together.
    assert all(first[i] % 4 == i % 4 for i in range(20))


def test_shims_restore_the_originals():
    import repro.campaigns
    from repro.campaigns import oracle, runner
    from repro.exec.gpv import GPVSession

    before = (oracle.evaluate, runner.evaluate_chunk,
              repro.campaigns.materialize, vars(GPVSession)["run"])
    tracer = shims.Tracer()
    with tracer:
        after = (oracle.evaluate, runner.evaluate_chunk,
                 repro.campaigns.materialize, vars(GPVSession)["run"])
        assert all(new is not old for new, old in zip(after, before))
        # One object, however many modules hold a reference to it.
        assert runner.evaluate_chunk is oracle.evaluate_chunk
    assert (oracle.evaluate, runner.evaluate_chunk,
            repro.campaigns.materialize, vars(GPVSession)["run"]) == before
    assert tracer.spans == []


def test_a_renamed_entry_point_fails_loudly(monkeypatch):
    from repro.campaigns import oracle

    original = oracle.evaluate
    monkeypatch.setattr(shims, "METHODS", shims.METHODS + (
        ("repro.exec.gpv", "GPVSession", "no_such_method", "x", None, None),))
    with pytest.raises(KeyError):
        shims.Tracer().install()
    assert oracle.evaluate is original


def test_readme_documents_exactly_the_declared_names():
    readme = (HERE / "README.md").read_text()
    documented = set(re.findall(r"^\| `([^`]+)` \|", readme, re.MULTILINE))
    declared = {entry["name"]
                for kind in ("workloads", "end_to_end", "per_layer")
                for entry in DECLARED[kind]}
    assert documented == declared


def test_compare_verdicts_and_smoke_refusal(tmp_path, capsys):
    assert compare.verdict([100, 101, 102], [80, 81, 82],
                           better="higher", bound=0.1) == "regressed"
    assert compare.verdict([100, 101, 102], [97, 98, 99],
                           better="higher", bound=0.1) == "ok"
    assert compare.verdict([80, 100, 120], [95, 100, 105],
                           better="higher", bound=0.1) == "unresolved"
    assert compare.verdict([80, 100, 120], [130, 131, 132],
                           better="higher", bound=0.1) == "ok"
    smoke = tmp_path / "smoke.json"
    smoke.write_text(json.dumps({"stamp": {"seconds": 1}, "runs": {}}))
    assert compare.main([str(smoke), str(smoke)]) == 2
    assert "refused" in capsys.readouterr().err


def test_fails_without_a_program_to_measure(tmp_path):
    # The contract: in a directory holding only BENCHMARK.json and the
    # benchmark's own files, exit non-zero and print no result.
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "rotation",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
