"""The checked-in reach census agrees with the code it counts.

``benchmarks/reach.py`` runs every product drive under a profile hook and
writes ``REACH.json``; re-running it takes minutes, so this test only
reads the file: it counts exactly the functions ``src/repro`` defines,
and every function no drive reached stays with a line in ``KEPT`` that
says why.  After adding, removing or renaming a function, re-run
``PYTHONPATH=src python benchmarks/reach.py``.
"""

import importlib.util
import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _reach():
    spec = importlib.util.spec_from_file_location(
        "reach", ROOT / "benchmarks" / "reach.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


REACH = _reach()
CENSUS = json.loads((ROOT / "REACH.json").read_text())


def test_the_census_counts_the_functions_there_are():
    defined = set(REACH.defined_functions().values())
    counted = set(CENSUS["functions"])
    assert sorted(defined - counted) == [], "not in REACH.json: re-run it"
    assert sorted(counted - defined) == [], "gone from src: re-run it"


def test_every_unreached_function_is_kept_with_a_reason():
    assert REACH.problems(CENSUS["functions"]) == []
    assert CENSUS["kept"] == {key: REACH.KEPT[key]
                              for key in sorted(REACH.KEPT)}


def test_a_reason_must_name_a_caller_in_the_repository(monkeypatch):
    functions = dict.fromkeys(REACH.KEPT, 0)
    key = next(iter(REACH.KEPT))
    monkeypatch.setitem(REACH.KEPT, key,
                        "an accessor for user code and scripts")
    assert REACH.problems(functions) == [
        f"KEPT keeps {key} for user code, which does not exist",
        f"KEPT keeps {key} for scripts, which does not exist"]
