"""Shared helpers for the benchmark suite.

Every benchmark regenerates one of the paper's tables or figures.  Since
``pytest`` captures stdout, each bench also writes its table/series to
``benchmarks/results/<name>.txt`` so the regenerated artifacts survive the
run, and attaches headline numbers to ``benchmark.extra_info`` (visible in
``--benchmark-json`` output).
"""

from __future__ import annotations

import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def pytest_addoption(parser):
    parser.addoption(
        "--smoke", action="store_true", default=False,
        help="shrink benchmark workloads to a CI-sized smoke pass")
    parser.addoption(
        "--kernel-cache", default=None, metavar="PATH",
        help="persistent sqlite kernel store for the batch bench "
             "(default: in-memory only)")


@pytest.fixture(scope="session")
def smoke(request) -> bool:
    """True when the run should use the smallest meaningful workload."""
    return request.config.getoption("--smoke")


@pytest.fixture
def kernel_cache(request):
    """The ``--kernel-cache`` path; the store is detached after the test."""
    from repro.exec.batch import configure_kernel_store

    yield request.config.getoption("--kernel-cache")
    configure_kernel_store(None)


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def save_result(results_dir):
    """Persist a regenerated table: ``save_result('fig4', text)``."""

    def save(name: str, text: str) -> None:
        path = results_dir / f"{name}.txt"
        path.write_text(text + "\n")
        # Also echo to stdout for -s runs.
        print(f"\n=== {name} ===\n{text}")

    return save
