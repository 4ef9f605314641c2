"""One way to fail: what a campaign does when a store misbehaves.

At ef600da the same fault had three answers.  An unopenable
``--verdict-cache`` was an uncaught ``sqlite3.OperationalError``
traceback under ``--jobs 1`` and eight ``chunk lost … worker process
died`` ``ERROR`` results under ``--jobs 2``; an unopenable
``--kernel-cache`` was silently ignored; a ``database is locked`` in the
middle of a run escaped ``VerdictStore.get``/``put`` into the scenario's
``ERROR`` and was swallowed uncounted around ``KernelStore.get``/``put``.
Now: a path that cannot be opened is rejected before the first scenario,
and a ``sqlite3.Error`` mid-run is one ``repro_store_ops_total{store,
op="error"}`` and a miss / a dropped write, for both stores alike.
"""

import io
import sqlite3

import pytest

from repro.campaigns import (
    CampaignConfig,
    CampaignRunner,
    ScenarioGenerator,
    VerdictStore,
    clear_verdict_cache,
    configure_verdict_store,
)
from repro.campaigns.runner import _CampaignWatch, _RunState
from repro.campaigns.sink import AggregatingSink
from repro.cli import main
from repro.exec.batch import clear_kernel_cache, configure_kernel_store
from repro.exec.kernel_store import KernelStore
from repro.obs import metrics
from repro.sqlite_cache import open_store

STORES = {"verdict": VerdictStore, "kernel": KernelStore}
FLAGS = {"verdict": "--verdict-cache", "kernel": "--kernel-cache"}


@pytest.fixture(autouse=True)
def cold_process():
    """No store attached, no memo, no cached kernel — before and after."""
    def reset():
        configure_verdict_store(None)
        configure_kernel_store(None)
        clear_verdict_cache()
        clear_kernel_cache()
    reset()
    yield
    reset()


def store_errors(store: str):
    return metrics.counter("repro_store_ops_total", store=store, op="error")


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("store", ["verdict", "kernel"])
def test_unopenable_path_is_rejected_before_the_first_scenario(
        store, jobs, tmp_path, capsys):
    status = main(["campaign", "--scenarios", "8", "--families", "caida",
                   "--profile", "quick", "--jobs", str(jobs),
                   FLAGS[store], str(tmp_path)])  # a directory, not a db
    captured = capsys.readouterr()
    assert status == 2
    assert captured.err.startswith(
        f"campaign rejected: cannot open {store} cache {tmp_path}: ")
    assert "campaign:" not in captured.out  # nothing ran, nothing reported
    assert open_store(STORES[store], None) is None  # and nothing attached


def test_runner_rejects_the_path_with_a_value_error(tmp_path):
    specs = ScenarioGenerator(7, profile="quick").generate(4)
    with pytest.raises(ValueError, match="cannot open kernel cache"):
        CampaignRunner(CampaignConfig(
            kernel_cache_path=str(tmp_path))).run(specs)
    # --no-batch never opens a kernel store: nothing to reject.
    report = CampaignRunner(CampaignConfig(
        kernel_cache_path=str(tmp_path), auto_batch=False)).run(specs)
    assert report.scenario_count == 4


@pytest.mark.parametrize("store,method", [
    ("verdict", "get"), ("verdict", "put"),
    ("kernel", "get"), ("kernel", "put")])
def test_a_store_error_mid_run_is_a_counted_miss(store, method, tmp_path,
                                                 monkeypatch):
    specs = ScenarioGenerator(
        7, families=("caida", "gadget", "rocketfuel", "tau-sweep"),
        profile="quick").generate(16)
    plain = CampaignRunner(CampaignConfig()).run(specs)
    assert plain.error_count == 0
    clear_verdict_cache()
    clear_kernel_cache()

    raised = []

    def locked(_self, *_args, **_kwargs):
        raised.append(method)
        raise sqlite3.OperationalError("database is locked")

    monkeypatch.setattr(STORES[store], method, locked)
    before = store_errors(store).value
    report = CampaignRunner(CampaignConfig(
        verdict_cache_path=str(tmp_path / "v.sqlite"),
        kernel_cache_path=str(tmp_path / "k.sqlite"))).run(specs)
    assert report.error_count == 0, report.summary()
    assert report.counters() == plain.counters()
    assert report.by_family() == plain.by_family()
    assert report.pairwise_counters() == plain.pairwise_counters()
    assert raised
    assert store_errors(store).value - before == len(raised)


def test_watch_frame_says_store_errors_only_when_there_are_some():
    def frame() -> str:
        stream = io.StringIO()
        state = _RunState(started=0.0, aggregator=AggregatingSink())
        _CampaignWatch(stream).maybe_render(state, force=True)
        return stream.getvalue()

    store_errors("kernel").reset()
    store_errors("verdict").reset()
    assert "store errors" not in frame()
    store_errors("kernel").inc(3)
    assert "store errors (kernel): 3" in frame()
    assert "store errors (verdict)" not in frame()
    store_errors("kernel").reset()


def test_pool_workers_reopen_a_store_the_parent_holds_open(tmp_path):
    """A real fork: the parent attaches both stores (and keeps them —
    the run itself opens them first), the ``--jobs 2`` workers inherit
    the handles, open their own, and the parent's still work after."""
    paths = dict(verdict_cache_path=str(tmp_path / "v.sqlite"),
                 kernel_cache_path=str(tmp_path / "k.sqlite"))
    specs = ScenarioGenerator(
        7, families=("rocketfuel", "tau-sweep"),
        profile="quick").generate(12)
    serial = CampaignRunner(CampaignConfig(**paths)).run(specs)
    verdicts = open_store(VerdictStore, paths["verdict_cache_path"])
    kernels = open_store(KernelStore, paths["kernel_cache_path"])
    rows = len(verdicts), len(kernels)
    assert min(rows) > 0

    clear_verdict_cache()
    clear_kernel_cache()
    pooled = CampaignRunner(CampaignConfig(
        jobs=2, chunk_size=3, **paths)).run(specs)
    assert pooled.error_count == 0, pooled.summary()
    assert pooled.counters() == serial.counters()
    assert pooled.cache_hit_rate == 1.0  # every verdict came off the store
    # Same handles, still open, and nothing was re-derived into them.
    assert open_store(VerdictStore, paths["verdict_cache_path"]) is verdicts
    assert open_store(KernelStore, paths["kernel_cache_path"]) is kernels
    assert (len(verdicts), len(kernels)) == rows
