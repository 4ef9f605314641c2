"""Worker identity on the spans of a process-pool campaign."""

import os
import socket

import pytest

from repro.campaigns import (
    CampaignConfig,
    CampaignRunner,
    ScenarioGenerator,
    clear_verdict_cache,
    configure_verdict_store,
)
from repro.obs.trace import configure_tracing, read_spans

FAMILIES = ("gadget",)
PROFILE = "quick"


@pytest.fixture(autouse=True)
def clean_process_state():
    configure_verdict_store(None)
    clear_verdict_cache()
    yield
    configure_verdict_store(None)
    clear_verdict_cache()
    configure_tracing(None)


class TestProcessPool:
    def test_pool_chunks_tag_spans_with_owning_worker(self, tmp_path):
        """jobs>1: each pool process configures its own sink, so every
        span carries the evaluating worker's (pid-distinct) identity —
        never the parent's."""
        trace_dir = str(tmp_path / "traces")
        specs = ScenarioGenerator(5, families=FAMILIES,
                                  profile=PROFILE).generate(8)
        report = CampaignRunner(CampaignConfig(
            jobs=2, chunk_size=2, trace_dir=trace_dir)).run(specs)
        assert report.scenario_count == 8

        spans = read_spans(trace_dir)
        scenario_spans = [s for s in spans if s["name"] == "scenario"]
        assert len(scenario_spans) == 8
        workers = {s["worker"] for s in spans}
        assert all(workers), "every span must carry a worker tag"
        # Evaluation happened in the pool: the parent process's default
        # worker name never appears on a span.
        parent = f"{socket.gethostname()}-{os.getpid()}"
        assert parent not in workers
        # Each worker's spans live in its own sink file (no interleaved
        # worker tags within a file).
        import json
        for name in os.listdir(trace_dir):
            with open(os.path.join(trace_dir, name),
                      encoding="utf-8") as fh:
                owners = {json.loads(line)["worker"]
                          for line in fh if line.strip()}
            assert len(owners) == 1, (name, owners)
