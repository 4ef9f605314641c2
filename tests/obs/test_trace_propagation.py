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

    def test_span_ids_are_unique_across_the_pool(self, tmp_path, capsys):
        """Each worker draws its own ID start when it configures its sink,
        so two processes never issue the same span ID; every line is a
        valid record, and an iBGP scenario's tree shows the verdict's key
        and solve times above its deciding tier."""
        from repro.cli import main
        from repro.obs.schema import validate_span

        trace_dir = str(tmp_path / "traces")
        specs = ScenarioGenerator(7, families=("gadget", "ibgp", "tau-sweep"),
                                  profile=PROFILE).generate(24)
        CampaignRunner(CampaignConfig(
            jobs=2, chunk_size=4, trace_dir=trace_dir)).run(specs)
        spans = read_spans(trace_dir)
        for span in spans:
            validate_span(span)
        ids = [span["span_id"] for span in spans]
        assert len(set(ids)) == len(ids)
        assert main(["trace", "show", "1", "--trace-dir", trace_dir]) == 0
        tree = capsys.readouterr().out
        verdict = next(line for line in tree.splitlines()
                       if "analysis:verdict" in line)
        for attr in ("key_ms=", "solve_ms=", "verdict_tier="):
            assert attr in verdict
        assert tree.index("analysis:verdict") < tree.index("analysis:tier1")


class TestSink:
    def test_one_write_per_root_span(self, tmp_path, monkeypatch):
        """A root's spans go out together: one ``os.write`` when a
        ``scenario`` or ``batch:chunk`` root closes, none per child."""
        from repro.obs import trace

        writes = []
        write = trace.os.write

        def counted(fd, data):
            if data.startswith(b'{"format": "repro-span/1"'):
                writes.append(data)
            return write(fd, data)

        monkeypatch.setattr(trace.os, "write", counted)
        trace_dir = str(tmp_path / "traces")
        specs = ScenarioGenerator(7, profile=PROFILE).generate(16)
        CampaignRunner(CampaignConfig(trace_dir=trace_dir)).run(specs)
        monkeypatch.undo()
        roots = [span["name"] for span in read_spans(trace_dir)
                 if span["parent_id"] is None]
        assert roots.count("scenario") == 16
        assert "batch:chunk" in roots
        assert len(writes) == len(roots)


class TestAttach:
    def test_an_untraced_campaign_adds_no_spans_to_the_last_traced_one(
            self, tmp_path):
        """Every run sets the process's trace sink, ``None`` included, so
        a later untraced campaign in the same process does not write into
        the directory an earlier traced one left configured."""
        trace_dir = str(tmp_path / "traces")
        specs = ScenarioGenerator(5, families=FAMILIES,
                                  profile=PROFILE).generate(4)
        CampaignRunner(CampaignConfig(trace_dir=trace_dir)).run(specs)
        traced = len(read_spans(trace_dir))
        assert traced > 0
        CampaignRunner(CampaignConfig()).run(specs)
        assert len(read_spans(trace_dir)) == traced
