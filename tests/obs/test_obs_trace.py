"""The tracer: span nesting, annotations, the JSONL sink, readers."""

import json
import os

import pytest

from repro.obs.schema import validate_span
from repro.obs.trace import (
    Tracer,
    read_spans,
    render_span_tree,
    scenario_trace_id,
    spans_for_scenario,
)


@pytest.fixture()
def tracer(tmp_path):
    t = Tracer()
    t.configure(str(tmp_path), worker="t1")
    return t


class TestTraceIds:
    def test_deterministic_and_distinct(self):
        a = scenario_trace_id("gadget", 3, 99)
        assert a == scenario_trace_id("gadget", 3, 99)
        assert a != scenario_trace_id("gadget", 4, 99)
        assert a != scenario_trace_id("caida", 3, 99)
        assert len(a) == 16 and int(a, 16) >= 0


class TestSpans:
    def test_disabled_tracer_emits_nothing(self, tmp_path):
        t = Tracer()
        with t.span("noop") as span:
            span.annotate(x=1)  # must be free, not an error
        assert read_spans(str(tmp_path)) == []

    def test_nesting_parents_automatically(self, tracer, tmp_path):
        with tracer.span("outer", trace_id="ab" * 8):
            with tracer.span("inner"):
                pass
        outer, inner = read_spans(str(tmp_path))  # ordered by start time
        assert (outer["name"], inner["name"]) == ("outer", "inner")
        assert inner["trace_id"] == outer["trace_id"] == "ab" * 8
        assert inner["parent_id"] == outer["span_id"]
        assert outer["parent_id"] is None
        assert outer["worker"] == "t1"
        for record in (inner, outer):
            validate_span(record)

    def test_annotate_attrs(self, tracer, tmp_path):
        with tracer.span("work", scenario_id=9):
            tracer.annotate(decided=True)
        (record,) = read_spans(str(tmp_path))
        assert record["attrs"] == {"scenario_id": 9, "decided": True}

    def test_exceptions_mark_the_span_errored(self, tracer, tmp_path):
        with pytest.raises(RuntimeError):
            with tracer.span("doomed"):
                raise RuntimeError("boom")
        (record,) = read_spans(str(tmp_path))
        assert record["status"] == "error"
        assert "RuntimeError: boom" in record["attrs"]["error"]
        validate_span(record)

    def test_the_sink_keeps_every_span(self, tracer, tmp_path):
        """Past 16 MiB of spans every span still reads back, the first
        included: a long traced campaign loses no scenario's trace."""
        padding = "x" * (64 << 10)
        count = 260  # 260 spans of > 64 KiB: more than 16 MiB
        for i in range(count):
            with tracer.span(f"s{i}", padding=padding):
                pass
        assert os.listdir(tmp_path) == ["spans-t1.jsonl"]
        assert os.path.getsize(tmp_path / "spans-t1.jsonl") > 16 << 20
        names = [span["name"] for span in read_spans(str(tmp_path))]
        assert names == [f"s{i}" for i in range(count)]

    def test_one_random_draw_per_configure(self, tmp_path, monkeypatch):
        """Span IDs count up from one ``os.urandom`` draw made when the
        sink is configured, not one draw per span."""
        from repro.obs import trace

        draws = []
        urandom = trace.os.urandom
        monkeypatch.setattr(trace.os, "urandom",
                            lambda n: draws.append(n) or urandom(n))
        t = Tracer()
        t.configure(str(tmp_path), worker="t1")
        for _ in range(5):
            with t.span("outer"):
                with t.span("inner"):
                    pass
        monkeypatch.undo()
        assert draws == [8]
        spans = read_spans(str(tmp_path))
        assert len({span["span_id"] for span in spans}) == 10
        assert len({span["trace_id"] for span in spans}) == 5
        for span in spans:
            validate_span(span)

    def test_configure_is_idempotent_but_renames_apply(self, tmp_path):
        t = Tracer()
        t.configure(str(tmp_path), worker="w-a")
        t.configure(str(tmp_path))  # worker=None: keep the current name
        assert t.worker == "w-a"
        t.configure(str(tmp_path), worker="w-b")  # explicit rename applies
        assert t.worker == "w-b"
        t.configure(None)
        assert not t.enabled


class TestReaders:
    def _emit_scenario(self, tracer, scenario_id, family="gadget", seed=1):
        trace_id = scenario_trace_id(family, scenario_id, seed)
        with tracer.span("scenario", trace_id=trace_id,
                         scenario_id=scenario_id):
            with tracer.span("backend:run", backend="gpv"):
                pass

    def test_spans_for_scenario_selects_the_whole_trace(self, tracer,
                                                        tmp_path):
        self._emit_scenario(tracer, 1)
        self._emit_scenario(tracer, 2)
        spans = spans_for_scenario(str(tmp_path), 1)
        assert len(spans) == 2  # scenario root + backend child
        assert {span["trace_id"] for span in spans} == \
            {scenario_trace_id("gadget", 1, 1)}

    def test_torn_trailing_line_is_skipped(self, tracer, tmp_path):
        self._emit_scenario(tracer, 1)
        path = tmp_path / "spans-t1.jsonl"
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"format": "repro-span/1", "tru')  # torn write
        assert len(read_spans(str(tmp_path))) == 2

    def test_render_span_tree(self, tracer, tmp_path):
        self._emit_scenario(tracer, 7)
        text = render_span_tree(spans_for_scenario(str(tmp_path), 7))
        assert "scenario" in text and "backend:run" in text
        assert "worker=t1" in text
        assert "1 root(s)" in text
        assert render_span_tree([]) == "(no spans)"

    def test_records_round_trip_as_json_lines(self, tracer, tmp_path):
        self._emit_scenario(tracer, 3)
        path = tmp_path / "spans-t1.jsonl"
        for line in path.read_text().splitlines():
            validate_span(json.loads(line))
