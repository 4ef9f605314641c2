"""The checked-in wire-format schemas and the subset validator."""

import pytest

from repro.obs.schema import (
    SchemaError,
    load_schema,
    validate,
    validate_metrics_snapshot,
    validate_span,
)


def good_span():
    return {
        "format": "repro-span/1",
        "trace_id": "ab" * 8,
        "span_id": "cd" * 8,
        "parent_id": None,
        "name": "scenario",
        "worker": "w1",
        "start": 1.0,
        "end": 2.0,
        "elapsed_ms": 1000.0,
        "status": "ok",
        "attrs": {"scenario_id": 3},
    }


class TestSpanSchema:
    def test_good_record_passes(self):
        validate_span(good_span())

    def test_bad_trace_id_pattern_fails(self):
        record = good_span()
        record["trace_id"] = "XYZ"
        with pytest.raises(SchemaError, match="trace_id"):
            validate_span(record)

    def test_missing_required_key_fails(self):
        record = good_span()
        del record["span_id"]
        with pytest.raises(SchemaError, match="span_id"):
            validate_span(record)

    def test_unknown_key_fails(self):
        record = good_span()
        record["surprise"] = 1
        with pytest.raises(SchemaError, match="surprise"):
            validate_span(record)

    def test_wrong_format_const_fails(self):
        record = good_span()
        record["format"] = "repro-span/2"
        with pytest.raises(SchemaError, match="format"):
            validate_span(record)

    def test_bad_status_enum_fails(self):
        record = good_span()
        record["status"] = "maybe"
        with pytest.raises(SchemaError, match="status"):
            validate_span(record)


class TestMetricsSchema:
    def test_good_snapshot_passes(self):
        validate_metrics_snapshot({
            "format": "repro-metrics/1",
            "counters": {"repro_x_total": [{"labels": {"a": "b"},
                                           "value": 1.0}]},
        })

    def test_a_section_beyond_counters_fails(self):
        with pytest.raises(SchemaError, match="gauges"):
            validate_metrics_snapshot({
                "format": "repro-metrics/1", "counters": {}, "gauges": {},
            })

    def test_counter_value_must_be_numeric(self):
        with pytest.raises(SchemaError):
            validate_metrics_snapshot({
                "format": "repro-metrics/1",
                "counters": {"repro_x_total": [{"labels": {},
                                               "value": "lots"}]},
            })


class TestValidatorSubset:
    def test_unsupported_keyword_is_an_error_not_a_pass(self):
        # A schema using a keyword the subset validator does not know must
        # raise — silently ignoring it would fake coverage.
        with pytest.raises(SchemaError, match="unsupported keywords"):
            validate({"a": 1}, {"type": "object", "patternProperties": {}})

    def test_bool_does_not_satisfy_integer(self):
        with pytest.raises(SchemaError):
            validate(True, {"type": "integer"})

    def test_schemas_load_by_short_name(self):
        assert load_schema("span")["properties"]["format"]["const"] == \
            "repro-span/1"
        assert load_schema("metrics")["properties"]["format"]["const"] == \
            "repro-metrics/1"
