"""Checked-in wire-format schemas and a dependency-free validator.

The observability plane's two line formats — ``repro-span/1`` records and
``repro-metrics/1`` snapshots — are contracts: the CI observability-smoke
job validates every emitted line against the JSON Schemas in
``schemas/``, and the future SSE service plane will serve the same
shapes.  So is the ``repro-results/1`` header a campaign's results file
starts with (``results.schema.json``).  No ``jsonschema`` package is
required, so :func:`validate` implements exactly the draft-2020-12
subset those schemas use (type/const/enum/required/properties/additionalProperties/
pattern/minimum/minLength/$ref into local ``$defs``).  Extending a
schema past that subset should extend the validator in the same commit —
``validate`` raises on keywords it does not understand rather than
silently passing.
"""

from __future__ import annotations

import json
import os
import re

_SCHEMA_DIR = os.path.join(os.path.dirname(__file__), "schemas")

#: Keywords the subset validator knows; anything else in a schema is an
#: error, never a silent pass.
_KNOWN_KEYWORDS = {
    "$schema", "$id", "$defs", "$ref", "title", "description",
    "type", "const", "enum", "required", "properties",
    "additionalProperties", "pattern", "minimum", "minLength", "items",
}

_TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "number": (int, float),
    "integer": int,
    "boolean": bool,
    "null": type(None),
}


class SchemaError(ValueError):
    """A document failed schema validation (message names the path)."""


def load_schema(name: str) -> dict:
    """Load a checked-in schema by short name (``"span"``, ``"metrics"``,
    ``"results"``)."""
    path = os.path.join(_SCHEMA_DIR, f"{name}.schema.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _check_type(expected, value, path: str) -> None:
    names = expected if isinstance(expected, list) else [expected]
    for name in names:
        py = _TYPES[name]
        if isinstance(value, py):
            # bool is an int subclass; don't let True satisfy "integer".
            if name in ("number", "integer") and isinstance(value, bool):
                continue
            return
    raise SchemaError(f"{path}: expected {expected}, "
                      f"got {type(value).__name__}")


def _resolve_ref(ref: str, root: dict) -> dict:
    if not ref.startswith("#/"):
        raise SchemaError(f"unsupported $ref target: {ref}")
    node = root
    for part in ref[2:].split("/"):
        node = node[part]
    return node


def _validate(value, schema: dict, root: dict, path: str) -> None:
    unknown = set(schema) - _KNOWN_KEYWORDS
    if unknown:
        raise SchemaError(f"{path}: schema uses unsupported keywords "
                          f"{sorted(unknown)}")
    if "$ref" in schema:
        _validate(value, _resolve_ref(schema["$ref"], root), root, path)
        return
    if "const" in schema:
        if value != schema["const"]:
            raise SchemaError(f"{path}: expected {schema['const']!r}, "
                              f"got {value!r}")
        return
    if "enum" in schema and value not in schema["enum"]:
        raise SchemaError(f"{path}: {value!r} not one of {schema['enum']}")
    if "type" in schema:
        _check_type(schema["type"], value, path)
    if isinstance(value, str):
        if "pattern" in schema and not re.search(schema["pattern"], value):
            raise SchemaError(
                f"{path}: {value!r} does not match {schema['pattern']!r}")
        if len(value) < schema.get("minLength", 0):
            raise SchemaError(f"{path}: shorter than minLength")
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        if "minimum" in schema and value < schema["minimum"]:
            raise SchemaError(f"{path}: {value} below minimum "
                              f"{schema['minimum']}")
    if isinstance(value, dict):
        for key in schema.get("required", ()):
            if key not in value:
                raise SchemaError(f"{path}: missing required key {key!r}")
        properties = schema.get("properties", {})
        extra = schema.get("additionalProperties", True)
        for key, item in value.items():
            if key in properties:
                _validate(item, properties[key], root, f"{path}.{key}")
            elif isinstance(extra, dict):
                _validate(item, extra, root, f"{path}.{key}")
            elif extra is False:
                raise SchemaError(f"{path}: unexpected key {key!r}")
    if isinstance(value, list) and "items" in schema:
        for i, item in enumerate(value):
            _validate(item, schema["items"], root, f"{path}[{i}]")


def validate(value, schema: dict) -> None:
    """Raise :class:`SchemaError` unless ``value`` conforms to ``schema``."""
    _validate(value, schema, schema, "$")


def validate_span(record: dict) -> None:
    validate(record, load_schema("span"))


def validate_metrics_snapshot(snapshot: dict) -> None:
    validate(snapshot, load_schema("metrics"))
