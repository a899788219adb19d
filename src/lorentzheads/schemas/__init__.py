"""Loading and applying the shipped JSON schemas."""

from __future__ import annotations

import json
from importlib.resources import files

import jsonschema

from .. import jsonio

_SCHEMA_NAMES = (
    "prototype_bank",
    "dataset",
    "metrics",
    "hubness_report",
    "checkpoint",
    "manifest",
)


def load_schema(name: str) -> dict:
    if name not in _SCHEMA_NAMES:
        raise KeyError(f"unknown schema {name!r}")
    text = files("lorentzheads.schemas").joinpath(f"{name}.schema.json").read_text()
    return json.loads(text)


def validate_file(path, schema_name: str) -> None:
    """Raise jsonschema.ValidationError if the file does not match."""
    jsonschema.validate(jsonio.read(path, lambda doc: doc), load_schema(schema_name))
