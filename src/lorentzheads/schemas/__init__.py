"""The shipped JSON schemas; `jsonio.validate` applies them."""

import functools
import json
from importlib.resources import files


@functools.cache
def load_schema(name: str) -> dict:
    """The schema `name`.schema.json, read once; every caller shares the dict."""
    return json.loads(files("lorentzheads.schemas").joinpath(f"{name}.schema.json").read_text())
