"""The on-disk JSON format of every artifact: one writer, one reader.

`write` produces the bytes of `json.dumps(plain(doc), sort_keys=True)` plus a
newline, but encodes them in pieces with the C encoder (`json.dump` always
runs the pure-Python one), one matrix row at a time, so no string ever holds
a whole matrix.
"""

import dataclasses
import json
import os

import numpy as np

from .errors import ContractError, ParameterError

# json.dumps' own encoder: with indent=None it runs the C implementation
_encode = json.JSONEncoder(sort_keys=True).encode
# JSON type name -> the Python types json decodes it to
_TYPES = {"str": str, "float": (int, float), "int": int, "bool": bool, "list": list,
          "None": type(None)}


def is_a(value, types: str) -> bool:
    """Whether the decoded JSON `value` has one of `types`, written like an
    annotation ("float | None").  JSON true/false is no number, although a
    Python bool is an int."""
    allowed = types.split(" | ")
    return isinstance(value, tuple(_TYPES[t] for t in allowed)) and (
        not isinstance(value, bool) or "bool" in allowed)


def typed(value, types: str, name: str):
    """`value`, refused with ParameterError unless `is_a(value, types)`."""
    if not is_a(value, types):
        raise ParameterError(f"{name} must be {types}, not {value!r}")
    return value


def plain(obj):
    """The JSON value `obj` is written as: numpy values become lists and
    numbers, a dataclass a dict of its fields.  Converting up front gives
    `write` plain lists it can split into rows."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        obj = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {k: plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [plain(v) for v in obj]
    return obj


def _pieces(value):
    """The JSON text of `value` in pieces: a dict key by key in sorted order,
    a list whose first item is a list item by item, anything else whole."""
    if isinstance(value, dict):
        yield "{"
        for i, (key, item) in enumerate(sorted(value.items())):
            # the key as json turns it into a string: '{"9": 0}'[1:-4] == '"9"'
            yield (", " if i else "") + _encode({key: 0})[1:-4] + ": "
            yield from _pieces(item)
        yield "}"
    elif isinstance(value, list) and value and isinstance(value[0], list):
        yield "["
        for i, item in enumerate(value):
            if i:
                yield ", "
            yield from _pieces(item)
        yield "]"
    else:
        yield _encode(value)


def write(path, doc, indent=None) -> None:
    """Write `doc` to `path` with sorted keys and a trailing newline.  The
    file is written beside `path` and then moved onto it, so a failed write
    leaves the old file as it was.  Only the manifest is indented; it is a
    few kB and goes through `json.dump`."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w") as f:
            if indent is None:
                f.writelines(_pieces(plain(doc)))
            else:
                json.dump(plain(doc), f, sort_keys=True, indent=indent)
            f.write("\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def read(path, decode):
    """`decode` the parsed file; every malformed-file error names `path`."""
    try:
        with open(path) as f:
            return decode(json.load(f))
    except (ParameterError, ContractError) as e:
        raise type(e)(f"{path}: {e}") from e
    except (json.JSONDecodeError, KeyError, TypeError, IndexError, ValueError) as e:
        raise ParameterError(f"{path}: malformed file ({type(e).__name__}: {e})") from e


def csv_path(json_path) -> str:
    """The CSV file written next to a JSON report."""
    return str(json_path).removesuffix(".json") + ".csv"
