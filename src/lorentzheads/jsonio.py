"""The on-disk JSON format of every artifact: one writer, one reader, and one
validator that checks a decoded document against its shipped schema.

`write` writes `json.dumps(plain(doc), sort_keys=True)` plus a newline, by
`write_atomic`, which moves a finished file onto its path.  `read` reads a
file's bytes once, decodes them whole, by `loads` unless the caller parses
them itself (a dataset's npz file), checks the document against its schema
and hands it to a decoder.  The validator takes numpy arrays as well, by
dtype and shape, so a document of arrays is checked as its lists would be.
"""

import dataclasses
import itertools
import json
import operator
import os

import numpy as np

from . import schemas
from .errors import ContractError, ParameterError

# the text by which uniqueItems tells items apart: json.dumps' with sorted keys
_encode = json.JSONEncoder(sort_keys=True).encode
# each JSON type's schema name -> the Python types json decodes it to
_TYPES = {"integer": int, "number": (int, float), "string": str, "boolean": bool,
          "array": list, "object": dict, "null": type(None)}
# the dtype of a numpy array whose items have the schema type
_DTYPES = {"number": np.dtype(np.float64), "integer": np.dtype(np.int64)}
# the schema keywords `validate` applies; a schema using another is refused
_KEYWORDS = {"$schema", "type", "properties", "required", "additionalProperties", "items",
             "minItems", "uniqueItems", "enum", "minimum", "maximum", "exclusiveMinimum"}
# bound keyword -> whether a number breaks it; NaN breaks none
_BOUNDS = {"minimum": operator.lt, "maximum": operator.gt, "exclusiveMinimum": operator.le}


def _of_type(t: type, types) -> bool:
    """Whether decoded JSON values of type `t` have the schema type `types`, a
    name or a list of names.  JSON true/false is no number, though a Python
    bool is an int; a float is no integer."""
    if isinstance(types, str):
        types = [types]
    return any(issubclass(t, _TYPES[n]) and issubclass(t, bool) == (_TYPES[n] is bool)
               for n in types)


def _breaks(value, schema: dict) -> bool:
    """Whether the number `value` breaks a bound of `schema`."""
    return any(_BOUNDS[k](value, schema[k]) for k in schema.keys() & _BOUNDS.keys())


def _one_pass(rows: list, schema: dict) -> bool:
    """Whether every item of `rows` matches `schema`, as far as one type pass
    over scalars, or over the chained items of lists, can tell.  False where it
    cannot; the caller then walks the items, which finds a refused one's path."""
    found = set(map(type, rows))
    if found == {list} and schema.keys() <= {"type", "items", "minItems"}:
        return (_of_type(list, schema.get("type", "array"))
                and min(map(len, rows)) >= schema.get("minItems", 0)
                and _one_pass(list(itertools.chain.from_iterable(rows)), schema.get("items", {})))
    types = schema.get("type", list(_TYPES))
    if "enum" in schema or found & {list, dict} or not all(_of_type(t, types) for t in found):
        return False
    if not rows or not schema.keys() & _BOUNDS.keys():
        return True
    # bounds over ints alone: a NaN can make min and max miss a number
    return found == {int} and not (_breaks(min(rows), schema) or _breaks(max(rows), schema))


def _check_array(value: np.ndarray, schema: dict, path: str) -> None:
    """Refuse the numpy array `value` unless `schema` nests arrays `value.ndim`
    deep around numbers, for a float64 array, or integers, for an int64 one,
    and the list `value.tolist()` would match it: each axis holds at least
    its level's minItems, and no item breaks the items' bounds."""
    levels, leaf = [], schema
    while leaf.get("type") == "array":
        levels.append(leaf.get("minItems", 0))
        leaf = leaf.get("items", {})
    dtype = _DTYPES.get(leaf.get("type")) if isinstance(leaf.get("type"), str) else None
    if value.dtype != dtype or value.ndim != len(levels):
        want = f"a {len(levels)}-D {dtype} array" if dtype else schema.get("type", "JSON")
        raise ParameterError(f"{path or 'the document'} must be {want}, "
                             f"not a {value.ndim}-D {value.dtype} array")
    for axis, least in enumerate(levels):
        # an empty axis leaves the axes within it no items to count
        if value.shape[axis] < least and 0 not in value.shape[:axis]:
            where = path + "[0]" * axis or "the document"
            raise ParameterError(f"{where} must hold at least {least} items")
    bounds = {k: leaf[k] for k in leaf.keys() & _BOUNDS.keys()}
    broken = np.zeros(value.shape, dtype=bool)
    for k, bound in bounds.items():
        broken |= _BOUNDS[k](value, bound)
    if broken.any():
        at = np.unravel_index(broken.argmax(), value.shape)
        where = path + "".join(f"[{i}]" for i in at) or "the document"
        raise ParameterError(f"{where} is {value[at].item()!r}, out of the bounds {bounds}")


def _check(value, schema: dict, path: str) -> None:
    """Refuse `value`, at JSON path `path`, unless it matches `schema`; a
    numpy array is checked by `_check_array`."""
    where = path or "the document"
    if schema.keys() - _KEYWORDS:
        raise NotImplementedError(f"schema keywords {sorted(schema.keys() - _KEYWORDS)}")
    if isinstance(value, np.ndarray):
        return _check_array(value, schema, path)
    if "type" in schema and not _of_type(type(value), schema["type"]):
        found = next((n for n in _TYPES if _of_type(type(value), n)), type(value).__name__)
        raise ParameterError(f"{where} must be {schema['type']}, not {found}"
                             + f" {value!r}" * (found not in ("array", "object")))
    if "enum" in schema and value not in schema["enum"]:
        raise ParameterError(f"{where} must be one of {schema['enum']}, not {value!r}")
    if _of_type(type(value), "number") and _breaks(value, schema):
        bounds = {k: schema[k] for k in schema.keys() & _BOUNDS.keys()}
        raise ParameterError(f"{where} is {value!r}, out of the bounds {bounds}")
    if isinstance(value, dict):
        for key in schema.get("required", ()):
            if key not in value:
                raise ParameterError(f"{where} lacks the key {key!r}")
        for key, item in value.items():
            sub = schema.get("properties", {}).get(key, schema.get("additionalProperties", {}))
            if sub is False:
                raise ParameterError(f"{where} holds the unknown key {key!r}")
            _check(item, {} if sub is True else sub, f"{path}.{key}" if path else key)
    elif isinstance(value, list):
        if len(value) < schema.get("minItems", 0):
            raise ParameterError(f"{where} must hold at least {schema['minItems']} items")
        if "items" in schema and not _one_pass(value, schema["items"]):
            for i, item in enumerate(value):
                _check(item, schema["items"], f"{path}[{i}]")
        if schema.get("uniqueItems") and len(set(map(_encode, value))) < len(value):
            raise ParameterError(f"{where} must hold distinct items")


def validate(doc, name: str) -> None:
    """Refuse the decoded JSON `doc` with ParameterError unless it matches the
    shipped schema `name` by JSON Schema's rules, but that 2.0 is no integer."""
    _check(doc, schemas.load_schema(name), "")


def plain(obj):
    """The JSON value `obj` is written as: numpy values become lists and
    numbers, a dataclass a dict of its fields."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        obj = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {k: plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [plain(v) for v in obj]
    return obj


def write_atomic(path, dump) -> None:
    """Call `dump` on a binary file opened at `path` plus ".tmp", then move
    that file onto `path`, so a failed write leaves the old file as it was
    and no other file behind."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as f:
            dump(f)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def write(path, doc, indent=None) -> None:
    """Write `doc` to `path`, by `write_atomic`, as the UTF-8 bytes of
    `json.dumps(plain(doc), sort_keys=True)` plus a newline.  Only the
    manifest is indented."""
    text = json.dumps(plain(doc), sort_keys=True, indent=indent) + "\n"
    write_atomic(path, lambda f: f.write(text.encode("utf-8")))


def loads(data: bytes):
    """The JSON document the UTF-8 bytes `data` hold, as json.loads decodes
    their text; a BOM is refused."""
    return json.loads(data.decode("utf-8"))


def read(path, decode, schema=None, parse=loads):
    """`decode` the document `parse` makes of the bytes of the file at `path`,
    read once, so a pipe reads too; it must match the shipped schema named
    `schema`, if given.  Every malformed-file error names `path`."""
    try:
        with open(path, "rb") as f:
            doc = parse(f.read())
        if schema:
            validate(doc, schema)
        return decode(doc)
    except (ParameterError, ContractError) as e:
        raise type(e)(f"{path}: {e}") from e
    except RecursionError as e:
        raise ParameterError(f"{path}: malformed file (nested too deeply)") from e
    except (KeyError, TypeError, IndexError, ValueError, OverflowError) as e:
        raise ParameterError(f"{path}: malformed file ({type(e).__name__}: {e})") from e


def csv_path(json_path) -> str:
    """The CSV file written next to a JSON report."""
    return str(json_path).removesuffix(".json") + ".csv"


def write_csv(json_path, header, rows) -> None:
    """Write the CSV file next to the JSON report `json_path`: the `header`
    line, then one line per row, each cell as `str` gives it, every line
    ending in "\n"."""
    with open(csv_path(json_path), "w", encoding="utf-8") as f:
        f.writelines(",".join(map(str, row)) + "\n" for row in itertools.chain([header], rows))
