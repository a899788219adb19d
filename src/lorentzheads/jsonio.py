"""The on-disk JSON format of every artifact: one writer, one reader, and one
validator that checks a decoded file against its shipped schema.

`write` produces the bytes of `json.dumps(plain(doc), sort_keys=True)` plus a
newline, but encodes them in pieces with the C encoder (`json.dump` always
runs the pure-Python one): a list or array in row blocks of about `_BLOCK`
numbers, one encoder call per block, so no string ever holds more than one
block's text.  A numpy array is converted with `.tolist()` one block at a
time.
"""

import dataclasses
import itertools
import json
import math
import operator
import os

import numpy as np

from . import schemas
from .errors import ContractError, ParameterError

# json.dumps' own encoder: with indent=None it runs the C implementation
_encode = json.JSONEncoder(sort_keys=True).encode
# the numbers `write` encodes per call: 2**10 to 2**14 write a dataset about
# as fast, 2**16 and 2**17 measurably slower
_BLOCK = 2 ** 12
# each JSON type's schema name -> the Python types json decodes it to
_TYPES = {"integer": int, "number": (int, float), "string": str, "boolean": bool,
          "array": list, "object": dict, "null": type(None)}
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


def _check(value, schema: dict, path: str) -> None:
    """Refuse `value`, at JSON path `path`, unless it matches `schema`."""
    where = path or "the document"
    if schema.keys() - _KEYWORDS:
        raise NotImplementedError(f"schema keywords {sorted(schema.keys() - _KEYWORDS)}")
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
    obj = _fields(obj)
    if isinstance(obj, dict):
        return {k: plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [plain(v) for v in obj]
    return obj


def _fields(obj):
    """A dataclass instance's fields by name; any other `obj` itself."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    return obj


def _numbers(value) -> int:
    """How many numbers the JSON text of `value` holds, counting an empty
    array and a string as one: the measure of a block."""
    if isinstance(value, np.ndarray):
        return max(value.size, 1)
    value = _fields(value)
    if isinstance(value, dict):
        value = value.values()
    elif not isinstance(value, (list, tuple)):
        return 1
    return max(sum(map(_numbers, value)), 1)


def _blocks(items):
    """The (start, stop) item ranges of the list or array `items`, each as
    many items as hold at most `_BLOCK` numbers, but at least one."""
    if isinstance(items, np.ndarray):
        step = max(_BLOCK // max(math.prod(items.shape[1:]), 1), 1)
        yield from ((s, s + step) for s in range(0, len(items), step))
        return
    start, count = 0, 0
    for i, n in enumerate(map(_numbers, items)):
        if i > start and count + n > _BLOCK:
            yield start, i
            start, count = i, 0
        count += n
    if items:
        yield start, len(items)


def _pieces(value):
    """The JSON text of `value` in pieces: a dict key by key in sorted order,
    a list or array in blocks of items, each `_encode`d in one call, but an
    item of more than `_BLOCK` numbers in pieces of its own; anything else
    whole."""
    value = _fields(value)
    if isinstance(value, dict):
        yield "{"
        for i, (key, item) in enumerate(sorted(value.items())):
            # the key as json turns it into a string: '{"9": 0}'[1:-4] == '"9"'
            yield (", " if i else "") + _encode({key: 0})[1:-4] + ": "
            yield from _pieces(item)
        yield "}"
    elif isinstance(value, (list, tuple)) or isinstance(value, np.ndarray) and value.ndim:
        yield "["
        for i, (s, e) in enumerate(_blocks(value)):
            if i:
                yield ", "
            if e - s == 1 and _numbers(value[s]) > _BLOCK:
                yield from _pieces(value[s])
            else:
                # '[1, 2]'[1:-1] == '1, 2': a block's items without brackets
                yield _encode(plain(value[s:e]))[1:-1]
        yield "]"
    else:
        yield _encode(plain(value))


def write(path, doc, indent=None) -> None:
    """Write `doc` to `path` as UTF-8 with sorted keys and a trailing newline,
    each list or array in row blocks of about `_BLOCK` numbers.  The file is
    written beside `path` and then moved onto it, so a failed write leaves
    the old file as it was.  Only the manifest is indented; it is a few kB
    and goes through `json.dump`."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as f:
            if indent is None:
                f.writelines(_pieces(doc))
            else:
                json.dump(plain(doc), f, sort_keys=True, indent=indent)
            f.write("\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def read(path, decode):
    """`decode` the parsed UTF-8 file; every malformed-file error names `path`."""
    try:
        with open(path, encoding="utf-8") as f:
            return decode(json.load(f))
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
