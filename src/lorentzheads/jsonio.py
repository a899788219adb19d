"""The on-disk JSON format of every artifact: one writer, one reader, and one
validator that checks a decoded file against its shipped schema.

`write` produces the bytes of `json.dumps(plain(doc), sort_keys=True)` plus a
newline, but encodes them in pieces with the C encoder (`json.dump` always
runs the pure-Python one): a numpy array in row blocks of at most `_BLOCK`
numbers, a wider row split within itself, each block converted with
`.tolist()` and encoded in one call, so no string ever holds more than one
block of an array's text; any other value, a list included, in one call,
since every member that grows with the data is an array.

`read` gives what json.load gives, but that it decodes each top-level member
the file's schema declares an array of number arrays into a float64 matrix,
one block of rows per C-decoder call, checked against the schema's row
schema and converted by numpy as it is decoded.  It walks such a file's
top-level object itself through a window of its text, filled `_WINDOW`
characters per read and dropping what it has walked past, so the file's
whole text is never held; every other member takes one `raw_decode` call
once the window holds all of it.  A file whose schema declares no matrix is
decoded in one call, as is a pipe, which cannot be read again.  Where the
walker meets anything else, a malformed object or a matrix that is not rows
of numbers of one width, `read` decodes the file whole instead, so it is
refused as json.load and the schema check refused it.
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
# the C decoder json.loads runs, and the JSON whitespace it skips
_decoder = json.JSONDecoder()
_ws = json.decoder.WHITESPACE.match
# the numbers `write` encodes, and `read` decodes, per call: 2**10 to 2**14
# write a dataset about as fast, 2**16 and 2**17 measurably slower
_BLOCK = 2 ** 12
# the characters `read` asks the file for per call as its window advances
_WINDOW = 2 ** 16
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


def _is_matrix(schema: dict) -> bool:
    """Whether `schema` declares an array of arrays of numbers, which `read`
    decodes to a float64 matrix: one that only row counts can break."""
    rows = schema.get("items", {})
    return (schema.get("type") == "array" and rows.get("type") == "array"
            and rows.get("items") == {"type": "number"}
            and schema.keys() | rows.keys() <= {"type", "items", "minItems"})


def _check(value, schema: dict, path: str) -> None:
    """Refuse `value`, at JSON path `path`, unless it matches `schema`.  A 2-D
    float64 array matches an array-of-number-arrays schema as the list of its
    rows would: its row 0 stands for every row."""
    where = path or "the document"
    if schema.keys() - _KEYWORDS:
        raise NotImplementedError(f"schema keywords {sorted(schema.keys() - _KEYWORDS)}")
    matrix = (isinstance(value, np.ndarray) and value.ndim == 2 and value.dtype == np.float64
              and _is_matrix(schema))
    if "type" in schema and not (matrix or _of_type(type(value), schema["type"])):
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
    elif isinstance(value, list) or matrix:
        if len(value) < schema.get("minItems", 0):
            raise ParameterError(f"{where} must hold at least {schema['minItems']} items")
        if matrix:
            value = value[:1].tolist()
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


def _pieces(value):
    """The JSON text of `value` in pieces: a dict key by key in sorted order,
    an array in blocks of rows of at most `_BLOCK` numbers, each `_encode`d in
    one call, but a row of more than `_BLOCK` numbers in pieces of its own;
    anything else, a list included, in one call."""
    value = _fields(value)
    if isinstance(value, dict):
        yield "{"
        for i, (key, item) in enumerate(sorted(value.items())):
            # the key as json turns it into a string: '{"9": 0}'[1:-4] == '"9"'
            yield (", " if i else "") + _encode({key: 0})[1:-4] + ": "
            yield from _pieces(item)
        yield "}"
    elif isinstance(value, np.ndarray) and value.ndim:
        width = math.prod(value.shape[1:])
        step = max(_BLOCK // max(width, 1), 1)
        yield "["
        for s in range(0, len(value), step):
            if s:
                yield ", "
            if width > _BLOCK:
                yield from _pieces(value[s])
            else:
                # '[1, 2]'[1:-1] == '1, 2': a block's rows without brackets
                yield _encode(value[s:s + step].tolist())[1:-1]
        yield "]"
    else:
        yield _encode(plain(value))


def write(path, doc, indent=None) -> None:
    """Write `doc` to `path` as UTF-8 with sorted keys and a trailing newline,
    each numpy array in row blocks of at most `_BLOCK` numbers.  The file is
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


class _GiveUp(Exception):
    """The window walker met text it does not walk: `read` decodes the file
    whole instead."""


class _Window:
    """The open text file `f` as the walker sees it: `s[i:]` is text read
    and not yet walked past, `eof` whether the file has no more."""

    def __init__(self, f):
        self.f, self.s, self.i, self.eof = f, "", 0, False

    def fill(self, n: int) -> None:
        """Read `_WINDOW` characters at a time until `s[i:]` holds `n` or the
        file ends; the text walked past is dropped."""
        parts = [self.s[self.i:]]
        have = len(parts[0])
        while have < n and not self.eof:
            parts.append(self.f.read(_WINDOW))
            have += len(parts[-1])
            self.eof = not parts[-1]
        self.s, self.i = "".join(parts), 0

    def more(self) -> None:
        """Read on until `s[i:]` is twice as long, or give up at the end of
        the file: text that did not decode may be cut short by the window."""
        if self.eof:
            raise _GiveUp
        self.fill(2 * (len(self.s) - self.i) + 1)

    def next(self, skip: int = 0) -> str:
        """The character after `skip` more and then any JSON whitespace, which
        is walked past; "" at the end of the file."""
        self.i += skip
        while True:
            self.i = _ws(self.s, self.i).end()
            if self.i < len(self.s) or self.eof:
                return self.s[self.i:self.i + 1]
            self.fill(1)

    def take(self, decode, ends: str = ""):
        """The value `decode(s, i)` gives, once the window holds all of it:
        with `ends`, only once one of those characters follows it, since a
        number cut short by the window decodes too."""
        while True:
            try:
                value, end = decode(self.s, self.i)
            except (ValueError, RecursionError):
                pass
            else:
                j = _ws(self.s, end).end()
                if not ends or j < len(self.s) and self.s[j] in ends:
                    self.i = end
                    return value
            self.more()


def _walk(w: _Window, matrices: dict) -> dict:
    """The top-level object of `w`'s file, as json.load decodes it, but that
    each member named in `matrices`, the row schemas of the
    array-of-number-arrays members, is a float64 matrix decoded by `_rows`;
    any other member is decoded by one `raw_decode` call once the window
    holds all of it.  A later duplicate key wins, as in json.  Raises
    _GiveUp where the text is not such an object."""
    if w.next() != "{":
        raise _GiveUp
    doc, c = {}, w.next(1)
    while c != "}" or doc:          # a "}" after a "," ends no member: give up
        if c != '"':
            raise _GiveUp
        key = w.take(lambda s, i: json.decoder.scanstring(s, i + 1))
        if w.next() != ":":
            raise _GiveUp
        w.next(1)
        doc[key] = _rows(w, matrices[key]) if key in matrices else w.take(_decoder.raw_decode, ",}")
        c = w.next()
        if c == "}":
            break
        if c != ",":
            raise _GiveUp
        c = w.next(1)
    if w.next(1):           # more than whitespace after the object
        raise _GiveUp
    return doc


def _rows(w: _Window, row_schema: dict) -> np.ndarray:
    """The number matrix at `w`'s place, decoded in row blocks of about
    `_BLOCK` numbers, one `raw_decode` call and one `np.asarray` each, and
    joined once it ends.  A block ends at the last row that starts within
    9/10 of the block's estimated text length, the shortest mean row length
    seen so far times the rows a block holds, and the window is filled to
    that length first.  Gives up where a block is not rows of numbers
    matching `row_schema` and as wide as the first block's, or is no JSON."""
    if w.next() != "[" or w.next(1) != "[":
        raise _GiveUp
    while (first := w.s.find("]", w.i)) < 0:
        w.more()
    rows_per_block = max(_BLOCK // (w.s.count(",", w.i, first) + 1), 1)
    row_chars = first + 1 - w.i
    blocks = []
    while True:
        n = rows_per_block * row_chars
        w.fill(n)
        s, i = w.s, w.i
        # a row starts at s[i]; a block is at least that row
        q = s.rfind("[", i + 1, i + n * 9 // 10)
        if q < 0:
            q = s.find("[", i + 1)
        piece = (s[i:q] if q >= 0 else s[i:]).rstrip(" \t\n\r")
        cut = q >= 0 and piece.endswith(",")     # rows, and maybe more rows from s[q]
        text = "[" + (piece[:-1] + "]" if cut else piece)
        try:
            rows, end = _decoder.raw_decode(text)
            block = np.asarray(rows, dtype=np.float64) if _one_pass(rows, row_schema) else None
        except (ValueError, OverflowError, RecursionError):
            if q >= 0:      # no more text changes what lies before s[q]
                raise _GiveUp from None
            w.more()        # the window may cut the last rows short
            continue
        if block is None or blocks and block.shape[1] != blocks[0].shape[1]:
            raise _GiveUp
        blocks.append(block)
        if not (cut and end == len(text)):      # the matrix's own "]" ended it
            w.i = i - 1 + end
            return np.concatenate(blocks)
        row_chars = min(row_chars, (q - i) // len(rows))
        w.i = q


def _load(path, matrices: dict):
    """The JSON document at `path`, walked through a window when its schema
    declares `matrices`; a file with none, one that cannot be read again (a
    pipe), or one the walker gives up on, is decoded whole by json.loads,
    which refuses a malformed file with the running Python's message."""
    with open(path, encoding="utf-8") as f:
        if matrices and f.seekable():
            try:
                return _walk(_Window(f), matrices)
            except (_GiveUp, UnicodeDecodeError):
                f.seek(0)
        return json.loads(f.read())


def read(path, decode, schema=None):
    """`decode` the UTF-8 JSON file at `path`, which must match the shipped
    schema named `schema`, if given; every malformed-file error names `path`.
    The file decodes to what json.load gives, but that each member the schema
    declares an array of number arrays is a float64 matrix, decoded a row
    block at a time from a window of the file and checked as it is decoded:
    neither the file's whole text, unless the file is a pipe, nor the matrix
    as a tree of Python floats is ever held."""
    try:
        schema = schemas.load_schema(schema) if schema else None
        matrices = {k: sub["items"] for k, sub in (schema or {}).get("properties", {}).items()
                    if _is_matrix(sub)}
        doc = _load(path, matrices)
        if schema:
            _check(doc, schema, "")
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
