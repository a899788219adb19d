import dataclasses
import json
import os
import re
import subprocess
import sys
import threading
import tracemalloc
from importlib.resources import files
from pathlib import Path
from unittest import mock

import jsonschema
import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from lorentzheads import data, heads, hubness, jsonio, schemas, training
from lorentzheads.errors import ContractError, ParameterError

from conftest import same_bits


@dataclasses.dataclass
class Pair:
    a: np.ndarray
    b: int


def test_write_encodes_numpy_and_dataclasses(tmp_path):
    path = tmp_path / "doc.json"
    jsonio.write(path, {"p": Pair(np.arange(2.0), 3), "n": np.int64(4), "t": np.bool_(True)})
    assert path.read_text() == '{"n": 4, "p": {"a": [0.0, 1.0], "b": 3}, "t": true}\n'


def test_write_rejects_other_objects(tmp_path):
    with pytest.raises(TypeError, match="set"):
        jsonio.write(tmp_path / "doc.json", {"s": {1}})


def _dumps(doc) -> str:
    """The reference bytes: json.dumps, which runs the C encoder in one shot."""
    return json.dumps(jsonio.plain(doc), sort_keys=True) + "\n"


_leaves = (st.none() | st.booleans() | st.floats(allow_nan=True, allow_infinity=True)
           | st.integers(-2 ** 128, 2 ** 128) | st.text())


def _containers(children):
    # one key type per dict: json.dumps cannot sort str keys against int keys
    return (st.lists(children, max_size=4)
            | st.lists(st.lists(children, max_size=4), max_size=4)
            | st.dictionaries(st.text(), children, max_size=4)
            | st.dictionaries(st.integers(-20, 20), children, max_size=4)
            | st.dictionaries(st.floats(allow_nan=True, allow_infinity=True), children,
                              max_size=4))


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=st.recursive(_leaves, _containers, max_leaves=40))
@example(doc={10: "a", 9: "b"})
@example(doc={"m": [], "e": [[], []], "r": [[1.5], [], [2, 3]], "d": [[[1, [2]], []], [[3]]]})
@example(doc={"s": "ñ \u2603 \"q\" \\ \n\t\x00 \ud800", "x": [float("nan"), 1e308 * 10,
                                                              -1e308 * 10, True, None]})
@example(doc={"rng_state": {"state": {"state": 2 ** 127 + 12345, "inc": 2 ** 128 - 1}}})
@example(doc=[[1.0, 2.0], 3, {"k": [[4]]}])
def test_write_matches_dumps(tmp_path, doc):
    path = tmp_path / "doc.json"
    jsonio.write(path, doc)
    assert path.read_text() == _dumps(doc)


def test_artifacts_match_dumps(tmp_path, monkeypatch):
    """A dataset's document, checkpoints, a metrics report and a hubness
    report are each written with the bytes json.dumps gives their document."""
    real, written = jsonio.write, []

    def checked(path, doc, indent=None):
        real(path, doc, indent)
        # checked at once: training goes on to change the saved state in place
        assert Path(path).read_text() == _dumps(doc)
        written.append(os.path.basename(path))

    monkeypatch.setattr(jsonio, "write", checked)
    ds = data.generate(num_features=8, num_super=2, num_classes=4, num_samples=600, seed=3)
    jsonio.write(tmp_path / "ds.json", ds.to_dict())
    cfg = training.ExperimentConfig(epochs=2, eval_every=1, embed_dim=8, seed=3)
    bank, _, _, _ = training.train(cfg, data.SyntheticDataset.load(tmp_path / "ds.json"),
                                   out_dir=tmp_path)
    hubness.hubness_report(bank, k=2).save(tmp_path / "hubness.json")
    assert written == ["ds.json", "checkpoint.json", "checkpoint.json", "metrics.json",
                       "hubness.json"]


def _savez_cut_short(f, **arrays):
    """np.savez that fails having written part of an archive."""
    f.write(b"PK\x03\x04")
    raise OSError("No space left on device")


@pytest.mark.parametrize("indent", [None, 2, "dataset"])
def test_failed_write_keeps_the_old_file(tmp_path, monkeypatch, indent):
    """A document that json cannot encode, or a dataset whose archive fails
    part-way, leaves the old file as it was and nothing beside it."""
    path = tmp_path / "doc.json"
    if indent == "dataset":
        ds = data.generate(num_features=8, num_super=2, num_classes=4, num_samples=600)
        ds.save(path)
        before = path.read_bytes()
        monkeypatch.setattr(np, "savez", _savez_cut_short)
        with pytest.raises(OSError, match="No space left"):
            ds.save(path)
    else:
        jsonio.write(path, {"a": 1}, indent=indent)
        before = path.read_bytes()
        with pytest.raises(TypeError, match="set"):
            jsonio.write(path, {"a": [1.0, 2.0], "z": {1}}, indent=indent)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["doc.json"]


# numbers in the lists below: thousands, as in a checkpoint's weights
_N = 4096
_LIST_DOCS = {
    # rows of 0 to 6 numbers
    "ragged": [list(range(i % 7)) for i in range(_N)],
    "nested-3d": np.arange(2 * _N * 3 + 6.0).reshape(-1, 2, 3).tolist(),
    "wide-list": np.linspace(0, 1, 3 * _N + 2).reshape(2, -1).tolist(),
    "odd-last-block": np.ones((_N // 3 + 1, 3)).tolist()[:-1]
    + [[float("nan"), float("inf"), -float("inf")], [2 ** 128, -2 ** 70, 10 ** 30]],
    "dataclass-in-list": [Pair(np.linspace(-1, 1, 3 * _N).reshape(-1, 3), 7),
                          {"x": Pair(np.zeros((2, 0)), 1)}, np.int64(5), np.float32(0.5)],
    "tuples": tuple(map(tuple, np.random.default_rng(0).normal(size=(_N // 3 + 1, 3)).tolist())),
}


@pytest.mark.parametrize("name", sorted(_LIST_DOCS))
def test_write_lists_match_dumps(tmp_path, name):
    """A list or tuple, whatever it holds, has the bytes json.dumps gives it."""
    doc = {"doc": _LIST_DOCS[name], "after": [1, [2]]}
    jsonio.write(tmp_path / "doc.json", doc)
    assert (tmp_path / "doc.json").read_text() == _dumps(doc)


def _contract(doc):
    raise ContractError("off the manifold")


@pytest.mark.parametrize("text, decode, error", [
    ("{", dict, ParameterError),                       # not JSON
    ('{"a": 1}', lambda d: d["b"], ParameterError),    # missing key
    ("[]", lambda d: d["b"], ParameterError),          # wrong type
    ('{"a": ["x"]}', lambda d: np.asarray(d["a"], dtype=float), ParameterError),
    ("{}", _contract, ContractError),                  # keeps its type
])
def test_read_names_the_file(tmp_path, text, decode, error):
    path = tmp_path / "doc.json"
    path.write_text(text)
    with pytest.raises(error, match=re.escape(str(path))):
        jsonio.read(path, decode)


def test_csv_path():
    assert jsonio.csv_path("out/report.json") == "out/report.csv"
    assert jsonio.csv_path("out/report") == "out/report.csv"


def test_write_csv_lines_end_in_newline(tmp_path):
    jsonio.write_csv(tmp_path / "r.json", ["a", "b"], [(0, 0.1), (1, "x")])
    assert (tmp_path / "r.csv").read_bytes() == b"a,b\n0,0.1\n1,x\n"


def test_package_import_skips_jsonschema(tmp_path):
    """The CLI, the schemas and a dataset load, which validates, need no jsonschema."""
    path = tmp_path / "ds.json"
    data.generate(num_features=8, num_super=2, num_classes=4, num_samples=600).save(path)
    code = ("import sys, lorentzheads.cli, lorentzheads.schemas; "
            "lorentzheads.data.SyntheticDataset.load(sys.argv[1]); "
            "sys.exit('jsonschema' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    assert subprocess.run([sys.executable, "-c", code, str(path)], env=env).returncode == 0


SCHEMA_NAMES = sorted(p.name.removesuffix(".schema.json")
                      for p in files("lorentzheads.schemas").iterdir()
                      if p.name.endswith(".schema.json"))


def _subschemas(schema: dict):
    """`schema` and every schema nested in it."""
    yield schema
    for sub in [*schema.get("properties", {}).values(), schema.get("items"),
                schema.get("additionalProperties")]:
        if isinstance(sub, dict):
            yield from _subschemas(sub)


SUBSCHEMAS = [sub for name in SCHEMA_NAMES for sub in _subschemas(schemas.load_schema(name))]


def test_shipped_schemas_use_supported_keywords():
    assert len(SCHEMA_NAMES) == 7
    assert {key for sub in SUBSCHEMAS for key in sub} <= jsonio._KEYWORDS


def test_unsupported_keyword_raises():
    schema = {"type": "object", "properties": {"a": {"type": "string", "pattern": "x"}}}
    with mock.patch.object(schemas, "load_schema", lambda name: schema):
        with pytest.raises(NotImplementedError, match="pattern"):
            jsonio.validate({"a": "x"}, "any")


def _refusal(doc, schema):
    """jsonio.validate's refusal of `doc` under `schema`: None where it takes it."""
    with mock.patch.object(schemas, "load_schema", lambda name: schema):
        try:
            jsonio.validate(doc, "any")
        except ParameterError as e:
            return str(e)
    return None


def _accepts(doc, schema) -> bool:
    """Whether jsonio.validate takes `doc` under `schema`."""
    return _refusal(doc, schema) is None


# jsonschema with its one difference from jsonio.validate taken out: an
# integer is an int, not also a float with no fraction
_IntOracle = jsonschema.validators.extend(
    jsonschema.Draft202012Validator,
    type_checker=jsonschema.Draft202012Validator.TYPE_CHECKER.redefine(
        "integer", lambda checker, v: type(v) is int))
_KEYS = sorted({k for sub in SUBSCHEMAS for k in sub.get("properties", {})} | {"x"})
_scalars = (st.none() | st.booleans() | st.integers(-3, 3) | st.integers(-2 ** 80, 2 ** 80)
            | st.just(10 ** 400) | st.floats(allow_nan=True, allow_infinity=True)
            | st.sampled_from([-1.0, -0.0, 0.0, 2.0, "frequent", "hyperbolic", "a", "a"])
            | st.text(max_size=2))
_values = st.recursive(
    _scalars | st.lists(st.lists(st.integers(-2, 2) | st.floats(), max_size=3), max_size=3),
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.sampled_from(_KEYS), children, max_size=5)),
    max_leaves=30)


@settings(max_examples=600, deadline=None)
@given(schema=st.sampled_from(SUBSCHEMAS), value=_values)
@example(schema={"type": "array", "items": {"type": "integer", "minimum": 0}},
         value=[float("nan"), -1.0])
@example(schema={"type": "array", "items": {"type": "number", "exclusiveMinimum": 0}},
         value=[float("nan"), -1.0])
@example(schema={"type": "array", "items": {"type": "array", "minItems": 1,
                                             "items": {"type": "number"}}},
         value=[[1.0], [], [True]])
def test_validate_agrees_with_jsonschema(schema, value):
    """Every schema nested in a shipped one refuses a value here exactly when
    jsonschema, integers aside, refuses it."""
    assert _accepts(value, schema) == _IntOracle(schema).is_valid(value)


def _leaf(schema: dict) -> tuple:
    """How deep `schema` nests arrays, and the schema of their items."""
    depth = 0
    while schema.get("type") == "array":
        depth, schema = depth + 1, schema.get("items", {})
    return depth, schema


# the nested schemas an array may match: arrays around numbers or integers
_ARRAY_SCHEMAS = [sub for sub in SUBSCHEMAS
                  if _leaf(sub)[0] and _leaf(sub)[1].get("type") in ("number", "integer")]
_DTYPES = {"number": (np.float64, st.floats(allow_nan=True, allow_infinity=True)
                      | st.sampled_from([-1.0, -0.0, 0.0])),
           "integer": (np.int64, st.integers(-3, 3))}


@settings(max_examples=300, deadline=None)
@given(schema=st.sampled_from(_ARRAY_SCHEMAS), data=st.data())
@example(schema={"type": "array", "items": {"type": "array", "minItems": 1,
                                             "items": {"type": "integer", "minimum": 0}}},
         data=None)
def test_array_rule_agrees_with_lists(schema, data):
    """An array of the dtype a schema's items ask for is refused exactly when
    its list is, with the same message: by shape, by minItems, also within
    an empty axis, and by bounds, which NaN breaks none of."""
    depth, leaf = _leaf(schema)
    dtype, elements = _DTYPES[leaf["type"]]
    if data is None:        # rows of no items, then no rows at all
        values = [np.zeros((2, 0), dtype), np.zeros((0, 0), dtype), np.array([[1, -1]])]
    else:
        shape = data.draw(st.lists(st.integers(0, 3), min_size=depth, max_size=depth))
        values = [data.draw(hnp.arrays(dtype, shape, elements=elements))]
    for value in values:
        assert _refusal(value, schema) == _refusal(value.tolist(), schema)
    assert "must be a" in _refusal(np.zeros((1,) * (depth + 1), dtype), schema)


def test_integral_float_is_no_integer():
    """The one intended difference: JSON Schema reads a seed of 2.0 as the
    integer 2, jsonio.validate refuses it as the decoders always have."""
    ds = data.generate(num_features=8, num_super=2, num_classes=4, num_samples=600)
    doc = {**jsonio.plain(ds.to_dict()), "seed": 2.0}
    jsonschema.validate(doc, schemas.load_schema("dataset"))
    with pytest.raises(ParameterError, match=re.escape("seed must be integer, not number 2.0")):
        jsonio.validate(doc, "dataset")


@pytest.mark.parametrize("edit, message", [
    (lambda d: d["features"][3].__setitem__(1, True), "features[3][1] must be number, not boolean"),
    (lambda d: d["labels"].__setitem__(7, -2), "labels[7] is -2, out of the bounds"),
    (lambda d: d["tree"].update(depth=2), "tree holds the unknown key 'depth'"),
    (lambda d: d["splits"].pop("val"), "splits lacks the key 'val'"),
    (lambda d: d.update(buckets={"leaf_0": "rarest"}), "buckets.leaf_0 must be one of"),
    (lambda d: d["tree"]["leaf_classes"].__setitem__(1, "leaf_0"),
     "tree.leaf_classes must hold distinct items"),
    (lambda d: d["features"].__setitem__(2, []), "features[2] must hold at least 1 items"),
])
def test_refusal_names_the_path(edit, message):
    doc = jsonio.plain(data.generate(num_features=8, num_super=2, num_classes=4,
                                     num_samples=600).to_dict())
    edit(doc)
    with pytest.raises(ParameterError, match=re.escape(message)):
        jsonio.validate(doc, "dataset")


# -- the reader


def _json_load(path, decode):
    """`decode` of json.load's document of the file at `path`, its errors
    wrapped as `read` wraps them: what a load of a JSON file must match."""
    return jsonio.read(path, decode, parse=lambda raw: json.loads(raw.decode("utf-8")))


def _outcome(call):
    """('ok', the result) or (the exception's type, its message)."""
    try:
        return "ok", call()
    except (ParameterError, ContractError) as e:
        return type(e), str(e)


def _fields(obj) -> dict:
    """A loaded dataset's or bank's fields, each array as its int64 view, so
    equal fields hold the same bits."""
    out = {}
    for key, value in vars(obj).items():
        if isinstance(value, np.ndarray):
            bits = np.ascontiguousarray(value).view(np.int64) if value.dtype == np.float64 else value
            value = (value.shape, value.dtype.str, bits.tolist())
        elif dataclasses.is_dataclass(value):
            value = vars(value)
        out[key] = repr(value)
    return out


# the file kinds that hold a number matrix: (class, matrix member)
_KINDS = {"dataset": (data.SyntheticDataset, "features"),
          "bank": (heads.PrototypeBank, "prototypes")}


def _document(path, kind: str, rows: int, width: int = 16) -> dict:
    """The JSON document of a valid dataset or Euclidean bank whose matrix has
    `rows` rows of `width` numbers, written to `path` by `jsonio.write`."""
    if kind == "dataset":
        obj = data.generate(num_features=width, num_samples=rows, num_classes=2, num_super=2,
                            background_fraction=0.0, seed=rows)
    else:
        obj = heads.PrototypeBank(
            heads.MODE_LINEAR, np.random.default_rng(rows).normal(size=(rows, width)),
            [f"c{i}" for i in range(rows)])
    doc = jsonio.plain(obj.to_dict())
    jsonio.write(path, doc)
    return doc


def _save(path, doc, form: str) -> None:
    """`doc` as the package writes it, or re-indented by json.dump(indent=1)
    with LF or CRLF line ends."""
    if form == "package":
        jsonio.write(path, doc)
    else:
        with open(path, "w", encoding="utf-8", newline="\r\n" if form == "crlf" else "\n") as f:
            json.dump(doc, f, indent=1)


def _assert_parity(path, kind: str) -> tuple:
    """Load `path` as the package does and as json.load + from_dict did:
    the same fields bit for bit, or the same refusal."""
    cls, _ = _KINDS[kind]
    new, old = _outcome(lambda: cls.load(path)), _outcome(lambda: _json_load(path, cls.from_dict))
    if new[0] == old[0] == "ok":
        assert _fields(new[1]) == _fields(old[1])
    else:
        assert new == old
    return new


_FORMS = ["package", "indent", "crlf"]


@pytest.mark.parametrize("kind", sorted(_KINDS))
@pytest.mark.parametrize("form", _FORMS)
@pytest.mark.parametrize("blocks", [1, 2])
@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_read_matches_json_load(tmp_path, kind, form, blocks, offset):
    """Matrices of 255 to 513 rows, as the package writes them or re-indented
    with LF or CRLF line ends, load as json.load + from_dict gave."""
    rows = blocks * 256 + offset
    path = tmp_path / "doc.json"
    _save(path, _document(path, kind, rows), form)
    assert _assert_parity(path, kind)[0] == "ok"


def _garble(doc, member, row, fault):
    """`doc` with `fault` put into row `row` of its matrix `member`."""
    matrix = doc[member]
    if fault == "short":
        matrix[row].pop()
    elif fault == "ragged-tail":        # every row from `row` on one number short
        for r in matrix[row:]:
            r.pop()
    else:
        matrix[row][0] = {"string": "1.5", "bool": True, "huge": 10 ** 400, "nan": float("nan"),
                          "syntax": "@@"}[fault]
    return doc


# the text the "syntax" fault's marker becomes: a missing comma, a bad
# number, a missing value
_SYNTAX = ["1.5 2.5", "1.5.5", ""]
_FAULTS = ["string", "bool", "huge", "nan", "short", "ragged-tail", "syntax"]


@pytest.mark.parametrize("kind", sorted(_KINDS))
@pytest.mark.parametrize("form", _FORMS)
@pytest.mark.parametrize("fault", _FAULTS)
@pytest.mark.parametrize("where", ["first", "second-block", "last"])
def test_read_refuses_as_json_load(tmp_path, kind, form, fault, where):
    """A string, a bool, an integer beyond the float range, a NaN, a short
    row, rows narrower from one on, or a syntax error, at row 0, at row 256
    of 513 or at the last row, in a file as the package writes it or
    re-indented with LF or CRLF line ends: the file is refused as json.load +
    from_dict refused it, naming the file and, for a mistyped number, its
    JSON path."""
    member, rows = _KINDS[kind][1], 513
    row = {"first": 0, "second-block": 256, "last": rows - 1}[where]
    path = tmp_path / "doc.json"
    _save(path, _garble(_document(path, kind, rows), member, row, fault), form)
    texts = [path.read_bytes()]
    if fault == "syntax":
        texts = [texts[0].replace(b'"@@"', s.encode()) for s in _SYNTAX]
    for text in texts:
        path.write_bytes(text)
        status, message = _assert_parity(path, kind)
        # rows all one number short from row 0 on are a narrower matrix
        if (fault, row) == ("ragged-tail", 0):
            continue
        assert status != "ok" and message.startswith(f"{path}: ")
        if fault in ("string", "bool"):
            assert f"{member}[{row}][0] must be number" in message


_EDGE_TEXTS = [
    "﻿{}",  # a UTF-8 BOM
    "{} {}", "{}x", "[]", "[" * 200000, "", " ", "{", '{"a"', '{"a" 1}', '{"a": }',
    '{"a": 1 "b": 2}', '{"a": 1,}', '{"a": 1, }', "{,}", '{"a": [[1, 2], [3 4]]}',
    '{"features": [], "prototypes": []}', '{"features": [1, 2], "prototypes": "x"}',
    '{"features": [[1e400, -1e400, NaN, Infinity, -Infinity]]}',
    '{"features": [[1, 2]], "features": [[3, 4]]}',
    '{"prototypes": [["x"]], "prototypes": [[1], [2]]}',
    '{"features": [["x"]] "x": 1}', '{"features": [[1]]]}', '{"features": [[1], [2]',
    '{"features": [[1], [[2]]]}', '{"features": [[1], [[2]], [3]]}', '{"features": [[1],\t[2]]}',
    '{"features": [[1], [2],]}', '{"features": [[1], ["]", 2]]}', '{"features": [[1], ["[", 2]]}',
    '{"features": [[1], [2]\f]}', '{"features": [[1],\f[2]]}', '{"features":[[1],[2]]}',
    '{"features": [[1], [2],', '{"features": [[1], [2], ', '{"features": [[1],',
    '{"features": [[1], [2]], "x": [[3], [4]]}', '{"features": [[1], [2]], "x": [3, [4]]}',
]


@pytest.mark.parametrize("kind", sorted(_KINDS))
@pytest.mark.parametrize("text", _EDGE_TEXTS)
def test_read_edge_documents(tmp_path, kind, text):
    """Hand-written documents: BOM, trailing data, non-objects, nesting too
    deep for the decoder, syntax errors around and inside a matrix, empty
    and flat matrices, the NaN/Infinity tokens and duplicate keys (the last
    wins) decode or are refused as json.load + from_dict did."""
    path = tmp_path / "doc.json"
    path.write_text(text, encoding="utf-8")
    _assert_parity(path, kind)


def test_read_duplicate_key_last_wins(tmp_path):
    """A duplicate features member: the last one's rows are the dataset's,
    though the first is no number matrix."""
    path = tmp_path / "ds.json"
    _document(path, "dataset", 300)
    text = path.read_text()
    path.write_text('{"features": [["x"]], "features": [[1.0], [2.0]], ' + text[1:])
    assert _assert_parity(path, "dataset")[0] == "ok"
    path.write_text(text[:-2] + ', "features": [[1.0], ["x"]]}\n')
    assert "features[1][0] must be number" in _assert_parity(path, "dataset")[1]


def _piped(path, text: str, call):
    """call() while a thread writes `text` into the FIFO at `path`."""
    writer = threading.Thread(target=path.write_text, args=(text,),
                              kwargs={"encoding": "utf-8"}, daemon=True)
    writer.start()
    try:
        return call()
    finally:
        writer.join(timeout=10)


@pytest.mark.parametrize("kind", sorted(_KINDS))
@pytest.mark.parametrize("fault", [None, "cut", "bom"])
def test_read_pipe_as_json_load(tmp_path, kind, fault):
    """A file read from a pipe, which cannot be read again, is read once: a
    valid one loads as json.load + from_dict gave, and one cut inside its
    matrix or opening with a BOM is refused as they refused it, with json's
    message."""
    path = tmp_path / "pipe"
    text = json.dumps(_document(tmp_path / "doc.json", kind, 300))
    text = {None: text, "cut": text[:len(text) // 2], "bom": "﻿" + text}[fault]
    os.mkfifo(path)
    cls = _KINDS[kind][0]
    new = _piped(path, text, lambda: _outcome(lambda: cls.load(path)))
    old = _piped(path, text, lambda: _outcome(lambda: _json_load(path, cls.from_dict)))
    if fault is None:
        assert new[0] == old[0] == "ok" and _fields(new[1]) == _fields(old[1])
    else:
        assert new == old and f"{path}: malformed file (JSONDecodeError: " in new[1]


def test_read_keeps_every_bit(tmp_path):
    """Signed zeros, subnormals, the largest float and integers that round:
    a JSON dataset holds json.load's numbers converted by numpy, and its npz
    copy the same bits."""
    values = [-0.0, 0.0, 5e-324, -2.2e-308, 2 ** 53 + 1, -(2 ** 64) - 1, 10 ** 308,
              1.7976931348623157e308, 0.1, 7]
    ds = data.generate(num_features=len(values), num_samples=600, num_classes=4, num_super=2)
    matrix = [values[i % 10:] + values[:i % 10] for i in range(600)]
    jsonio.write(tmp_path / "ds.json", {**ds.to_dict(), "features": matrix})
    from_json = data.SyntheticDataset.load(tmp_path / "ds.json")
    from_json.save(tmp_path / "ds.npz")
    from_npz = data.SyntheticDataset.load(tmp_path / "ds.npz")
    want = np.asarray(matrix, dtype=np.float64)
    assert same_bits(from_json.features, want) and same_bits(from_npz.features, want)
    assert _fields(from_json) == _fields(from_npz)


def test_dataset_load_peak_memory(tmp_path):
    """Loading the 8000 x 16 dataset holds the file's bytes, the arrays
    decoded from them and numpy's 256 KiB read chunks, and little else: peak
    memory stays below 2.5 times the arrays' own bytes (2.36 measured)."""
    path = tmp_path / "ds.json"
    ds = data.generate(num_samples=8000, num_features=16, seed=0)
    ds.save(path)
    nbytes = sum(a.nbytes for a in (ds.features, ds.labels, ds.train_idx, ds.val_idx))
    tracemalloc.start()
    try:
        data.SyntheticDataset.load(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * nbytes


def _arrays(ds) -> dict:
    """`ds`'s document with copies of its arrays, to edit in place."""
    doc = ds.to_dict()
    return {**doc, "features": doc["features"].copy(), "labels": doc["labels"].copy(),
            "splits": {k: v.copy() for k, v in doc["splits"].items()}}


@pytest.mark.parametrize("edit, error, message", [
    (lambda d: d, None, None),
    (lambda d: d.update(features=d["features"][:, :0]), ParameterError,
     "features[0] must hold at least 1 items"),
    (lambda d: d.update(features=d["features"].astype(np.float32)), ParameterError,
     "features must be a 2-D float64 array, not a 2-D float32 array"),
    (lambda d: d.update(features=d["features"][:, 0]), ParameterError,
     "features must be a 2-D float64 array, not a 1-D float64 array"),
    (lambda d: d.update(features=d["features"].astype(str)), ParameterError,
     "features must be a 2-D float64 array, not a 2-D <U"),
    (lambda d: d.update(labels=d["labels"].astype(np.float64)), ParameterError,
     "labels must be a 1-D int64 array, not a 1-D float64 array"),
    (lambda d: d["labels"].__setitem__(7, -2), ParameterError,
     "labels[7] is -2, out of the bounds {'minimum': -1}"),
    (lambda d: d["splits"]["train"].__setitem__(3, -1), ParameterError,
     "splits.train[3] is -1, out of the bounds {'minimum': 0}"),
    (lambda d: d["splits"].update(val=d["splits"]["val"][:0]), ParameterError,
     "splits.val must hold at least 1 items"),
    (lambda d: d["tree"].update(parents=np.asarray(d["tree"]["parents"], dtype=float)),
     ParameterError, "tree.parents must be a 1-D int64 array, not a 1-D float64 array"),
])
def test_check_takes_a_float64_matrix(edit, error, message):
    """from_dict takes a dataset's float64 features and int64 labels and
    split indices as arrays, as it takes their lists: an array matches an
    array-of-number or array-of-integer schema by dtype, by ndim, by each
    axis's minItems and by the bounds over its min and max."""
    ds = data.generate(num_features=8, num_super=2, num_classes=4, num_samples=600)
    listed, doc = jsonio.plain(ds.to_dict()), _arrays(ds)
    edit(doc)
    if error is None:
        assert (_fields(data.SyntheticDataset.from_dict(doc))
                == _fields(data.SyntheticDataset.from_dict(listed)))
    else:
        with pytest.raises(error, match=re.escape(message)):
            data.SyntheticDataset.from_dict(doc)
    bank = {"mode": heads.MODE_LINEAR, "class_names": ["a", "b"], "delta": 1.0, "frozen": False,
            "prototypes": np.zeros((1, 3))}
    with pytest.raises(ParameterError, match="prototypes must hold at least 2 items"):
        heads.PrototypeBank.from_dict(bank)


def _top_level_checks(monkeypatch) -> list:
    """The schema names whole documents are checked against, call by call."""
    names = {id(schemas.load_schema(n)): n for n in SCHEMA_NAMES}
    real, seen = jsonio._check, []

    def check(value, schema, path):
        if not path:
            seen.append(names.get(id(schema), "other"))
        real(value, schema, path)

    monkeypatch.setattr(jsonio, "_check", check)
    return seen


def test_each_document_checked_once(tmp_path, monkeypatch):
    """Every path that decodes or builds a document checks it against its
    schema once: files, in-memory dicts, dataclasses.replace and a
    checkpoint's nested config and bank."""
    ds = data.generate(num_features=8, num_super=2, num_classes=4, num_samples=600, seed=3)
    ds.save(tmp_path / "ds.json")
    cfg = training.ExperimentConfig(epochs=1, embed_dim=8, seed=3)
    (tmp_path / "cfg.json").write_text(json.dumps(cfg.to_dict()))
    training.train(cfg, ds, out_dir=tmp_path)
    bank = training.load_checkpoint(tmp_path / "checkpoint.json").bank
    bank.save(tmp_path / "bank.json")
    calls = {
        "dataset-file": (lambda: data.SyntheticDataset.load(tmp_path / "ds.json"), ["dataset"]),
        "dataset-dict": (lambda: data.SyntheticDataset.from_dict(jsonio.plain(ds.to_dict())),
                         ["dataset"]),
        "dataset-arrays": (lambda: data.SyntheticDataset.from_dict(ds.to_dict()), ["dataset"]),
        "bank-file": (lambda: heads.PrototypeBank.load(tmp_path / "bank.json"),
                      ["prototype_bank"]),
        "bank-dict": (lambda: heads.PrototypeBank.from_dict(bank.to_dict()), ["prototype_bank"]),
        "config-file": (lambda: training.ExperimentConfig.load(tmp_path / "cfg.json"),
                        ["config"]),
        "config-dict": (lambda: training.ExperimentConfig.from_dict(cfg.to_dict()), ["config"]),
        "config-replace": (lambda: dataclasses.replace(cfg, head_mode=heads.MODE_LINEAR),
                           ["config"]),
        "checkpoint": (lambda: training.load_checkpoint(tmp_path / "checkpoint.json"),
                       ["checkpoint", "config", "prototype_bank"]),
    }
    for name, (call, expected) in calls.items():
        seen = _top_level_checks(monkeypatch)
        call()
        assert seen == expected, name
