import contextlib
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

from lorentzheads import data, heads, hubness, jsonio, schemas, training
from lorentzheads.errors import ContractError, ParameterError


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
    """A dataset, checkpoints, a metrics report and a hubness report are
    each written with the bytes json.dumps gives their document."""
    real, written = jsonio.write, []

    def checked(path, doc, indent=None):
        real(path, doc, indent)
        # checked at once: training goes on to change the saved state in place
        assert Path(path).read_text() == _dumps(doc)
        written.append(os.path.basename(path))

    monkeypatch.setattr(jsonio, "write", checked)
    ds = data.generate(num_features=8, num_super=2, num_classes=4, num_samples=600, seed=3)
    ds.save(tmp_path / "ds.json")
    cfg = training.ExperimentConfig(epochs=2, eval_every=1, embed_dim=8, seed=3)
    bank, _, _, _ = training.train(cfg, data.SyntheticDataset.load(tmp_path / "ds.json"),
                                   out_dir=tmp_path)
    hubness.hubness_report(bank, k=2).save(tmp_path / "hubness.json")
    assert written == ["ds.json", "checkpoint.json", "checkpoint.json", "metrics.json",
                       "hubness.json"]


@pytest.mark.parametrize("indent", [None, 2])
def test_failed_write_keeps_the_old_file(tmp_path, indent):
    path = tmp_path / "doc.json"
    jsonio.write(path, {"a": 1}, indent=indent)
    before = path.read_bytes()
    with pytest.raises(TypeError, match="set"):
        jsonio.write(path, {"a": [1.0, 2.0], "z": {1}}, indent=indent)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["doc.json"]


def test_dataset_save_streams_rows(tmp_path):
    """Peak memory stays near the converted document: no string holds the
    whole 8000 x 16 feature matrix's text."""
    ds = data.generate(num_samples=8000, num_features=16, seed=0)
    path = tmp_path / "ds.json"
    tracemalloc.start()
    try:
        ds.save(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * os.path.getsize(path)


def _spied_write(monkeypatch, path, doc, bound=None):
    """jsonio.write, failing if one piece written to the file holds more than
    `bound` numbers, a block's by default.  A block of n numbers, or of n
    empty rows, has n - 1 commas; none of the documents below holds a string
    with a comma."""
    real_open, bound = open, bound or jsonio._BLOCK

    def spy_open(*args, **kwargs):
        f = real_open(*args, **kwargs)
        write = f.write

        def writelines(pieces):
            for piece in pieces:
                assert piece.count(",") < bound, piece[:80]
                write(piece)

        f.writelines = writelines
        return f

    monkeypatch.setattr(jsonio, "open", spy_open, raising=False)
    jsonio.write(path, doc)


def _rows_per_block(width: int) -> int:
    return jsonio._BLOCK // max(width, 1)


@pytest.mark.parametrize("width", [0, 1, 3, 16, 17])
@pytest.mark.parametrize("offset", [-1, 0, 1, "2k+1"])
def test_write_block_boundaries(tmp_path, monkeypatch, width, offset):
    """Matrices of one row short of a block, a block, one row past it and two
    blocks and a row, 1-D alongside, equal json.dumps."""
    k = _rows_per_block(width)
    rows = 2 * k + 1 if offset == "2k+1" else k + offset
    matrix = np.random.default_rng(width).normal(size=(rows, width))
    vector = np.arange(jsonio._BLOCK + offset if offset != "2k+1" else 2 * jsonio._BLOCK + 1)
    doc = {"m": matrix, "v": vector}
    _spied_write(monkeypatch, tmp_path / "doc.json", doc)
    assert (tmp_path / "doc.json").read_text() == _dumps(doc)


_ROWS = _rows_per_block(3)
_ODD_DOCS = {
    "array-3d": np.arange(2 * jsonio._BLOCK * 3 + 6.0).reshape(-1, 2, 3) / 7,
    # rows wider than a block are split within the row
    "wide": np.linspace(0, 1, 3 * jsonio._BLOCK + 2).reshape(2, -1),
    "wide-3d": np.linspace(0, 1, 4 * jsonio._BLOCK + 4).reshape(2, 2, -1),
    "empty-rows": np.zeros((2 * jsonio._BLOCK + 1, 0)),
}


@pytest.mark.parametrize("name", sorted(_ODD_DOCS))
def test_write_blocks_odd_documents(tmp_path, monkeypatch, name):
    doc = {"doc": _ODD_DOCS[name], "after": [1, [2]]}
    _spied_write(monkeypatch, tmp_path / "doc.json", doc)
    assert (tmp_path / "doc.json").read_text() == _dumps(doc)


_LIST_DOCS = {
    # rows of 0 to 6 numbers
    "ragged": [list(range(i % 7)) for i in range(3 * _ROWS)],
    "nested-3d": np.arange(2 * jsonio._BLOCK * 3 + 6.0).reshape(-1, 2, 3).tolist(),
    "wide-list": np.linspace(0, 1, 3 * jsonio._BLOCK + 2).reshape(2, -1).tolist(),
    "odd-last-block": np.ones((_ROWS + 1, 3)).tolist()[:-1]
    + [[float("nan"), float("inf"), -float("inf")], [2 ** 128, -2 ** 70, 10 ** 30]],
    "dataclass-in-list": [Pair(np.linspace(-1, 1, 3 * jsonio._BLOCK).reshape(-1, 3), 7),
                          {"x": Pair(np.zeros((2, 0)), 1)}, np.int64(5), np.float32(0.5)],
    "tuples": tuple(map(tuple, np.random.default_rng(0).normal(size=(_ROWS + 1, 3)).tolist())),
}


@pytest.mark.parametrize("name", sorted(_LIST_DOCS))
def test_write_lists_match_dumps(tmp_path, name):
    """A list or tuple, which `write` encodes in one call, whatever it holds,
    has the bytes json.dumps gives it."""
    doc = {"doc": _LIST_DOCS[name], "after": [1, [2]]}
    jsonio.write(tmp_path / "doc.json", doc)
    assert (tmp_path / "doc.json").read_text() == _dumps(doc)


def test_write_spy_catches_a_whole_matrix(tmp_path, monkeypatch):
    """The spy above fails a writer that encodes a matrix in one call: one
    whose blocks are larger than the bound the spy checks."""
    doc = {"m": np.zeros((jsonio._BLOCK, 2))}
    bound = jsonio._BLOCK
    monkeypatch.setattr(jsonio, "_BLOCK", 2 * bound)
    with pytest.raises(AssertionError):
        _spied_write(monkeypatch, tmp_path / "doc.json", doc, bound)


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


def _accepts(doc, schema) -> bool:
    """Whether jsonio.validate takes `doc` under `schema`."""
    with mock.patch.object(schemas, "load_schema", lambda name: schema):
        try:
            jsonio.validate(doc, "any")
        except ParameterError:
            return False
    return True


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


def test_integral_float_is_no_integer(tmp_path):
    """The one intended difference: JSON Schema reads a seed of 2.0 as the
    integer 2, jsonio.validate refuses it as the decoders always have."""
    data.generate(num_features=8, num_super=2, num_classes=4, num_samples=600).save(
        tmp_path / "ds.json")
    doc = {**json.loads((tmp_path / "ds.json").read_text()), "seed": 2.0}
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
def test_refusal_names_the_path(tmp_path, edit, message):
    data.generate(num_features=8, num_super=2, num_classes=4, num_samples=600).save(
        tmp_path / "ds.json")
    doc = json.loads((tmp_path / "ds.json").read_text())
    edit(doc)
    with pytest.raises(ParameterError, match=re.escape(message)):
        jsonio.validate(doc, "dataset")


# -- the block reader ---------------------------------------------------------


def _whole(path, matrices):
    """json.loads of the whole text of the file at `path`."""
    with open(path, encoding="utf-8") as f:
        return json.loads(f.read())


def _json_load(path, decode):
    """What `jsonio.read(path, decode)` gave before it decoded matrices in
    blocks: `decode` of json.load's document, errors wrapped as read wraps them."""
    with mock.patch.object(jsonio, "_load", _whole):
        return jsonio.read(path, decode)


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


# the two file kinds whose members `read` decodes in blocks: (class, matrix member)
_KINDS = {"dataset": (data.SyntheticDataset, "features"),
          "bank": (heads.PrototypeBank, "prototypes")}


def _document(path, kind: str, rows: int, width: int = 16) -> dict:
    """The document of a valid dataset or Euclidean bank whose matrix has
    `rows` rows of `width` numbers, as saved to `path`."""
    if kind == "dataset":
        obj = data.generate(num_features=width, num_samples=rows, num_classes=2, num_super=2,
                            background_fraction=0.0, seed=rows)
    else:
        obj = heads.PrototypeBank(
            heads.MODE_LINEAR, np.random.default_rng(rows).normal(size=(rows, width)),
            [f"c{i}" for i in range(rows)])
    obj.save(path)
    return json.loads(path.read_text())


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


class _Spy:
    """jsonio's decoder and json.loads, recording the rows of every matrix a
    call decodes, whole or as a member of an object."""

    def __init__(self, decoder, loads):
        self.decoder, self.real_loads, self.blocks = decoder, loads, []

    def _seen(self, value):
        for v in value.values() if isinstance(value, dict) else [value]:
            if isinstance(v, list) and v and all(isinstance(r, list) for r in v):
                self.blocks.append(v)
        return value

    def loads(self, s):
        return self._seen(self.real_loads(s))

    def raw_decode(self, s, i=0):
        value, end = self.decoder.raw_decode(s, i)
        return self._seen(value), end


@contextlib.contextmanager
def _spying():
    """A `_Spy` standing in for jsonio's decoder and for json.loads, which
    decodes a file whole."""
    spy = _Spy(jsonio._decoder, json.loads)
    with mock.patch.object(jsonio, "_decoder", spy), mock.patch.object(json, "loads", spy.loads):
        yield spy


def _block_rows(path, kind: str) -> list:
    """The row count of each matrix block a load of `path` decodes, its
    refusal, if any, aside."""
    with _spying() as spy:
        try:
            _KINDS[kind][0].load(path)
        except (ParameterError, ContractError):
            pass
    return list(map(len, spy.blocks))


def _streamed_rows(path, kind: str) -> list:
    """`_block_rows`, failing if one decode call parses more than a block's
    numbers: at most `_BLOCK`, or one row."""
    with _spying() as spy:
        _KINDS[kind][0].load(path)
    for rows in spy.blocks:
        widest = max(map(len, rows))
        assert sum(map(len, rows)) <= max(jsonio._BLOCK, widest), (len(rows), widest)
    return list(map(len, spy.blocks))


_FORMS = ["package", "indent", "crlf"]


def _walked(monkeypatch) -> list:
    """Whether the window walker took each file loaded from now on (True),
    or gave up on it, so that `read` decoded the file whole (False)."""
    real, seen = jsonio._walk, []

    def walk(w, matrices):
        seen.append(False)
        doc = real(w, matrices)
        seen[-1] = True
        return doc

    monkeypatch.setattr(jsonio, "_walk", walk)
    return seen


# windows of a few characters, so that a window ends inside every key, number,
# row, line end and separator of the documents below
_WINDOWS = [1, 2, 3, 7, 13]


@pytest.mark.parametrize("kind", sorted(_KINDS))
@pytest.mark.parametrize("form", _FORMS)
@pytest.mark.parametrize("blocks", [1, 2])
@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_read_matches_json_load(tmp_path, monkeypatch, kind, form, blocks, offset):
    """k blocks' worth of rows, one short of it and one past it, load as
    json.load + from_dict gave, in row blocks, through the package's window
    and through windows of a few characters; the walker takes each without
    decoding the file whole."""
    rows = blocks * (jsonio._BLOCK // 16) + offset
    path, walked = tmp_path / "doc.json", _walked(monkeypatch)
    _save(path, _document(path, kind, rows), form)
    for window in [jsonio._WINDOW] + _WINDOWS:
        monkeypatch.setattr(jsonio, "_WINDOW", window)
        walked.clear()
        assert _assert_parity(path, kind)[0] == "ok"
        counts = _streamed_rows(path, kind)
        assert sum(counts) == rows and len(counts) >= blocks
        assert walked == [True, True], window


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
    row, rows narrower from one on, or a syntax error, at row 0, at the first
    row of the second block or at the last row: the file is refused as
    json.load + from_dict refused it, naming the same path or place."""
    member = _KINDS[kind][1]
    rows = 2 * (jsonio._BLOCK // 16) + 1
    path = tmp_path / "doc.json"
    _save(path, _document(path, kind, rows), form)
    row = {"first": 0, "second-block": _block_rows(path, kind)[0],
           "last": rows - 1}[where]
    _save(path, _garble(_document(path, kind, rows), member, row, fault), form)
    texts = [path.read_bytes()]
    if fault == "syntax":
        texts = [texts[0].replace(b'"@@"', s.encode()) for s in _SYNTAX]
    for text in texts:
        path.write_bytes(text)
        if where == "second-block":    # the fault leaves the first block as it was
            assert _block_rows(path, kind)[0] == row
        status, message = _assert_parity(path, kind)
        # rows all one number short from row 0 on are a narrower matrix
        assert status != "ok" and str(path) in message or (fault, row) == ("ragged-tail", 0)
        if fault in ("string", "bool"):
            assert f"{member}[{row}][0] must be number" in message


_EDGE_TEXTS = [
    "\ufeff{}",  # a UTF-8 BOM
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


def _walkable(text: str, member: str) -> bool:
    """Whether `text` is a JSON object each of whose `member` values is rows
    of equally many numbers: a file the walker must take, not give up on."""
    try:
        pairs = json.loads(text, object_pairs_hook=list)
    except (ValueError, RecursionError):
        return False
    matrices = [v for k, v in pairs if k == member] if text.lstrip().startswith("{") else [0]
    return all(isinstance(m, list) and m
               and all(isinstance(r, list) and r and {type(x) for x in r} <= {int, float}
                       for r in m) and len(set(map(len, m))) == 1 for m in matrices)


@pytest.mark.parametrize("window", _WINDOWS)
@pytest.mark.parametrize("kind", sorted(_KINDS))
def test_read_edge_documents_through_small_windows(tmp_path, monkeypatch, window, kind):
    """The hand-written documents, read a few characters per call, decode or
    are refused as json.load + from_dict did; the walker takes every object
    whose matrices are rows of numbers of one width, through the whole-file
    window and through the small one, and gives up on every other text."""
    path, walked = tmp_path / "doc.json", _walked(monkeypatch)
    for text in _EDGE_TEXTS:
        path.write_text(text, encoding="utf-8")
        walked.clear()
        for size in (len(text) + 1, window):    # the whole file, then a few characters
            monkeypatch.setattr(jsonio, "_WINDOW", size)
            _assert_parity(path, kind)
        assert walked == [_walkable(text, _KINDS[kind][1])] * 2, text[:40]


def test_read_multibyte_name_across_windows(tmp_path, monkeypatch):
    """A dataset written as raw UTF-8 whose class name of 2-, 3- and 4-byte
    characters a window boundary cuts, at each place within it, loads as
    json.load + from_dict gave, and the walker takes it."""
    path = tmp_path / "ds.json"
    doc = _document(path, "dataset", 40)
    name = "caf\u00e9 \u2603\U0001f600\u00e9"
    doc["tree"]["leaf_classes"][1] = name
    text = json.dumps(doc, ensure_ascii=False) + "\n"
    path.write_text(text, encoding="utf-8")
    assert len(path.read_bytes()) > len(text)
    start, walked = text.index(name), _walked(monkeypatch)
    for cut in range(start + 1, start + len(name)):
        monkeypatch.setattr(jsonio, "_WINDOW", cut)
        walked.clear()
        assert _assert_parity(path, "dataset")[1].tree.leaf_classes[1] == name
        assert walked == [True], cut


@pytest.mark.parametrize("kind, key, value", [("dataset", "seed", 1234567),
                                              ("bank", "delta", 12.375)])
def test_read_number_across_windows(tmp_path, monkeypatch, kind, key, value):
    """A top-level number a window boundary cuts, at each place within it,
    decodes whole: a number's first digits decode too, so the walker reads
    on until a separator follows."""
    path = tmp_path / "doc.json"
    doc = _document(path, kind, 40)
    doc[key] = value
    jsonio.write(path, doc)
    text, walked = path.read_text(), _walked(monkeypatch)
    start = text.index(f'"{key}": ') + len(key) + 4
    for cut in range(start + 1, start + len(str(value))):
        monkeypatch.setattr(jsonio, "_WINDOW", cut)
        walked.clear()
        assert getattr(_assert_parity(path, kind)[1], key) == value
        assert walked == [True], cut


@pytest.mark.parametrize("window", _WINDOWS)
def test_read_longer_rows_through_small_windows(tmp_path, monkeypatch, window):
    """Rows of more than half a block's numbers are a block each, and the
    window is filled to the shortest row's text: after a row of short
    numbers, each longer row is cut with no row after it in the window, and
    the walker reads on rather than giving up."""
    path = tmp_path / "bank.json"
    doc = _document(path, "bank", 4, jsonio._BLOCK // 2 + 1)
    doc["prototypes"][0] = [0.5] * len(doc["prototypes"][0])
    jsonio.write(path, doc)
    monkeypatch.setattr(jsonio, "_WINDOW", window)
    walked = _walked(monkeypatch)
    assert _assert_parity(path, "bank")[0] == "ok"
    assert _streamed_rows(path, "bank") == [1, 1, 1, 1]
    assert walked == [True, True]


@pytest.mark.parametrize("width", [jsonio._BLOCK - 1, jsonio._BLOCK + 5])
def test_read_rows_wider_than_a_block(tmp_path, width):
    """A row of more numbers than a block is a block of its own."""
    path = tmp_path / "bank.json"
    _document(path, "bank", 3, width)
    assert _assert_parity(path, "bank")[0] == "ok"
    assert _streamed_rows(path, "bank") == [1, 1, 1]
    ds = data.generate(num_features=width, num_samples=24, num_classes=2, num_super=2,
                       background_fraction=0.0, train_fraction=0.9)
    ds.save(path)
    assert _assert_parity(path, "dataset")[0] == "ok"


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
def test_read_pipe_as_json_load(tmp_path, monkeypatch, kind, fault):
    """A file read from a pipe, which cannot be read again should the walker
    give up, is decoded whole in one read: a valid one loads as json.load +
    from_dict gave, and one cut inside its matrix or opening with a BOM is
    refused as they refused it, with json's message."""
    path = tmp_path / "pipe"
    text = json.dumps(_document(tmp_path / "doc.json", kind, 300))
    text = {None: text, "cut": text[:len(text) // 2], "bom": "\ufeff" + text}[fault]
    os.mkfifo(path)
    cls, walked = _KINDS[kind][0], _walked(monkeypatch)
    new = _piped(path, text, lambda: _outcome(lambda: cls.load(path)))
    old = _piped(path, text, lambda: _outcome(lambda: _json_load(path, cls.from_dict)))
    if fault is None:
        assert new[0] == old[0] == "ok" and _fields(new[1]) == _fields(old[1])
    else:
        assert new == old and f"{path}: malformed file (JSONDecodeError: " in new[1]
    assert walked == []


def test_read_keeps_every_bit(tmp_path):
    """NaN, infinities, signed zeros, subnormals and integers that round:
    the matrix `read` decodes holds json.load's numbers converted by numpy."""
    values = [float("nan"), float("inf"), -float("inf"), -0.0, 0.0, 5e-324, -2.2e-308,
              2 ** 53 + 1, -(2 ** 64) - 1, 10 ** 308, 1.7976931348623157e308, 0.1, 7]
    matrix = [values[i:] + values[:i] for i in range(len(values))] * 400
    path = tmp_path / "doc.json"
    jsonio.write(path, {"features": matrix})
    with mock.patch.object(schemas, "load_schema", lambda name: {
            "type": "object", "properties": {"features": {
                "type": "array", "items": {"type": "array", "items": {"type": "number"}}}}}):
        got = jsonio.read(path, lambda d: d["features"], "any")
    want = np.asarray(json.loads(path.read_text())["features"], dtype=np.float64)
    assert got.shape == want.shape and np.array_equal(got.view(np.int64), want.view(np.int64))


def test_dataset_load_peak_memory(tmp_path):
    """Peak memory stays below the file's size: the read holds a window of
    the text, never all of it, and no tree of Python floats for all
    features; what remains is the decoded blocks and their join."""
    path = tmp_path / "ds.json"
    data.generate(num_samples=8000, num_features=16, seed=0).save(path)
    tracemalloc.start()
    try:
        data.SyntheticDataset.load(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.0 * os.path.getsize(path)


@pytest.mark.parametrize("form", _FORMS)
def test_dataset_load_decodes_blocks(tmp_path, form):
    """No decode call parses more than a block of the 8000 x 16 features."""
    path = tmp_path / "ds.json"
    data.generate(num_samples=8000, num_features=16, seed=0).save(path)
    _save(path, json.loads(path.read_text()), form)
    counts = _streamed_rows(path, "dataset")
    assert sum(counts) == 8000 and len(counts) > 8000 * 16 // jsonio._BLOCK


def test_read_spy_catches_a_whole_matrix(tmp_path, monkeypatch):
    """The spy above fails a reader that decodes the features in one call."""
    path = tmp_path / "ds.json"
    data.generate(num_samples=600, num_features=16, seed=0).save(path)
    monkeypatch.setattr(jsonio, "_is_matrix", lambda schema: False)
    with pytest.raises(AssertionError):
        _streamed_rows(path, "dataset")


@pytest.mark.parametrize("edit, error, message", [
    (lambda f: f, None, None),
    (lambda f: f[:, :0], ParameterError, "features[0] must hold at least 1 items"),
    (lambda f: f.astype(np.float32), ParameterError, "features must be array, not ndarray"),
    (lambda f: f[:, 0], ParameterError, "features must be array, not ndarray"),
])
def test_check_takes_a_float64_matrix(tmp_path, edit, error, message):
    """from_dict takes a 2-D float64 array where the schema declares an array
    of number arrays, as it takes the array's rows; row 0 stands for all."""
    ds = data.generate(num_features=8, num_super=2, num_classes=4, num_samples=600)
    ds.save(tmp_path / "ds.json")
    listed = json.loads((tmp_path / "ds.json").read_text())
    doc = {**listed, "features": edit(ds.features)}
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
        "dataset-dict": (lambda: data.SyntheticDataset.from_dict(
            json.loads((tmp_path / "ds.json").read_text())), ["dataset"]),
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
