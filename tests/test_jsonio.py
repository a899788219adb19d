import dataclasses
import json
import os
import re
import subprocess
import sys
import tracemalloc
from importlib.resources import files
from pathlib import Path
from unittest import mock

import jsonschema
import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from lorentzheads import data, hubness, jsonio, schemas, training
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


def _spied_write(monkeypatch, path, doc):
    """jsonio.write, failing if one piece written to the file holds more than
    a block's numbers.  A block of n numbers, or of n empty rows, has n - 1
    commas; none of the documents below holds a string with a comma."""
    real_open = open

    def spy_open(*args, **kwargs):
        f = real_open(*args, **kwargs)
        write = f.write

        def writelines(pieces):
            for piece in pieces:
                assert piece.count(",") < jsonio._BLOCK, piece[:80]
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
    blocks and a row, as arrays and as lists, 1-D alongside, equal json.dumps."""
    k = _rows_per_block(width)
    rows = 2 * k + 1 if offset == "2k+1" else k + offset
    matrix = np.random.default_rng(width).normal(size=(rows, width))
    vector = np.arange(jsonio._BLOCK + offset if offset != "2k+1" else 2 * jsonio._BLOCK + 1)
    doc = {"m": matrix, "l": matrix.tolist(), "v": vector, "w": vector.tolist(),
           "t": tuple(map(tuple, matrix.tolist()))}
    _spied_write(monkeypatch, tmp_path / "doc.json", doc)
    assert (tmp_path / "doc.json").read_text() == _dumps(doc)


_ROWS = _rows_per_block(3)
_ODD_DOCS = {
    # rows of 0 to 6 numbers: the blocks' item counts vary
    "ragged": [list(range(i % 7)) for i in range(3 * _ROWS)],
    "nested-3d": np.arange(2 * jsonio._BLOCK * 3 + 6.0).reshape(-1, 2, 3).tolist(),
    "array-3d": np.arange(2 * jsonio._BLOCK * 3 + 6.0).reshape(-1, 2, 3) / 7,
    # rows wider than a block are split within the row
    "wide": np.linspace(0, 1, 3 * jsonio._BLOCK + 2).reshape(2, -1),
    "wide-list": np.linspace(0, 1, 3 * jsonio._BLOCK + 2).reshape(2, -1).tolist(),
    "odd-last-block": np.ones((_ROWS + 1, 3)).tolist()[:-1]
    + [[float("nan"), float("inf"), -float("inf")], [2 ** 128, -2 ** 70, 10 ** 30]],
    "dataclass-in-list": [Pair(np.linspace(-1, 1, 3 * jsonio._BLOCK).reshape(-1, 3), 7),
                          {"x": Pair(np.zeros((2, 0)), 1)}, np.int64(5), np.float32(0.5)],
}


@pytest.mark.parametrize("name", sorted(_ODD_DOCS))
def test_write_blocks_odd_documents(tmp_path, monkeypatch, name):
    doc = {"doc": _ODD_DOCS[name], "after": [1, [2]]}
    _spied_write(monkeypatch, tmp_path / "doc.json", doc)
    assert (tmp_path / "doc.json").read_text() == _dumps(doc)


def test_write_spy_catches_a_whole_matrix(tmp_path, monkeypatch):
    """The spy above fails a writer that encodes a matrix in one call."""
    doc = {"m": np.zeros((jsonio._BLOCK, 2))}
    monkeypatch.setattr(jsonio, "_blocks", lambda items: iter([(0, len(items))]))
    with pytest.raises(AssertionError):
        _spied_write(monkeypatch, tmp_path / "doc.json", doc)


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
