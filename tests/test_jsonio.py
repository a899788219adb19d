import dataclasses
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from lorentzheads import data, hubness, jsonio, training
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


def test_package_import_skips_jsonschema():
    code = "import sys, lorentzheads.cli; sys.exit('jsonschema' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
