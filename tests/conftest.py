import json
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from lorentzheads import data, geometry, jsonio, schemas


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def random_manifold_point(rng, n, scale=1.0):
    return geometry.batch_exp_map_origin(rng.normal(0.0, scale, (1, n)))[0]


def random_tangent(rng, x, scale=1.0, max_norm=3.0):
    u = geometry.tangent_project(x, rng.normal(0.0, scale, x.shape[0]))
    nrm = np.sqrt(max(geometry.lorentz_inner(u, u), 0.0))
    if nrm > max_norm:
        u = u * (max_norm / nrm)
    return u


def document(path):
    """The JSON document the file at `path` holds; for a dataset's npz file,
    read here by numpy alone, `meta` with the arrays as lists in their places."""
    raw = Path(path).read_bytes()
    if not raw.startswith(b"PK\x03\x04"):
        return json.loads(raw)
    with np.load(path) as z:
        doc = json.loads(str(z["meta"]))
        doc.update(features=z["features"].tolist(), labels=z["labels"].tolist(),
                   splits={"train": z["train"].tolist(), "val": z["val"].tolist()})
    return doc


def validate_file(path, schema_name: str) -> None:
    """Check the file at `path`, as `document` reads it, against the shipped
    schema `schema_name` with both validators: jsonschema, the oracle, and
    the package's own."""
    doc = document(path)
    jsonschema.validate(doc, schemas.load_schema(schema_name))
    jsonio.validate(doc, schema_name)


def same_bits(a, b) -> bool:
    """Equal shapes and float64 bit patterns: -0.0 and +0.0 differ."""
    a, b = np.ascontiguousarray(a, dtype=np.float64), np.ascontiguousarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def read_only(*arrays):
    """The arrays, each flagged read-only, so that any write into them raises."""
    for a in arrays:
        a.setflags(write=False)
    return arrays


# filled by tests/test_acceptance.py; echoed after the run so the
# per-criterion verdicts survive output capturing
acceptance_lines: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def small_dataset():
    """Compact hierarchical dataset shared across training tests."""
    return data.generate(
        num_features=8, num_super=3, num_classes=6, num_samples=1200, seed=7
    )
