import ast
import inspect
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lorentzheads import geometry as G
from lorentzheads.errors import ContractError, DimensionError

import reference_kernels
from reference_geometry import hyperbolic_distance, log_map_at, origin
from conftest import random_manifold_point, random_tangent

COSH1 = np.cosh(1.0)
SINH1 = np.sinh(1.0)
# Public functions that no package code calls, kept because perfbench's
# workloads.trace_targets traces them by name and its smoke run fails on a
# deleted traced name; they go when the benchmark stops tracing them.
TRACED_ONLY = {"lorentz_inner", "project_to_manifold", "tangent_project", "exp_map_at",
               "batch_minkowski_inner", "grad_exp_map_origin"}


class TestLorentzInner:
    def test_origin_self_product(self):
        assert G.lorentz_inner([1.0, 0.0], [1.0, 0.0]) == -1.0

    def test_hand_evaluation(self):
        x = [np.sqrt(2.0), 1.0]
        assert G.lorentz_inner(x, x) == pytest.approx(-1.0)

    def test_closed_form(self):
        assert G.lorentz_inner([COSH1, SINH1], [1.0, 0.0]) == pytest.approx(-COSH1)

    def test_symmetry_and_bilinearity(self, rng):
        x, y, z = rng.normal(size=(3, 5))
        assert G.lorentz_inner(x, y) == G.lorentz_inner(y, x)
        lhs = G.lorentz_inner(2.0 * x + z, y)
        assert lhs == pytest.approx(2.0 * G.lorentz_inner(x, y) + G.lorentz_inner(z, y))

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            G.lorentz_inner([1.0, 0.0], [1.0, 0.0, 0.0])

    def test_non_finite_rejected(self):
        with pytest.raises(ContractError):
            G.lorentz_inner([np.nan, 0.0], [1.0, 0.0])


class TestExpMapOrigin:
    def test_zero_maps_to_origin(self):
        np.testing.assert_array_equal(G.batch_exp_map_origin([[0.0, 0.0]]), [[1.0, 0.0, 0.0]])

    def test_unit_step(self):
        np.testing.assert_allclose(
            G.batch_exp_map_origin([[1.0, 0.0]]), [[COSH1, SINH1, 0.0]], atol=1e-15
        )

    def test_small_norm_branch(self):
        p = G.batch_exp_map_origin([[1e-4, 0.0]])[0]
        d = hyperbolic_distance(p, origin(2))
        assert d == pytest.approx(1e-4, abs=1e-9)

    def test_manifold_closure(self, rng):
        P = G.batch_exp_map_origin(rng.normal(0.0, 1.2, (100, 6)))
        assert G.manifold_violation(P).max() < 1e-9

    def test_one_formula_with_the_batch_map(self, rng):
        # a row mapped alone gets its bits in the batch, on both branches:
        # the batch below takes the series path, a lone big row does not
        V = rng.normal(0.0, 1.2, (5, 6))
        V[2] *= 1e-9
        for i, row in enumerate(G.batch_exp_map_origin(V)):
            np.testing.assert_array_equal(G.batch_exp_map_origin(V[i:i + 1])[0], row)


class TestExpMapAt:
    def test_zero_step(self, rng):
        x = random_manifold_point(rng, 4)
        np.testing.assert_allclose(G.exp_map_at(x, np.zeros(5)), x, rtol=1e-15)

    def test_always_checks_its_inputs(self, rng):
        x = random_manifold_point(rng, 2)
        with pytest.raises(ContractError, match="off the hyperboloid"):
            G.exp_map_at(2.0 * x, np.zeros(3))
        with pytest.raises(TypeError):
            G.exp_map_at(x, np.zeros(3), check=False)

    def test_matches_origin_map(self):
        out = G.exp_map_at(origin(2), [0.0, 1.0, 0.0])
        np.testing.assert_allclose(out, [COSH1, SINH1, 0.0], atol=1e-15)

    def test_arc_length(self, rng):
        for _ in range(50):
            x = random_manifold_point(rng, 4)
            u = random_tangent(rng, x)
            nrm = np.sqrt(G.lorentz_inner(u, u))
            d = G.batch_distance(x[None], G.exp_map_at(x, u)[None])[0, 0]
            assert d == pytest.approx(nrm, abs=1e-8)

    def test_non_tangent_rejected(self, rng):
        x = random_manifold_point(rng, 4)
        with pytest.raises(ContractError):
            G.exp_map_at(x, x)


class TestLogMapAt:
    """exp_map_at against the oracle log map of tests/reference_geometry.py."""

    def test_round_trip(self, rng):
        for _ in range(100):
            x = random_manifold_point(rng, 5)
            y = random_manifold_point(rng, 5)
            u = log_map_at(x, y)
            np.testing.assert_allclose(G.exp_map_at(x, u), y, atol=1e-7)

    def test_norm_equals_distance(self, rng):
        x = random_manifold_point(rng, 5)
        y = random_manifold_point(rng, 5)
        u = log_map_at(x, y)
        nrm = np.sqrt(G.lorentz_inner(u, u))
        assert nrm == pytest.approx(G.batch_distance(x[None], y[None])[0, 0], abs=1e-9)


class TestDistance:
    def test_self_distance_zero(self, rng):
        # the all-pairs formula reads the rounding of x0*y0 - spatial near 0,
        # which grows with the radius (batch_distance's docstring)
        X = G.batch_exp_map_origin(rng.normal(0.0, 1.0, (20, 6)))
        np.testing.assert_allclose(np.diagonal(G.batch_distance(X, X)), 0.0, atol=1e-5)

    def test_closed_form(self):
        D = G.batch_distance([origin(1)], [[COSH1, SINH1]])
        assert D[0, 0] == pytest.approx(1.0)

    def test_symmetry(self, rng):
        X = G.batch_exp_map_origin(rng.normal(0.0, 1.0, (50, 4)))
        Y = G.batch_exp_map_origin(rng.normal(0.0, 1.0, (50, 4)))
        np.testing.assert_array_equal(G.batch_distance(X, Y), G.batch_distance(Y, X).T)

    def test_triangle_inequality_sampled(self, rng):
        X = G.batch_exp_map_origin(rng.normal(0.0, 1.5, (30, 4)))
        D = G.batch_distance(X, X)
        for i in range(30):
            for j in range(30):
                for k in range(30):
                    assert D[i, k] <= D[i, j] + D[j, k] + 1e-9

    def test_unbounded_vs_cosine_saturation(self):
        # geodesic distance grows linearly along a ray while cosine distance
        # between the corresponding normalized vectors stays bounded by 2
        t = 10.0
        d = G.batch_distance(G.batch_exp_map_origin([[t, 0.0]]), [origin(2)])[0, 0]
        assert d == pytest.approx(t, abs=1e-8)
        assert d > 2.0 + 7.9  # far beyond any cosine-distance value


class TestAssertOnManifold:
    def test_single_bad_row_in_matrix_rejected(self, rng):
        X = G.batch_exp_map_origin(rng.normal(0.0, 1.0, (6, 3)))
        G.assert_on_manifold(X)
        off = X.copy()
        off[4, 1] += 1e-3
        with pytest.raises(ContractError, match="off the hyperboloid"):
            G.assert_on_manifold(off)
        lower = X.copy()
        lower[2] = -lower[2]            # on the lower sheet: x0 < 0
        with pytest.raises(ContractError, match="upper sheet"):
            G.assert_on_manifold(lower)
        lower[2, 0] = 0.0
        with pytest.raises(ContractError, match="upper sheet"):
            G.assert_on_manifold(lower)

    def test_overflowing_x0_rejected(self, rng):
        # x0 * x0 = inf would make the tolerance inf, which no residual exceeds
        X = G.batch_exp_map_origin(rng.normal(0.0, 1.0, (3, 3)))
        X[1, 0] = 1e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ContractError, match="overflows"):
                G.assert_on_manifold(X)


class TestProjection:
    def test_zero_spatial(self):
        np.testing.assert_array_equal(G.project_to_manifold([0.9, 0.0, 0.0]), [1.0, 0.0, 0.0])

    def test_recompute_time_coordinate(self):
        out = G.project_to_manifold([5.0, SINH1, 0.0])
        np.testing.assert_allclose(out, [COSH1, SINH1, 0.0], atol=1e-12)

    def test_idempotent_on_valid_point(self, rng):
        x = random_manifold_point(rng, 4)
        np.testing.assert_allclose(G.project_to_manifold(x), x, atol=1e-12)


class TestTangentProject:
    def test_already_tangent_unchanged(self, rng):
        x = random_manifold_point(rng, 4)
        u = random_tangent(rng, x)
        np.testing.assert_allclose(G.tangent_project(x, u), u, atol=1e-12)

    def test_base_point_projects_to_zero(self, rng):
        x = random_manifold_point(rng, 4)
        np.testing.assert_allclose(G.tangent_project(x, x), np.zeros(5), atol=1e-12)

    def test_output_is_tangent(self, rng):
        for _ in range(100):
            x = random_manifold_point(rng, 6)
            g = rng.normal(0.0, 3.0, 7)
            out = G.tangent_project(x, g)
            assert abs(G.lorentz_inner(x, out)) < 1e-10


@settings(max_examples=200, deadline=None)
@given(
    vx=st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3),
    vu=st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4),
)
def test_exp_log_inverse_property(vx, vu):
    x = G.batch_exp_map_origin([vx])[0]
    u = G.tangent_project(x, np.asarray(vu))
    nrm = np.sqrt(max(G.lorentz_inner(u, u), 0.0))
    if nrm > 5.0:
        u = u * (5.0 / nrm)
    y = G.exp_map_at(x, u)
    back = log_map_at(x, y)
    np.testing.assert_allclose(back, u, atol=1e-6)


@settings(max_examples=200, deadline=None)
@given(v=st.lists(st.floats(-5.0, 5.0), min_size=4, max_size=4))
@example(v=[0.0, 0.0, 1e-08, 1e-08])   # cosh(|v|) rounds to 1: arccosh alone reads 0
def test_norm_transport_property(v):
    v = np.asarray(v)
    d = hyperbolic_distance(G.batch_exp_map_origin(v[None])[0], origin(4))
    assert d == pytest.approx(np.linalg.norm(v), abs=1e-8)


def test_batch_matches_scalar_ops(rng):
    V = rng.normal(0.0, 1.5, (10, 4))
    X = G.batch_exp_map_origin(V)
    for i in range(10):
        np.testing.assert_allclose(X[i], G.batch_exp_map_origin(V[i:i + 1])[0], rtol=1e-15)
    # the point primitives on a row matrix equal their single-point results
    U = G.tangent_project(X, rng.normal(0.0, 1.0, X.shape))
    U[3] *= 1e-9                          # one row through the series branch
    Y = X + rng.normal(0.0, 1e-3, X.shape)
    batched = {
        "lorentz_inner": G.lorentz_inner(X, U),
        "manifold_violation": G.manifold_violation(Y),
        "project_to_manifold": G.project_to_manifold(Y),
        "tangent_project": G.tangent_project(X, Y),
        "exp_map_at": G.exp_map_at(X, U),
    }
    for i in range(10):
        single = {
            "lorentz_inner": G.lorentz_inner(X[i], U[i]),
            "manifold_violation": G.manifold_violation(Y[i]),
            "project_to_manifold": G.project_to_manifold(Y[i]),
            "tangent_project": G.tangent_project(X[i], Y[i]),
            "exp_map_at": G.exp_map_at(X[i], U[i]),
        }
        for name, value in single.items():
            np.testing.assert_allclose(batched[name][i], value, rtol=0.0, atol=1e-12,
                                       err_msg=name)
    D = G.batch_distance(X, X)
    for i in range(10):
        for j in range(10):
            assert D[i, j] == pytest.approx(
                hyperbolic_distance(X[i], X[j]), abs=1e-12
            )


def test_exp0_kernel_matches_its_definitions(rng):
    # exp0 and its Jacobian share one r, sinh(r) and cosh(r); each equals
    # its formula with the series taken below the cut-off, bit for bit
    V = rng.normal(0.0, 1.0, (64, 8)) * np.geomspace(1e-12, 30.0, 64)[:, None]
    V[0] = 0.0
    Cot = rng.normal(0.0, 1.0, (64, 9))
    r = np.linalg.norm(V, axis=1)
    f = reference_kernels._sinh_over_t(r)
    np.testing.assert_array_equal(G.batch_exp_map_origin(V),
                                  np.column_stack([np.cosh(r), f[:, None] * V]))
    small = r < 1e-6
    assert small.any() and not small.all()
    safe = np.where(small, 1.0, r)
    h = np.where(small, 1.0 / 3.0 + r * r / 30.0,
                 (safe * np.cosh(safe) - np.sinh(safe)) / safe**3)
    dot = np.einsum("ij,ij->i", V, Cot[:, 1:])
    np.testing.assert_array_equal(
        G.grad_exp_map_origin(V, Cot),
        (Cot[:, 0] * f)[:, None] * V + f[:, None] * Cot[:, 1:] + (h * dot)[:, None] * V)


@pytest.mark.parametrize("rows", [None, 1, 7], ids=["module-blocks", "1-row", "7-row"])
@pytest.mark.parametrize("same", [True, False], ids=["X-is-Y", "X-not-Y"])
def test_blocked_minkowski_inner_keeps_its_bits(rng, monkeypatch, rows, same):
    # the x0*y0 outer product a row block at a time gives the bits of the
    # whole-matrix formula; 30 rows in 7-row blocks end with a partial one
    X = G.batch_exp_map_origin(rng.normal(0.0, 1.5, (30, 5)))
    Y = X if same else G.batch_exp_map_origin(rng.normal(0.0, 1.5, (20, 5)))
    if rows is not None:
        monkeypatch.setattr(G, "_BLOCK_ELEMENTS", rows * len(Y))
    assert len(G._row_blocks(len(X), len(Y))) == {None: 1, 1: 30, 7: 5}[rows]
    want = X[:, 1:] @ Y[:, 1:].T - np.multiply.outer(X[:, 0], Y[:, 0])
    assert G.batch_minkowski_inner(X, Y).tobytes() == want.tobytes()
    assert G.batch_minkowski_inner(X[:0], Y).shape == (0, len(Y))


@pytest.mark.parametrize("rows", [None, 1, 7], ids=["module-blocks", "1-row", "7-row"])
def test_cosh_distance_is_the_clamped_negated_product(rng, monkeypatch, rows):
    # x0*y0 - spatial, written a row block at a time, is max(-<x, y>_l, 1)
    # bit for bit; 30 rows in 7-row blocks end with a partial one
    X = G.batch_exp_map_origin(rng.normal(0.0, 1.5, (30, 5)))
    Y = G.batch_exp_map_origin(rng.normal(0.0, 1.5, (20, 5)))
    Y[3] = X[4]                                       # a pair the clamp reaches
    if rows is not None:
        monkeypatch.setattr(G, "_BLOCK_ELEMENTS", rows * len(Y))
    got = G._cosh_distance(X, Y)
    assert got.tobytes() == np.maximum(-G.batch_minkowski_inner(X, Y), 1.0).tobytes()
    old = -(X[:, 1:] @ Y[:, 1:].T - np.multiply.outer(X[:, 0], Y[:, 0]))
    assert got.tobytes() == np.maximum(old, 1.0).tobytes()
    assert got[4, 3] == 1.0
    assert G._cosh_distance(X[:0], Y).shape == (0, len(Y))


def test_all_pairs_distance_holds_one_matrix(rng):
    # the product and one row block of the outer product, not a second N x N array
    N = 2000
    P = G.batch_exp_map_origin(rng.normal(0.0, 1.0, (N, 8)))
    tracemalloc.start()
    try:
        D = G.batch_distance(P, P)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.1 * D.nbytes


def test_every_public_function_has_a_caller_in_the_package():
    # a name the package's code reads (a call, or an attribute such as
    # geometry.batch_distance); docstrings and comments do not count
    read = set()
    for path in Path(G.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    public = {name for name, f in vars(G).items()
              if inspect.isfunction(f) and f.__module__ == G.__name__ and name[0] != "_"}
    assert TRACED_ONLY <= public
    assert sorted(public - read - TRACED_ONLY) == []
