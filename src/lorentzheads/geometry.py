"""Lorentz (hyperboloid) model of hyperbolic space.

Points live on the upper sheet of the unit two-sheeted hyperboloid embedded
in Minkowski space R^{n,1} with signature (-, +, ..., +):

    H^n = { x in R^{n+1} : <x, x>_l = -1, x_0 > 0 }

where <x, y>_l = -x0*y0 + sum_i xi*yi.  Curvature is fixed at -1.  All
operations are closed-form and run in float64; small-argument branches guard
the removable singularities of sinh(t)/t and of the exp0 Jacobian.

The point primitives (lorentz_inner, manifold_violation, assert_on_manifold,
project_to_manifold, tangent_project, exp_map_at) take either one point
(n+1,) or a row matrix (m, n+1) and work along the last axis, so a whole
prototype bank is checked or updated in one call.  exp0, its Jacobian and
the geodesic distance have batched forms only: batch_exp_map_origin and
grad_exp_map_origin map rows, and batch_distance takes all pairs of two
point sets.  A public primitive checks its inputs, then runs a private
unchecked kernel (_tangent_project, _exp_map_at, _exp0_rows, _grad_exp0),
which the training step calls directly on arrays it has already checked.
They write their small-argument series only when a row needs one
(_exp0_rows and _grad_exp0: a row below the cut-off or NaN; _exp_map_at: a
row below it); otherwise the formula alone runs, with no masked pass.  Row
norms are np.linalg.norm's own formula for real rows, without its wrapper.
_cosh_distance forms each row block's x0*y0^T with einsum, which writes
every product once into the reused block buffer.  The kernels have the bits
of the np.where and multiply.outer forms kept in
tests/reference_kernels.py.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError, DimensionError

# Tolerance for the manifold constraint |<x,x>_l + 1|.
EPS_MANIFOLD = 1e-9
# Tolerance for tangency |<x,u>_l|.
EPS_TANGENT = 1e-8
# Below this Lorentz norm a tangent vector is treated as zero.
_EPS_SMALL = 1e-6
# Default slack when validating inputs that may carry accumulated drift.
_CHECK_ATOL = 1e-6
# Elements in one row block of an all-pairs temporary: 2^17 float64, 1 MiB.
# A fresh block per step pays its page faults again, so loops reuse one.
_BLOCK_ELEMENTS = 2**17


def _as_array(a, name: str) -> np.ndarray:
    """Finite float64 point (n+1,) or row matrix (m, n+1)."""
    v = np.asarray(a, dtype=np.float64)
    if v.ndim not in (1, 2):
        raise DimensionError(f"{name} must be a vector or a row matrix, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise ContractError(f"{name} contains non-finite entries")
    return v


def _spatial_dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """sum_{i>=1} xi*yi along the last axis.  The stacked matmul runs the same
    dot kernel as x[1:] @ y[1:], so a row of a matrix gets the bits it gets alone."""
    return (x[..., None, 1:] @ y[..., 1:, None])[..., 0, 0]


def _inner(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return -x[..., 0] * y[..., 0] + _spatial_dot(x, y)


def lorentz_inner(x, y):
    """Lorentzian scalar product -x0*y0 + sum_{i>=1} xi*yi: a float for two
    points, the (m,) row-wise products for two (m, n+1) matrices."""
    x = _as_array(x, "x")
    y = _as_array(y, "y")
    if x.shape != y.shape or x.shape[-1] < 2:
        raise DimensionError(f"incompatible shapes {x.shape} vs {y.shape}")
    ip = _inner(x, y)
    return float(ip) if ip.ndim == 0 else ip


def manifold_violation(x):
    """|<x,x>_l + 1|, zero for exact hyperboloid points; one value per row."""
    x = np.asarray(x, dtype=np.float64)
    return np.abs(_inner(x, x) + 1.0)


def assert_on_manifold(x, atol: float = _CHECK_ATOL) -> None:
    """Raise ContractError unless the point, or every row, lies on H^n."""
    x = _as_array(x, "x")
    x0 = x[..., 0]
    if np.any(x0 <= 0.0):
        raise ContractError("point is not on the upper sheet (x0 <= 0)")
    with np.errstate(over="ignore"):   # an overflow is refused below, not warned about
        # the constraint residual scales like x0^2 * machine eps for far points
        tol = atol * np.maximum(1.0, x0 * x0)
        v = np.atleast_1d(manifold_violation(x))
    if not np.isfinite(tol).all():   # no residual exceeds inf
        raise ContractError("point is too far out to check: x0 * x0 overflows")
    bad = v > tol
    if np.any(bad):
        raise ContractError(f"point is off the hyperboloid: |<x,x>_l + 1| = {v[bad][0]:.3e}")


def assert_tangent(x, u, atol: float = EPS_TANGENT) -> None:
    ip = np.atleast_1d(lorentz_inner(x, u))
    bad = np.abs(ip) > atol
    if np.any(bad):
        raise ContractError(f"vector is not tangent at base point: <x,u>_l = {ip[bad][0]:.3e}")


def _recompute_x0(out: np.ndarray) -> np.ndarray:
    """Recompute the time coordinate of each row of `out` in place."""
    out[..., 0] = np.sqrt(1.0 + _spatial_dot(out, out))
    return out


def project_to_manifold(raw) -> np.ndarray:
    """Repair numerical drift: keep the spatial part, recompute x0 (per row)."""
    return _recompute_x0(_as_array(raw, "raw").copy())


def _as_pair(x, g):
    """x and g as finite float64 points or row matrices of one shape."""
    x = _as_array(x, "x")
    g = _as_array(g, "g")
    if x.shape != g.shape:
        raise DimensionError(f"incompatible shapes {x.shape} vs {g.shape}")
    return x, g


def _tangent_project(x: np.ndarray, g: np.ndarray) -> np.ndarray:
    return g + _inner(x, g)[..., None] * x


def tangent_project(x, g) -> np.ndarray:
    """Lorentz-orthogonal projection of an ambient vector onto T_x H^n,
    row by row for matrices: proj_x(g) = g + <x,g>_l * x."""
    return _tangent_project(*_as_pair(x, g))


def exp_map_at(x, u) -> np.ndarray:
    """Exponential map at x applied to a tangent vector u, row by row for
    matrices: cosh(||u||_l) x + sinh(||u||_l) u/||u||_l, re-projected to the
    manifold."""
    x = _as_array(x, "x")
    u = _as_array(u, "u")
    assert_on_manifold(x)
    assert_tangent(x, u)
    return _exp_map_at(x, u)


def _exp_map_at(x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """exp_map_at on validated float64 arrays; ContractError if the step
    overflows."""
    if x.ndim == 1:   # one point's per-row terms would be 0-d scalars
        return _exp_map_at(x[None], u[None])[0]
    sq = _inner(u, u)
    t = np.maximum(sq, 0.0)
    np.sqrt(t, out=t)
    cosh, f = np.cosh(t), np.sinh(t)
    small = t < _EPS_SMALL
    if small.any():
        # f = sinh(t)/t where t is the divisor; below _EPS_SMALL the series
        # cosh(t) ~ 1 + t^2/2 (from sq) and sinh(t)/t ~ 1 + t^2/6
        np.divide(f, t, out=f, where=~small)
        np.add(1.0, sq / 2.0, out=cosh, where=small)
        np.add(1.0, t * t / 6.0, out=f, where=small)
    else:   # the common step, where no row needs a series
        f /= t
    raw = cosh[:, None] * x
    raw += f[:, None] * u
    if not np.isfinite(raw).all():
        raise ContractError("raw contains non-finite entries")
    return _recompute_x0(raw)


# ---------------------------------------------------------------------------
# Batched helpers used by the classification heads and the training loop.
# The row layout is (m, n) for tangent coordinates and (m, n+1) for points.
# ---------------------------------------------------------------------------


def _exp0_rows(V: np.ndarray):
    """Row-wise exp0 of a float64 (m, n) matrix, with the per-row terms its
    Jacobian reuses: (X (m, n+1), (r, sinh(r)/r, sinh(r), cosh(r), r >= _EPS_SMALL))."""
    # np.linalg.norm's own formula for real rows, without its Python wrapper
    r = np.sqrt(np.add.reduce(V * V, axis=1))
    sinh, cosh = np.sinh(r), np.cosh(r)
    big = r >= _EPS_SMALL
    if big.all():   # the common batch, where no row needs the series
        f = sinh / r
    else:   # sinh(r)/r written over its series 1 + r^2/6, kept where r is small
        f = r * r
        f /= 6.0
        f += 1.0
        np.divide(sinh, r, out=f, where=big)
    X = np.empty((V.shape[0], V.shape[1] + 1))
    X[:, 0] = cosh
    np.multiply(f[:, None], V, out=X[:, 1:])
    return X, (r, f, sinh, cosh, big)


def batch_exp_map_origin(V: np.ndarray) -> np.ndarray:
    """exp0 of each row of an (m, n) matrix of tangent coordinates at the
    origin: (cosh(r), sinh(r) v/r) with r = ||v||, the origin for v = 0;
    returns (m, n+1)."""
    return _exp0_rows(np.asarray(V, dtype=np.float64))[0]


def _row_blocks(rows: int, width: int):
    """(start, stop) of the blocks of max(1, _BLOCK_ELEMENTS // width) rows
    that cover `rows` rows of `width` columns; the first block is the largest."""
    step = max(1, _BLOCK_ELEMENTS // max(width, 1))
    return [(s, min(s + step, rows)) for s in range(0, rows, step)]


def batch_minkowski_inner(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """All-pairs Lorentzian products: (m, n+1) x (C, n+1) -> (m, C), the
    negation of _cosh_distance's unclamped products.

    The einsum outer product adds each x0*y0 to a zeroed buffer, so a -0.0
    product reads +0.0.  Hyperboloid points, whose time coordinates are
    >= 1, never form one; raw rows with a zero time coordinate can, and
    there a product's sign of zero may differ from -x0*y0 + spatial's.
    """
    A = _cosh_distance(X, Y, clamp=False)
    return np.negative(A, out=A)


def _cosh_distance(X: np.ndarray, Y: np.ndarray, clamp: bool = True) -> np.ndarray:
    """max(-<x, y>_l, 1) for all pairs, the cosh of their geodesic distance,
    or -<x, y>_l itself when `clamp` is False.

    x0*y0 - spatial is written over the (m, C) spatial product a row block at
    a time, the outer product formed by einsum (one rounded product per
    entry, the bits of np.multiply.outer; see batch_minkowski_inner for
    signed zeros) from contiguous copies of both time columns in one
    buffer.  It has the bits of -(-x0*y0 + spatial): IEEE subtraction is
    antisymmetric, so no negate pass is needed.  The clamp, max(., 1)
    with NaN kept, is one more pass per block; callers that read few
    entries take the products unclamped and clamp those.
    """
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    A = X[:, 1:] @ Y[:, 1:].T
    x0, y0 = X[:, 0].copy(), Y[:, 0].copy()
    blocks = _row_blocks(*A.shape)
    outer = np.empty((blocks[0][1] if blocks else 0, A.shape[1]))
    for s, e in blocks:
        block, o = A[s:e], outer[:e - s]
        np.einsum("i,j->ij", x0[s:e], y0, out=o)
        np.subtract(o, block, out=block)
        if clamp:
            np.maximum(block, 1.0, out=block)
    return A


def batch_distance(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """All-pairs geodesic distances between point sets, arccosh of the
    products clamped at 1: the one distance formula the package runs.

    Near 0 it reads the rounding of x0*y0 - spatial, not the distance, and
    that rounding grows with the points' radius r like cosh(r)^2.  For
    coincident points at radius r (4,000 random directions in 2, 16 and
    64 dimensions) it read up to 1.5e-7 at r = 2, 3.3e-6 at r = 5 and
    4.2e-4 at r = 10, and exactly 0 for 68-75%, 32-40% and 91-97% of them.
    """
    A = _cosh_distance(X, Y)
    return np.arccosh(A, out=A)


def grad_exp_map_origin(V: np.ndarray, G: np.ndarray) -> np.ndarray:
    """Pull an ambient cotangent back through batch_exp_map_origin.

    For x = exp0(v), computes J(v)^T g for each row pair (v, g) where
    J is the (n+1, n) Jacobian of exp0.  V is (m, n), G is (m, n+1);
    returns (m, n).
    """
    V = np.asarray(V, dtype=np.float64)
    return _grad_exp0(V, np.asarray(G, dtype=np.float64), *_exp0_rows(V)[1])


def _grad_exp0(V, G, r, f, sinh, cosh, big) -> np.ndarray:
    """grad_exp_map_origin given the _exp0_rows terms of V."""
    # h = (r cosh(r) - sinh(r)) / r^3; where some row is below the cut-off
    # or NaN, written over its series 1/3 + r^2/30, kept on those rows
    q = r * cosh
    q -= sinh
    if big.all():
        h = np.divide(q, r**3, out=q)
    else:
        h = r * r
        h /= 30.0
        h += 1.0 / 3.0
        np.divide(q, r**3, out=h, where=big)
    g0 = G[:, 0]
    Gs = G[:, 1:]
    dot = np.einsum("ij,ij->i", V, Gs)
    # d(x0)/dv = sinh(r) v / r;  d(xs)/dv = f I + h v v^T, summed left to right
    out = (g0 * f)[:, None] * V
    t = f[:, None] * Gs
    out += t
    dot *= h
    np.multiply(dot[:, None], V, out=t)
    out += t
    return out
