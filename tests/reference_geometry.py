"""Single-point geometry oracles, kept apart from the batched kernels under
test: `hyperbolic_distance` and `log_map_at` are verbatim copies of the
functions `geometry` once shipped beside `batch_distance`, and `origin` is
the hyperboloid origin.  The package runs none of them.
"""

import numpy as np

from lorentzheads.errors import DimensionError
from lorentzheads.geometry import (_as_array, _inner, assert_on_manifold, lorentz_inner,
                                   tangent_project)


def origin(n: int) -> np.ndarray:
    """The hyperboloid origin (1, 0, ..., 0) in R^{n+1}."""
    return np.eye(1, n + 1)[0]


def hyperbolic_distance(x, y) -> float:
    """Geodesic distance arccosh(-<x,y>_l).  Where -<x,y>_l rounds to 1 or
    below, arccosh reads 0 for any d below ~1.5e-8; there the Lorentz norm
    of x - y, which is 2 sinh(d/2), gives d instead (0 for x = y)."""
    x = _as_array(x, "x")
    y = _as_array(y, "y")
    assert_on_manifold(x)
    assert_on_manifold(y)
    if x.shape != y.shape:
        raise DimensionError(f"incompatible shapes {x.shape} vs {y.shape}")
    arg = -lorentz_inner(x, y)
    if arg > 1.0:
        return float(np.arccosh(arg))
    chord = np.sqrt(max(_inner(x - y, x - y), 0.0))
    return float(2.0 * np.arcsinh(chord / 2.0))


def log_map_at(x, y) -> np.ndarray:
    """Inverse of exp_map_at: the tangent vector at x pointing to y with
    Lorentz norm d(x, y).  Returns the zero vector for y = x."""
    x = _as_array(x, "x")
    y = _as_array(y, "y")
    assert_on_manifold(x)
    assert_on_manifold(y)
    if np.array_equal(x, y):
        return np.zeros_like(x)
    alpha = max(-lorentz_inner(x, y), 1.0)
    d = float(np.arccosh(alpha))
    if d < 1e-9:
        return np.zeros_like(x)
    # ||y - alpha*x||_l = sqrt(alpha^2 - 1) = sinh(d)
    u = (d / np.sqrt(alpha * alpha - 1.0)) * (y - alpha * x)
    return tangent_project(x, u)
