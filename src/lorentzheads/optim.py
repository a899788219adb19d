"""First-order optimizers.

Hyperbolic prototypes follow Riemannian SGD: the ambient Euclidean gradient
is metric-scaled (inverse metric negates the time component), projected onto
the tangent space, and the step is retracted with the exponential map plus a
final manifold projection.  One call updates a single point or the whole
(C, n+1) prototype matrix, row by row.  Euclidean parameters use Adam with
decoupled weight decay.  Gradient clipping scales the whole gradient
collection by a single global-norm factor.  Both steps take their rates as
arguments; `OptimizerState` holds only what Adam accumulates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import geometry
from .errors import DimensionError, ParameterError

# Adam's decay rates and denominator guard (Kingma & Ba's defaults)
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


def riemannian_step(x, ambient_grad, lr: float) -> np.ndarray:
    """One RSGD step on the hyperboloid from point x, or from every row of a
    (C, n+1) point matrix at once.

    ambient_grad is the plain Euclidean gradient dL/dx in ambient
    coordinates, shaped like x.  The result satisfies the manifold constraint.
    """
    x = np.asarray(x, dtype=np.float64)
    g = np.array(ambient_grad, dtype=np.float64)
    g[..., 0] = -g[..., 0]             # inverse-metric scaling g_l^{-1} grad
    u = geometry.tangent_project(x, g)
    return geometry.exp_map_at(x, -lr * u, check=False)


def clip_gradients(grads: dict, max_norm: float) -> dict:
    """Jointly rescale a named gradient collection to global L2 norm <= max_norm."""
    if max_norm <= 0:
        raise ParameterError("max_norm must be > 0")
    total = np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
    if total <= max_norm:
        return grads
    scale = max_norm / total
    return {k: g * scale for k, g in grads.items()}


@dataclass
class OptimizerState:
    """What Adam accumulates for named Euclidean parameters: the two moment
    estimates and the step count of each name.  The rates are the caller's."""

    first_moment: dict = field(default_factory=dict)
    second_moment: dict = field(default_factory=dict)
    param_steps: dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, d: dict) -> "OptimizerState":
        """Other keys (older checkpoints also stored the rates) are ignored."""
        return cls({k: np.asarray(v, dtype=np.float64) for k, v in d["first_moment"].items()},
                   {k: np.asarray(v, dtype=np.float64) for k, v in d["second_moment"].items()},
                   {k: int(v) for k, v in d["param_steps"].items()})


def euclidean_step(param, grad, state: OptimizerState, lr: float, weight_decay: float,
                   name: str = "param") -> np.ndarray:
    """One Adam step (decoupled weight decay, bias correction) for one
    named parameter tensor.  Parameters named differently never interact."""
    p = np.asarray(param, dtype=np.float64)
    g = np.asarray(grad, dtype=np.float64)
    if p.shape != g.shape:
        raise DimensionError(f"param shape {p.shape} vs grad shape {g.shape}")
    if name not in state.first_moment:
        state.first_moment[name] = np.zeros_like(p)
        state.second_moment[name] = np.zeros_like(p)
        state.param_steps[name] = 0
    state.param_steps[name] += 1
    t = state.param_steps[name]
    m = state.first_moment[name]
    v = state.second_moment[name]
    m[...] = BETA1 * m + (1.0 - BETA1) * g
    v[...] = BETA2 * v + (1.0 - BETA2) * g * g
    m_hat = m / (1.0 - BETA1**t)
    v_hat = v / (1.0 - BETA2**t)
    return p - lr * (m_hat / (np.sqrt(v_hat) + EPS) + weight_decay * p)
