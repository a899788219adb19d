"""First-order optimizers.

Hyperbolic prototypes follow Riemannian SGD: the ambient Euclidean gradient
is metric-scaled (inverse metric negates the time component), projected onto
the tangent space, and the step is retracted with the exponential map plus a
final manifold projection.  One call updates a single point or the whole
(C, n+1) prototype matrix, row by row, checking its inputs once and scaling
the tangent step by -lr in place.  Euclidean
parameters use Adam with decoupled weight decay.  Adam is elementwise, so a
run packs every tensor it steps into one flat buffer (`pack`), lays the
moments out the same way (`OptimizerState.pack`), writes the gradients into
one more buffer of that layout, and makes one `euclidean_step` call per batch;
the tensors share one step count.
Gradient clipping scales the whole gradient collection by a single
global-norm factor, in place.  Both steps take their rates as arguments;
`OptimizerState` holds only what Adam accumulates.
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
    # checked once here; the geometry kernels below take the arrays as given
    x, g = geometry._as_pair(x, np.array(ambient_grad, dtype=np.float64))
    np.negative(g[..., 0], out=g[..., 0])   # inverse-metric scaling g_l^{-1} grad
    u = geometry._tangent_project(x, g)
    u *= -lr
    return geometry._exp_map_at(x, u)


def clip_gradients(grads: dict, max_norm: float) -> dict:
    """Jointly rescale a named gradient collection, in place, to global L2
    norm <= max_norm; returns it.

    Where the sum of squares overflows, or underflows to 0 with an entry
    nonzero, the entries are divided by the largest |entry| before they are
    squared, as heads.unit_rows does, and the scale is formed from that
    quotient's norm, so neither it nor the norm overflows.  Any other
    finite, nonzero sum keeps the plain formula's bits.  A collection with
    a NaN or infinite entry passes through unchanged.
    """
    if max_norm <= 0:
        raise ParameterError("max_norm must be > 0")
    with np.errstate(over="ignore"):   # an overflowing sum is rescaled below
        sq = sum(float(np.sum(g * g)) for g in grads.values())
    if 0.0 < sq < np.inf:
        total = np.sqrt(sq)
        scale = max_norm / total
    else:
        peak = np.max([np.abs(g).max(initial=0.0) for g in grads.values()], initial=0.0)
        if not 0.0 < peak < np.inf:   # all zero, or a non-finite entry (NaN included)
            return grads
        # the norm is peak * b, 1 <= b: max_norm / peak < b wherever it clips
        b = np.sqrt(sum(float(np.sum(np.square(g / peak))) for g in grads.values()))
        total, scale = peak * b, max_norm / peak / b
    if total > max_norm:
        for g in grads.values():
            g *= scale
    return grads


def pack(tensors: dict) -> tuple[np.ndarray, dict]:
    """Copy `tensors` into one contiguous float64 buffer, in dict order, and
    return it with a view of it shaped like each tensor, by name."""
    flat = np.zeros(sum(np.size(t) for t in tensors.values()))
    views, lo = {}, 0
    for name, t in tensors.items():
        views[name] = flat[lo:lo + np.size(t)].reshape(np.shape(t))
        views[name][...] = t
        lo += np.size(t)
    return flat, views


@dataclass
class OptimizerState:
    """What Adam accumulates for named Euclidean parameters: both moment
    estimates by name and the one step count they share; the rates are the caller's."""

    first_moment: dict = field(default_factory=dict)
    second_moment: dict = field(default_factory=dict)
    step: int = 0

    @classmethod
    def from_dict(cls, d: dict) -> "OptimizerState":
        """Other keys (older checkpoints also stored the rates) are ignored; an
        older checkpoint's per-tensor counts, `param_steps`, load as their one value."""
        steps = set(d["param_steps"].values()) if "param_steps" in d else {d["step"]}
        if len(steps) > 1:
            raise ParameterError(f"Adam step counts differ between tensors: {d['param_steps']}")
        return cls({k: np.asarray(v, dtype=np.float64) for k, v in d["first_moment"].items()},
                   {k: np.asarray(v, dtype=np.float64) for k, v in d["second_moment"].items()},
                   max(steps, default=0))

    def check(self, params: dict) -> None:
        """Refuse a state that cannot go on stepping `params` (the tensors Adam
        steps, by name) as one buffer: after a step it holds moments for
        exactly those tensors, before any step none; each moment is finite and
        shaped like its tensor, and a second moment is never negative."""
        expected = set(params) if self.step else set()
        if self.step < 0 or not set(self.first_moment) == set(self.second_moment) == expected:
            raise ParameterError(f"after {self.step} Adam steps the optimizer state must hold "
                                 f"moments for {sorted(expected) or 'no tensor'}, not for "
                                 f"{sorted(self.first_moment)}, {sorted(self.second_moment)}")
        for kind, moments in (("first", self.first_moment), ("second", self.second_moment)):
            for name, m in moments.items():
                if np.shape(m) != np.shape(params[name]):
                    raise ParameterError(f"optimizer {kind} moment of {name!r} has shape "
                                         f"{np.shape(m)}, its tensor {np.shape(params[name])}")
                if not np.isfinite(m).all() or (kind == "second" and np.less(m, 0.0).any()):
                    raise ParameterError(f"optimizer {kind} moment of {name!r} must be finite"
                                         + " and >= 0" * (kind == "second"))

    def pack(self, params: dict) -> tuple[np.ndarray, np.ndarray]:
        """Lay the moments out like `pack(params)`, rebinding each stored
        moment to a view of its buffer; names with none start at zero.
        Returns the first- and second-moment buffers."""
        zeros = {name: np.zeros(np.shape(p)) for name, p in params.items()}
        m, self.first_moment = pack({**zeros, **self.first_moment})
        v, self.second_moment = pack({**zeros, **self.second_moment})
        return m, v


def euclidean_step(param: np.ndarray, grad, first_moment: np.ndarray,
                   second_moment: np.ndarray, step: int, lr: float,
                   weight_decay: float) -> None:
    """Adam step number `step` (decoupled weight decay, bias correction),
    updating `param` and both moment estimates in place.  Elementwise, so one
    call on a `pack` buffer steps each tensor in it as a call of its own
    would."""
    g = np.asarray(grad, dtype=np.float64)
    if not param.shape == g.shape == first_moment.shape == second_moment.shape:
        raise DimensionError(f"param shape {param.shape} vs grad shape {g.shape}, moment "
                             f"shapes {first_moment.shape}, {second_moment.shape}")
    # in place, in the operand order of m = b1 m + (1 - b1) g,
    # v = b2 v + (1 - b2) g g and p -= lr (m^ / (sqrt(v^) + eps) + wd p), so
    # the bits are that formula's; wd p is formed even at wd = 0, where it
    # keeps the signed zeros the formula gives
    t = (1.0 - BETA1) * g
    first_moment *= BETA1
    first_moment += t
    np.multiply(1.0 - BETA2, g, out=t)
    t *= g
    second_moment *= BETA2
    second_moment += t
    m_hat = first_moment / (1.0 - BETA1**step)
    v_hat = second_moment / (1.0 - BETA2**step)
    np.sqrt(v_hat, out=v_hat)
    v_hat += EPS
    m_hat /= v_hat
    m_hat += np.multiply(weight_decay, param, out=t)
    m_hat *= lr
    param -= m_hat
