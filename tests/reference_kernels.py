"""The training and scoring kernels as they were written before their
passes were trimmed: verbatim copies of `geometry._exp0_rows`,
`_grad_exp0`, `_exp_map_at` with `_sinh_over_t`, `_cosh_distance` (its
outer product from np.multiply.outer, each block clamped as it is written),
`optim.riemannian_step`, and of `heads._log_sigmoid`, `_focal_terms` (over
a boolean one-hot matrix), `batch_focal_loss`, `top_logits` (over the
clamped matrix), `hyperbolic_loss_and_grads` and `euclidean_loss_and_grads`,
each allocating every intermediate and returning a prototype gradient for
frozen banks too.

The package's kernels must give these copies' bits, so tests compare them
byte for byte.  The copies call one another; the other helpers they call
(`_inner`, `_recompute_x0`, `_row_blocks`, `_as_pair`, `_tangent_project`,
`batch_exp_map_origin`, `batch_bank_logits`, `_shift_logits`, `unit_rows`)
are the package's own.
"""

import numpy as np

from lorentzheads import geometry
from lorentzheads.errors import ContractError
from lorentzheads.geometry import _EPS_SMALL, _inner, _recompute_x0
from lorentzheads.heads import (_EPS_DIST, _TIE_BAND, _shift_logits, BACKGROUND, DEFAULT_TAU,
                                MODE_COSINE, MODE_HYPERBOLIC, MODE_LINEAR, batch_bank_logits,
                                unit_rows)


def _sinh_over_t(t: np.ndarray) -> np.ndarray:
    """sinh(t)/t with the series branch near zero."""
    t = np.asarray(t, dtype=np.float64)
    small = np.abs(t) < _EPS_SMALL
    safe = np.where(small, 1.0, t)
    return np.where(small, 1.0 + t * t / 6.0, np.sinh(safe) / safe)


def _exp_map_at(x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """exp_map_at on validated float64 arrays; ContractError if the step
    overflows."""
    sq = _inner(u, u)
    nrm = np.sqrt(np.maximum(sq, 0.0))
    # series below _EPS_SMALL: cosh(t) ~ 1 + t^2/2; _sinh_over_t has its own
    cosh = np.where(nrm < _EPS_SMALL, 1.0 + sq / 2.0, np.cosh(nrm))
    raw = cosh[..., None] * x + _sinh_over_t(nrm)[..., None] * u
    if not np.isfinite(raw).all():
        raise ContractError("raw contains non-finite entries")
    return _recompute_x0(raw)


def _exp0_rows(V: np.ndarray):
    """Row-wise exp0 of a float64 (m, n) matrix, with the per-row terms its
    Jacobian reuses: (X (m, n+1), (r, sinh(r)/r, sinh(r), cosh(r)))."""
    r = np.linalg.norm(V, axis=1)
    sinh, cosh = np.sinh(r), np.cosh(r)
    small = r < _EPS_SMALL
    # _sinh_over_t(r): the quotient is read only where r is the divisor
    f = np.where(small, 1.0 + r * r / 6.0, sinh / np.where(small, 1.0, r))
    X = np.empty((V.shape[0], V.shape[1] + 1))
    X[:, 0] = cosh
    np.multiply(f[:, None], V, out=X[:, 1:])
    return X, (r, f, sinh, cosh)


def _grad_exp0(V, G, r, f, sinh, cosh) -> np.ndarray:
    """grad_exp_map_origin given the _exp0_rows terms of V."""
    small = r < _EPS_SMALL
    safe = np.where(small, 1.0, r)
    # h = (r*cosh(r) - sinh(r)) / r^3, series 1/3 + r^2/30 near zero
    h = np.where(small, 1.0 / 3.0 + r * r / 30.0, (safe * cosh - sinh) / safe**3)
    g0 = G[:, 0]
    Gs = G[:, 1:]
    dot = np.einsum("ij,ij->i", V, Gs)
    # d(x0)/dv = sinh(r) v / r;  d(xs)/dv = f I + h v v^T
    return (g0 * f)[:, None] * V + f[:, None] * Gs + (h * dot)[:, None] * V


def _cosh_distance(X: np.ndarray, Y: np.ndarray, clamp: bool = True) -> np.ndarray:
    """max(-<x, y>_l, 1) for all pairs, the cosh of their geodesic distance,
    or -<x, y>_l itself when `clamp` is False."""
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    A = X[:, 1:] @ Y[:, 1:].T
    x0, y0 = X[:, 0].copy(), Y[:, 0].copy()
    blocks = geometry._row_blocks(*A.shape)
    outer = np.empty((blocks[0][1] if blocks else 0, A.shape[1]))
    for s, e in blocks:
        block, o = A[s:e], outer[:e - s]
        np.multiply.outer(x0[s:e], y0, out=o)
        np.subtract(o, block, out=block)
        if clamp:
            np.maximum(block, 1.0, out=block)
    return A


def top_logits(features: np.ndarray, bank, tau: float = DEFAULT_TAU):
    """(pred, top): each row's first arg-max of batch_bank_logits and the
    logit there, bit for bit."""
    F = np.asarray(features, dtype=np.float64)
    if bank.mode != MODE_HYPERBOLIC:
        S = batch_bank_logits(F, bank, tau=tau)
        pred = np.argmax(S, axis=1)
        return pred, S[np.arange(len(pred)), pred]
    A = _cosh_distance(geometry.batch_exp_map_origin(F), bank.prototypes)
    pred = np.argmin(A, axis=1)     # a row's first NaN, as argmax takes it
    rows = np.arange(len(pred))
    a = A[rows, pred]
    near = A <= (a * (1.0 + _TIE_BAND))[:, None]
    near[rows, pred] = False
    top = _shift_logits(np.arccosh(a), bank.delta, bank.d_min)
    if np.count_nonzero(near):
        tied = np.flatnonzero(near.any(axis=1))
        S = _shift_logits(np.arccosh(A[tied]), bank.delta, bank.d_min)
        pred[tied] = np.argmax(S, axis=1)
        top[tied] = S[np.arange(len(tied)), pred[tied]]
    return pred, top


def riemannian_step(x, ambient_grad, lr: float) -> np.ndarray:
    """One RSGD step on the hyperboloid from point x, or from every row of a
    (C, n+1) point matrix at once.

    ambient_grad is the plain Euclidean gradient dL/dx in ambient
    coordinates, shaped like x.  The result satisfies the manifold constraint.
    """
    # checked once here; the geometry kernels below take the arrays as given
    x, g = geometry._as_pair(x, np.array(ambient_grad, dtype=np.float64))
    g[..., 0] = -g[..., 0]             # inverse-metric scaling g_l^{-1} grad
    u = geometry._tangent_project(x, g)
    return _exp_map_at(x, -lr * u)


def _log_sigmoid(z: np.ndarray) -> np.ndarray:
    """log sigmoid(z) = -(max(-z, 0) + log1p(exp(-|z|))), in one new array.

    The branches of numpy's logaddexp(0, -z), negated, but from the SIMD
    exp and log1p ufuncs where logaddexp runs a scalar libm loop; within
    one float64 step of the correctly rounded value, and -0.0 where
    exp(-z) underflows.
    """
    t = np.abs(z)
    np.negative(t, out=t)
    np.exp(t, out=t)
    np.log1p(t, out=t)
    # t - min(z, 0) is max(-z, 0) + t bit for bit, signed zeros included
    t -= np.minimum(z, 0.0)
    return np.negative(t, out=t)


def _focal_terms(logits: np.ndarray, positive: np.ndarray, gamma: float, alpha: float):
    """Per-entry focal loss values and d(loss)/d(logit), numerically stable;
    `positive` is the boolean one-hot target matrix."""
    s = np.asarray(logits, dtype=np.float64)
    sign = np.where(positive, 1.0, -1.0)
    z = sign * s
    # q = p_t = sigmoid(z) and 1 - q = sigmoid(-z) from one tanh, which is
    # odd; log q = -softplus(-z)
    th = np.tanh(0.5 * z)
    q = 0.5 * (1.0 + th)
    one_m_q = 0.5 * (1.0 - th)
    log_q = _log_sigmoid(z)
    a_t = np.where(positive, alpha, 1.0 - alpha)
    w = one_m_q**gamma
    loss = -a_t * w * log_q
    grad = sign * (a_t * gamma * q * w * log_q - a_t * one_m_q ** (gamma + 1.0))
    return loss, grad


def batch_focal_loss(logits: np.ndarray, targets: np.ndarray, gamma: float, alpha: float):
    """Mean-over-samples focal loss for an (m, C) logit matrix.

    targets holds class indices with BACKGROUND for all-negative rows.
    Returns (mean_loss, gradient (m, C) of the mean loss).
    """
    m, C = logits.shape
    onehot = np.zeros((m, C), dtype=bool)
    fg = targets != BACKGROUND
    onehot[np.nonzero(fg)[0], targets[fg]] = True
    loss, grad = _focal_terms(logits, onehot, gamma, alpha)
    grad /= m
    return float(loss.sum() / m), grad


def hyperbolic_loss_and_grads(features: np.ndarray, bank, targets: np.ndarray,
                              gamma: float, alpha: float):
    """Focal loss through exp0 -> distances -> shifted logits, with analytic
    gradients w.r.t. the input features and the prototypes.

    features is (m, n); returns (loss, grad_features (m, n),
    grad_prototypes (C, n+1) in ambient Euclidean coordinates).
    """
    if bank.mode != MODE_HYPERBOLIC:
        raise ContractError("hyperbolic head required")
    F = np.asarray(features, dtype=np.float64)
    T = bank.prototypes
    X, exp0_terms = _exp0_rows(F)                     # (m, n+1)
    cosh_d = _cosh_distance(X, T)                     # (m, C)
    D = np.arccosh(cosh_d)
    near = D < _EPS_DIST
    S = _shift_logits(D, bank.delta, bank.d_min)      # D becomes the logits
    loss, G_D = batch_focal_loss(S, targets, gamma, alpha)
    G_D *= -bank.delta / bank.d_min                   # dL/dS becomes dL/dD
    # d(arccosh)/d(cosh_d) = 1/sqrt(cosh_d^2-1), written over cosh_d; zeroed
    # at coincidence, which covers every denom == 0 (cosh_d == 1 means D == 0)
    denom = np.multiply(cosh_d, cosh_d, out=cosh_d)
    denom -= 1.0
    np.maximum(denom, 0.0, out=denom)
    np.sqrt(denom, out=denom)
    W = np.divide(G_D, denom, out=np.zeros_like(G_D), where=~near)
    # cosh_d = -<x,t>_l = -x^T g_l t, so dL/dX = -g_l (W T), dL/dT = -g_l (W^T X)
    grad_X = -(W @ T)
    grad_X[:, 0] = -grad_X[:, 0]
    grad_T = -(W.T @ X)
    grad_T[:, 0] = -grad_T[:, 0]
    grad_F = _grad_exp0(F, grad_X, *exp0_terms)
    return loss, grad_F, grad_T


def euclidean_loss_and_grads(features: np.ndarray, bank, targets: np.ndarray,
                             gamma: float, alpha: float, tau: float = DEFAULT_TAU):
    """Focal loss through the Euclidean baseline head with analytic gradients
    w.r.t. features (m, n) and prototypes (C, n)."""
    F = np.asarray(features, dtype=np.float64)
    P = bank.prototypes
    if bank.mode == MODE_LINEAR:
        S = F @ P.T
        loss, G_S = batch_focal_loss(S, targets, gamma, alpha)
        return loss, G_S @ P, G_S.T @ F
    if bank.mode != MODE_COSINE:
        raise ContractError("euclidean head required")
    U, fn = unit_rows(F)
    Q, pn = unit_rows(P)
    S = U @ Q.T
    S /= tau
    loss, G_S = batch_focal_loss(S, targets, gamma, alpha)
    G_U = (G_S @ Q) / tau
    G_Q = (G_S.T @ U) / tau
    # back through row normalization: d/df = (I - u u^T)/||f|| applied to g
    grad_F = (G_U - np.einsum("ij,ij->i", G_U, U)[:, None] * U) / fn
    grad_P = (G_Q - np.einsum("ij,ij->i", G_Q, Q)[:, None] * Q) / pn
    return loss, grad_F, grad_P


def loss_and_grads(features, bank, targets, gamma, alpha, tau=DEFAULT_TAU):
    """heads.loss_and_grads through the copies above."""
    if bank.mode == MODE_HYPERBOLIC:
        return hyperbolic_loss_and_grads(features, bank, targets, gamma, alpha)
    return euclidean_loss_and_grads(features, bank, targets, gamma, alpha, tau=tau)
