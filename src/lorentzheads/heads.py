"""Distance-based classification heads.

The hyperbolic head maps a feature vector onto the hyperboloid via the
exponential map at the origin, measures geodesic distances to per-class
prototypes, and converts distances to logits via

    s_c = delta - (delta / d_min) * d_c

so that s = delta at distance zero and sigmoid(s) = 0.5 exactly at
d = d_min.  Training uses a sigmoid focal loss; every loss function takes
its focusing gamma and class weight alpha from the caller (a run's
`ExperimentConfig` holds and range-checks them).  A matched Euclidean head
(plain linear logits W^T v, or temperature-scaled cosine similarities)
serves as the baseline for controlled comparisons.  Every forward and loss
path takes an (m, n) feature matrix; classify wraps one feature as m = 1.
The hyperbolic backward negates the spatial columns of its two products in
place, the bits of a full negation and a time-column re-negation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geometry, jsonio
from .errors import ContractError, ParameterError

# Label used for proposals that belong to no class (all-negative targets).
BACKGROUND = -1

MODE_HYPERBOLIC = "hyperbolic"
MODE_LINEAR = "euclidean-linear"
MODE_COSINE = "euclidean-cosine"
MODES = (MODE_HYPERBOLIC, MODE_LINEAR, MODE_COSINE)

DEFAULT_DELTA = 1.4
DEFAULT_TAU = 0.07

# Distance gradients are zeroed below this to avoid the d=0 singularity.
_EPS_DIST = 1e-7
# top_logits scores a row in full when another cosh distance lies within
# this relative gap of the row's minimum.
_TIE_BAND = 2.0**-40


def sigmoid(x):
    x = np.asarray(x, dtype=np.float64)
    return 0.5 * (1.0 + np.tanh(0.5 * x))


@dataclass
class PrototypeBank:
    """C class prototypes plus head configuration.

    Hyperbolic prototypes are stored as full (n+1)-coordinate hyperboloid
    points (one row each); Euclidean prototypes as plain n-vectors.  d_min is
    read by the hyperbolic logit alone and derived, never stored: the minimum
    pairwise geodesic distance of a frozen hyperbolic bank, 1 otherwise.
    """

    mode: str
    prototypes: np.ndarray
    class_names: list[str]
    delta: float = DEFAULT_DELTA
    frozen: bool = False

    def __post_init__(self):
        self.prototypes = np.asarray(self.prototypes, dtype=np.float64)
        self.validate()
        frozen_hyperbolic = self.frozen and self.mode == MODE_HYPERBOLIC
        self.d_min = self.min_pairwise_distance() if frozen_hyperbolic else 1.0

    @property
    def num_classes(self) -> int:
        return self.prototypes.shape[0]

    @property
    def feature_dim(self) -> int:
        """Width of the features this bank scores (hyperbolic rows carry x0)."""
        return self.prototypes.shape[1] - (self.mode == MODE_HYPERBOLIC)

    def validate(self) -> None:
        if self.mode not in MODES:
            raise ParameterError(f"unknown mode {self.mode!r}")
        if self.prototypes.ndim != 2 or self.prototypes.shape[0] < 2:
            raise ParameterError("need at least 2 prototype rows")
        if len(self.class_names) != self.prototypes.shape[0]:
            raise ParameterError("class_names length must match prototype count")
        if not 0.0 < self.delta < np.inf:
            raise ParameterError(f"delta must be finite and > 0, not {self.delta}")
        if not np.all(np.isfinite(self.prototypes)):
            raise ContractError("prototypes contain non-finite entries")
        if self.mode == MODE_HYPERBOLIC:
            geometry.assert_on_manifold(self.prototypes)
        elif self.mode == MODE_COSINE:   # scoring's zero-row test, when the bank is built
            unit_rows(self.prototypes)

    def min_pairwise_distance(self) -> float:
        """Brute-force minimum geodesic distance between hyperbolic prototypes."""
        D = geometry.batch_distance(self.prototypes, self.prototypes)
        i, j = np.triu_indices(self.num_classes, k=1)
        vals = D[i, j]
        # duplicated prototypes (aliasing setups) are no pair of distinct
        # classes; exclude bitwise-identical rows, which arccosh rounding can
        # put above the cut-off away from the origin, and near-zero distances
        first = {}
        row_id = np.array([first.setdefault(p.tobytes(), k)
                           for k, p in enumerate(self.prototypes)])
        positive = vals[(vals > 1e-7) & (row_id[i] != row_id[j])]
        if positive.size == 0:
            raise ParameterError("all prototypes coincide; d_min undefined")
        return float(positive.min())

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        return jsonio.plain(self)

    @classmethod
    def from_dict(cls, d: dict) -> "PrototypeBank":
        """The bank a `prototype_bank` document holds; a d_min is not read."""
        jsonio.validate(d, "prototype_bank")
        return cls(**{k: v for k, v in d.items() if k != "d_min"})

    def save(self, path) -> None:
        jsonio.write(path, self)

    @classmethod
    def load(cls, path) -> "PrototypeBank":
        return jsonio.read(path, cls.from_dict)


def random_bank(mode, class_names, dim, rng, delta=DEFAULT_DELTA) -> PrototypeBank:
    """Learnable bank initialized near the origin: one row per class, uniform
    in [-0.01, 0.01]^dim, exp0-mapped for the hyperbolic head."""
    W = rng.uniform(-0.01, 0.01, size=(len(class_names), dim))
    if mode == MODE_HYPERBOLIC:
        W = geometry.batch_exp_map_origin(W)
    return PrototypeBank(mode=mode, prototypes=W, class_names=class_names, delta=delta)


# ---------------------------------------------------------------------------
# Forward paths
# ---------------------------------------------------------------------------


def shift_logits(distances, delta: float, d_min: float) -> np.ndarray:
    """s_c = delta - (delta / d_min) * d_c, in a new array."""
    return _shift_logits(np.array(distances, dtype=np.float64), delta, d_min)


def _shift_logits(D: np.ndarray, delta: float, d_min: float) -> np.ndarray:
    """shift_logits written over the float64 distance array D, which the
    caller owns; returns D."""
    for name, value in (("d_min", d_min), ("delta", delta)):
        if not 0.0 < value < np.inf:                # NaN fails both comparisons
            raise ParameterError(f"{name} must be finite and > 0, not {value}")
    # algebraically delta - (delta/d_min) d; the form delta * (1 - d/d_min)
    # is exactly delta at d = 0 and exactly 0 at d = d_min regardless of rounding
    D /= d_min
    np.subtract(1.0, D, out=D)
    D *= delta
    return D


def unit_rows(A: np.ndarray):
    """(A with each row scaled to unit norm, the (m, 1) row norms); cosine
    similarity is undefined on a zero row.

    The norms take np.linalg.norm's formula for real rows, without its
    wrapper.  A finite nonzero row whose squares overflow or underflow, so
    that the formula reads inf or 0, is divided by its largest |entry|
    before it is normalised; every other row keeps the formula's bits.
    """
    with np.errstate(over="ignore"):   # an overflowing row is rescaled below
        norms = np.sqrt(np.add.reduce(A * A, axis=1, keepdims=True))
    if 0.0 < norms.min(initial=np.inf) and norms.max(initial=0.0) < np.inf:
        return A / norms, norms
    peak = np.abs(A).max(axis=1, keepdims=True)
    rows = (((norms == 0.0) | (norms == np.inf)) & (0.0 < peak) & (peak < np.inf))[:, 0]
    B = A[rows] / peak[rows]                  # largest |entry| 1: no square overflows
    b = np.sqrt(np.add.reduce(B * B, axis=1, keepdims=True))
    with np.errstate(over="ignore"):          # a norm above the float range reads inf
        norms[rows] = peak[rows] * b
    if np.any(norms == 0.0):
        raise ContractError("cosine similarity requires nonzero vectors")
    U = A / norms
    U[rows] = B / b
    return U, norms


def batch_bank_logits(features: np.ndarray, bank: PrototypeBank,
                      tau: float = DEFAULT_TAU) -> np.ndarray:
    """Mode-dispatching logits for an (m, n) feature matrix; returns (m, C)."""
    F = np.asarray(features, dtype=np.float64)
    if bank.mode == MODE_HYPERBOLIC:
        X = geometry.batch_exp_map_origin(F)
        D = geometry.batch_distance(X, bank.prototypes)
        return _shift_logits(D, bank.delta, bank.d_min)
    if bank.mode == MODE_LINEAR:
        return F @ bank.prototypes.T
    U, _ = unit_rows(F)
    Q, _ = unit_rows(bank.prototypes)
    S = U @ Q.T
    S /= tau
    return S


def top_logits(features: np.ndarray, bank: PrototypeBank,
               tau: float = DEFAULT_TAU) -> tuple[np.ndarray, np.ndarray]:
    """(pred, top): each row's first arg-max of batch_bank_logits and the
    logit there, bit for bit.

    A hyperbolic bank takes arccosh and the logit shift at each row's
    nearest prototype only.  The logit falls monotonically with the cosh
    distance but may round two near distances to one logit, where the
    arg-max takes the lower column; so a row with another column within a
    relative 2^-40 of its minimum (exact ties, duplicate prototypes, the
    clamp at 1) is scored in full.  Outside that band the distances differ
    by more than ln(1 + 2^-40) ~ 2^-40 (arccosh grows faster than log),
    about 8 ULP of any distance whose cosh is finite (below ~710, where one
    ULP is at most 2^-43), so no other column can tie after the shift.
    """
    F = np.asarray(features, dtype=np.float64)
    if bank.mode != MODE_HYPERBOLIC:
        S = batch_bank_logits(F, bank, tau=tau)
        pred = np.argmax(S, axis=1)
        return pred, S[np.arange(len(pred)), pred]
    A = geometry._cosh_distance(geometry.batch_exp_map_origin(F), bank.prototypes)
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


def classify(feature, bank: PrototypeBank, k: int | None = None, tau: float = DEFAULT_TAU):
    """Predict a class for one feature vector.

    Returns (predicted_index, confidence, top_k) where top_k is a list of
    (class_name, confidence) sorted by descending confidence.  Ties break
    toward the lower class index.  k defaults to min(3, C).
    """
    if k is None:
        k = min(3, bank.num_classes)
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)) \
            or not 1 <= k <= bank.num_classes:
        raise ParameterError(f"k must be an int in [1, {bank.num_classes}], not {k!r}")
    f = np.asarray(feature, dtype=np.float64)
    if f.ndim != 1 or not np.all(np.isfinite(f)):
        raise ContractError("feature must be a finite 1-D vector")
    scores = batch_bank_logits(f[None], bank, tau=tau)[0]
    conf = sigmoid(scores)
    pred = int(np.argmax(scores))  # first max == lowest index on ties
    order = np.argsort(-conf, kind="stable")[:k]
    top = [(bank.class_names[int(c)], float(conf[int(c)])) for c in order]
    return pred, float(conf[pred]), top


# ---------------------------------------------------------------------------
# Focal loss
# ---------------------------------------------------------------------------


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


# ---------------------------------------------------------------------------
# Loss + gradients through the full head (training path)
# ---------------------------------------------------------------------------


def hyperbolic_loss_and_grads(features: np.ndarray, bank: PrototypeBank,
                              targets: np.ndarray, gamma: float, alpha: float):
    """Focal loss through exp0 -> distances -> shifted logits, with analytic
    gradients w.r.t. the input features and the prototypes.

    features is (m, n); returns (loss, grad_features (m, n),
    grad_prototypes (C, n+1) in ambient Euclidean coordinates).
    """
    if bank.mode != MODE_HYPERBOLIC:
        raise ContractError("hyperbolic head required")
    F = np.asarray(features, dtype=np.float64)
    T = bank.prototypes
    X, exp0_terms = geometry._exp0_rows(F)            # (m, n+1)
    cosh_d = geometry._cosh_distance(X, T)            # (m, C)
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
    # cosh_d = -<x,t>_l = -x^T g_l t, so dL/dX = -g_l (W T), dL/dT = -g_l (W^T X):
    # the products with their spatial columns negated in place
    grad_X = W @ T
    np.negative(grad_X[:, 1:], out=grad_X[:, 1:])
    grad_T = W.T @ X
    np.negative(grad_T[:, 1:], out=grad_T[:, 1:])
    grad_F = geometry._grad_exp0(F, grad_X, *exp0_terms)
    return loss, grad_F, grad_T


def loss_and_grads(features: np.ndarray, bank: PrototypeBank, targets: np.ndarray,
                   gamma: float, alpha: float, tau: float = DEFAULT_TAU):
    """Mode-dispatching training loss: (loss, grad_features (m, n),
    grad_prototypes shaped like bank.prototypes)."""
    if bank.mode == MODE_HYPERBOLIC:
        return hyperbolic_loss_and_grads(features, bank, targets, gamma, alpha)
    return euclidean_loss_and_grads(features, bank, targets, gamma, alpha, tau=tau)


def euclidean_loss_and_grads(features: np.ndarray, bank: PrototypeBank,
                             targets: np.ndarray, gamma: float, alpha: float,
                             tau: float = DEFAULT_TAU):
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
