"""Distance-based classification heads.

The hyperbolic head maps a feature vector onto the hyperboloid via the
exponential map at the origin, measures geodesic distances to per-class
prototypes, and converts distances to logits via

    s_c = delta - (delta / d_min) * d_c

so that s = delta at distance zero and sigmoid(s) = 0.5 exactly at
d = d_min.  Training uses a sigmoid focal loss with the caller's gamma and
alpha.  A matched Euclidean head (plain linear logits W^T v, or
temperature-scaled cosine similarities) serves as the baseline for
controlled comparisons.  `HEADS` holds one row per mode, and whatever
depends on the mode is a lookup there.  Every forward and loss path takes
an (m, n) feature matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import geometry, jsonio
from .errors import ContractError, ParameterError

# Label used for proposals that belong to no class (all-negative targets).
BACKGROUND = -1

MODE_HYPERBOLIC = "hyperbolic"
MODE_LINEAR = "euclidean-linear"
MODE_COSINE = "euclidean-cosine"
# HEADS, at the end of the module, holds what each mode does; MODES = tuple(HEADS)

DEFAULT_DELTA = 1.4
DEFAULT_TAU = 0.07

# Distance gradients are zeroed below this to avoid the d=0 singularity.
_EPS_DIST = 1e-7
# top_logits scores a row in full when another cosh distance lies within
# this relative gap of the row's minimum.
_TIE_BAND = 2.0**-40
# unit_rows rescales a row whose sum of squares is below this (subnormal).
_TINY = np.finfo(np.float64).tiny


def sigmoid(x):
    x = np.asarray(x, dtype=np.float64)
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def check_delta(delta: float) -> None:
    """Refuse a distance shift `delta` that is not finite and > 0."""
    if not 0.0 < delta < np.inf:
        raise ParameterError(f"delta must be finite and > 0, not {delta}")


@dataclass
class PrototypeBank:
    """C class prototypes plus head configuration.  d_min, read by the
    distance shift alone, is derived, never stored: the minimum pairwise
    geodesic distance of a frozen bank whose head shifts distances, 1 otherwise."""

    mode: str
    prototypes: np.ndarray
    class_names: list[str]
    delta: float = DEFAULT_DELTA
    frozen: bool = False

    def __post_init__(self):
        self.prototypes = np.asarray(self.prototypes, dtype=np.float64)
        self.validate()

    @property
    def head(self) -> Head:
        return HEADS[self.mode]

    @property
    def num_classes(self) -> int:
        return self.prototypes.shape[0]

    @property
    def feature_dim(self) -> int:
        """Width of the features this bank scores (hyperboloid rows carry x0)."""
        return self.prototypes.shape[1] - self.head.exp0

    def validate(self) -> None:
        """Refuse a bank whose fields disagree, then derive d_min; what the
        head's row check and the derivation raise name `prototypes`."""
        if self.mode not in HEADS:
            raise ParameterError(f"unknown mode {self.mode!r}")
        if self.prototypes.ndim != 2 or self.prototypes.shape[0] < 2:
            raise ParameterError("prototypes must hold at least 2 rows")
        if len(self.class_names) != self.prototypes.shape[0]:
            raise ParameterError("class_names must hold one name per prototype row")
        check_delta(self.delta)
        if not np.all(np.isfinite(self.prototypes)):
            raise ContractError("prototypes contain non-finite entries")
        try:
            self.head.check(self.prototypes)
            self.d_min = self.min_pairwise_distance() if self.frozen and self.head.shifted else 1.0
        except (ParameterError, ContractError) as e:
            raise type(e)(f"prototypes: {e}") from e

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
        """The bank a `prototype_bank` document holds, once it passes the schema."""
        jsonio.validate(d, "prototype_bank")
        return cls._decode(d)

    @classmethod
    def _decode(cls, d: dict) -> "PrototypeBank":
        """The bank a checked `prototype_bank` document holds; a d_min is not read."""
        return cls(**{k: v for k, v in d.items() if k != "d_min"})

    def save(self, path) -> None:
        jsonio.write(path, self)

    @classmethod
    def load(cls, path) -> "PrototypeBank":
        return jsonio.read(path, cls._decode, "prototype_bank")


def random_bank(mode, class_names, dim, rng, delta=DEFAULT_DELTA) -> PrototypeBank:
    """Learnable bank initialized near the origin: the head's rows of one
    uniform draw in [-0.01, 0.01]^dim per class."""
    W = rng.uniform(-0.01, 0.01, size=(len(class_names), dim))
    return PrototypeBank(mode, HEADS[mode].rows(W), class_names, delta=delta)


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
    wrapper.  A finite nonzero row whose sum of squares overflows or falls
    below the smallest normal float, where it keeps few significant bits or
    none, is divided by its largest |entry| before it is normalised; every
    other row keeps the formula's bits.
    """
    with np.errstate(over="ignore"):   # an overflowing row is rescaled below
        sq = np.add.reduce(A * A, axis=1, keepdims=True)
    norms = np.sqrt(sq)
    if _TINY <= sq.min(initial=np.inf) and sq.max(initial=0.0) < np.inf:
        return A / norms, norms
    peak = np.abs(A).max(axis=1, keepdims=True)
    rows = (((sq < _TINY) | (sq == np.inf)) & (0.0 < peak) & (peak < np.inf))[:, 0]
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
    """The bank's head's (m, C) logits of an (m, n) feature matrix."""
    return bank.head.logits(np.asarray(features, dtype=np.float64), bank, tau)


def top_logits(features: np.ndarray, bank: PrototypeBank,
               tau: float = DEFAULT_TAU) -> tuple[np.ndarray, np.ndarray]:
    """(pred, top): each row's first arg-max of batch_bank_logits and the
    logit there, bit for bit, by the bank's head's winner-only path if any."""
    F = np.asarray(features, dtype=np.float64)
    if bank.head.top is not None:
        return bank.head.top(F, bank)
    S = batch_bank_logits(F, bank, tau=tau)
    pred = np.argmax(S, axis=1)
    return pred, S[np.arange(len(pred)), pred]


def _cosine_logits(F, P, tau):
    """(S, U, |F|, Q, |P|): the cosine logits S of F against P over tau, with
    the unit rows and norms of both."""
    (U, fn), (Q, pn) = unit_rows(F), unit_rows(P)
    S = U @ Q.T
    S /= tau
    return S, U, fn, Q, pn


def _nearest_top(F, bank):
    """top_logits of a bank whose logits fall with the cosh distance:
    arccosh and the shift run at each row's nearest prototype only.

    Two near distances may round to one logit, where the arg-max takes the
    lower column, so a row with another column within a relative 2^-40 of
    its minimum (exact ties, duplicate prototypes, the clamp at 1) is scored
    in full.  Outside that band the distances differ by more than
    ln(1 + 2^-40) ~ 2^-40 (arccosh grows faster than log), about 8 ULP of
    any distance whose cosh is finite (below ~710, where one ULP is at most
    2^-43), so no other column can tie after the shift.  Only the winners
    and the tied rows are clamped at 1: max(., 1) is monotone and keeps NaN,
    so the clamped winner is the clamped row minimum and the band, whose
    bound is >= 1, holds the same columns either way; where the unclamped
    and the clamped arg-min differ, both columns clamp to the minimum, so
    the row is tied and scored in full.
    """
    A = geometry._cosh_distance(geometry.batch_exp_map_origin(F), bank.prototypes,
                                clamp=False)
    pred = np.argmin(A, axis=1)     # a row's first NaN, as argmax takes it
    rows = np.arange(len(pred))
    a = np.maximum(A[rows, pred], 1.0)
    near = A <= (a * (1.0 + _TIE_BAND))[:, None]
    near[rows, pred] = False
    top = _shift_logits(np.arccosh(a), bank.delta, bank.d_min)
    if np.count_nonzero(near):
        tied = np.flatnonzero(near.any(axis=1))
        S = _shift_logits(np.arccosh(np.maximum(A[tied], 1.0)), bank.delta, bank.d_min)
        pred[tied] = np.argmax(S, axis=1)
        top[tied] = S[np.arange(len(tied)), pred[tied]]
    return pred, top


# ---------------------------------------------------------------------------
# Focal loss
# ---------------------------------------------------------------------------


def _log_sigmoid(z: np.ndarray) -> np.ndarray:
    """log sigmoid(z) = -(max(-z, 0) + log1p(exp(-|z|))), in one new array;
    z is overwritten with min(z, 0).

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
    t -= np.minimum(z, 0.0, out=z)
    return np.negative(t, out=t)


def _weigh(q, w, log_q, p, a: float, gamma: float):
    """(-a w log q, a gamma q w log q - a p): the loss and sign-free
    gradient of focal terms that share the class weight a, in the one-hot
    formula's operand order, written over q and p."""
    loss = (-a) * w
    loss *= log_q
    q *= a * gamma
    q *= w
    q *= log_q
    p *= a
    q -= p
    return loss, q


def _focal_terms(logits: np.ndarray, positive: np.ndarray, gamma: float, alpha: float):
    """Per-entry focal loss values and d(loss)/d(logit), numerically stable;
    `positive` holds the flat (row-major) indices of the positive entries.

    With sign = +1 at a positive entry and -1 elsewhere, z = sign * s,
    q = sigmoid(z), a_t = alpha or 1 - alpha and w = (1 - q)^gamma:
    loss = -a_t w log q and grad = sign (a_t gamma q w log q
    - a_t (1 - q)^(gamma + 1)).  Each pass runs once over the whole matrix
    with the negative-class constants; the positive entries' terms are then
    weighed from their gathered q, w, log q and (1 - q)^(gamma + 1) and put
    in place.  Multiplying by +-1 is exact, so no sign or a_t matrix is
    needed for the bits.
    """
    s = np.asarray(logits, dtype=np.float64)
    z = np.negative(s)
    z.put(positive, s.take(positive))
    # q = p_t = sigmoid(z) and 1 - q = sigmoid(-z) from one tanh, which is
    # odd; log q = -softplus(-z)
    th = z * 0.5
    np.tanh(th, out=th)
    q = th + 1.0
    q *= 0.5
    one_m_q = np.subtract(1.0, th, out=th)
    one_m_q *= 0.5
    log_q = _log_sigmoid(z)
    w = one_m_q**gamma
    p = one_m_q                 # (1 - q)^(gamma + 1), written over 1 - q
    p **= gamma + 1.0
    gathered = [t.take(positive) for t in (q, w, log_q, p)]
    loss, grad = _weigh(q, w, log_q, p, 1.0 - alpha, gamma)
    np.negative(grad, out=grad)
    # a float alpha, so that -alpha is -0.0 at alpha = 0 whatever its type
    pos_loss, pos_grad = _weigh(*gathered, float(alpha), gamma)
    loss.put(positive, pos_loss)
    grad.put(positive, pos_grad)
    return loss, grad


def batch_focal_loss(logits: np.ndarray, targets: np.ndarray, gamma: float, alpha: float):
    """Mean-over-samples focal loss for an (m, C) logit matrix.

    targets holds class indices in [0, C) with BACKGROUND for all-negative
    rows; any other value is refused.  Returns (mean_loss, gradient (m, C)
    of the mean loss).
    """
    m, C = logits.shape
    targets = np.asarray(targets)
    fg = targets != BACKGROUND
    try:   # the flat indices of the positive entries, range-checked
        positive = np.ravel_multi_index((fg.nonzero()[0], targets[fg]), (m, C))
    except ValueError:
        raise ContractError(f"targets must lie in [{BACKGROUND}, {C})") from None
    loss, grad = _focal_terms(logits, positive, gamma, alpha)
    grad /= m
    return float(loss.sum() / m), grad


# ---------------------------------------------------------------------------
# Loss + gradients through the full head (training path)
# ---------------------------------------------------------------------------


def hyperbolic_loss_and_grads(features: np.ndarray, bank: PrototypeBank,
                              targets: np.ndarray, gamma: float, alpha: float):
    """Focal loss through exp0 -> distances -> shifted logits of an (m, n)
    feature matrix: (loss, grad_features (m, n), grad_prototypes (C, n+1) in
    ambient Euclidean coordinates, or None for a frozen bank)."""
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
    # d(arccosh)/d(cosh_d) = 1/sqrt(cosh_d^2-1), written over cosh_d, which
    # _cosh_distance clamps at 1, so cosh_d^2 - 1 >= 0; zeroed at
    # coincidence, which covers every denom == 0 (cosh_d == 1 means D == 0)
    denom = np.multiply(cosh_d, cosh_d, out=cosh_d)
    denom -= 1.0
    np.sqrt(denom, out=denom)
    if near.any():
        W = np.divide(G_D, denom, out=np.zeros_like(G_D), where=~near)
    else:
        W = np.divide(G_D, denom, out=G_D)
    # cosh_d = -<x,t>_l = -x^T g_l t, so dL/dX = -g_l (W T), dL/dT = -g_l (W^T X): the
    # products with their spatial columns negated in place, the bits of -g_l (.)
    grad_X = W @ T
    np.negative(grad_X[:, 1:], out=grad_X[:, 1:])
    grad_F = geometry._grad_exp0(F, grad_X, *exp0_terms)
    if bank.frozen:
        return loss, grad_F, None
    grad_T = W.T @ X
    np.negative(grad_T[:, 1:], out=grad_T[:, 1:])
    return loss, grad_F, grad_T


def loss_and_grads(features: np.ndarray, bank: PrototypeBank, targets: np.ndarray,
                   gamma: float, alpha: float, tau: float = DEFAULT_TAU):
    """The bank's head's training loss: (loss, grad_features (m, n),
    grad_prototypes shaped like bank.prototypes, or None for a frozen bank)."""
    return bank.head.loss(features, bank, targets, gamma, alpha, tau)


def euclidean_loss_and_grads(features: np.ndarray, bank: PrototypeBank,
                             targets: np.ndarray, gamma: float, alpha: float,
                             tau: float = DEFAULT_TAU):
    """Focal loss through the Euclidean baseline head with analytic gradients
    w.r.t. features (m, n) and prototypes (C, n), or None for a frozen bank.
    The cosine head is the linear head on unit rows, its logits over tau."""
    if bank.head.exp0:
        raise ContractError("euclidean head required")
    F, P = np.asarray(features, dtype=np.float64), bank.prototypes
    if not bank.head.cosine:
        S = F @ P.T
        loss, G_S = batch_focal_loss(S, targets, gamma, alpha)
        return loss, G_S @ P, None if bank.frozen else G_S.T @ F
    S, U, fn, Q, pn = _cosine_logits(F, P, tau)
    loss, G_S = batch_focal_loss(S, targets, gamma, alpha)
    G_U = (G_S @ Q) / tau
    # back through row normalization: d/df = (I - u u^T)/||f|| applied to g
    grad_F = (G_U - np.einsum("ij,ij->i", G_U, U)[:, None] * U) / fn
    if bank.frozen:
        return loss, grad_F, None
    G_Q = (G_S.T @ U) / tau
    grad_P = (G_Q - np.einsum("ij,ij->i", G_Q, Q)[:, None] * Q) / pn
    return loss, grad_F, grad_P


@dataclass(frozen=True)
class Head:
    """What one head mode does.  A row calls the package's public functions
    from a lambda, which looks each up at call time, so a wrapper put on the
    module attribute (a tracer, a test's counter) sees every call."""

    logits: Callable            # (F, bank, tau) -> all-pairs (m, C) logits
    loss: Callable              # (F, bank, targets, gamma, alpha, tau) -> loss_and_grads'
    top: Callable | None = None         # (F, bank) -> winner-only top_logits, if any
    check: Callable = lambda P: None    # refuses prototype rows the head cannot score
    exp0: bool = False          # rows are exp0 of tangent rows, x0 one column wider
    shifted: bool = False       # logits shift distances: reads delta; frozen derives d_min
    cosine: bool = False        # logits are cosine similarities over tau: reads cosine_tau
    rsgd: bool = False          # RSGD, not Adam, steps a learnable bank's prototypes
    kind: str = "cosine"        # the hubness distance kind

    def rows(self, W: np.ndarray) -> np.ndarray:
        """The prototype rows of tangent coordinates W: exp0, or W itself."""
        return geometry.batch_exp_map_origin(W) if self.exp0 else W


HEADS = {
    MODE_HYPERBOLIC: Head(
        lambda F, bank, tau: _shift_logits(geometry.batch_distance(
            geometry.batch_exp_map_origin(F), bank.prototypes), bank.delta, bank.d_min),
        lambda F, bank, y, gamma, alpha, tau: hyperbolic_loss_and_grads(F, bank, y, gamma, alpha),
        top=_nearest_top, check=lambda P: geometry.assert_on_manifold(P),
        exp0=True, shifted=True, rsgd=True, kind="hyperbolic"),
    MODE_LINEAR: Head(lambda F, bank, tau: F @ bank.prototypes.T,
                      lambda *args: euclidean_loss_and_grads(*args)),
    MODE_COSINE: Head(lambda F, bank, tau: _cosine_logits(F, bank.prototypes, tau)[0],
                      lambda *args: euclidean_loss_and_grads(*args),
                      check=unit_rows, cosine=True),
}
MODES = tuple(HEADS)
