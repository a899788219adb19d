"""The trimmed training kernels against their allocating originals in
`reference_kernels`, bit for bit (`.view(np.int64)`), on the edge cases
their masks, index writes and in-place writes must get right: r = 0, r
below the series cut-off, coincident features and prototypes, zero
gradients, single points, ragged sizes, signed-zero, subnormal and
saturating logits, and all-background batches."""

import warnings

import numpy as np
import pytest

from lorentzheads import geometry as G
from lorentzheads import heads as H
from lorentzheads import optim

import reference_kernels as R
from conftest import same_bits

ROWS = (1, 7, 64)
CLASSES = (2, 16, 64)
SERIES_RADII = [0.0, 1e-8, 9e-7]


def edge_rows(rng, m, n):
    """m tangent rows whose norms run over r = 0, r = 1e-8 and 9e-7 (series;
    only near the cut-off does the series move a bit of its result) and r
    from 1e-3 to 8 (formula), in that order, cut short for small m."""
    radii = np.concatenate([SERIES_RADII, np.geomspace(1e-3, 8.0, max(m - 3, 1))])[:m]
    V = rng.normal(0.0, 1.0, (m, n))
    V /= np.linalg.norm(V, axis=1, keepdims=True)
    return V * radii[:, None]


@pytest.fixture(autouse=True)
def no_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        yield


@pytest.mark.parametrize("n", [2, 16])
@pytest.mark.parametrize("m", ROWS)
def test_exp0_and_its_jacobian(rng, m, n):
    V = edge_rows(rng, m, n)
    Cot = rng.normal(0.0, 1.0, (m, n + 1))
    X, terms = G._exp0_rows(V)
    X_ref, terms_ref = R._exp0_rows(V)
    assert same_bits(X, X_ref)
    assert all(same_bits(t, t_ref) for t, t_ref in zip(terms, terms_ref))
    assert np.array_equal(terms[-1], terms_ref[0] >= G._EPS_SMALL)
    assert same_bits(G._grad_exp0(V, Cot, *terms), R._grad_exp0(V, Cot, *terms_ref))
    assert same_bits(G.grad_exp_map_origin(V, Cot), R._grad_exp0(V, Cot, *terms_ref))


@pytest.mark.parametrize("series", [True, False], ids=["series-rows", "no-series-row"])
@pytest.mark.parametrize("lr", [1e-2, 1.0, 1e-9])
@pytest.mark.parametrize("C", CLASSES)
def test_riemannian_step(rng, C, lr, series):
    X = G.batch_exp_map_origin(rng.normal(0.0, 1.0, (C, 4)))
    grad = rng.normal(0.0, 1.0, (C, 5))
    if series:
        grad[0] = 0.0                       # u = 0
        grad[-1] *= 1e-7                    # ||u|| below the cut-off, but not 0
    u = G.tangent_project(X, grad * [-1.0, 1, 1, 1, 1]) * lr    # rate 1e-9: every row
    assert (np.sqrt(np.maximum(G.lorentz_inner(u, u), 0.0)) < G._EPS_SMALL).any() \
        == (series or lr == 1e-9)
    assert same_bits(optim.riemannian_step(X, grad, lr), R.riemannian_step(X, grad, lr))
    for row in (0, 1, C - 1):               # one point, its terms 0-d
        assert same_bits(optim.riemannian_step(X[row], grad[row], lr),
                         R.riemannian_step(X[row], grad[row], lr))


@pytest.mark.parametrize("series", [True, False], ids=["series-rows", "no-series-row"])
@pytest.mark.parametrize("C", CLASSES)
def test_exp_map_at_rows_and_points(rng, C, series):
    X = G.batch_exp_map_origin(rng.normal(0.0, 1.0, (C, 3)))
    U = G.tangent_project(X, rng.normal(0.0, 1.0, X.shape))
    radii = np.concatenate([SERIES_RADII if series else [], np.geomspace(1e-3, 8.0, C)])
    U *= radii[:C, None] / np.sqrt(G.lorentz_inner(U, U))[:, None]
    assert same_bits(G.exp_map_at(X, U), R._exp_map_at(X, U))
    assert same_bits(G.exp_map_at(X[1], U[1]), R._exp_map_at(X[1], U[1]))
    assert same_bits(G.exp_map_at(X[-1], U[-1]), R._exp_map_at(X[-1], U[-1]))


@pytest.mark.parametrize("frozen", [False, True])
@pytest.mark.parametrize("C", CLASSES)
@pytest.mark.parametrize("m", ROWS)
def test_hyperbolic_loss_and_grads(rng, m, C, frozen):
    F = edge_rows(rng, m, 6)
    spatial = rng.normal(0.0, 1.0, (C, 6))
    spatial[-1] = F[min(1, m - 1)]          # a feature at a prototype: D = 0
    bank = H.PrototypeBank(H.MODE_HYPERBOLIC, G.batch_exp_map_origin(spatial),
                           [f"c{i}" for i in range(C)], frozen=frozen)
    assert (G.batch_distance(G.batch_exp_map_origin(F), bank.prototypes) < H._EPS_DIST).any()
    targets = rng.integers(-1, C, m)
    loss, grad_F, grad_T = H.hyperbolic_loss_and_grads(F, bank, targets, 2.0, 0.25)
    ref_loss, ref_F, ref_T = R.hyperbolic_loss_and_grads(F, bank, targets, 2.0, 0.25)
    assert same_bits(loss, ref_loss) and same_bits(grad_F, ref_F)
    # a frozen bank's prototype gradient is not computed
    assert grad_T is None if frozen else same_bits(grad_T, ref_T)


@pytest.mark.parametrize("frozen", [False, True])
def test_hyperbolic_loss_and_grads_with_no_feature_at_a_prototype(rng, frozen):
    # the unmasked divide: every distance is above the near-0 cut-off
    F = edge_rows(rng, 64, 6)
    bank = H.PrototypeBank(H.MODE_HYPERBOLIC, G.batch_exp_map_origin(rng.normal(0.0, 1.0, (16, 6))),
                           [f"c{i}" for i in range(16)], frozen=frozen)
    assert not (G.batch_distance(G.batch_exp_map_origin(F), bank.prototypes)
                < H._EPS_DIST).any()
    targets = rng.integers(-1, 16, 64)
    got = H.hyperbolic_loss_and_grads(F, bank, targets, 2.0, 0.25)
    want = R.hyperbolic_loss_and_grads(F, bank, targets, 2.0, 0.25)
    assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])
    assert got[2] is None if frozen else same_bits(got[2], want[2])


# logits where z = +-s is a signed zero, subnormal, or past exp's underflow
EDGE_LOGITS = [0.0, -0.0, 1e-310, -1e-310, 800.0, -800.0]
GAMMAS = (0.0, 0.5, 2.0, 3.0)
ALPHAS = (0, 0.0, 0.25, 1.0)       # an int 0 too: -alpha is -0.0 either way


def edge_logits(rng, m, C):
    """An (m, C) logit matrix over scales 1e-8 to 1e3, with EDGE_LOGITS in
    its leading and in its trailing entries."""
    S = rng.uniform(-1.0, 1.0, (m, C)) * rng.choice([1e-8, 1.0, 30.0, 1e3], (m, C))
    k = min(S.size, len(EDGE_LOGITS))
    S.reshape(-1)[:k] = EDGE_LOGITS[:k]
    S.reshape(-1)[-k:] = EDGE_LOGITS[:k]
    return S


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("gamma", GAMMAS)
def test_focal_terms(rng, gamma, alpha):
    for m in ROWS:
        for C in CLASSES:
            S = edge_logits(rng, m, C)
            # rows with several positives; the edge logits lead an
            # all-positive first row and end an all-negative last row
            positive = rng.random((m, C)) < 0.4
            positive[0] = True
            positive[-1] = False
            got = H._focal_terms(S, np.flatnonzero(positive), gamma, alpha)
            want = R._focal_terms(S, positive, gamma, alpha)
            assert same_bits(got[0], want[0]) and same_bits(got[1], want[1]), (m, C)


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("gamma", GAMMAS)
def test_batch_focal_loss(rng, gamma, alpha):
    for m in ROWS:
        for C in CLASSES:
            S = edge_logits(rng, m, C)
            for targets in (rng.integers(-1, C, m), np.full(m, H.BACKGROUND),
                            np.full(m, C - 1)):
                loss, grad = H.batch_focal_loss(S, targets, gamma, alpha)
                ref_loss, ref_grad = R.batch_focal_loss(S, targets, gamma, alpha)
                assert same_bits(loss, ref_loss) and same_bits(grad, ref_grad), (m, C)


@pytest.mark.parametrize("frozen", [False, True])
@pytest.mark.parametrize("mode", [H.MODE_LINEAR, H.MODE_COSINE])
@pytest.mark.parametrize("C", CLASSES)
@pytest.mark.parametrize("m", ROWS)
def test_euclidean_loss_and_grads(rng, m, C, mode, frozen):
    F = rng.normal(0.0, 1.0, (m, 6))
    bank = H.PrototypeBank(mode, rng.normal(0.0, 1.0, (C, 6)), [f"c{i}" for i in range(C)],
                           frozen=frozen)
    targets = rng.integers(-1, C, m)
    loss, grad_F, grad_P = H.loss_and_grads(F, bank, targets, 2.0, 0.25, tau=0.5)
    ref_loss, ref_F, ref_P = R.loss_and_grads(F, bank, targets, 2.0, 0.25, tau=0.5)
    assert same_bits(loss, ref_loss) and same_bits(grad_F, ref_F)
    assert grad_P is None if frozen else same_bits(grad_P, ref_P)
