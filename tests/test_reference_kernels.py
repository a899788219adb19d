"""The trimmed training and scoring kernels against their allocating
originals in `reference_kernels`, bit for bit (`.view(np.int64)`), on the
edge cases their masks, branches, index writes and in-place writes must get
right: r = 0, r below the series cut-off and none below it, coincident
features and prototypes, products below 1 in several columns, zero
gradients, single points, empty and ragged sizes, several row blocks, NaN
and infinite rows, signed-zero, subnormal and saturating logits, and
all-background batches."""

import warnings

import numpy as np
import pytest

from lorentzheads import geometry as G
from lorentzheads import heads as H
from lorentzheads import hubness, optim

import reference_kernels as R
from conftest import same_bits

ROWS = (1, 7, 64)
CLASSES = (2, 16, 64)
SERIES_RADII = [0.0, 1e-8, 9e-7]


def edge_rows(rng, m, n, series=True):
    """m tangent rows whose norms run over r = 0, r = 1e-8 and 9e-7 (series;
    only near the cut-off does the series move a bit of its result) and r
    from 1e-3 to 8 (formula), in that order, cut short for small m; without
    `series`, over the formula's radii alone."""
    lead = SERIES_RADII if series else []
    radii = np.concatenate([lead, np.geomspace(1e-3, 8.0, max(m - len(lead), 1))])[:m]
    V = rng.normal(0.0, 1.0, (m, n))
    V /= np.linalg.norm(V, axis=1, keepdims=True)
    return V * radii[:, None]


@pytest.fixture(autouse=True)
def no_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        yield


def check_exp0_and_its_jacobian(V, Cot):
    """_exp0_rows and _grad_exp0 against their reference copies, byte for
    byte; returns the row mask r >= _EPS_SMALL."""
    X, terms = G._exp0_rows(V)
    X_ref, terms_ref = R._exp0_rows(V)
    assert same_bits(X, X_ref)
    assert all(same_bits(t, t_ref) for t, t_ref in zip(terms, terms_ref))
    assert np.array_equal(terms[-1], terms_ref[0] >= G._EPS_SMALL)
    assert same_bits(G._grad_exp0(V, Cot, *terms), R._grad_exp0(V, Cot, *terms_ref))
    assert same_bits(G.grad_exp_map_origin(V, Cot), R._grad_exp0(V, Cot, *terms_ref))
    return terms[-1]


@pytest.mark.parametrize("n", [2, 16])
@pytest.mark.parametrize("m", ROWS)
def test_exp0_and_its_jacobian(rng, m, n):
    # the first row is below the cut-off, so every batch writes the series
    big = check_exp0_and_its_jacobian(edge_rows(rng, m, n), rng.normal(0.0, 1.0, (m, n + 1)))
    assert not big.all()


@pytest.mark.parametrize("nan", [False, True], ids=["no-series-row", "nan-row"])
@pytest.mark.parametrize("n", [2, 16])
@pytest.mark.parametrize("m", ROWS)
def test_exp0_and_its_jacobian_without_series_rows(rng, m, n, nan):
    # with every row at or above the cut-off the series is skipped; a NaN
    # row, whose mask is False, takes the masked pass as a row below it does
    V = edge_rows(rng, m, n, series=False)
    if nan:
        V[-1, -1] = np.nan
    big = check_exp0_and_its_jacobian(V, rng.normal(0.0, 1.0, (m, n + 1)))
    assert big.all() != nan


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


# ---------------------------------------------------------------------------
# Scoring: _cosh_distance, top_logits and the hubness analysis
# ---------------------------------------------------------------------------

SCORE_ROWS = (0, 1, 7, 64)


def near_duplicate_bank(rng, C):
    """Spatial rows of C prototypes at radius 4, every fourth one drawn and
    the three after it that row nudged by ~1e-13, with the drawn rows as
    features: a feature's products with its group round about 1, below it
    in several columns, at a column other than the clamped arg-min's."""
    S = rng.normal(0.0, 1.0, (-(-C // 4), 4))
    S *= 4.0 / np.linalg.norm(S, axis=1, keepdims=True)
    P = np.repeat(S, 4, axis=0)[:C]
    nudged = np.arange(C) % 4 > 0
    P[nudged] += rng.normal(0.0, 1e-13, (np.count_nonzero(nudged), 4))
    return S, P


def scoring_inputs(rng, m, C, case):
    """(features (m, 4), prototype spatial rows (C, 4)) for one edge case."""
    F = rng.normal(0.0, 1.0, (m, 4)) * rng.choice([0.05, 1.0, 4.0], (m, 1))
    P = rng.normal(0.0, 1.0, (C, 4))
    if case == "near-duplicates":
        S, P = near_duplicate_bank(rng, C)
        F = np.resize(S, (m, 4))
    elif case == "at-prototypes":
        P *= 2.0                                # far enough out that products round below 1
        F = np.resize(P, (m, 4))
    elif case == "ties":
        P[1::2] = P[::2][:len(P[1::2])]         # each odd prototype repeats the one before
        F[::2] = np.resize(P, (len(F[::2]), 4))  # features at a prototype and its twin
        F[1::4] = 0.0                           # the origin: ties wherever radii do
    elif case == "nan":
        F[::3, 1] = np.nan
    elif case == "inf":
        F[::3] *= 800.0 / np.linalg.norm(F[::3], axis=1, keepdims=True)   # cosh(r) overflows
    return F, P


@pytest.mark.parametrize("block_rows", [None, 1, 7], ids=["module-blocks", "1-row", "7-row"])
@pytest.mark.parametrize("case", ["random", "at-prototypes", "near-duplicates", "ties", "nan",
                                  "inf"])
@pytest.mark.parametrize("C", CLASSES)
def test_cosh_distance_and_top_logits(rng, monkeypatch, C, case, block_rows):
    if block_rows is not None:
        monkeypatch.setattr(G, "_BLOCK_ELEMENTS", block_rows * C)
    for m in SCORE_ROWS:
        F, spatial = scoring_inputs(rng, m, C, case)
        # learnable, so d_min is 1 even where every prototype coincides
        bank = H.PrototypeBank(H.MODE_HYPERBOLIC, G.batch_exp_map_origin(spatial),
                               [f"c{i}" for i in range(C)], delta=1.7)
        with np.errstate(invalid="ignore", over="ignore"):
            X = G.batch_exp_map_origin(F)
            for clamp in (True, False):
                assert same_bits(G._cosh_distance(X, bank.prototypes, clamp=clamp),
                                 R._cosh_distance(X, bank.prototypes, clamp=clamp)), (m, clamp)
            got, want = H.top_logits(F, bank), R.top_logits(F, bank)
            A = R._cosh_distance(X, bank.prototypes, clamp=False)
        assert same_bits(got[1], want[1]) and got[0].tobytes() == want[0].tobytes(), m
        if m == 64 and C == 64 and case == "at-prototypes":
            assert ((A < 1.0).sum(axis=1) == 1).any()
        if m == 64 and C == 64 and case == "near-duplicates":   # 16 groups
            assert ((A < 1.0).sum(axis=1) >= 2).any()
            assert (np.argmin(A, axis=1) != np.argmin(np.maximum(A, 1.0), axis=1)).any()
        if m == 64 and case in ("nan", "inf"):
            assert np.isnan(want[1]).any()


@pytest.mark.parametrize("block_rows", [None, 7], ids=["module-blocks", "7-row"])
@pytest.mark.parametrize("case", ["random", "near-duplicates", "ties"])
def test_batch_distance_and_analyze_points(rng, monkeypatch, case, block_rows):
    P = G.batch_exp_map_origin(scoring_inputs(rng, 0, 64, case)[1])
    if block_rows is not None:
        monkeypatch.setattr(G, "_BLOCK_ELEMENTS", block_rows * len(P))
    want_D = np.arccosh(R._cosh_distance(P[:40], P))
    assert same_bits(G.batch_distance(P[:40], P), want_D)
    got = hubness.analyze_points(P, hubness.KIND_HYPERBOLIC, k=3)
    monkeypatch.setattr(G, "_cosh_distance", R._cosh_distance)
    want = hubness.analyze_points(P, hubness.KIND_HYPERBOLIC, k=3)
    assert same_bits(got.histogram.edges, want.histogram.edges)
    assert got.histogram.counts.tolist() == want.histogram.counts.tolist()
    assert got.k_occurrence.counts.tolist() == want.k_occurrence.counts.tolist()
    assert same_bits(got.k_occurrence.skewness, want.k_occurrence.skewness)
