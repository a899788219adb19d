import json
import tracemalloc
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lorentzheads import geometry as G
from lorentzheads import heads as H
from lorentzheads.errors import ContractError, ParameterError

from conftest import random_manifold_point, read_only


def make_hyperbolic_bank(spatial_rows, delta=1.4, frozen=False):
    W = np.asarray(spatial_rows, dtype=np.float64)
    return H.PrototypeBank(
        mode=H.MODE_HYPERBOLIC,
        prototypes=G.batch_exp_map_origin(W),
        class_names=[f"c{i}" for i in range(W.shape[0])],
        delta=delta,
        frozen=frozen,
    )


def distances(feature, bank):
    """Geodesic distances from exp0(feature) to every prototype of the bank."""
    f = np.asarray(feature, dtype=np.float64)
    return G.batch_distance(G.batch_exp_map_origin(f[None]), bank.prototypes)[0]


# (focal_gamma, focal_alpha) at their ExperimentConfig defaults
FOCAL = (2.0, 0.25)


def focal_loss(logits, target, cfg=FOCAL):
    """batch_focal_loss for a single row (m = 1): (loss, gradient row)."""
    loss, grad = H.batch_focal_loss(np.asarray(logits)[None], np.array([target]), *cfg)
    return loss, grad[0]


class TestPrototypeBank:
    def test_frozen_recomputes_d_min(self):
        bank = make_hyperbolic_bank([[1.0, 0.0], [-1.0, 0.0], [0.0, 3.0]], frozen=True)
        expected = G.hyperbolic_distance(bank.prototypes[0], bank.prototypes[1])
        assert bank.d_min == pytest.approx(expected)
        assert bank.d_min == pytest.approx(2.0)

    @pytest.mark.parametrize("radius_row", [[0.6, 0.8], [3.0, 4.0]])
    def test_duplicated_rows_excluded_from_d_min(self, radius_row):
        # far from the origin the distance of a row to itself reads ~1e-6,
        # above the near-zero cut-off; identical rows still are no pair
        bank = make_hyperbolic_bank([radius_row, radius_row, [-1.0, 0.5]], frozen=True)
        expected = G.hyperbolic_distance(bank.prototypes[0], bank.prototypes[2])
        assert bank.d_min == pytest.approx(expected, rel=1e-12)
        if radius_row == [3.0, 4.0]:
            assert bank.d_min == pytest.approx(5.66, abs=0.01)

    def test_all_identical_rows_refused(self):
        with pytest.raises(ParameterError, match="coincide"):
            make_hyperbolic_bank([[3.0, 4.0]] * 3, frozen=True)

    def test_learnable_d_min_is_one(self):
        bank = make_hyperbolic_bank([[1.0, 0.0], [-1.0, 0.0]])
        assert bank.d_min == 1.0

    @pytest.mark.parametrize("mode", [H.MODE_LINEAR, H.MODE_COSINE])
    def test_frozen_euclidean_d_min_is_one(self, mode):
        # no Euclidean logit reads d_min, so rows that coincide are no error
        bank = H.PrototypeBank(mode, [[1.0, 0.0]] * 2, ["a", "b"], frozen=True)
        assert bank.d_min == 1.0

    def test_d_min_is_not_written(self):
        bank = make_hyperbolic_bank([[1.0, 0.0], [0.0, 1.0]], frozen=True)
        assert "d_min" not in bank.to_dict()

    def test_d_min_is_derived_not_read(self, rng):
        # a file edited to d_min 2: a learnable bank still scores with 1, a
        # frozen one with its minimum pairwise distance
        bank = make_hyperbolic_bank([[1.0, 0.0], [0.0, 1.0]])
        F = rng.normal(size=(5, 2))
        D = G.batch_distance(G.batch_exp_map_origin(F), bank.prototypes)
        pair = G.hyperbolic_distance(bank.prototypes[0], bank.prototypes[1])
        for frozen, d_min in ((False, 1.0), (True, pair)):
            read = H.PrototypeBank.from_dict({**bank.to_dict(), "frozen": frozen, "d_min": 2.0})
            assert read.d_min == pytest.approx(d_min)
            np.testing.assert_array_equal(H.batch_bank_logits(F, read),
                                          H.shift_logits(D, 1.4, read.d_min))

    @pytest.mark.parametrize("key, value", [("frozen", "false"), ("frozen", 0),
                                            ("delta", True), ("delta", "1.4")])
    def test_decoded_fields_strictly_typed(self, key, value):
        # bool("false") is True, float(True) is 1.0: neither may decide a bank
        bank = make_hyperbolic_bank([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ParameterError, match=key):
            H.PrototypeBank.from_dict({**bank.to_dict(), key: value})

    @pytest.mark.parametrize("delta", [0.0, -1.0, float("nan"), float("inf")])
    def test_delta_must_be_finite_and_positive(self, delta):
        with pytest.raises(ParameterError, match="delta"):
            make_hyperbolic_bank([[1.0, 0.0], [-1.0, 0.0]], delta=delta)

    def test_needs_two_classes(self):
        with pytest.raises(ParameterError):
            H.PrototypeBank(H.MODE_LINEAR, np.ones((1, 3)), ["only"])

    def test_hyperbolic_rows_validated(self):
        with pytest.raises(ContractError):
            H.PrototypeBank(H.MODE_HYPERBOLIC, np.ones((2, 3)), ["a", "b"])

    def test_json_round_trip(self, tmp_path):
        bank = make_hyperbolic_bank([[0.3, -0.2], [1.0, 0.5]], frozen=True)
        path = tmp_path / "bank.json"
        bank.save(path)
        again = H.PrototypeBank.load(path)
        assert again.to_dict() == bank.to_dict()
        # a re-saved bank is byte-identical
        bank2_path = tmp_path / "bank2.json"
        again.save(bank2_path)
        assert path.read_bytes() == bank2_path.read_bytes()

    def test_duplicate_prototypes_allowed_when_aliasing(self):
        bank = make_hyperbolic_bank([[1.0, 0.0], [1.0, 0.0], [0.0, 2.0]], frozen=True)
        ref = G.hyperbolic_distance(bank.prototypes[0], bank.prototypes[2])
        assert bank.d_min == pytest.approx(ref)


class TestRandomBank:
    @pytest.mark.parametrize("mode", [H.MODE_HYPERBOLIC, H.MODE_LINEAR, H.MODE_COSINE])
    def test_same_draw_for_every_mode(self, mode):
        names = [f"c{i}" for i in range(5)]
        bank = H.random_bank(mode, names, 3, np.random.default_rng(7), delta=2.0)
        W = np.random.default_rng(7).uniform(-0.01, 0.01, size=(5, 3))
        expected = G.batch_exp_map_origin(W) if mode == H.MODE_HYPERBOLIC else W
        np.testing.assert_array_equal(bank.prototypes, expected)
        assert bank.mode == mode and bank.delta == 2.0 and not bank.frozen
        assert bank.feature_dim == 3


class TestDistances:
    def test_coincident_prototype(self):
        bank = make_hyperbolic_bank([[0.7, -0.4], [2.0, 1.0]])
        d = distances([0.7, -0.4], bank)
        assert d[0] == pytest.approx(0.0, abs=1e-7)

    def test_symmetric_pair(self):
        bank = make_hyperbolic_bank([[1.0, 0.0], [-1.0, 0.0]])
        np.testing.assert_allclose(
            distances([0.0, 0.0], bank), [1.0, 1.0], atol=1e-12
        )

    def test_collinear_geodesic(self):
        bank = make_hyperbolic_bank([[1.0, 0.0], [-1.0, 0.0]])
        np.testing.assert_allclose(
            distances([1.0, 0.0], bank), [0.0, 2.0], atol=1e-7
        )

    def test_mode_mismatch(self):
        bank = H.PrototypeBank(H.MODE_LINEAR, np.eye(2), ["a", "b"])
        with pytest.raises(ContractError):
            H.hyperbolic_loss_and_grads(np.array([[1.0, 0.0]]), bank, np.array([0]),
                                        *FOCAL)


class TestShiftLogits:
    def test_zero_distance_scores_delta(self):
        assert H.shift_logits(np.array([0.0]), 1.4, 1.0)[0] == 1.4

    def test_dmin_gives_half_confidence_exactly(self):
        for d_min in (1.0, 0.3, 2.7, np.pi):
            s = H.shift_logits(np.array([d_min]), 1.4, d_min)[0]
            assert s == 0.0
            assert H.sigmoid(s) == 0.5

    def test_direct_evaluation(self):
        assert H.shift_logits(np.array([2.0]), 1.4, 1.0)[0] == pytest.approx(-1.4)

    def test_invalid_d_min(self):
        with pytest.raises(ParameterError):
            H.shift_logits(np.array([1.0]), 1.4, 0.0)

    def test_argmax_equivalence(self, rng):
        # shifting and scaling never change the predicted class
        for _ in range(100):
            d = rng.uniform(0.0, 5.0, 8)
            s = H.shift_logits(d, rng.uniform(0.1, 3.0), rng.uniform(0.1, 3.0))
            assert np.argmax(s) == np.argmin(d)


class TestBaselineLogits:
    def test_cosine_self_similarity(self):
        bank = H.PrototypeBank(H.MODE_COSINE, np.array([[2.0, 0.0], [0.0, 1.0]]), ["a", "b"])
        s = H.batch_bank_logits(np.array([[4.0, 0.0]]), bank, tau=1.0)[0]
        assert s[0] == pytest.approx(1.0)
        assert s[1] == pytest.approx(0.0, abs=1e-12)

    def test_linear_unit_projection(self):
        bank = H.PrototypeBank(H.MODE_LINEAR, np.eye(2), ["a", "b"])
        np.testing.assert_allclose(H.batch_bank_logits(np.array([[1.0, 0.0]]), bank)[0],
                                   [1.0, 0.0])

    def test_linear_parity_with_matrix_product(self, rng):
        W = rng.normal(size=(5, 3))
        bank = H.PrototypeBank(H.MODE_LINEAR, W, [f"c{i}" for i in range(5)])
        v = rng.normal(size=3)
        np.testing.assert_array_equal(H.batch_bank_logits(v[None], bank)[0], W @ v)

    def test_cosine_is_product_of_unit_rows(self, rng):
        F, P = rng.normal(size=(7, 3)), rng.normal(size=(4, 3))
        bank = H.PrototypeBank(H.MODE_COSINE, P, [f"c{i}" for i in range(4)])
        U = F / np.linalg.norm(F, axis=1, keepdims=True)
        Q = P / np.linalg.norm(P, axis=1, keepdims=True)
        np.testing.assert_array_equal(H.batch_bank_logits(F, bank, tau=0.5), (U @ Q.T) / 0.5)

    @pytest.mark.parametrize("zero", ["feature", "prototype"])
    def test_cosine_zero_row_rejected_by_logits_and_loss(self, zero):
        F = np.array([[1.0, 1.0], [2.0, 0.0]])
        P = np.array([[1.0, 0.0], [0.0, 1.0]])
        (F if zero == "feature" else P)[1] = 0.0
        bank = H.PrototypeBank(H.MODE_COSINE, P, ["a", "b"])
        with pytest.raises(ContractError, match="nonzero"):
            H.batch_bank_logits(F, bank)
        with pytest.raises(ContractError, match="nonzero"):
            H.loss_and_grads(F, bank, np.array([0, 1]), *FOCAL)

    def test_mode_mismatch(self):
        bank = make_hyperbolic_bank([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ContractError):
            H.euclidean_loss_and_grads(np.array([[1.0, 0.0]]), bank, np.array([0]),
                                       *FOCAL)


class TestFocalLoss:
    def test_saturated_correct_prediction(self):
        logits = np.array([50.0, -50.0, -50.0])
        loss, _ = focal_loss(logits, 0)
        assert loss < 1e-10

    def test_reduces_to_bce_at_gamma_zero(self, rng):
        cfg = (0.0, 0.5)
        s = rng.normal(size=6)
        loss, _ = focal_loss(s, 2, cfg)
        p = H.sigmoid(s)
        t = np.zeros(6)
        t[2] = 1.0
        bce = -(t * np.log(p) + (1 - t) * np.log(1 - p))
        assert loss == pytest.approx(0.5 * bce.sum())

    def test_hand_value(self):
        cfg = (2.0, 0.25)
        loss, _ = focal_loss(np.array([0.0]), 0, cfg)
        assert loss == pytest.approx(0.25 * 0.25 * np.log(2.0))

    def test_background_all_negative(self, rng):
        s = rng.normal(size=4)
        loss_bg, grad_bg = focal_loss(s, H.BACKGROUND)
        # equals the sum of per-class negative terms
        ref = sum(focal_loss(np.array([si]), H.BACKGROUND)[0] for si in s)
        assert loss_bg == pytest.approx(ref)
        assert np.all(grad_bg > 0.0)  # pushing any logit up increases the loss

    def test_nonnegative_and_zero_only_at_saturation(self, rng):
        for _ in range(50):
            s = rng.normal(0.0, 3.0, 5)
            loss, _ = focal_loss(s, int(rng.integers(0, 5)))
            assert loss > 0.0

    def test_gradient_matches_finite_differences(self, rng):
        cfg = (2.0, 0.25)
        h = 1e-6
        for _ in range(20):
            s = rng.normal(0.0, 2.0, 4)
            target = int(rng.integers(-1, 4))
            _, grad = focal_loss(s, target, cfg)
            for j in range(4):
                e = np.zeros(4)
                e[j] = h
                fd = (focal_loss(s + e, target, cfg)[0]
                      - focal_loss(s - e, target, cfg)[0]) / (2 * h)
                assert grad[j] == pytest.approx(fd, rel=1e-5, abs=1e-9)


class TestClassify:
    def test_feature_at_prototype(self):
        bank = make_hyperbolic_bank([[1.0, 0.0], [-1.0, 0.0]])
        pred, conf, top = classify_result = H.classify([1.0, 0.0], bank)
        assert pred == 0
        assert conf == pytest.approx(H.sigmoid(1.4))
        assert conf == pytest.approx(0.8021838885585818)

    def test_equidistant_tie_breaks_low_index(self):
        bank = make_hyperbolic_bank([[1.0, 0.0], [-1.0, 0.0]])
        pred, conf, _ = H.classify([0.0, 0.0], bank)
        assert pred == 0

    def test_top_k_sorted_and_sized(self, rng):
        bank = make_hyperbolic_bank(rng.normal(size=(5, 3)))
        _, _, top = H.classify(rng.normal(size=3), bank, k=3)
        assert len(top) == 3
        confs = [c for _, c in top]
        assert confs == sorted(confs, reverse=True)

    def test_k_too_large(self):
        bank = make_hyperbolic_bank([[1.0, 0.0], [-1.0, 0.0]])
        with pytest.raises(ParameterError):
            H.classify([0.0, 0.0], bank, k=3)


class TestLossDispatch:
    @pytest.mark.parametrize("mode", [H.MODE_HYPERBOLIC, H.MODE_LINEAR, H.MODE_COSINE])
    def test_matches_mode_function(self, mode, rng):
        bank = H.random_bank(mode, ["a", "b", "c"], 4, rng)
        F = rng.normal(0.0, 1.0, (6, 4))
        targets = rng.integers(-1, 3, 6)
        cfg = FOCAL
        got = H.loss_and_grads(F, bank, targets, *cfg, tau=0.5)
        if mode == H.MODE_HYPERBOLIC:
            want = H.hyperbolic_loss_and_grads(F, bank, targets, *cfg)
        else:
            want = H.euclidean_loss_and_grads(F, bank, targets, *cfg, tau=0.5)
        assert got[0] == want[0]
        for a, b in zip(got[1:], want[1:]):
            np.testing.assert_array_equal(a, b)


def old_minkowski_inner(X, Y):
    """batch_minkowski_inner as the allocating formula it replaces."""
    return -np.outer(X[:, 0], Y[:, 0]) + X[:, 1:] @ Y[:, 1:].T


def old_logits(F, bank, tau):
    """batch_bank_logits of every mode as the allocating formulas it replaces."""
    if bank.mode == H.MODE_HYPERBOLIC:
        M = old_minkowski_inner(G.batch_exp_map_origin(F), bank.prototypes)
        d = np.arccosh(np.maximum(-M, 1.0))
        return bank.delta * (1.0 - d / bank.d_min)
    if bank.mode == H.MODE_LINEAR:
        return F @ bank.prototypes.T
    U = F / np.linalg.norm(F, axis=1, keepdims=True)
    Q = bank.prototypes / np.linalg.norm(bank.prototypes, axis=1, keepdims=True)
    return (U @ Q.T) / tau


def scoring_inputs(rng):
    """(features, spatial prototype rows): prototype 2 is the origin, which
    the zero feature row maps onto (D = 0); row 1 maps onto prototype 3 up to
    rounding; rows 3-5 lie far out and row 2 in the series branch."""
    spatial = rng.normal(0.0, 1.0, (6, 4))
    spatial[2] = 0.0
    F = rng.normal(0.0, 1.5, (40, 4))
    F[0] = 0.0
    F[1] = spatial[3]
    F[2] *= 1e-9                                      # r below the series cut
    F[3:6] *= 15.0                                    # cosh(r) near 1e10
    return F, spatial


class TestInPlaceScoring:
    """Scoring writes only into arrays it allocated, with the bits of the
    allocating formulas."""

    def test_exp0_products_and_distances_keep_their_bits(self, rng):
        F, spatial = read_only(*scoring_inputs(rng))
        X, (r, f, sinh, cosh) = G._exp0_rows(F)
        assert X[:, 0].tobytes() == cosh.tobytes()
        assert X[:, 1:].tobytes() == (f[:, None] * F).tobytes()
        X, P = read_only(X, G.batch_exp_map_origin(spatial))
        M = old_minkowski_inner(X, P)
        assert G.batch_minkowski_inner(X, P).tobytes() == M.tobytes()
        assert G._cosh_distance(X, P).tobytes() == np.maximum(-M, 1.0).tobytes()
        D = G.batch_distance(X, P)
        assert D.tobytes() == np.arccosh(np.maximum(-M, 1.0)).tobytes()
        assert D[0, 2] == 0.0 and D[3:6].min() > 10.0

    @pytest.mark.parametrize("frozen", [False, True])
    @pytest.mark.parametrize("mode", H.MODES)
    def test_logits_keep_their_bits(self, rng, mode, frozen):
        F, spatial = scoring_inputs(rng)
        if mode == H.MODE_COSINE:
            F = F[1:]                                 # cosine refuses the zero row
        # cosine refuses the zero prototype row
        rows = G.batch_exp_map_origin(spatial) if mode == H.MODE_HYPERBOLIC else F[6:12]
        bank = H.PrototypeBank(mode, rows, [f"c{i}" for i in range(6)], delta=1.7,
                               frozen=frozen)
        read_only(F, bank.prototypes)
        got = H.batch_bank_logits(F, bank, tau=0.3)
        assert got.tobytes() == old_logits(F, bank, 0.3).tobytes()
        if mode == H.MODE_HYPERBOLIC:
            assert got[0, 2] == bank.delta            # the zero row, on prototype 2

    def test_shift_kernel_writes_into_its_argument(self, rng):
        d = np.concatenate([[0.0, 0.7, 1e-300], rng.uniform(0.0, 30.0, 50)])
        D = d.copy()
        assert H._shift_logits(D, 1.4, 0.7) is D
        assert D.tobytes() == (1.4 * (1.0 - d / 0.7)).tobytes()
        # the public form leaves its argument as it was
        (kept,) = read_only(d.copy())
        assert H.shift_logits(kept, 1.4, 0.7).tobytes() == D.tobytes()
        assert kept.tobytes() == d.tobytes()

    @pytest.mark.parametrize("delta, d_min", [(1.4, 0.0), (1.4, -1.0), (0.0, 1.0), (-2.0, 1.0)])
    def test_shift_range_checks_on_every_path(self, rng, delta, d_min):
        F, spatial = scoring_inputs(rng)
        bank = make_hyperbolic_bank(spatial)
        bank.delta, bank.d_min = delta, d_min         # past the bank's own checks
        for score in (lambda: H.shift_logits(np.ones(3), delta, d_min),
                      lambda: H._shift_logits(np.ones(3), delta, d_min),
                      lambda: H.batch_bank_logits(F, bank),
                      lambda: H.loss_and_grads(F, bank, np.zeros(40, dtype=int), *FOCAL)):
            with pytest.raises(ParameterError):
                score()

    @pytest.mark.parametrize("mode", H.MODES)
    def test_scoring_writes_no_input(self, rng, mode):
        F, spatial = scoring_inputs(rng)
        F = F[1:]
        # cosine refuses the zero prototype row
        rows = G.batch_exp_map_origin(spatial) if mode == H.MODE_HYPERBOLIC else F[6:12]
        bank = H.PrototypeBank(mode, rows, [f"c{i}" for i in range(6)])
        before = F.copy(), bank.prototypes.copy()
        read_only(F, bank.prototypes)
        H.batch_bank_logits(F, bank)
        H.loss_and_grads(F, bank, rng.integers(-1, 6, len(F)), *FOCAL)
        H.classify(F[0], bank)
        assert F.tobytes() == before[0].tobytes()
        assert bank.prototypes.tobytes() == before[1].tobytes()

    def test_one_scoring_call_holds_two_m_by_c_arrays(self, rng):
        # the (m, C) product and the x0*y0 outer product; every later pass
        # (negate, clamp, arccosh, shift) writes into the product
        m, C = 1000, 64
        F = rng.normal(0.0, 1.0, (m, 4))
        bank = make_hyperbolic_bank(rng.normal(0.0, 1.0, (C, 4)), frozen=True)
        tracemalloc.start()
        try:
            S = H.batch_bank_logits(F, bank)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert S.shape == (m, C)
        assert peak < 2.5 * S.nbytes


def two_sigmoid_focal_terms(logits, positive, gamma, alpha):
    """_focal_terms as two sigmoids of a float one-hot target."""
    t = positive.astype(np.float64)
    sign = 2.0 * t - 1.0
    q = H.sigmoid(sign * logits)
    log_q = H._log_sigmoid(sign * logits)
    a_t = alpha * t + (1.0 - alpha) * (1.0 - t)
    one_m_q = H.sigmoid(-sign * logits)
    w = one_m_q**gamma
    loss = -a_t * w * log_q
    grad = sign * (a_t * gamma * q * w * log_q - a_t * one_m_q ** (gamma + 1.0))
    return loss, grad


class TestFocalTerms:
    """The one-tanh focal terms equal the two-sigmoid formula bit for bit."""

    @pytest.mark.parametrize("scale", [1e3, 30.0, 1e-8])
    @pytest.mark.parametrize("gamma, alpha", [FOCAL, (0.0, 1.0), (1.5, 0.6)])
    def test_equals_two_sigmoids(self, rng, scale, gamma, alpha):
        logits = rng.uniform(-scale, scale, (64, 16))
        logits[0, :4] = [scale, -scale, 0.0, -0.0]
        positive = rng.random((64, 16)) < 0.3
        for got, want in zip(H._focal_terms(logits, positive, gamma, alpha),
                             two_sigmoid_focal_terms(logits, positive, gamma, alpha)):
            np.testing.assert_array_equal(got, want)

    @settings(max_examples=200, deadline=None)
    @given(arrays(np.float64, (4, 3), elements=st.floats(-1e3, 1e3)),
           arrays(np.bool_, (4, 3)))
    def test_equals_two_sigmoids_anywhere(self, logits, positive):
        for got, want in zip(H._focal_terms(logits, positive, *FOCAL),
                             two_sigmoid_focal_terms(logits, positive, *FOCAL)):
            np.testing.assert_array_equal(got, want)


def exact_log_sigmoid(z):
    """log sigmoid(z) = -ln(1 + e^-z) to 400 digits: 1 + e^-745 needs 324."""
    with localcontext() as ctx:
        ctx.prec = 400
        d = Decimal(float(z))
        return -(1 + (-d).exp()).ln()


class TestLogSigmoid:
    """The SIMD kernel against a 400-digit oracle and numpy's logaddexp."""

    def test_against_the_exact_value(self, rng):
        scales = (1e3, 30.0, 5.0, 1.0, 1e-8)
        z = np.concatenate([rng.uniform(-scale, scale, 60) for scale in scales]
                           + [sign * rng.uniform(700.0, 745.0, 60) for sign in (1.0, -1.0)]
                           + [[0.0, -0.0, 36.0, -36.0, 709.0, -709.0, 745.0, -745.0,
                               1e3, -1e3]])
        before = z.copy()
        got = H._log_sigmoid(z)
        np.testing.assert_array_equal(z, before)
        exact = np.array([float(exact_log_sigmoid(v)) for v in z])  # correctly rounded
        normal = np.abs(exact) >= np.finfo(np.float64).tiny
        # one float64 step from the correctly rounded value where it is
        # normal, that value itself where it is subnormal or zero; against
        # the unrounded value logaddexp too can be 1.06 ULP off (z = 2.0657...)
        assert np.all(np.abs(got - exact)[normal] <= np.abs(np.spacing(exact[normal])))
        np.testing.assert_array_equal(got[~normal], exact[~normal])
        old = -np.logaddexp(0.0, -z)
        assert np.all(np.abs(got - old) <= 2 * np.abs(np.spacing(old)))
        assert np.signbit(H._log_sigmoid(np.array([1e3]))[0])  # -0.0, as logaddexp gives


class TestHeadGradients:
    """Analytic gradients of focal(shift(distances)) vs central differences."""

    def test_equal_the_public_composition(self, rng):
        # the head's exp0 terms, computed once, give the bits that
        # batch_exp_map_origin and grad_exp_map_origin give composed
        F = rng.normal(0.0, 1.5, (64, 8))
        F[0] = 0.0
        F[1] *= 1e-9                                    # the series branch
        bank = make_hyperbolic_bank(rng.normal(0.0, 1.0, (5, 8)))
        targets = rng.integers(-1, 5, 64)
        loss, gF, gT = H.hyperbolic_loss_and_grads(F, bank, targets, *FOCAL)
        T = bank.prototypes
        X = G.batch_exp_map_origin(F)
        cosh_d = np.maximum(-G.batch_minkowski_inner(X, T), 1.0)
        D = np.arccosh(cosh_d)
        S = H.shift_logits(D, bank.delta, bank.d_min)
        want_loss, G_S = H.batch_focal_loss(S, targets, *FOCAL)
        G_D = G_S * (-bank.delta / bank.d_min)
        denom = np.sqrt(np.maximum(cosh_d * cosh_d - 1.0, 0.0))
        W = np.where(D < 1e-7, 0.0, G_D / np.where(denom == 0.0, 1.0, denom))
        grad_X = -(W @ T)
        grad_X[:, 0] = -grad_X[:, 0]
        grad_T = -(W.T @ X)
        grad_T[:, 0] = -grad_T[:, 0]
        assert loss == want_loss
        np.testing.assert_array_equal(gF, G.grad_exp_map_origin(F, grad_X))
        np.testing.assert_array_equal(gT, grad_T)

    def _loss(self, feature, spatial, targets, cfg):
        bank = make_hyperbolic_bank(spatial)
        return H.hyperbolic_loss_and_grads(feature[None, :], bank, targets, *cfg)

    def test_feature_and_prototype_gradients(self, rng):
        cfg = FOCAL
        h = 1e-5
        checked = 0
        while checked < 30:
            n = int(rng.integers(2, 8))
            C = int(rng.integers(2, 6))
            f = rng.normal(0.0, 1.5, n)
            W = rng.normal(0.0, 1.5, (C, n))
            targets = np.array([int(rng.integers(-1, C))])
            bank = make_hyperbolic_bank(W)
            d = distances(f, bank)
            if d.min() < 1e-3:
                continue
            loss, gF, gT = self._loss(f, W, targets, cfg)
            gW = G.grad_exp_map_origin(W, gT)
            for arr, g in ((f, gF[0]), (W, gW)):
                flat = arr.reshape(-1)
                gflat = np.asarray(g).reshape(-1)
                for j in range(flat.size):
                    old = flat[j]
                    flat[j] = old + h
                    lp = self._loss(f, W, targets, cfg)[0]
                    flat[j] = old - h
                    lm = self._loss(f, W, targets, cfg)[0]
                    flat[j] = old
                    fd = (lp - lm) / (2 * h)
                    rel = abs(fd - gflat[j]) / max(abs(fd), 1e-6)
                    assert rel < 1e-4
            checked += 1

    def test_euclidean_gradients(self, rng):
        cfg = FOCAL
        h = 1e-6
        for mode in (H.MODE_LINEAR, H.MODE_COSINE):
            for _ in range(10):
                F = rng.normal(0.0, 1.5, (2, 4))
                P = rng.normal(0.0, 1.5, (3, 4))
                targets = rng.integers(-1, 3, 2)
                bank = H.PrototypeBank(mode, P, ["a", "b", "c"])

                def loss():
                    return H.euclidean_loss_and_grads(F, bank, targets, *cfg)[0]

                _, gF, gP = H.euclidean_loss_and_grads(F, bank, targets, *cfg)
                for arr, g in ((F, gF), (bank.prototypes, gP)):
                    flat, gflat = arr.reshape(-1), g.reshape(-1)
                    for j in range(flat.size):
                        old = flat[j]
                        flat[j] = old + h
                        lp = loss()
                        flat[j] = old - h
                        lm = loss()
                        flat[j] = old
                        fd = (lp - lm) / (2 * h)
                        assert gflat[j] == pytest.approx(fd, rel=1e-3, abs=1e-8)
