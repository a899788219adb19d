import numpy as np
import pytest

from lorentzheads import geometry as G
from lorentzheads import heads as H
from lorentzheads import jsonio, optim
from lorentzheads.errors import DimensionError, ParameterError

from conftest import random_manifold_point

COSH1 = np.cosh(1.0)
SINH1 = np.sinh(1.0)


class TestRiemannianStep:
    def test_zero_gradient(self, rng):
        x = random_manifold_point(rng, 4)
        np.testing.assert_allclose(optim.riemannian_step(x, np.zeros(5), 0.1), x, rtol=1e-15)

    def test_hand_traced_pipeline(self):
        out = optim.riemannian_step(G.origin(2), np.array([0.0, 1.0, 0.0]), 1.0)
        np.testing.assert_allclose(out, [COSH1, -SINH1, 0.0], atol=1e-12)

    def test_manifold_preserved(self, rng):
        x = random_manifold_point(rng, 5)
        for _ in range(100):
            g = rng.normal(0.0, 1.0, 6)
            x = optim.riemannian_step(x, g, 0.05)
            assert G.manifold_violation(x) < 1e-9
            if x[0] > 50.0:  # keep the walk at desk scale
                x = random_manifold_point(rng, 5)

    def test_long_run_no_drift(self, rng):
        # drift does not accumulate thanks to the final projection
        x = random_manifold_point(rng, 3)
        for _ in range(10_000):
            x = optim.riemannian_step(x, rng.normal(0.0, 0.5, 4), 0.01)
            if x[0] > 50.0:
                x = random_manifold_point(rng, 3)
        assert G.manifold_violation(x) < 1e-9

    def test_near_origin_matches_euclidean_step(self, rng):
        # hyperbolic optimization degenerates to Euclidean near the origin
        for _ in range(20):
            w = rng.uniform(-1e-3, 1e-3, 4)
            w /= max(np.linalg.norm(w) / 1e-3, 1.0)
            x = G.exp_map_origin(w)
            gs = rng.normal(0.0, 1.0, 4)
            lr = 1e-3
            stepped = optim.riemannian_step(x, np.concatenate([[0.0], gs]), lr)
            euclidean = w - lr * gs
            rel = np.linalg.norm(stepped[1:] - euclidean) / np.linalg.norm(euclidean)
            assert rel < 1e-5

    def test_descent_on_prototype_fit(self, rng):
        # 50 full-batch steps on a small prototype-fitting task lower the loss
        feats = np.concatenate([
            rng.normal((2.0, 0.0), 0.2, size=(20, 2)),
            rng.normal((-2.0, 0.0), 0.2, size=(20, 2)),
        ])
        targets = np.array([0] * 20 + [1] * 20)
        bank = H.PrototypeBank(
            H.MODE_HYPERBOLIC,
            G.batch_exp_map_origin(rng.uniform(-0.01, 0.01, (2, 2))),
            ["a", "b"],
        )
        cfg = (2.0, 0.25)  # focal_gamma, focal_alpha defaults
        losses = []
        for _ in range(50):
            loss, _, gT = H.hyperbolic_loss_and_grads(feats, bank, targets, *cfg)
            losses.append(loss)
            bank.prototypes = optim.riemannian_step(bank.prototypes, gT, 1e-2)
        smoothed = np.convolve(losses, np.ones(5) / 5, mode="valid")
        assert smoothed[-1] < smoothed[0]
        assert losses[-1] < losses[0]

    def test_batched_matches_row_by_row(self, rng):
        # one call over a (16, 17) bank equals sixteen single-row steps
        P = G.batch_exp_map_origin(rng.normal(0.0, 1.0, (16, 16)))
        grads = rng.normal(0.0, 1.0, (16, 17))
        grads[3] = 0.0                                  # a zero-gradient row
        grads[7] *= 1e-9                                # the series branch
        batched = optim.riemannian_step(P, grads, 0.05)
        rows = np.stack([optim.riemannian_step(p, g, 0.05) for p, g in zip(P, grads)])
        np.testing.assert_allclose(batched, rows, rtol=0.0, atol=1e-12)
        assert np.all(G.manifold_violation(batched) < 1e-9)
        G.assert_on_manifold(batched)


class TestEuclideanStep:
    def test_zero_grad_no_decay_is_identity(self):
        st = optim.OptimizerState()
        p = np.array([1.0, -2.0])
        np.testing.assert_array_equal(optim.euclidean_step(p, np.zeros(2), st, 0.1, 0.0), p)

    def test_descent_direction(self):
        st = optim.OptimizerState()
        out = optim.euclidean_step(np.array([1.0]), np.array([1.0]), st, 0.1, 0.0)
        assert out[0] < 1.0

    def test_independent_parameters(self, rng):
        st = optim.OptimizerState()
        a = optim.euclidean_step(np.ones(3), rng.normal(size=3), st, 0.1, 0.0, "a")
        b_grad = np.zeros(2)
        b = optim.euclidean_step(np.ones(2), b_grad, st, 0.1, 0.0, "b")
        np.testing.assert_array_equal(b, np.ones(2))
        assert set(st.first_moment) == {"a", "b"}

    def test_decoupled_weight_decay(self):
        st = optim.OptimizerState()
        out = optim.euclidean_step(np.array([2.0]), np.zeros(1), st, 0.1, 0.5)
        assert out[0] == pytest.approx(2.0 - 0.1 * 0.5 * 2.0)

    def test_shape_mismatch(self):
        st = optim.OptimizerState()
        with pytest.raises(DimensionError):
            optim.euclidean_step(np.ones(3), np.ones(2), st, 0.1, 0.0)

    def test_state_round_trip(self, rng):
        st = optim.OptimizerState()
        p = rng.normal(size=4)
        for _ in range(3):
            p = optim.euclidean_step(p, rng.normal(size=4), st, 0.05, 0.01, "w")
        st2 = optim.OptimizerState.from_dict(jsonio.plain(st))
        g = rng.normal(size=4)
        np.testing.assert_array_equal(
            optim.euclidean_step(p, g, st, 0.05, 0.01, "w"),
            optim.euclidean_step(p, g, st2, 0.05, 0.01, "w"),
        )

class TestClipGradients:
    def test_below_threshold_unchanged(self):
        grads = {"a": np.array([0.03, 0.04])}
        out = optim.clip_gradients(grads, 0.1)
        np.testing.assert_array_equal(out["a"], grads["a"])

    def test_scaling(self):
        grads = {"a": np.array([2.0, 0.0]), "b": np.array([0.0, 0.0])}
        out = optim.clip_gradients(grads, 1.0)
        np.testing.assert_allclose(out["a"], [1.0, 0.0])

    def test_post_clip_norm_bound(self, rng):
        grads = {f"g{i}": rng.normal(0.0, 5.0, 7) for i in range(4)}
        out = optim.clip_gradients(grads, 1.0)
        total = np.sqrt(sum(np.sum(g * g) for g in out.values()))
        assert total <= 1.0 + 1e-12

    def test_invalid_max_norm(self):
        with pytest.raises(ParameterError):
            optim.clip_gradients({"a": np.ones(2)}, 0.0)
