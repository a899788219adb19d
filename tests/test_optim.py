import warnings

import numpy as np
import pytest

from lorentzheads import geometry as G
from lorentzheads import heads as H
from lorentzheads import jsonio, optim
from lorentzheads.errors import ContractError, DimensionError, ParameterError

from conftest import random_manifold_point, same_bits
from reference_geometry import origin

COSH1 = np.cosh(1.0)
SINH1 = np.sinh(1.0)


class TestRiemannianStep:
    def test_zero_gradient(self, rng):
        x = random_manifold_point(rng, 4)
        np.testing.assert_allclose(optim.riemannian_step(x, np.zeros(5), 0.1), x, rtol=1e-15)

    def test_hand_traced_pipeline(self):
        out = optim.riemannian_step(origin(2), np.array([0.0, 1.0, 0.0]), 1.0)
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
            x = G.batch_exp_map_origin(w[None])[0]
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

    @pytest.mark.parametrize("row", [None, 3, 7, 11], ids=["bank", "zero-row", "series-row",
                                                            "row"])
    def test_equals_the_public_primitives(self, rng, row):
        # checked once, stepped on the unchecked kernels: the bits of the
        # checked primitives composed
        P = G.batch_exp_map_origin(rng.normal(0.0, 1.0, (16, 16)))
        grads = rng.normal(0.0, 1.0, (16, 17))
        grads[3] = 0.0                                  # a zero-gradient row
        grads[7] *= 1e-9                                # the series branch
        x, g = (P, grads) if row is None else (P[row], grads[row])
        metric = g.copy()
        metric[..., 0] = -metric[..., 0]
        want = G.exp_map_at(x, -0.05 * G.tangent_project(x, metric))
        np.testing.assert_array_equal(optim.riemannian_step(x, g, 0.05), want)
        assert g is not metric and np.array_equal(g, grads if row is None else grads[row])

    @pytest.mark.parametrize("x, g, error, match", [
        (np.ones((3, 5)), np.full((3, 5), np.nan), ContractError, "g contains non-finite"),
        (np.full((3, 5), np.inf), np.zeros((3, 5)), ContractError, "x contains non-finite"),
        (np.ones((3, 5)), np.zeros((2, 5)), DimensionError, r"incompatible shapes \(3, 5\)"),
        (np.ones((1, 3, 5)), np.zeros((1, 3, 5)), DimensionError, "x must be a vector or"),
    ])
    def test_inputs_refused_as_the_primitives_refuse_them(self, x, g, error, match):
        with pytest.raises(error, match=match):
            optim.riemannian_step(x, g, 0.05)

    def test_overflow_is_a_contract_error(self):
        # train reports this as a numerical breakdown
        P = G.batch_exp_map_origin(np.ones((3, 4)))
        with pytest.raises(ContractError, match="non-finite"), np.errstate(all="ignore"):
            optim.riemannian_step(P, np.full((3, 5), 1e3), 1.0)


def adam(params: dict, grads: dict, st: optim.OptimizerState, lr, weight_decay) -> dict:
    """One Adam step of `params` by name as a run takes it: one packed
    buffer, one call, one step count.  Returns the stepped tensors."""
    flat, views = optim.pack(params)
    m, v = st.pack(views)
    st.step += 1
    optim.euclidean_step(flat, optim.pack(grads)[0], m, v, st.step, lr, weight_decay)
    return views


class TestEuclideanStep:
    def test_zero_grad_no_decay_is_identity(self):
        st = optim.OptimizerState()
        p = np.array([1.0, -2.0])
        np.testing.assert_array_equal(adam({"p": p}, {"p": np.zeros(2)}, st, 0.1, 0.0)["p"], p)

    def test_descent_direction(self):
        st = optim.OptimizerState()
        out = adam({"p": np.array([1.0])}, {"p": np.array([1.0])}, st, 0.1, 0.0)["p"]
        assert out[0] < 1.0

    def test_independent_parameters(self, rng):
        st = optim.OptimizerState()
        a_grad = rng.normal(size=3)
        out = adam({"a": np.ones(3), "b": np.ones(2)}, {"a": a_grad, "b": np.zeros(2)},
                   st, 0.1, 0.0)
        np.testing.assert_array_equal(out["b"], np.ones(2))
        assert set(st.first_moment) == {"a", "b"}
        alone = adam({"a": np.ones(3)}, {"a": a_grad}, optim.OptimizerState(), 0.1, 0.0)
        np.testing.assert_array_equal(out["a"], alone["a"])

    def test_decoupled_weight_decay(self):
        st = optim.OptimizerState()
        out = adam({"p": np.array([2.0])}, {"p": np.zeros(1)}, st, 0.1, 0.5)["p"]
        assert out[0] == pytest.approx(2.0 - 0.1 * 0.5 * 2.0)

    @pytest.mark.parametrize("weight_decay", [0.0, 1e-4])
    def test_equals_the_out_of_place_formula(self, rng, weight_decay):
        # the in-place step gives the bits of Adam written out, signed zeros too
        p, m, v = rng.normal(size=40), np.zeros(40), np.zeros(40)
        p[:4] = [0.0, -0.0, 0.0, -0.0]
        want_p, want_m, want_v = p.copy(), m.copy(), v.copy()
        for step in range(1, 51):
            g = rng.normal(size=40)
            g[:2] = [0.0, -0.0]
            optim.euclidean_step(p, g, m, v, step, 0.01, weight_decay)
            want_m[...] = optim.BETA1 * want_m + (1.0 - optim.BETA1) * g
            want_v[...] = optim.BETA2 * want_v + (1.0 - optim.BETA2) * g * g
            m_hat = want_m / (1.0 - optim.BETA1**step)
            v_hat = want_v / (1.0 - optim.BETA2**step)
            want_p -= 0.01 * (m_hat / (np.sqrt(v_hat) + optim.EPS) + weight_decay * want_p)
            for got, want in ((p, want_p), (m, want_m), (v, want_v)):
                np.testing.assert_array_equal(got, want)
                np.testing.assert_array_equal(np.signbit(got), np.signbit(want))

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            optim.euclidean_step(np.ones(3), np.ones(2), np.zeros(3), np.zeros(3), 1, 0.1, 0.0)

    def test_state_round_trip(self, rng):
        st = optim.OptimizerState()
        p = {"w": rng.normal(size=4)}
        for _ in range(3):
            p = adam(p, {"w": rng.normal(size=4)}, st, 0.05, 0.01)
        st2 = optim.OptimizerState.from_dict(jsonio.plain(st))
        g = {"w": rng.normal(size=4)}
        np.testing.assert_array_equal(adam(p, g, st, 0.05, 0.01)["w"],
                                      adam(p, g, st2, 0.05, 0.01)["w"])


class TestPack:
    def test_views_share_the_buffer(self, rng):
        tensors = {"W": rng.normal(size=(3, 2)), "b": rng.normal(size=2)}
        flat, views = optim.pack(tensors)
        assert flat.shape == (8,) and flat.flags.c_contiguous
        np.testing.assert_array_equal(flat, np.concatenate([tensors["W"].ravel(),
                                                            tensors["b"]]))
        flat += 1.0
        np.testing.assert_array_equal(views["W"], tensors["W"] + 1.0)
        assert all(np.shares_memory(v, flat) for v in views.values())

    def test_empty(self):
        flat, views = optim.pack({})
        assert flat.shape == (0,) and views == {}

    def test_moments_laid_out_like_params_and_zero_filled(self):
        params = {"a": np.ones((2, 2)), "b": np.ones(3)}
        st = optim.OptimizerState()
        m, v = st.pack(params)
        assert m.shape == v.shape == (7,) and not m.any() and st.step == 0
        assert st.first_moment["a"].shape == (2, 2)
        assert np.shares_memory(st.second_moment["b"], v)

    def test_stored_moments_copied_in(self):
        st = optim.OptimizerState({"a": np.full(2, 3.0)}, {"a": np.full(2, 4.0)}, 5)
        m, v = st.pack({"a": np.zeros(2)})
        np.testing.assert_array_equal(m, [3.0, 3.0])
        np.testing.assert_array_equal(v, [4.0, 4.0])
        assert st.step == 5


class TestStateCheck:
    PARAMS = {"a": np.zeros(2), "b": np.zeros((2, 3))}

    def full_state(self):
        return optim.OptimizerState({k: np.zeros_like(p) for k, p in self.PARAMS.items()},
                                    {k: np.zeros_like(p) for k, p in self.PARAMS.items()}, 4)

    def test_empty_and_full_states_pass(self):
        optim.OptimizerState().check(self.PARAMS)
        self.full_state().check(self.PARAMS)

    def test_unequal_step_counts(self):
        # an older checkpoint's per-tensor counts must agree on one value
        doc = jsonio.plain(self.full_state())
        del doc["step"]
        doc["param_steps"] = {"a": 4, "b": 3}
        with pytest.raises(ParameterError, match="step counts differ"):
            optim.OptimizerState.from_dict(doc)

    @pytest.mark.parametrize("steps, step", [({"a": 4, "b": 4}, 4), ({}, 0)])
    def test_older_per_tensor_counts_read_as_one(self, steps, step):
        doc = {"first_moment": {}, "second_moment": {}, "param_steps": steps,
               "learning_rate": 0.01}
        assert optim.OptimizerState.from_dict(doc).step == step

    @pytest.mark.parametrize("field", ["first_moment", "second_moment"])
    def test_some_names_missing(self, field):
        st = self.full_state()
        del getattr(st, field)["a"]
        with pytest.raises(ParameterError, match="must hold moments"):
            st.check(self.PARAMS)

    def test_moments_need_a_step(self):
        st = self.full_state()
        st.step = 0
        with pytest.raises(ParameterError, match="must hold moments for no tensor"):
            st.check(self.PARAMS)
        with pytest.raises(ParameterError, match="must hold moments"):
            optim.OptimizerState(step=4).check(self.PARAMS)

    def test_negative_step(self):
        with pytest.raises(ParameterError, match="after -1 Adam steps"):
            optim.OptimizerState(step=-1).check({})

    def test_extra_name(self):
        st = self.full_state()
        for d in (st.first_moment, st.second_moment):
            d["c"] = np.zeros(1)
        with pytest.raises(ParameterError, match="must hold moments"):
            st.check(self.PARAMS)

    @pytest.mark.parametrize("field", ["first_moment", "second_moment"])
    def test_moment_shape(self, field):
        st = self.full_state()
        getattr(st, field)["b"] = np.zeros((3, 2))
        with pytest.raises(ParameterError, match="shape"):
            st.check(self.PARAMS)

    @pytest.mark.parametrize("field, value, match", [
        ("first_moment", np.nan, "first moment .* must be finite"),
        ("second_moment", np.inf, "second moment .* must be finite"),
        ("second_moment", -1.0, ">= 0"),
    ])
    def test_moment_values(self, field, value, match):
        st = self.full_state()
        getattr(st, field)["b"][1, 2] = value
        with pytest.raises(ParameterError, match=match):
            st.check(self.PARAMS)


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

    def test_scales_in_place(self):
        a, b = np.array([3.0, 0.0]), np.array([0.0, 4.0])
        grads = {"a": a, "b": b}
        assert optim.clip_gradients(grads, 1.0) is grads
        assert grads["a"] is a and grads["b"] is b
        np.testing.assert_array_equal(a, [3.0 * (1.0 / 5.0), 0.0])
        np.testing.assert_array_equal(b, [0.0, 4.0 * (1.0 / 5.0)])

    @staticmethod
    def norm(grads):
        """The global L2 norm, each entry divided by the largest |entry| first."""
        peak = max(np.abs(g).max() for g in grads.values())
        return peak * np.sqrt(sum(np.sum(np.square(g / peak)) for g in grads.values()))

    @pytest.mark.parametrize("grads, max_norm", [
        ({"a": [1e200, 1e200], "b": [3.0]}, 1.0),         # the sum of squares overflows
        ({"a": [1e308, -1e308]}, 1e300),                   # so would the norm
        ({"a": [1e-170, 1e-170]}, 1e-300),                 # it underflows to 0
        ({"a": [1e-170, 0.0], "b": [-1e-170]}, 1e-200),
    ], ids=["overflow", "norm-overflow", "underflow", "underflow-two-tensors"])
    def test_sum_of_squares_out_of_range(self, grads, max_norm):
        grads = {k: np.array(v) for k, v in grads.items()}
        with np.errstate(over="ignore"):
            assert sum(np.sum(g * g) for g in grads.values()) in (0.0, np.inf)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = optim.clip_gradients(grads, max_norm)
        assert self.norm(out) == pytest.approx(max_norm, rel=1e-15)

    def test_underflow_below_max_norm_unchanged(self):
        grads = {"a": np.array([1e-170, 1e-170])}
        optim.clip_gradients(grads, 1e-100)
        assert grads["a"].tolist() == [1e-170, 1e-170]

    def test_in_range_sum_keeps_the_formula_bits(self, rng):
        # a subnormal but nonzero sum takes the plain formula too
        for scale in (1e-3, 1.0, 1e150, 1e-160):
            grads = {f"g{i}": rng.normal(0.0, scale, 5) for i in range(3)}
            want = {k: g * (0.5 * scale / np.sqrt(sum(float(np.sum(h * h))
                                                      for h in grads.values())))
                    for k, g in grads.items()}
            optim.clip_gradients(grads, 0.5 * scale)
            assert all(same_bits(grads[k], want[k]) for k in grads), scale

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_passes_through(self, bad):
        grads = {"a": np.array([1e200, 1.0]), "b": np.array([bad])}
        optim.clip_gradients(grads, 1.0)
        assert grads["a"].tolist() == [1e200, 1.0]
        assert same_bits(grads["b"], [bad])

    def test_invalid_max_norm(self):
        with pytest.raises(ParameterError):
            optim.clip_gradients({"a": np.ones(2)}, 0.0)
