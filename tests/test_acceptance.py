"""Acceptance gate: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they pass.
"""

import contextlib
import json
import os
import time

import numpy as np
import pytest

from lorentzheads import data, geometry as G, heads as H, hubness, optim, training as T
import conftest
from conftest import random_tangent
from reference_geometry import hyperbolic_distance, log_map_at
from test_hubness import brute_force_k_occurrence


@contextlib.contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        line = f"[acceptance] criterion {num} ({name}): FAIL"
        print(line, flush=True)
        conftest.acceptance_lines.append(line)
        raise
    line = f"[acceptance] criterion {num} ({name}): PASS"
    print(line, flush=True)
    conftest.acceptance_lines.append(line)


def random_point(rng, n):
    return G.batch_exp_map_origin(rng.normal(0.0, 1.0, (1, n)))[0]


def paired_distances(P, Q, rows=100):
    """d(P[i], Q[i]) for every i: the diagonals of batch_distance's blocks."""
    return np.concatenate([np.diagonal(G.batch_distance(P[s:s + rows], Q[s:s + rows]))
                           for s in range(0, len(P), rows)])


@pytest.fixture(scope="module")
def seed_sweep():
    """Default-config training for 10 seeds and both heads (criteria 4 and 5)."""
    runs = {}
    for seed in range(10):
        ds = data.generate(seed=seed)
        for mode in (H.MODE_HYPERBOLIC, H.MODE_LINEAR):
            t0 = time.perf_counter()
            cfg = T.ExperimentConfig(head_mode=mode, seed=seed)
            bank, _, rep, _ = T.train(cfg, ds)
            runs[(seed, mode)] = {
                "bank": bank,
                "tree": ds.tree,
                "val_accuracy": rep.val_accuracy,
                "supercategory_accuracy": rep.supercategory_accuracy,
                "runtime_sec": time.perf_counter() - t0,
            }
    return runs


class TestAcceptance:
    def test_1_geometry_suite(self, rng):
        with criterion(1, "geometry suite"):
            t0 = time.perf_counter()
            # manifold constraint after every geometry op
            for _ in range(200):
                n = int(rng.integers(2, 17))
                x = random_point(rng, n)
                assert G.manifold_violation(x) < 1e-9
                u = random_tangent(rng, x)  # Lorentz norm capped at 3
                y = G.exp_map_at(x, u)
                assert G.manifold_violation(y) < 1e-9
                assert G.manifold_violation(G.project_to_manifold(y + 1e-8)) < 1e-9
                # exp/log round-trip
                z = G.exp_map_at(x, random_tangent(rng, x))
                v = log_map_at(x, z)
                assert np.linalg.norm(G.exp_map_at(x, v) - z) < 1e-6
            # 1e5 optimizer steps stay on the manifold
            x = random_point(rng, 8)
            for step in range(100_000):
                x = optim.riemannian_step(x, rng.normal(0.0, 1.0, 9), 0.05)
                if x[0] > 50.0:
                    x = random_point(rng, 8)
            assert G.manifold_violation(x) < 1e-9
            # triangle inequality on 1e4 random triples
            A = G.batch_exp_map_origin(rng.normal(0.0, 1.0, (10_000, 6)))
            B = G.batch_exp_map_origin(rng.normal(0.0, 1.0, (10_000, 6)))
            C = G.batch_exp_map_origin(rng.normal(0.0, 1.0, (10_000, 6)))
            dab, dbc, dac = paired_distances(A, B), paired_distances(B, C), paired_distances(A, C)
            assert np.all(dac <= dab + dbc + 1e-9)
            elapsed = time.perf_counter() - t0
            assert elapsed < 30.0, f"geometry suite took {elapsed:.1f}s"

    def test_2_gradient_suite(self, rng):
        with criterion(2, "gradient suite"):
            t0 = time.perf_counter()
            cfg = (2.0, 0.25)  # focal_gamma, focal_alpha defaults
            h = 1e-5
            checked = 0
            while checked < 100:
                n = int(rng.integers(2, 17))
                C = int(rng.integers(2, 17))
                f = rng.normal(0.0, 1.5, n)
                W = rng.normal(0.0, 1.5, (C, n))
                targets = np.array([int(rng.integers(-1, C))])
                bank = H.PrototypeBank(
                    H.MODE_HYPERBOLIC, G.batch_exp_map_origin(W),
                    [f"c{i}" for i in range(C)],
                )
                if G.batch_distance(G.batch_exp_map_origin(f[None, :]),
                                    bank.prototypes).min() < 1e-3:
                    continue

                def loss(f=f, W=W):
                    b = H.PrototypeBank(
                        H.MODE_HYPERBOLIC, G.batch_exp_map_origin(W),
                        [f"c{i}" for i in range(C)],
                    )
                    return H.hyperbolic_loss_and_grads(f[None, :], b, targets, *cfg)[0]

                _, gF, gT = H.hyperbolic_loss_and_grads(f[None, :], bank, targets, *cfg)
                gW = G.grad_exp_map_origin(W, gT)
                for arr, grad in ((f, gF[0]), (W, gW)):
                    flat, gflat = arr.reshape(-1), np.asarray(grad).reshape(-1)
                    for j in range(flat.size):
                        old = flat[j]
                        flat[j] = old + h
                        lp = loss()
                        flat[j] = old - h
                        lm = loss()
                        flat[j] = old
                        fd = (lp - lm) / (2 * h)
                        assert abs(fd - gflat[j]) / max(abs(fd), 1e-6) < 1e-4
                checked += 1
            elapsed = time.perf_counter() - t0
            assert elapsed < 60.0, f"gradient suite took {elapsed:.1f}s"

    def test_3_eq7_anchors(self, rng):
        with criterion(3, "Eq. 7 anchors"):
            for delta in (1.4, 0.5, 3.0):
                assert H.shift_logits(np.array([0.0]), delta, 1.0)[0] == delta
            for d_min in (1.0, 0.3, 2.7, np.pi, 1e-3):
                s = H.shift_logits(np.array([d_min]), 1.4, d_min)[0]
                assert s == 0.0 and H.sigmoid(s) == 0.5
            W = rng.normal(0.0, 1.5, (8, 5))
            bank = H.PrototypeBank(
                H.MODE_HYPERBOLIC, G.batch_exp_map_origin(W),
                [f"c{i}" for i in range(8)], frozen=True,
            )
            brute = min(
                hyperbolic_distance(bank.prototypes[i], bank.prototypes[j])
                for i in range(8) for j in range(i + 1, 8)
            )
            assert bank.d_min == brute

    def test_4_learning_sanity(self, seed_sweep):
        with criterion(4, "learning sanity"):
            for mode in (H.MODE_HYPERBOLIC, H.MODE_LINEAR):
                run = seed_sweep[(0, mode)]
                assert run["val_accuracy"] >= 0.95, (mode, run["val_accuracy"])
                assert run["runtime_sec"] < 300.0
            t0 = time.perf_counter()
            noiseless = data.generate(sigma_x=0.0, background_fraction=0.0, seed=0)
            _, _, rep, _ = T.train(T.ExperimentConfig(), noiseless)
            assert rep.val_accuracy == 1.0
            assert time.perf_counter() - t0 < 300.0

    def test_5_paper_direction(self, seed_sweep):
        with criterion(5, "paper direction"):
            ratios, rows = [], []
            margins = {H.MODE_HYPERBOLIC: [], H.MODE_LINEAR: []}
            for seed in range(10):
                run = seed_sweep[(seed, H.MODE_HYPERBOLIC)]
                parents = np.asarray(run["tree"].parents)
                P = run["bank"].prototypes
                D = G.batch_distance(P, P)
                same = parents[:, None] == parents[None, :]
                iu = np.triu_indices(len(P), k=1)
                ratio = float(D[iu][same[iu]].mean() / D[iu][~same[iu]].mean())
                ratios.append(ratio)
                for mode in margins:
                    r = seed_sweep[(seed, mode)]
                    margins[mode].append(
                        r["supercategory_accuracy"] - r["val_accuracy"]
                    )
                rows.append({
                    "seed": seed,
                    "intra_inter_ratio": ratio,
                    "margin_hyperbolic": margins[H.MODE_HYPERBOLIC][-1],
                    "margin_euclidean": margins[H.MODE_LINEAR][-1],
                })
            mean_ratio = float(np.mean(ratios))
            mean_h = float(np.mean(margins[H.MODE_HYPERBOLIC]))
            mean_e = float(np.mean(margins[H.MODE_LINEAR]))
            report = {
                "per_seed": rows,
                "mean_intra_inter_ratio": mean_ratio,
                "mean_margin_hyperbolic": mean_h,
                "mean_margin_euclidean": mean_e,
            }
            out = os.path.join(os.path.dirname(__file__), "..", "reports")
            os.makedirs(out, exist_ok=True)
            with open(os.path.join(out, "paper_direction.json"), "w") as f:
                json.dump(report, f, sort_keys=True, indent=2)
                f.write("\n")
            assert mean_ratio < 1.0
            # margins are numerically tied when both heads saturate; allow
            # float-rounding slack only
            assert mean_h >= mean_e - 1e-12

    def test_6_hubness_oracle(self, rng):
        with criterion(6, "hubness oracle"):
            for N in (10, 25, 50):
                X = rng.normal(size=(N, 6))
                D = np.linalg.norm(X[:, None] - X[None, :], axis=-1)
                for k in (1, 5, N - 1):
                    occ = hubness.k_occurrence(D, k)
                    np.testing.assert_array_equal(
                        occ.counts, brute_force_k_occurrence(D, k)
                    )
                    assert occ.counts.sum() == k * N
                a = hubness.k_occurrence(D, 5)
                b = hubness.k_occurrence(3.0 * D + 2.0, 5)
                np.testing.assert_array_equal(a.counts, b.counts)
                assert a.skewness == b.skewness
            simplex = hubness.pairwise_distances(np.eye(12), "cosine")
            assert hubness.k_occurrence(simplex, 11).skewness == 0.0

    def test_7_zero_shot_plumbing(self):
        with criterion(7, "zero-shot plumbing"):
            ds = data.generate(num_features=8, num_super=2, num_classes=4,
                               num_samples=600, seed=11)
            # class-0 val rows carry class-3 features: a perfect alias
            idx0 = ds.val_idx[ds.labels[ds.val_idx] == 0]
            idx3 = ds.val_idx[ds.labels[ds.val_idx] == 3]
            assert len(idx0) == len(idx3)
            ds.features[idx0] = ds.features[idx3]

            # means from the train split only, untouched by the val swap above
            train_labels = ds.labels[ds.train_idx]
            means = np.stack([
                ds.features[ds.train_idx[train_labels == c]].mean(axis=0)
                for c in range(4)
            ])
            aliased = means.copy()
            aliased[0] = means[3]
            names = list(ds.tree.leaf_classes)
            bank = H.PrototypeBank(H.MODE_HYPERBOLIC, G.batch_exp_map_origin(aliased),
                                   names, frozen=True)
            cfg = T.ExperimentConfig(epochs=1, encoder=False, embed_dim=8,
                                     unseen_classes=[0], seed=11)
            _, _, rep, _ = T.zero_shot_eval(cfg, ds, bank)

            # reference: argmax recall of the aliased seen class under the
            # un-aliased bank on the same rows
            plain = H.PrototypeBank(H.MODE_HYPERBOLIC, G.batch_exp_map_origin(means),
                                    names, frozen=True)
            pred = np.argmax(H.batch_bank_logits(ds.features[idx3], plain), axis=1)
            reference = float(np.mean(pred == 3))
            assert abs(rep.unseen_accuracy - reference) <= 0.05

            # harmonic-mean formula against hand computation
            a, b = rep.seen_accuracy, rep.unseen_accuracy
            assert rep.harmonic_mean == pytest.approx(2 * a * b / (a + b))
            assert T.harmonic_mean(0.5, 1.0) == pytest.approx(2.0 / 3.0)
            assert T.harmonic_mean(0.0, 1.0) == 0.0

    def test_8_reproducibility(self, tmp_path):
        with criterion(8, "reproducibility"):
            ds = data.generate(num_features=8, num_super=2, num_classes=4,
                               num_samples=600, seed=3)
            cfg_kw = dict(epochs=4, eval_every=2, embed_dim=8, seed=3)
            for sub in ("a", "b"):
                (tmp_path / sub).mkdir()
                T.train(T.ExperimentConfig(**cfg_kw), ds, out_dir=tmp_path / sub)
            ck_a, ck_b = (tmp_path / "a" / "checkpoint.json",
                          tmp_path / "b" / "checkpoint.json")
            assert ck_a.read_bytes() == ck_b.read_bytes()
            metrics = []
            for sub in ("a", "b"):
                m = json.loads((tmp_path / sub / "metrics.json").read_text())
                m.pop("wall_clock_sec")  # the one timing-dependent field
                metrics.append(m)
            assert metrics[0] == metrics[1]
            # checkpoint round-trip is byte-exact
            loaded = T.load_checkpoint(ck_a)
            resaved = tmp_path / "resaved.json"
            T.save_checkpoint(resaved, *loaded)
            assert ck_a.read_bytes() == resaved.read_bytes()
