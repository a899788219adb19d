import dataclasses
import json
import math

import jsonschema
import numpy as np
import pytest

from lorentzheads import data, geometry as G, heads as H, hubness, jsonio, optim, schemas
from lorentzheads import training as T
from lorentzheads.errors import ContractError, NumericalError, ParameterError
from lorentzheads.heads import BACKGROUND

import reference_kernels
from conftest import read_only


def strip_wall_clock(d: dict) -> dict:
    d = dict(d)
    d.pop("wall_clock_sec", None)
    return d


def quick_config(**kw) -> T.ExperimentConfig:
    base = dict(epochs=3, batch_size=64, seed=0, eval_every=10)
    base.update(kw)
    return T.ExperimentConfig(**base)


def tiny_dataset(seed=0, **kw):
    base = dict(num_features=8, num_super=2, num_classes=4, num_samples=600, seed=seed)
    base.update(kw)
    return data.generate(**base)


# settings of the wrong JSON type, and of the right type out of range
WRONG_TYPES = [
    ("epochs", "1"), ("epochs", 1.5), ("epochs", True), ("learning_rate", "0.1"),
    ("seed", None), ("encoder", 1), ("grad_clip_norm", "1"), ("unseen_classes", 3),
    ("head_mode", 1),
]
OUT_OF_RANGE = [
    ("focal_gamma", -1.0), ("focal_alpha", 0.0), ("focal_alpha", 1.5),
    ("cosine_tau", 0.0), ("cosine_tau", -1.0), ("encoder_hidden", 0), ("embed_dim", 0),
    ("seed", -1), ("learning_rate", float("nan")), ("delta", float("nan")),
    ("weight_decay", float("inf")), ("focal_alpha", float("nan")),
    ("grad_clip_norm", float("-inf")), ("prototype_learning_rate", float("nan")),
    ("unseen_classes", [1.5]), ("unseen_classes", [True]), ("unseen_classes", [{"a": 1}]),
]


class TestConfig:
    def test_unknown_key_rejected(self):
        with pytest.raises(ParameterError):
            T.ExperimentConfig.from_dict({"epochs": 3, "optimizer": "adam"})

    def test_unknown_head_rejected(self):
        with pytest.raises(ParameterError):
            T.ExperimentConfig(head_mode="softmax")

    def test_round_trip(self):
        cfg = quick_config(learning_rate=0.5, unseen_classes=[1])
        assert T.ExperimentConfig.from_dict(cfg.to_dict()) == cfg

    @pytest.mark.parametrize("key, value", [
        ("dataset", "ds.json"), ("d_min_policy", "constant"),
        ("imbalance_exponent", 0.5), ("prototypes_path", "bank.json"),
    ])
    def test_deleted_key_rejected(self, key, value):
        with pytest.raises(ParameterError, match=key):
            T.ExperimentConfig.from_dict({"epochs": 3, key: value})

    @pytest.mark.parametrize("value", [0.0, -1.0])
    def test_grad_clip_norm_must_be_positive(self, value):
        with pytest.raises(ParameterError, match="grad_clip_norm"):
            quick_config(grad_clip_norm=value)

    def test_weight_decay_must_be_non_negative(self):
        with pytest.raises(ParameterError, match="weight_decay"):
            T.ExperimentConfig(weight_decay=-0.1)
        assert quick_config(weight_decay=0.0).weight_decay == 0.0

    @pytest.mark.parametrize("value", [0.0, -0.1])
    def test_prototype_learning_rate_must_be_positive(self, value):
        with pytest.raises(ParameterError, match="prototype_learning_rate"):
            quick_config(prototype_learning_rate=value)

    @pytest.mark.parametrize("payload", [[], "epochs", None])
    def test_non_object_rejected(self, payload):
        with pytest.raises(ParameterError, match="must be object"):
            T.ExperimentConfig.from_dict(payload)

    @pytest.mark.parametrize("key, value", WRONG_TYPES)
    def test_wrong_type_rejected(self, key, value):
        with pytest.raises(ParameterError, match=key):
            T.ExperimentConfig.from_dict({key: value})

    @pytest.mark.parametrize("key, value", [
        ("epochs", 2.5), ("batch_size", 32.0), ("encoder", 1), ("head_mode", None),
    ])
    def test_wrong_type_rejected_however_built(self, key, value):
        # the type check runs in the constructor, not only on a JSON file
        with pytest.raises(ParameterError, match=key):
            T.ExperimentConfig(**{key: value})
        with pytest.raises(ParameterError, match=key):
            dataclasses.replace(T.ExperimentConfig(), **{key: value})

    def test_json_number_types_accepted(self):
        cfg = T.ExperimentConfig.from_dict(
            {"learning_rate": 1, "grad_clip_norm": None, "prototype_learning_rate": 0.5})
        assert cfg.learning_rate == 1 and cfg.grad_clip_norm is None

    @pytest.mark.parametrize("key, value", OUT_OF_RANGE)
    def test_out_of_range_rejected(self, key, value):
        with pytest.raises(ParameterError, match=key):
            T.ExperimentConfig.from_dict({key: value})

    @pytest.mark.parametrize("key, value", WRONG_TYPES + OUT_OF_RANGE)
    def test_schema_validators_agree(self, key, value):
        # NaN and +Infinity pass every schema bound: the finiteness check
        # alone refuses them
        try:
            jsonio.validate({key: value}, "config")
            accepted = True
        except ParameterError:
            accepted = False
        assert accepted == jsonschema.Draft202012Validator(
            schemas.load_schema("config")).is_valid({key: value})
        assert accepted == (isinstance(value, float) and (math.isnan(value) or value == math.inf))

    def test_every_number_field_has_a_range(self):
        properties = schemas.load_schema("config")["properties"]
        assert list(properties) == [f.name for f in dataclasses.fields(T.ExperimentConfig)]
        for name, prop in properties.items():
            types = prop.get("type", [])
            if {"number", "integer"} & set([types] if isinstance(types, str) else types):
                assert prop.keys() & {"minimum", "exclusiveMinimum"}, name

    def test_mode_enums_are_the_head_modes(self):
        assert schemas.load_schema("config")["properties"]["head_mode"]["enum"] == list(H.MODES)
        assert (schemas.load_schema("prototype_bank")["properties"]["mode"]["enum"]
                == list(H.MODES))

    def test_range_edges_accepted(self):
        cfg = T.ExperimentConfig.from_dict(
            {"focal_gamma": 0, "focal_alpha": 1, "seed": 10**30, "encoder_hidden": 1,
             "embed_dim": 1, "unseen_classes": ["leaf_1", 2]})
        assert (cfg.focal_gamma, cfg.focal_alpha, cfg.seed) == (0, 1, 10**30)
        assert cfg.unseen_classes == ["leaf_1", 2]

    def test_proto_lr_falls_back_only_when_unset(self):
        assert quick_config(learning_rate=0.5).proto_lr == 0.5
        assert quick_config(learning_rate=0.5, prototype_learning_rate=1e-3).proto_lr == 1e-3


class TestEvaluate:
    def tree(self):
        return data.ClassTree(["s0", "s1"], ["l0", "l1", "l2", "l3"], [0, 0, 1, 1])

    def bank(self):
        # one prototype per axis, far from the origin so confidence saturates
        return H.PrototypeBank(
            H.MODE_HYPERBOLIC, G.batch_exp_map_origin(3.0 * np.eye(4)),
            ["l0", "l1", "l2", "l3"],
        )

    def test_all_correct(self):
        feats = 3.0 * np.eye(4)
        rep = T.evaluate(self.bank(), None, feats, np.arange(4), self.tree())
        assert rep.val_accuracy == 1.0
        assert rep.supercategory_accuracy == 1.0

    def test_sibling_confusion_counts_for_supercategory(self):
        # class-0 sample placed exactly at the sibling class-1 prototype
        feats = 3.0 * np.eye(4)[[1]]
        rep = T.evaluate(self.bank(), None, feats, np.array([0]), self.tree())
        assert rep.val_accuracy == 0.0
        assert rep.supercategory_accuracy == 1.0

    def test_background_row_needs_low_confidence(self):
        bank = self.bank()
        at_proto = 3.0 * np.eye(4)[[0]]
        far = np.full((1, 4), 5.0)
        rep_bad = T.evaluate(bank, None, at_proto, np.array([BACKGROUND]), self.tree())
        rep_good = T.evaluate(bank, None, far, np.array([BACKGROUND]), self.tree())
        assert rep_bad.val_accuracy == 0.0
        assert rep_good.val_accuracy == 1.0

    def test_per_class_precision_recall(self):
        # two class-0 rows: one at the prototype (hit), one at class 1 (miss)
        feats = np.stack([3.0 * np.eye(4)[0], 3.0 * np.eye(4)[1]])
        rep = T.evaluate(self.bank(), None, feats, np.array([0, 0]), self.tree())
        pc = rep.per_class
        assert pc["l0"] == {"precision": 1.0, "recall": 0.5, "support": 2}
        assert pc["l1"]["precision"] == 0.0

    def test_chance_level_for_random_labels(self, rng):
        # geometry is independent of the labels, so accuracy ~ Binomial(1/C)
        m, C = 3000, 4
        feats = rng.normal(0.0, 2.0, (m, 4))
        labels = rng.integers(0, C, m)
        rep = T.evaluate(self.bank(), None, feats, labels, self.tree())
        p = 1.0 / C
        tol = 5.0 * np.sqrt(p * (1 - p) / m)
        assert abs(rep.val_accuracy - p) < tol

    def test_harmonic_mean_fields(self):
        feats = 3.0 * np.eye(4)
        rep = T.evaluate(self.bank(), None, feats, np.arange(4), self.tree(),
                         unseen_classes=[3])
        assert rep.seen_accuracy == 1.0
        assert rep.unseen_accuracy == 1.0
        assert rep.harmonic_mean == 1.0
        rep2 = T.evaluate(self.bank(), None, feats, np.arange(4), self.tree())
        assert rep2.harmonic_mean is None

    def test_per_class_matches_loop(self, rng):
        m = 500
        feats = rng.normal(0.0, 2.5, (m, 4))
        labels = rng.integers(-1, 4, m)
        rep = T.evaluate(self.bank(), None, feats, labels, self.tree())
        S = H.batch_bank_logits(feats, self.bank())
        pred = np.argmax(S, axis=1)
        gated = np.where(H.sigmoid(S.max(axis=1)) > 0.5, pred, BACKGROUND)
        for c, name in enumerate(self.tree().leaf_classes):
            tp = int(np.sum((gated == c) & (labels == c)))
            fp = int(np.sum((gated == c) & (labels != c)))
            fn = int(np.sum((gated != c) & (labels == c)))
            assert rep.per_class[name] == {
                "precision": tp / (tp + fp) if tp + fp else 0.0,
                "recall": tp / (tp + fn) if tp + fn else 0.0,
                "support": int(np.sum(labels == c)),
            }

    def test_harmonic_mean_values(self):
        assert T.harmonic_mean(0.5, 1.0) == pytest.approx(2.0 / 3.0)
        assert T.harmonic_mean(0.0, 0.9) == 0.0
        assert T.harmonic_mean(0.9, 0.0) == 0.0


class TestInPlaceEncoderAndReport:
    """The encoder and evaluate write only into arrays they allocated, with
    the bits and values of the allocating formulas."""

    def encoder(self, rng):
        enc = T.Encoder.init(rng, 4, 16, 3)
        enc.b1[8:] = rng.normal(0.0, 0.5, 8)          # b1[:8] = 0: the zero row's pre is 0
        enc.b2[:] = rng.normal(0.0, 0.5, 3)
        return enc

    def test_forward_and_backward_keep_their_bits(self, rng):
        enc = self.encoder(rng)
        X = rng.normal(0.0, 1.5, (30, 4))
        X[0] = 0.0
        X[1] *= 40.0
        read_only(X, *enc.params().values())
        E, cache = enc.forward(X)
        pre = X @ enc.W1 + enc.b1
        H_ = np.maximum(pre, 0.0)
        assert len(cache) == 2 and cache[0] is X
        assert cache[1].tobytes() == H_.tobytes()
        assert E.tobytes() == (H_ @ enc.W2 + enc.b2).tobytes()
        dE = rng.normal(0.0, 1.0, E.shape)
        dH = (dE @ enc.W2.T) * (pre > 0.0)
        want = {"enc.W1": X.T @ dH, "enc.b1": dH.sum(axis=0), "enc.W2": H_.T @ dE,
                "enc.b2": dE.sum(axis=0)}
        got = enc.backward(cache, dE)
        assert {k: v.tobytes() for k, v in got.items()} == {
            k: v.tobytes() for k, v in want.items()}

    def test_label_rows_is_isin(self, rng):
        labels = rng.integers(-1, 6, 200)
        for classes in ([], [0], [5], [1, 3, 4], list(range(6))):
            np.testing.assert_array_equal(T._label_rows(labels, classes, 6),
                                          np.isin(labels, classes))

    @pytest.mark.parametrize("mode", H.MODES)
    def test_report_keeps_its_values(self, rng, mode):
        C = 6
        tree = data.ClassTree(["s0", "s1"], [f"l{c}" for c in range(C)], [0, 0, 0, 1, 1, 1])
        rows = rng.normal(0.0, 1.0, (C, 3))
        if mode == H.MODE_HYPERBOLIC:
            rows = G.batch_exp_map_origin(rows)
        bank = H.PrototypeBank(mode, rows, tree.leaf_classes, frozen=True)
        enc = self.encoder(rng)
        features = rng.normal(0.0, 1.5, (300, 4))
        labels = rng.integers(-1, C, 300)
        buckets = {"l0": "frequent", "l1": "frequent", "l2": "common", "l4": "rare"}
        unseen = [4, 1]
        read_only(features, bank.prototypes, *enc.params().values())
        got = T.evaluate(bank, enc, features, labels, tree, tau=0.2, unseen_classes=unseen,
                         buckets=buckets)
        # the report as evaluate built it with np.isin and per-entry float()
        S = H.batch_bank_logits(enc.forward(features)[0], bank, tau=0.2)
        pred = np.argmax(S, axis=1)
        conf = H.sigmoid(S.max(axis=1))
        gated = np.where(conf > 0.5, pred, BACKGROUND)
        fg = labels != BACKGROUND
        correct = np.where(fg, pred == labels, conf <= 0.5)
        support = np.bincount(labels[fg], minlength=C)
        hits = np.bincount(labels[fg & (gated == labels)], minlength=C)
        precision = hits / np.maximum(np.bincount(gated[gated >= 0], minlength=C), 1)
        recall = hits / np.maximum(support, 1)
        assert got.per_class == {
            name: {"precision": float(precision[c]), "recall": float(recall[c]),
                   "support": int(support[c])} for c, name in enumerate(tree.leaf_classes)}
        unseen_mask = np.isin(labels, sorted(unseen))
        assert got.seen_accuracy == float(correct[fg & ~unseen_mask].mean())
        assert got.unseen_accuracy == float(correct[unseen_mask].mean())
        assert got.bucket_accuracy == {
            b: float(correct[np.isin(labels, members)].mean()) if members else 0.0
            for b, members in (("frequent", [0, 1]), ("common", [2]), ("rare", [4]))}
        assert got.val_accuracy == float(correct.mean())


class TestTrain:
    def test_loss_decreases(self):
        ds = tiny_dataset()
        cfg = quick_config(epochs=5, embed_dim=8)
        _, _, rep, _ = T.train(cfg, ds)
        assert rep.train_loss[-1] < rep.train_loss[0]

    def test_bit_identical_reruns(self, tmp_path):
        ds = tiny_dataset()
        cfg = quick_config(embed_dim=8, eval_every=3)
        for sub in ("a", "b"):
            (tmp_path / sub).mkdir()
            T.train(cfg, ds, out_dir=tmp_path / sub)
        ck_a = (tmp_path / "a" / "checkpoint.json").read_bytes()
        ck_b = (tmp_path / "b" / "checkpoint.json").read_bytes()
        assert ck_a == ck_b
        ma = strip_wall_clock(json.loads((tmp_path / "a" / "metrics.json").read_text()))
        mb = strip_wall_clock(json.loads((tmp_path / "b" / "metrics.json").read_text()))
        assert ma == mb

    def test_noiseless_perfect_accuracy(self):
        ds = data.generate(num_samples=1600, sigma_x=0.0, background_fraction=0.0, seed=1)
        cfg = quick_config(epochs=40)
        _, _, rep, _ = T.train(cfg, ds)
        assert rep.val_accuracy == 1.0

    def test_all_head_modes_learn(self):
        ds = tiny_dataset()
        for mode in (H.MODE_HYPERBOLIC, H.MODE_LINEAR, H.MODE_COSINE):
            cfg = quick_config(head_mode=mode, epochs=25, embed_dim=8)
            _, _, rep, _ = T.train(cfg, ds)
            assert rep.val_accuracy > 0.7, mode

    def test_prototypes_stay_on_manifold(self):
        ds = tiny_dataset()
        cfg = quick_config(epochs=4, embed_dim=8)
        bank, _, _, _ = T.train(cfg, ds)
        for row in bank.prototypes:
            assert G.manifold_violation(row) < 1e-9

    def test_no_encoder_requires_matching_dims(self):
        ds = tiny_dataset()
        with pytest.raises(ParameterError):
            T.train(quick_config(encoder=False, embed_dim=16), ds)
        cfg = quick_config(encoder=False, embed_dim=8, epochs=4,
                           prototype_learning_rate=0.1)
        _, encoder, rep, _ = T.train(cfg, ds)
        assert encoder is None
        assert rep.train_loss[-1] < rep.train_loss[0]

    def test_frozen_bank_prototypes_untouched(self):
        ds = tiny_dataset()
        bank = H.PrototypeBank(
            H.MODE_HYPERBOLIC, G.batch_exp_map_origin(2.0 * np.eye(4)),
            list(ds.tree.leaf_classes), frozen=True,
        )
        before = bank.prototypes.copy()
        cfg = quick_config(embed_dim=4)
        bank, _, _, _ = T.train(cfg, ds, state=T.start(cfg, ds, bank))
        np.testing.assert_array_equal(bank.prototypes, before)

    def test_unseen_classes_need_frozen_bank(self):
        with pytest.raises(ParameterError, match="unseen_classes"):
            T.train(quick_config(embed_dim=8, unseen_classes=[3]), tiny_dataset())

    def test_dataset_unseen_classes_need_frozen_bank(self):
        # a dataset's own unseen classes have no train rows to fit either
        ds = data.holdout_unseen(tiny_dataset(), ["leaf_3"])
        with pytest.raises(ParameterError, match="unseen_classes"):
            T.train(quick_config(epochs=1, embed_dim=8), ds)

    @pytest.mark.parametrize("mode, width", [(H.MODE_HYPERBOLIC, 8), (H.MODE_HYPERBOLIC, 3),
                                             (H.MODE_LINEAR, 5)])
    def test_prototype_width_must_fit_embed_dim(self, mode, width):
        ds = tiny_dataset()
        P = np.random.default_rng(0).normal(0.0, 1.0, (4, width - (mode == H.MODE_HYPERBOLIC)))
        if mode == H.MODE_HYPERBOLIC:
            P = G.batch_exp_map_origin(P)
        bank = H.PrototypeBank(mode, P, list(ds.tree.leaf_classes), frozen=True)
        cfg = quick_config(embed_dim=4)
        with pytest.raises(ParameterError, match="embed_dim 4"):
            T.train(cfg, ds, state=T.start(cfg, ds, bank))

    @pytest.mark.parametrize("mode, frozen", [(H.MODE_LINEAR, False), (H.MODE_COSINE, False),
                                              (H.MODE_HYPERBOLIC, True)])
    def test_prototype_learning_rate_needs_rsgd(self, mode, frozen):
        # only RSGD on a learnable hyperbolic bank reads the key
        ds = tiny_dataset()
        cfg = quick_config(embed_dim=8, head_mode=mode, prototype_learning_rate=5.0)
        bank = None
        if frozen:
            P = G.batch_exp_map_origin(np.random.default_rng(0).normal(0.0, 1.0, (4, 8)))
            bank = H.PrototypeBank(mode, P, list(ds.tree.leaf_classes), frozen=True)
        with pytest.raises(ParameterError, match="prototype_learning_rate"):
            T.train(cfg, ds, state=T.start(cfg, ds, bank))

    def test_bank_mode_must_match_head_mode(self):
        ds = tiny_dataset()
        P = np.random.default_rng(0).normal(0.0, 1.0, (4, 8))
        bank = H.PrototypeBank(H.MODE_LINEAR, P, list(ds.tree.leaf_classes), frozen=True)
        cfg = quick_config(embed_dim=8, head_mode=H.MODE_COSINE)
        with pytest.raises(ParameterError, match="head_mode 'euclidean-cosine'"):
            T.train(cfg, ds, state=T.start(cfg, ds, bank))

    def test_bank_delta_must_match_config(self):
        ds = tiny_dataset()
        P = G.batch_exp_map_origin(np.random.default_rng(0).normal(0.0, 1.0, (4, 8)))
        bank = H.PrototypeBank(H.MODE_HYPERBOLIC, P, list(ds.tree.leaf_classes), frozen=True)
        cfg = quick_config(embed_dim=8, delta=5.0)
        with pytest.raises(ParameterError, match="delta 5.0"):
            T.train(cfg, ds, state=T.start(cfg, ds, bank))

    @pytest.mark.parametrize("edit, num_features", [
        ({"encoder": False}, 8), ({"encoder_hidden": 7}, 8), ({"embed_dim": 6}, 8),
        ({}, 12)])
    def test_encoder_must_fit_config_and_dataset(self, edit, num_features):
        # a state whose encoder the config or the dataset does not describe
        cfg = quick_config(embed_dim=8)
        state = T.start(cfg, tiny_dataset())
        edited = T.ExperimentConfig(**{**cfg.to_dict(), **edit})
        with pytest.raises(ParameterError, match="encoder"):
            T.train(edited, tiny_dataset(num_features=num_features),
                    state=state._replace(config=edited))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_aborts_with_diagnostics(self):
        ds = tiny_dataset()
        ds.features[ds.train_idx[0]] = np.nan
        with pytest.raises(NumericalError, match="param_norms"):
            T.train(quick_config(embed_dim=8, batch_size=len(ds.train_idx)), ds)


class TestCheckpoints:
    def test_round_trip_is_byte_stable(self, tmp_path):
        ds = tiny_dataset()
        cfg = quick_config(embed_dim=8, eval_every=3)
        T.train(cfg, ds, out_dir=tmp_path)
        path = tmp_path / "checkpoint.json"
        loaded = T.load_checkpoint(path)
        resaved = tmp_path / "resaved.json"
        T.save_checkpoint(resaved, loaded[0], loaded[1], loaded[2], loaded[3],
                          loaded[4], loaded[5], loaded[6])
        assert path.read_bytes() == resaved.read_bytes()

    def test_integer_delta_round_trip_is_byte_stable(self, tmp_path):
        # a bank keeps the delta it was given: 1 stays 1, not 1.0
        T.train(quick_config(embed_dim=8, delta=1), tiny_dataset(), out_dir=tmp_path)
        path = tmp_path / "checkpoint.json"
        T.save_checkpoint(tmp_path / "resaved.json", *T.load_checkpoint(path))
        assert path.read_bytes() == (tmp_path / "resaved.json").read_bytes()

    def test_checkpoint_path_listed_once(self, tmp_path):
        # epochs 2 and 4 both save, to the same file
        _, _, _, paths = T.train(quick_config(epochs=4, eval_every=2, embed_dim=8),
                                 tiny_dataset(), out_dir=tmp_path)
        assert paths == [str(tmp_path / "checkpoint.json")]

    def test_resume_matches_uninterrupted_run(self, tmp_path):
        ds = tiny_dataset()
        full_dir, part_dir = tmp_path / "full", tmp_path / "part"
        full_dir.mkdir()
        part_dir.mkdir()
        cfg = quick_config(epochs=6, eval_every=3, embed_dim=8)
        T.train(cfg, ds, out_dir=full_dir)

        cfg_short = quick_config(epochs=3, eval_every=3, embed_dim=8)
        T.train(cfg_short, ds, out_dir=part_dir)
        ck = part_dir / "checkpoint.json"
        payload = json.loads(ck.read_text())
        assert payload["epoch"] == 3
        payload["config"]["epochs"] = 6  # extend the run, then resume
        ck.write_text(json.dumps(payload, sort_keys=True) + "\n")
        T.train(cfg, ds, out_dir=part_dir, state=T.load_checkpoint(ck))

        assert ck.read_bytes() == (full_dir / "checkpoint.json").read_bytes()
        mf = strip_wall_clock(json.loads((full_dir / "metrics.json").read_text()))
        mp = strip_wall_clock(json.loads((part_dir / "metrics.json").read_text()))
        assert mf == mp

    def test_resume_trains_with_the_recorded_learning_rate(self, tmp_path):
        # the optimizer reads its rates from the checkpoint's config alone
        ds = tiny_dataset()
        T.train(quick_config(head_mode=H.MODE_LINEAR, embed_dim=8, epochs=2), ds,
                out_dir=tmp_path)
        payload = json.loads((tmp_path / "checkpoint.json").read_text())
        encoders = []
        for lr in (0.01, 0.5):
            payload["config"].update(epochs=3, learning_rate=lr)
            ck = tmp_path / f"ck_{lr}.json"
            ck.write_text(json.dumps(payload))
            state = T.load_checkpoint(ck)
            _, encoder, _, _ = T.train(state.config, ds, state=state)
            encoders.append(encoder.W1)
        assert not np.array_equal(encoders[0], encoders[1])

    def test_retired_optimizer_keys_are_ignored(self, tmp_path):
        # older checkpoints also stored the rates in "optimizer"
        ds = tiny_dataset()
        cfg = quick_config(embed_dim=8, epochs=2, eval_every=2, weight_decay=1e-3)
        T.train(cfg, ds, out_dir=tmp_path)
        payload = json.loads((tmp_path / "checkpoint.json").read_text())
        assert set(payload["optimizer"]) == {"first_moment", "second_moment", "step"}
        payload["config"]["epochs"] = 4
        old = json.loads(json.dumps(payload))
        old["optimizer"].update(learning_rate=cfg.learning_rate, weight_decay=1e-3,
                                beta1=0.9, beta2=0.999, eps=1e-8)
        for name, doc in (("new", payload), ("old", old)):
            (tmp_path / name).mkdir()
            (tmp_path / f"{name}.json").write_text(json.dumps(doc))
            state = T.load_checkpoint(tmp_path / f"{name}.json")
            T.train(state.config, ds, out_dir=tmp_path / name, state=state)
        assert ((tmp_path / "new" / "checkpoint.json").read_bytes()
                == (tmp_path / "old" / "checkpoint.json").read_bytes())

    @pytest.mark.parametrize("mode", [H.MODE_LINEAR, "zero-shot"])
    def test_older_format_resumes_to_the_same_bytes(self, tmp_path, mode):
        # older checkpoints kept one Adam step count per tensor and wrote the
        # bank's d_min, which no load reads
        ds = tiny_dataset()
        cfg = quick_config(embed_dim=8, epochs=2, eval_every=2)
        if mode == "zero-shot":
            T.train(cfg, ds, out_dir=tmp_path, state=T.start(cfg, ds, frozen_means_bank(ds)))
        else:
            T.train(dataclasses.replace(cfg, head_mode=mode), ds, out_dir=tmp_path)
        payload = json.loads((tmp_path / "checkpoint.json").read_text())
        payload["config"]["epochs"] = 4
        old = json.loads(json.dumps(payload))
        step = old["optimizer"].pop("step")
        assert step > 0
        old["optimizer"]["param_steps"] = dict.fromkeys(old["optimizer"]["first_moment"], step)
        old["bank"]["d_min"] = 123.0
        for name, doc in (("new", payload), ("old", old)):
            (tmp_path / name).mkdir()
            (tmp_path / f"{name}.json").write_text(json.dumps(doc))
            state = T.load_checkpoint(tmp_path / f"{name}.json")
            T.train(state.config, ds, out_dir=tmp_path / name, state=state)
        assert ((tmp_path / "new" / "checkpoint.json").read_bytes()
                == (tmp_path / "old" / "checkpoint.json").read_bytes())

    def test_resume_rejects_another_bank(self, tmp_path):
        # a resumed run trains its checkpoint's bank under the checkpoint's
        # config; a config asking for another head is refused, not obeyed
        ds = tiny_dataset()
        cfg = quick_config(embed_dim=8)
        T.train(cfg, ds, out_dir=tmp_path)
        state = T.load_checkpoint(tmp_path / "checkpoint.json")
        with pytest.raises(ParameterError, match="another config"):
            T.train(quick_config(embed_dim=8, head_mode=H.MODE_LINEAR), ds, state=state)


class TestZeroShot:
    def make_frozen_bank(self, ds):
        # prototypes at the exp0 image of the per-class feature means
        means = np.stack([
            ds.features[ds.labels == c].mean(axis=0) for c in range(ds.num_classes)
        ])
        return H.PrototypeBank(
            H.MODE_HYPERBOLIC, G.batch_exp_map_origin(means),
            list(ds.tree.leaf_classes), frozen=True,
        )

    def test_requires_frozen_bank(self):
        ds = tiny_dataset()
        bank = H.PrototypeBank(
            H.MODE_HYPERBOLIC, G.batch_exp_map_origin(np.eye(4)),
            list(ds.tree.leaf_classes),
        )
        with pytest.raises(ParameterError):
            T.zero_shot_eval(quick_config(), ds, bank)

    def test_unseen_class_scored(self):
        ds = tiny_dataset(num_samples=1200)
        bank = self.make_frozen_bank(ds)
        # identity embedding: the frozen prototypes sit at the exp0 image of
        # the class means, so the unseen class is recognizable with no
        # trainable parameters at all
        cfg = quick_config(epochs=2, encoder=False, embed_dim=8, unseen_classes=[3])
        _, _, rep, _ = T.zero_shot_eval(cfg, ds, bank)
        assert rep.seen_accuracy is not None
        assert rep.unseen_accuracy is not None
        assert rep.harmonic_mean == pytest.approx(
            T.harmonic_mean(rep.seen_accuracy, rep.unseen_accuracy)
        )
        # frozen prototypes carry enough signal for unseen class recall
        assert rep.unseen_accuracy > 0.5

    def test_bucket_accuracy_reported(self):
        ds = data.imbalance_profile(tiny_dataset(num_samples=2000), 1.0)
        cfg = quick_config(epochs=5, embed_dim=8)
        _, _, rep, _ = T.train(cfg, ds)
        assert set(rep.bucket_accuracy) == {"frequent", "common", "rare"}


def reference_adam(p, g, opt, lr, weight_decay, name, steps):
    """Adam on one tensor with its own moments and its own step count in
    `steps`: the update `train` made per tensor before it stepped one buffer."""
    if name not in opt.first_moment:
        opt.first_moment[name] = np.zeros_like(p)
        opt.second_moment[name] = np.zeros_like(p)
    # a tensor's count starts from the state's one count (0, or a resumed run's)
    t = steps[name] = steps.get(name, opt.step) + 1
    m, v = opt.first_moment[name], opt.second_moment[name]
    m[...] = optim.BETA1 * m + (1.0 - optim.BETA1) * g
    v[...] = optim.BETA2 * v + (1.0 - optim.BETA2) * g * g
    m_hat = m / (1.0 - optim.BETA1**t)
    v_hat = v / (1.0 - optim.BETA2**t)
    return p - lr * (m_hat / (np.sqrt(v_hat) + optim.EPS) + weight_decay * p)


def reference_train(state: T.RunState, dataset) -> T.RunState:
    """`train`'s loop with one Adam call per tensor, a gather per batch and
    the allocating hyperbolic kernels of `reference_kernels` (no checks, no
    outputs): the state at `state.config.epochs`."""
    config, epoch, encoder, bank, opt, rng, loss_hist = state
    dataset = data.holdout_unseen(dataset, config.unseen_classes)
    steps = {}   # each tensor's own Adam step count
    for _ in range(epoch, config.epochs):
        perm = rng.permutation(dataset.train_idx)
        total = 0.0
        for lo in range(0, len(perm), config.batch_size):
            batch = perm[lo:lo + config.batch_size]
            emb, cache = encoder.forward(dataset.features[batch])
            loss, grad_emb, grad_proto = reference_kernels.loss_and_grads(
                emb, bank, dataset.labels[batch], config.focal_gamma, config.focal_alpha,
                tau=config.cosine_tau)
            grads, params = encoder.backward(cache, grad_emb), encoder.params()
            if not bank.frozen:
                grads["prototypes"], params["prototypes"] = grad_proto, bank.prototypes
            if config.grad_clip_norm is not None:
                grads = optim.clip_gradients(grads, config.grad_clip_norm)
            for name, p in params.items():
                if name == "prototypes" and bank.mode == H.MODE_HYPERBOLIC:
                    bank.prototypes = reference_kernels.riemannian_step(p, grads[name],
                                                                        config.proto_lr)
                elif name == "prototypes":
                    bank.prototypes = reference_adam(p, grads[name], opt, config.learning_rate,
                                                     config.weight_decay, name, steps)
                else:
                    encoder.set_param(name, reference_adam(
                        p, grads[name], opt, config.learning_rate, config.weight_decay, name,
                        steps))
            total += loss * len(batch)
        loss_hist.append(total / len(perm))
    if steps:
        opt.step, = set(steps.values())   # the counts agree, or this unpacking fails
    return state._replace(epoch=config.epochs)


def frozen_means_bank(ds, mode=H.MODE_HYPERBOLIC):
    """A frozen bank at the class means (exp0-mapped for the hyperbolic head)."""
    means = np.stack([ds.features[ds.labels == c].mean(axis=0) for c in range(ds.num_classes)])
    if mode == H.MODE_HYPERBOLIC:
        means = G.batch_exp_map_origin(means)
    return H.PrototypeBank(mode, means, list(ds.tree.leaf_classes), frozen=True)


SETTINGS = {"plain": {}, "clipped-decayed": {"grad_clip_norm": 0.5, "weight_decay": 1e-3}}
# large RSGD steps of a learnable hyperbolic bank, with a ragged last batch
LARGE_STEPS = {"prototype_learning_rate": 1.0, "embed_dim": 2, "batch_size": 7}


class TestOneAdamBuffer:
    @pytest.mark.parametrize("setting", sorted(SETTINGS))
    @pytest.mark.parametrize("mode", H.MODES)
    def test_matches_per_tensor_adam(self, tmp_path, mode, setting):
        ds = tiny_dataset()
        cfg = quick_config(head_mode=mode, embed_dim=8, epochs=2, **SETTINGS[setting])
        T.train(cfg, ds, out_dir=tmp_path)
        T.save_checkpoint(tmp_path / "ref.json", *reference_train(T.start(cfg, ds), ds))
        assert (tmp_path / "checkpoint.json").read_bytes() == (tmp_path / "ref.json").read_bytes()

    @pytest.mark.parametrize("encoder", [True, False])
    def test_large_rsgd_steps_and_a_ragged_batch_match(self, tmp_path, encoder):
        # prototype steps of rate 1 in two dimensions, and a last batch
        # shorter than the others
        ds = tiny_dataset(**({} if encoder else {"num_features": 2}))
        cfg = quick_config(epochs=2, encoder=encoder, **LARGE_STEPS)
        assert len(ds.train_idx) % cfg.batch_size
        T.train(cfg, ds, out_dir=tmp_path)
        state = T.start(cfg, ds)
        ref = reference_train(state if encoder else state._replace(encoder=_NoEncoder()), ds)
        T.save_checkpoint(tmp_path / "ref.json", *(ref if encoder else ref._replace(encoder=None)))
        assert (tmp_path / "checkpoint.json").read_bytes() == (tmp_path / "ref.json").read_bytes()

    @pytest.mark.parametrize("mode", H.MODES)
    def test_resumed_run_matches_per_tensor_adam(self, tmp_path, mode):
        ds = tiny_dataset()
        T.train(quick_config(head_mode=mode, embed_dim=8, epochs=2, weight_decay=1e-3), ds,
                out_dir=tmp_path)
        payload = json.loads((tmp_path / "checkpoint.json").read_text())
        payload["config"]["epochs"] = 4
        ck = tmp_path / "ck.json"
        ck.write_text(json.dumps(payload))
        (tmp_path / "resumed").mkdir()
        state = T.load_checkpoint(ck)
        T.train(state.config, ds, out_dir=tmp_path / "resumed", state=state)
        T.save_checkpoint(tmp_path / "ref.json", *reference_train(T.load_checkpoint(ck), ds))
        assert ((tmp_path / "resumed" / "checkpoint.json").read_bytes()
                == (tmp_path / "ref.json").read_bytes())

    @pytest.mark.parametrize("mode", [H.MODE_HYPERBOLIC, H.MODE_LINEAR])
    def test_zero_shot_matches_per_tensor_adam(self, tmp_path, mode):
        ds = tiny_dataset()
        cfg = quick_config(head_mode=mode, embed_dim=8, epochs=2, unseen_classes=[3],
                           grad_clip_norm=0.5)
        T.zero_shot_eval(cfg, ds, frozen_means_bank(ds, mode), out_dir=tmp_path)
        ref = reference_train(T.start(cfg, ds, frozen_means_bank(ds, mode)), ds)
        T.save_checkpoint(tmp_path / "ref.json", *ref)
        assert (tmp_path / "checkpoint.json").read_bytes() == (tmp_path / "ref.json").read_bytes()

    def test_trained_tensors_are_views_read_correctly(self, tmp_path):
        ds = tiny_dataset()
        cfg = quick_config(head_mode=H.MODE_LINEAR, embed_dim=8, epochs=2)
        bank, encoder, report, _ = T.train(cfg, ds, out_dir=tmp_path)
        tensors = [*encoder.params().values(), bank.prototypes]
        buffer = encoder.W1.base
        assert buffer is not None and all(t.base is buffer for t in tensors)
        assert buffer.size == sum(t.size for t in tensors)
        # the views score and save as the copies of them do
        copies = T.Encoder(*(t.copy() for t in encoder.params().values()))
        copied_bank = H.PrototypeBank(bank.mode, bank.prototypes.copy(), bank.class_names,
                                      bank.delta)
        again = T.evaluate_split(bank, encoder, ds)
        from_copies = T.evaluate_split(copied_bank, copies, ds)
        assert again.val_accuracy == report.val_accuracy == from_copies.val_accuracy
        assert again.per_class == report.per_class == from_copies.per_class
        state = T.load_checkpoint(tmp_path / "checkpoint.json")
        for loaded, trained in zip([*state.encoder.params().values(), state.bank.prototypes],
                                   tensors):
            np.testing.assert_array_equal(loaded, trained)
        T.save_checkpoint(tmp_path / "again.json", *state._replace(encoder=encoder, bank=bank))
        assert ((tmp_path / "again.json").read_bytes()
                == (tmp_path / "checkpoint.json").read_bytes())

    @pytest.mark.parametrize("mode", H.MODES + ("zero-shot",))
    def test_one_adam_call_per_batch(self, monkeypatch, mode):
        ds = tiny_dataset()
        calls = {"euclidean_step": 0, "riemannian_step": 0}
        for name in calls:
            def counted(*args, _step=getattr(optim, name), _name=name):
                calls[_name] += 1
                return _step(*args)
            monkeypatch.setattr(optim, name, counted)
        if mode == "zero-shot":
            cfg = quick_config(embed_dim=8, epochs=2)
            T.train(cfg, ds, state=T.start(cfg, ds, frozen_means_bank(ds)))
        else:
            T.train(quick_config(head_mode=mode, embed_dim=8, epochs=2), ds)
        batches = 2 * -(-len(ds.train_idx) // 64)
        assert calls == {"euclidean_step": batches,
                         "riemannian_step": batches if mode == H.MODE_HYPERBOLIC else 0}

    def test_step_count_shared(self, tmp_path):
        ds = tiny_dataset()
        T.train(quick_config(head_mode=H.MODE_COSINE, embed_dim=8, epochs=2), ds,
                out_dir=tmp_path)
        optimizer = json.loads((tmp_path / "checkpoint.json").read_text())["optimizer"]
        batches = -(-len(ds.train_idx) // 64)
        assert optimizer["step"] == 2 * batches
        assert set(optimizer["first_moment"]) == {"enc.W1", "enc.W2", "enc.b1", "enc.b2",
                                                  "prototypes"}

    @pytest.mark.parametrize("edit, match", [
        pytest.param(lambda o: setattr(o, "step", 0), "moments for no tensor",
                     id="moments-before-a-step"),
        pytest.param(lambda o: o.first_moment.pop("enc.W2"), "must hold moments",
                     id="missing-moment"),
        pytest.param(lambda o: o.second_moment.update({"enc.b2": np.zeros(3)}), "shape",
                     id="moment-shape"),
        pytest.param(lambda o: o.first_moment.update({"prototypes": np.zeros((4, 8))}),
                     "must hold moments", id="rsgd-tensor-moment"),
        pytest.param(lambda o: o.second_moment["enc.b1"].__setitem__(0, -1.0), ">= 0",
                     id="negative-second-moment"),
    ])
    def test_prepare_refuses_an_unsteppable_state(self, tmp_path, edit, match):
        ds = tiny_dataset()
        cfg = quick_config(embed_dim=8, epochs=2)
        T.train(cfg, ds, out_dir=tmp_path)
        state = T.load_checkpoint(tmp_path / "checkpoint.json")
        edit(state.opt)
        with pytest.raises(ParameterError, match=match):
            T.prepare(state, ds)

    def test_rsgd_breakdown_reports_norms_before_the_update(self, monkeypatch):
        ds = tiny_dataset()
        cfg = quick_config(embed_dim=8, epochs=1)
        state = T.start(cfg, ds)
        before = {k: float(np.linalg.norm(v))
                  for k, v in {**state.encoder.params(), "prototypes": state.bank.prototypes}
                  .items()}

        def breaks(*args):
            raise ContractError("off the manifold")

        monkeypatch.setattr(optim, "riemannian_step", breaks)
        with pytest.raises(NumericalError, match="numerical breakdown") as err:
            T.train(cfg, ds, state=state)
        assert str(before) in str(err.value)


class _NoEncoder:
    """reference_train's encoder for a run without one: features pass through."""

    def forward(self, X):
        return X, None

    def backward(self, cache, dE):
        return {}

    def params(self):
        return {}


class TestGradientBuffer:
    def test_backward_into_views_equals_new_arrays(self, rng):
        enc = T.Encoder.init(rng, 8, 16, 4)
        cache = enc.forward(rng.normal(0.0, 1.0, (64, 8)))[1]
        dE = rng.normal(0.0, 1.0, (64, 4))
        fresh = enc.backward(cache, dE)
        buffer, views = optim.pack({name: np.zeros_like(w) for name, w in enc.params().items()})
        into = enc.backward(cache, dE, out=views)
        assert into is views and list(into) == list(fresh) == list(enc.params())
        for name in fresh:
            np.testing.assert_array_equal(into[name], fresh[name])
            assert into[name].base is buffer

    @pytest.mark.parametrize("setting", sorted(SETTINGS))
    @pytest.mark.parametrize("mode", H.MODES)
    def test_no_encoder_matches_per_tensor_adam(self, tmp_path, mode, setting):
        ds = tiny_dataset()
        cfg = quick_config(head_mode=mode, embed_dim=8, epochs=2, encoder=False,
                           **SETTINGS[setting])
        T.train(cfg, ds, out_dir=tmp_path)
        ref = reference_train(T.start(cfg, ds)._replace(encoder=_NoEncoder()), ds)
        T.save_checkpoint(tmp_path / "ref.json", *ref._replace(encoder=None))
        assert (tmp_path / "checkpoint.json").read_bytes() == (tmp_path / "ref.json").read_bytes()

    @pytest.mark.parametrize("frozen, overrides", [
        pytest.param(False, {"head_mode": H.MODE_COSINE}, id="cosine"),
        pytest.param(False, {"head_mode": H.MODE_LINEAR, "encoder": False}, id="no-encoder"),
        pytest.param(True, {}, id="zero-shot"),
        pytest.param(True, {"head_mode": H.MODE_COSINE}, id="zero-shot-cosine"),
    ])
    def test_every_batch_steps_from_one_gradient_buffer(self, monkeypatch, frozen, overrides):
        # Adam gets the same gradient buffer every batch, laid out like the
        # parameter buffer, and no buffer is packed per batch
        ds = tiny_dataset()
        seen, packed = [], []
        step, pack = optim.euclidean_step, optim.pack

        def recorded(param, grad, *args):
            seen.append((param, grad))
            return step(param, grad, *args)

        def counted(tensors):
            packed.append(list(tensors))
            return pack(tensors)

        monkeypatch.setattr(optim, "euclidean_step", recorded)
        monkeypatch.setattr(optim, "pack", counted)
        for epochs in (1, 2):
            cfg = quick_config(embed_dim=8, epochs=epochs, **overrides)
            bank = frozen_means_bank(ds, cfg.head_mode) if frozen else None
            T.train(cfg, ds, state=T.start(cfg, ds, bank))
        batches = -(-len(ds.train_idx) // 64)
        assert len(seen) == 3 * batches
        # four buffers a run, however long: parameters, two moments, gradients
        names = ["enc.W1", "enc.b1", "enc.W2", "enc.b2"] * cfg.encoder + ["prototypes"] * (
            not frozen)
        assert packed == [names] * 8
        assert len({id(grad) for _, grad in seen[:batches]}) == 1
        param, grad = seen[0]
        assert grad.shape == param.shape and grad is not param


# each mode's answers, written out rather than read back from heads.HEADS:
# (prototype width at embed_dim 4, a frozen bank derives d_min, RSGD steps a
# learnable bank, the hubness distance kind)
HEAD_ANSWERS = {
    "hyperbolic": (5, True, True, "hyperbolic"),
    "euclidean-linear": (4, False, False, "cosine"),
    "euclidean-cosine": (4, False, False, "cosine"),
}


class TestHeadAnswers:
    def test_every_mode_has_answers(self):
        assert sorted(HEAD_ANSWERS) == sorted(H.MODES)

    @pytest.mark.parametrize("mode", sorted(HEAD_ANSWERS))
    def test_answers(self, mode):
        width, derives_d_min, rsgd, kind = HEAD_ANSWERS[mode]
        ds = tiny_dataset()
        state = T.start(quick_config(head_mode=mode, embed_dim=4), ds)
        bank = state.bank
        assert bank.prototypes.shape[1] == width
        assert bank.feature_dim == 4
        assert T.prepare(state, ds)[1] is rsgd
        frozen = H.PrototypeBank(mode, bank.prototypes, bank.class_names, frozen=True)
        assert (frozen.d_min != 1.0) is derives_d_min
        if derives_d_min:
            assert frozen.d_min == frozen.min_pairwise_distance()
        assert hubness.hubness_report(bank, k=2).kind == kind

    @pytest.mark.parametrize("mode", sorted(HEAD_ANSWERS))
    def test_one_loss_call_per_batch_through_the_module_attributes(self, mode, monkeypatch):
        # the head's row calls the loss entry points, and train the RSGD step,
        # by their module attributes, so wrappers put there see every call
        calls = {"hyperbolic": 0, "euclidean": 0, "rsgd": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(H, "hyperbolic_loss_and_grads",
                            counted("hyperbolic", H.hyperbolic_loss_and_grads))
        monkeypatch.setattr(H, "euclidean_loss_and_grads",
                            counted("euclidean", H.euclidean_loss_and_grads))
        monkeypatch.setattr(optim, "riemannian_step", counted("rsgd", optim.riemannian_step))
        ds = tiny_dataset()
        cfg = quick_config(head_mode=mode, embed_dim=8, epochs=1, batch_size=50)
        T.train(cfg, ds)
        batches = math.ceil(len(ds.train_idx) / 50)
        rsgd = HEAD_ANSWERS[mode][2]    # the hyperbolic head only
        assert calls == {"hyperbolic": batches if rsgd else 0,
                         "euclidean": 0 if rsgd else batches,
                         "rsgd": batches if rsgd else 0}


@pytest.mark.parametrize("mode", H.MODES)
def test_evaluate_in_passes_reports_as_one_pass(monkeypatch, mode):
    """Scoring the rows seven or six at a time gives the report one pass
    over every row gives, field for field."""
    ds = data.generate(num_features=8, num_super=2, num_classes=4, num_samples=600, seed=3)
    cfg = T.ExperimentConfig(epochs=1, embed_dim=8, seed=3, head_mode=mode)
    bank, encoder, _, _ = T.train(cfg, ds)
    reports = []
    for rows in (7, len(ds.val_idx)):
        monkeypatch.setattr(T, "_EVAL_CELLS", rows * len(bank.prototypes))
        report = T.evaluate_split(bank, encoder, ds, "val")
        reports.append(dataclasses.replace(report, wall_clock_sec=0.0))
    assert len(ds.val_idx) % 7 and reports[0] == reports[1]
