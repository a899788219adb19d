import dataclasses
import json

import numpy as np
import pytest

from lorentzheads import data
from lorentzheads.errors import ContractError, ParameterError
from lorentzheads.heads import BACKGROUND


class TestGenerate:
    def test_default_shape_and_counts(self):
        ds = data.generate(seed=0)
        assert ds.features.shape == (8000, 16)
        assert ds.num_classes == 16
        assert int(np.sum(ds.labels == BACKGROUND)) == 1600

    def test_determinism(self, tmp_path):
        a, b = data.generate(seed=7), data.generate(seed=7)
        pa, pb = tmp_path / "a.json", tmp_path / "b.json"
        a.save(pa)
        b.save(pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_noiseless_is_separable(self):
        ds = data.generate(num_samples=800, sigma_x=0.0, background_fraction=0.0, seed=1)
        # 1-NN against the train set classifies train samples perfectly
        tr = ds.train_idx
        X, y = ds.features[tr], ds.labels[tr]
        for i in range(0, len(tr), 37):
            d = np.linalg.norm(X - X[i], axis=1)
            assert y[np.argmin(d)] == y[i]

    def test_infeasible_spec(self):
        with pytest.raises(ParameterError):
            data.generate(num_super=8, num_classes=4)

    def test_split_disjoint_and_covering(self):
        ds = data.generate(num_samples=1000, seed=3)
        ds.validate()
        assert len(set(ds.train_idx) | set(ds.val_idx)) == 1000

    @pytest.mark.parametrize("field, value, match", [
        ("labels", lambda ds: ds.labels[:-5], "one label per row"),
        ("features", lambda ds: ds.features[:, 0], "one label per row"),
        ("labels", lambda ds: np.where(ds.labels == 0, 99, ds.labels), "labels must lie"),
        ("labels", lambda ds: np.where(ds.labels == 0, -2, ds.labels), "labels must lie"),
        ("train_idx", lambda ds: np.append(ds.train_idx, 1000), "split indices"),
        ("val_idx", lambda ds: np.append(ds.val_idx, -1), "split indices"),
    ])
    def test_out_of_range_rejected(self, field, value, match):
        ds = data.generate(num_samples=1000, seed=3)
        setattr(ds, field, value(ds))
        with pytest.raises(ContractError, match=match):
            ds.validate()

    def test_checked_when_built(self):
        ds = data.generate(num_samples=1000, seed=3)
        with pytest.raises(ContractError, match="split indices"):
            dataclasses.replace(ds, val_idx=np.append(ds.val_idx, 1000))

    @pytest.mark.parametrize("field", ["train_idx", "val_idx"])
    def test_repeated_index_rejected(self, field):
        ds = data.generate(num_samples=1000, seed=3)
        idx = getattr(ds, field)
        with pytest.raises(ContractError, match=f"must not repeat: row {idx[4]} is listed 2"):
            dataclasses.replace(ds, **{field: np.append(idx, idx[4])})

    def test_overlap_is_not_disjoint(self):
        ds = data.generate(num_samples=1000, seed=3)
        with pytest.raises(ContractError, match="must be disjoint"):
            dataclasses.replace(ds, train_idx=np.append(ds.train_idx, ds.val_idx[0]))

    def test_repeats_refused_on_load(self, tmp_path):
        """A power-law dataset has no cover check, which a repeat could slip by."""
        path = tmp_path / "ds.json"
        data.imbalance_profile(data.generate(num_samples=1000, seed=3), 1.0).save(path)
        doc = json.loads(path.read_text())
        doc["splits"]["train"] += doc["splits"]["train"][:5]
        path.write_text(json.dumps(doc))
        with pytest.raises(ContractError, match=f"{path}: split indices must not repeat"):
            data.SyntheticDataset.load(path)

    def test_zero_width_features_rejected(self):
        with pytest.raises(ContractError, match="n >= 1"):
            data.generate(num_features=0, num_samples=600, num_classes=4, num_super=2)

    def test_hierarchical_signal_in_means(self):
        # with sigma_leaf << sigma_super, sibling leaf means are closer than
        # cross-supercategory pairs for nearly all pairs
        ds = data.generate(seed=5)
        means = np.stack([
            ds.features[ds.labels == c].mean(axis=0) for c in range(ds.num_classes)
        ])
        parents = np.asarray(ds.tree.parents)
        intra, inter = [], []
        for i in range(ds.num_classes):
            for j in range(i + 1, ds.num_classes):
                d = np.linalg.norm(means[i] - means[j])
                (intra if parents[i] == parents[j] else inter).append(d)
        wins = sum(1 for a in intra for b in inter if a < b)
        assert wins / (len(intra) * len(inter)) >= 0.95

    def test_json_round_trip(self, tmp_path):
        ds = data.generate(num_samples=500, seed=2)
        path = tmp_path / "ds.json"
        ds.save(path)
        again = data.SyntheticDataset.load(path)
        np.testing.assert_array_equal(again.features, ds.features)
        np.testing.assert_array_equal(again.labels, ds.labels)
        assert again.tree == ds.tree


class TestImbalanceProfile:
    def test_near_uniform_at_tiny_exponent(self):
        ds = data.generate(num_samples=2000, seed=0)
        out = data.imbalance_profile(ds, 1e-3)
        counts = out.class_counts("train")
        assert counts.max() - counts.min() <= 1

    def test_monotone_counts_at_exponent_one(self):
        ds = data.generate(seed=0)
        out = data.imbalance_profile(ds, 1.0)
        counts = out.class_counts("train")
        assert counts[0] == counts.max()
        assert np.all(np.diff(counts) <= 0)

    def test_buckets_partition_classes(self):
        ds = data.generate(seed=0)
        out = data.imbalance_profile(ds, 1.0)
        assert len(out.buckets) == ds.num_classes
        assert set(out.buckets.values()) == {"frequent", "common", "rare"}

    def test_subsampling_below_one_rejected(self):
        ds = data.generate(num_samples=200, num_classes=8, num_super=4, seed=0)
        with pytest.raises(ParameterError):
            data.imbalance_profile(ds, 10.0)

    def test_rare_classes_below_ten_rows_validate(self, tmp_path):
        out = data.imbalance_profile(data.generate(num_samples=2000, seed=0), 1.0)
        assert out.class_counts("train").min() < 10
        out.save(tmp_path / "ds.json")
        again = data.SyntheticDataset.load(tmp_path / "ds.json")
        np.testing.assert_array_equal(again.train_idx, out.train_idx)

    def test_validate_keeps_one_row_floor(self):
        out = data.imbalance_profile(data.generate(num_samples=2000, seed=0), 1.0)
        last = out.num_classes - 1
        out.train_idx = out.train_idx[out.labels[out.train_idx] != last]
        with pytest.raises(ContractError, match="fewer than 1 train"):
            out.validate()

    def test_invalid_exponent(self):
        ds = data.generate(num_samples=500, seed=0)
        with pytest.raises(ParameterError):
            data.imbalance_profile(ds, 0.0)

    @pytest.mark.parametrize("exponent", [float("nan"), float("inf")])
    def test_non_finite_exponent(self, exponent):
        ds = data.generate(num_samples=500, seed=0)
        with pytest.raises(ParameterError, match="power_law_exponent"):
            data.imbalance_profile(ds, exponent)


class TestDatasetUnseenClasses:
    # the schema refuses what is no index at all, the dataset an index beyond C
    @pytest.mark.parametrize("entry, error", [
        pytest.param(entry, ParameterError if entry != 4 else ContractError, id=str(entry))
        for entry in ["leaf_1", True, 1.0, 4, -1, None]])
    def test_non_index_refused(self, tmp_path, entry, error):
        ds = data.holdout_unseen(data.generate(num_samples=600, num_classes=4, num_super=2,
                                               seed=0), [1])
        path = tmp_path / "ds.json"
        ds.save(path)
        payload = json.loads(path.read_text())
        payload["unseen_classes"] = [entry]
        path.write_text(json.dumps(payload))
        with pytest.raises(error, match="unseen_classes"):
            data.SyntheticDataset.load(path)

    def test_indices_accepted(self, tmp_path):
        ds = data.holdout_unseen(data.generate(num_samples=600, num_classes=4, num_super=2,
                                               seed=0), [1, 3])
        ds.save(tmp_path / "ds.json")
        assert data.SyntheticDataset.load(tmp_path / "ds.json").unseen_classes == [1, 3]


class TestDatasetChecks:
    def test_empty_val_split_refused(self):
        with pytest.raises(ContractError, match="val split is empty"):
            data.generate(num_samples=200, num_classes=4, num_super=2,
                          train_fraction=0.99, background_fraction=0.0)

    # a file's buckets are typed by the schema, which states the bucket names
    # as well; a dataset built in Python is refused a bad name or bucket too
    @pytest.mark.parametrize("buckets, error", [
        pytest.param(buckets, ContractError if i == 0 else ParameterError, id=f"buckets{i}")
        for i, buckets in enumerate([{"leaf_9": "rare"}, {"leaf_0": "bogus"},
                                     {"leaf_0": ["rare"]}, ["leaf_0"]])]
        + [pytest.param(None, ParameterError, id="None")])
    def test_bad_buckets_refused(self, tmp_path, buckets, error):
        ds = data.generate(num_samples=600, num_classes=4, num_super=2, seed=0)
        if isinstance(buckets, dict):
            with pytest.raises(ContractError, match="buckets"):
                dataclasses.replace(ds, buckets=buckets)
        ds.save(tmp_path / "ds.json")
        doc = json.loads((tmp_path / "ds.json").read_text())
        with pytest.raises(error, match="buckets"):
            data.SyntheticDataset.from_dict({**doc, "buckets": buckets})


class TestStrictTypes:
    @pytest.mark.parametrize("seed", [2.9, True, "2"])
    def test_non_integer_seed_refused(self, tmp_path, seed):
        path = tmp_path / "ds.json"
        data.generate(num_samples=600, num_classes=4, num_super=2, seed=2).save(path)
        payload = json.loads(path.read_text())
        path.write_text(json.dumps({**payload, "seed": seed}))
        with pytest.raises(ParameterError, match="seed"):
            data.SyntheticDataset.load(path)

    @pytest.mark.parametrize("parent", [0.5, 1.0, True])
    def test_non_integer_parent_refused(self, tmp_path, parent):
        path = tmp_path / "ds.json"
        data.generate(num_samples=600, num_classes=4, num_super=2, seed=2).save(path)
        payload = json.loads(path.read_text())
        payload["tree"]["parents"][1] = parent
        path.write_text(json.dumps(payload))
        with pytest.raises(ParameterError, match="parent"):
            data.SyntheticDataset.load(path)


class TestGenerateRecord:
    def test_params_are_the_arguments_less_seed(self):
        ds = data.generate(num_features=4, num_samples=300, sigma_x=0.25, seed=3)
        assert ds.seed == 3
        assert ds.params == {
            "num_features": 4, "num_super": 4, "num_classes": 16, "num_samples": 300,
            "sigma_super": 4.0, "sigma_leaf": 1.0, "sigma_x": 0.25,
            "background_fraction": 0.2, "train_fraction": 0.8, "background_sigma": 4.0}

    def test_background_sigma_is_no_keyword(self):
        with pytest.raises(TypeError):
            data.generate(num_samples=300, background_sigma=1.0)


class TestHoldoutUnseen:
    def test_empty_list_is_identity(self):
        ds = data.generate(num_samples=500, seed=0)
        out = data.holdout_unseen(ds, [])
        assert out is ds
        assert not out.unseen_classes

    def test_dataset_unseen_classes_kept(self):
        # a config naming other classes adds to the dataset's own
        ds = data.holdout_unseen(data.generate(num_samples=600, num_classes=4, num_super=2,
                                               seed=0), [3])
        out = data.holdout_unseen(ds, [1])
        assert out.unseen_classes == [1, 3]
        assert not np.isin(out.labels[out.train_idx], [1, 3]).any()

    def test_unseen_removed_from_train(self):
        ds = data.generate(num_samples=1000, seed=0)
        out = data.holdout_unseen(ds, [3, "leaf_5"])
        train_labels = out.labels[out.train_idx]
        assert np.sum(train_labels == 3) == 0
        assert np.sum(train_labels == 5) == 0
        assert 3 in out.unseen_classes and 5 in out.unseen_classes
        assert out.unseen_classes == [3, 5]

    def test_val_split_untouched(self):
        ds = data.generate(num_samples=1000, seed=0)
        out = data.holdout_unseen(ds, [0])
        np.testing.assert_array_equal(out.val_idx, ds.val_idx)
        seen = np.sum(~np.isin(ds.labels[ds.val_idx], [0]))
        unseen = np.sum(np.isin(ds.labels[ds.val_idx], [0]))
        assert seen + unseen == len(ds.val_idx)

    def test_all_unseen_rejected(self):
        ds = data.generate(num_samples=500, num_classes=4, num_super=2, seed=0)
        with pytest.raises(ParameterError):
            data.holdout_unseen(ds, [0, 1, 2, 3])

    def test_unknown_name_rejected(self):
        ds = data.generate(num_samples=500, seed=0)
        with pytest.raises(ParameterError):
            data.holdout_unseen(ds, ["nope"])
