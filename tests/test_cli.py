import inspect
import json
import os
import subprocess
import sys
import warnings

import jsonschema
import numpy as np
import pytest

from lorentzheads import data, geometry as G, heads as H, jsonio, schemas, training
from lorentzheads.cli import GENERATE_FLAGS, build_parser, main
from lorentzheads.errors import ParameterError
from lorentzheads.manifest import sha256_file

from conftest import validate_file

GEN_ARGS = ["--n-features", "8", "--super", "2", "--classes", "4",
            "--samples", "600", "--seed", "0"]


def write_config(path, **kw):
    cfg = {"epochs": 2, "batch_size": 64, "seed": 0, "eval_every": 2, "embed_dim": 8}
    cfg.update(kw)
    path.write_text(json.dumps(cfg))
    return str(path)


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """One small dataset plus a finished training run, shared across tests."""
    root = tmp_path_factory.mktemp("cli")
    ds_path = root / "ds.json"
    assert main(["generate", "--out", str(ds_path)] + GEN_ARGS) == 0
    cfg_path = write_config(root / "config.json")
    out = root / "run"
    assert main(["train", "--config", cfg_path, "--dataset", str(ds_path),
                 "--out", str(out)]) == 0
    return root, ds_path, cfg_path, out


def write_bank(path, rows, frozen=True):
    """A bank over leaf_0..leaf_{C-1} at the exp0 image of the (C, n) rows."""
    H.PrototypeBank(H.MODE_HYPERBOLIC, G.batch_exp_map_origin(np.asarray(rows)),
                    [f"leaf_{c}" for c in range(len(rows))], frozen=frozen).save(path)
    return str(path)


@pytest.fixture(scope="module")
def zero_shot(trained):
    """A 4-epoch zero-shot run holding leaf_3 out of the plain dataset, its
    frozen bank at the class means, and the files it was made from."""
    root, ds_path, _, _ = trained
    ds = data.SyntheticDataset.load(ds_path)
    bank = write_bank(root / "means_bank.json",
                      [ds.features[ds.labels == c].mean(axis=0) for c in range(4)])
    cfg = write_config(root / "zs_config.json", epochs=4, unseen_classes=[3])
    out = root / "zs"
    assert main(["zeroshot", "--config", cfg, "--dataset", str(ds_path),
                 "--prototypes", bank, "--out", str(out)]) == 0
    return bank, out


def _raise_x0(rows):
    """Lift the first prototype's x0 by 0.5, off the hyperboloid."""
    rows[0][0] += 0.5


def _coincide(rows):
    """Make every prototype the first."""
    rows[1:] = [rows[0]] * (len(rows) - 1)


class TestGenerate:
    def test_summary_and_manifest(self, tmp_path, capsys):
        ds_path = tmp_path / "ds.json"
        assert main(["generate", "--out", str(ds_path)] + GEN_ARGS) == 0
        out = capsys.readouterr().out
        assert "600 samples, 4 classes" in out
        assert "background:" in out
        validate_file(ds_path, "dataset")
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["outputs"][str(ds_path)] == sha256_file(ds_path)
        assert manifest["finished_at"] is not None
        validate_file(tmp_path / "manifest.json", "manifest")

    def test_same_seed_same_bytes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for p in (a, b):
            assert main(["generate", "--out", str(p)] + GEN_ARGS) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_unseen_and_imbalance_flags(self, tmp_path, capsys):
        ds_path = tmp_path / "ds.json"
        assert main(["generate", "--out", str(ds_path), "--unseen", "leaf_1",
                     "--imbalance-exponent", "0.5"] + GEN_ARGS) == 0
        assert "(unseen)" in capsys.readouterr().out
        ds = data.SyntheticDataset.load(ds_path)
        assert ds.unseen_classes == [1]
        assert set(ds.buckets.values()) == {"frequent", "common", "rare"}
        validate_file(ds_path, "dataset")

    def test_default_dataset_equals_generate(self, tmp_path):
        assert main(["generate", "--out", str(tmp_path / "cli.json")]) == 0
        data.generate().save(tmp_path / "direct.json")
        assert (tmp_path / "cli.json").read_bytes() == (tmp_path / "direct.json").read_bytes()

    def test_every_keyword_has_one_flag(self):
        parser = build_parser()
        actions = parser._subparsers._group_actions[0].choices["generate"]._actions
        params = inspect.signature(data.generate).parameters
        assert set(GENERATE_FLAGS) == set(params)
        for name, param in params.items():
            (action,) = [a for a in actions if a.dest == name]
            assert action.option_strings == [GENERATE_FLAGS[name]]
            assert action.default == param.default
            assert action.type is type(param.default)
            assert action.type.__name__ == param.annotation

    def test_every_flag_reaches_its_keyword(self, tmp_path):
        kwargs = {"num_features": 6, "num_super": 3, "num_classes": 5, "num_samples": 700,
                  "sigma_super": 3.5, "sigma_leaf": 0.9, "sigma_x": 0.4,
                  "background_fraction": 0.1, "train_fraction": 0.7, "seed": 3}
        argv = [str(v) for name, value in kwargs.items()
                for v in (GENERATE_FLAGS[name], value)]
        assert main(["generate", "--out", str(tmp_path / "cli.json")] + argv) == 0
        data.generate(**kwargs).save(tmp_path / "direct.json")
        assert (tmp_path / "cli.json").read_bytes() == (tmp_path / "direct.json").read_bytes()
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["config"] == {**kwargs, "unseen": [], "imbalance_exponent": None}

    def test_bad_params_exit_2(self, tmp_path):
        assert main(["generate", "--out", str(tmp_path / "x.json"),
                     "--super", "8", "--classes", "4"]) == 2

    def test_power_law_dataset_trains(self, tmp_path):
        # rare classes keep fewer than 10 train rows; train must accept the file
        ds_path = tmp_path / "ds.json"
        assert main(["generate", "--out", str(ds_path), "--samples", "2000",
                     "--imbalance-exponent", "1.0"]) == 0
        assert data.SyntheticDataset.load(ds_path).class_counts("train").min() < 10
        cfg = write_config(tmp_path / "cfg.json", epochs=1)
        assert main(["train", "--config", cfg, "--dataset", str(ds_path),
                     "--out", str(tmp_path / "run")]) == 0


class TestTrain:
    def test_outputs_and_manifest(self, trained, tmp_path):
        _, _, _, out = trained
        for name, schema in (("checkpoint.json", "checkpoint"),
                             ("metrics.json", "metrics"),
                             ("manifest.json", "manifest")):
            validate_file(out / name, schema)
        assert (out / "metrics.csv").read_bytes().startswith(b"epoch,metric,value\n")
        assert b"\r" not in (out / "metrics.csv").read_bytes()
        manifest = json.loads((out / "manifest.json").read_text())
        for path, digest in manifest["outputs"].items():
            assert sha256_file(path) == digest

    def test_head_override(self, trained, tmp_path, capsys):
        _, ds_path, cfg_path, _ = trained
        out = tmp_path / "lin"
        assert main(["train", "--config", cfg_path, "--dataset", str(ds_path),
                     "--out", str(out), "--head", "euclidean-linear"]) == 0
        bank = json.loads((out / "checkpoint.json").read_text())["bank"]
        assert bank["mode"] == "euclidean-linear"

    def test_unknown_config_key_exit_2(self, trained, tmp_path):
        _, ds_path, _, _ = trained
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"epochs": 2, "momentum": 0.9}))
        assert main(["train", "--config", str(bad), "--dataset", str(ds_path),
                     "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("key", ["dataset", "d_min_policy", "imbalance_exponent",
                                     "prototypes_path"])
    def test_deleted_config_key_exit_2(self, trained, tmp_path, key):
        _, ds_path, _, _ = trained
        cfg = write_config(tmp_path / "old.json", **{key: None})
        assert main(["train", "--config", cfg, "--dataset", str(ds_path),
                     "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("text", ["[]", '{"epochs": "1"}'])
    def test_config_type_error_exit_2(self, trained, tmp_path, capsys, text):
        _, ds_path, _, _ = trained
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        assert main(["train", "--config", str(bad), "--dataset", str(ds_path),
                     "--out", str(tmp_path / "o")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unseen_classes_exit_2(self, trained, tmp_path):
        _, ds_path, _, _ = trained
        cfg = write_config(tmp_path / "unseen.json", unseen_classes=[3])
        assert main(["train", "--config", cfg, "--dataset", str(ds_path),
                     "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o" / "checkpoint.json").exists()

    def test_missing_dataset_exit_2(self, trained, tmp_path):
        _, _, cfg_path, _ = trained
        assert main(["train", "--config", cfg_path, "--dataset",
                     str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_exit_3(self, trained, tmp_path):
        _, ds_path, _, _ = trained
        cfg = write_config(tmp_path / "hot.json", learning_rate=1e12, epochs=3)
        assert main(["train", "--config", cfg, "--dataset", str(ds_path),
                     "--out", str(tmp_path / "o")]) == 3

    def test_resume_flag(self, trained, tmp_path):
        _, ds_path, _, out = trained
        ck = tmp_path / "ck.json"
        payload = json.loads((out / "checkpoint.json").read_text())
        payload["config"]["epochs"] = 4
        ck.write_text(json.dumps(payload, sort_keys=True) + "\n")
        out2 = tmp_path / "resumed"
        assert main(["train", "--dataset", str(ds_path), "--out", str(out2),
                     "--resume", str(ck)]) == 0
        assert json.loads((out2 / "checkpoint.json").read_text())["epoch"] == 4
        # the manifest records the config the run continued under
        manifest = json.loads((out2 / "manifest.json").read_text())
        assert manifest["config"] == payload["config"]

    def test_resume_reads_checkpoint_once(self, trained, tmp_path, monkeypatch):
        _, ds_path, _, out = trained
        calls = []
        load = training.load_checkpoint
        monkeypatch.setattr(training, "load_checkpoint", lambda p: calls.append(p) or load(p))
        assert main(["train", "--dataset", str(ds_path), "--out", str(tmp_path / "o"),
                     "--resume", str(out / "checkpoint.json")]) == 0
        assert len(calls) == 1

    def test_unread_prototype_learning_rate_exit_2(self, trained, tmp_path, capsys):
        _, ds_path, _, _ = trained
        cfg = write_config(tmp_path / "lr.json", prototype_learning_rate=5.0)
        assert main(["train", "--config", cfg, "--dataset", str(ds_path),
                     "--out", str(tmp_path / "o"), "--head", "euclidean-linear"]) == 2
        assert "prototype_learning_rate" in capsys.readouterr().err

    @pytest.mark.parametrize("head, setting", [
        ("euclidean-linear", {"delta": 9.0}), ("euclidean-cosine", {"delta": 9.0}),
        ("euclidean-linear", {"cosine_tau": 3.0}), ("hyperbolic", {"cosine_tau": 3.0})])
    def test_unread_head_setting_exit_2(self, trained, tmp_path, capsys, head, setting):
        # a setting the head does not read would train to the default run's bytes
        _, ds_path, _, _ = trained
        cfg = write_config(tmp_path / "c.json", **setting)
        assert main(["train", "--config", cfg, "--dataset", str(ds_path),
                     "--out", str(tmp_path / "o"), "--head", head]) == 2
        assert f"{next(iter(setting))} {setting[next(iter(setting))]} is not read" in (
            capsys.readouterr().err)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("head, setting", [
        ("hyperbolic", {"delta": 2.0}), ("euclidean-cosine", {"cosine_tau": 0.5})])
    def test_read_head_setting_trains(self, trained, tmp_path, head, setting):
        _, ds_path, _, _ = trained
        cfg = write_config(tmp_path / "c.json", epochs=1, **setting)
        assert main(["train", "--config", cfg, "--dataset", str(ds_path),
                     "--out", str(tmp_path / "o"), "--head", head]) == 0

    def test_resumed_zero_shot_matches_uninterrupted_run(self, trained, zero_shot, tmp_path):
        _, ds_path, _, _ = trained
        bank, full = zero_shot
        cfg = write_config(tmp_path / "cfg.json", epochs=2, unseen_classes=[3])
        part = tmp_path / "part"
        assert main(["zeroshot", "--config", cfg, "--dataset", str(ds_path),
                     "--prototypes", bank, "--out", str(part)]) == 0
        ck = tmp_path / "ck.json"
        payload = json.loads((part / "checkpoint.json").read_text())
        payload["config"]["epochs"] = 4
        ck.write_text(json.dumps(payload, sort_keys=True) + "\n")
        resumed = tmp_path / "resumed"
        assert main(["train", "--dataset", str(ds_path), "--out", str(resumed),
                     "--resume", str(ck)]) == 0
        # leaf_3 stays out of train after the resume, as in the uninterrupted run
        assert (resumed / "checkpoint.json").read_bytes() == (full / "checkpoint.json").read_bytes()
        metrics = [json.loads((d / "metrics.json").read_text()) for d in (full, resumed)]
        for m in metrics:
            m.pop("wall_clock_sec")
        assert metrics[0] == metrics[1]
        assert metrics[1]["harmonic_mean"] is not None

    def test_resume_rejects_head(self, trained, tmp_path):
        _, ds_path, _, out = trained
        assert main(["train", "--dataset", str(ds_path), "--out", str(tmp_path / "o"),
                     "--resume", str(out / "checkpoint.json"),
                     "--head", "euclidean-linear"]) == 2
        assert not (tmp_path / "o").exists()

    def test_dataset_directory_exit_2(self, trained, tmp_path, capsys):
        _, _, cfg_path, _ = trained
        assert main(["train", "--config", cfg_path, "--dataset", str(tmp_path),
                     "--out", str(tmp_path / "o")]) == 2
        assert str(tmp_path) in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_config_and_resume_exclusive(self, trained, tmp_path):
        _, ds_path, cfg_path, out = trained
        with pytest.raises(SystemExit) as exc:
            main(["train", "--config", cfg_path, "--dataset", str(ds_path),
                  "--out", str(tmp_path / "o"), "--resume", str(out / "checkpoint.json")])
        assert exc.value.code == 2
        assert not (tmp_path / "o").exists()


class TestEval:
    def test_prints_metrics_and_writes_file(self, trained, tmp_path, capsys):
        _, ds_path, _, out = trained
        metrics_out = tmp_path / "metrics.json"
        assert main(["eval", "--checkpoint", str(out / "checkpoint.json"),
                     "--dataset", str(ds_path), "--out", str(metrics_out)]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert "val_accuracy" in printed
        validate_file(metrics_out, "metrics")

    @pytest.mark.parametrize("edit, message", [
        (lambda c: c["bank"]["class_names"].__setitem__(0, 5),
         "bank.class_names[0] must be string, not integer 5"),
        (lambda c: c["config"].update(focal_gamma=-1), "config.focal_gamma is -1, out of"),
        (lambda c: c["config"].update(learning_rate=float("nan")),
         "config.learning_rate must be finite, not nan")])
    def test_checkpoint_refusal_names_its_path(self, trained, tmp_path, capsys, edit,
                                               message):
        _, ds_path, _, out = trained
        ckpt = json.loads((out / "checkpoint.json").read_text())
        edit(ckpt)
        bad = tmp_path / "ck.json"
        bad.write_text(json.dumps(ckpt))
        assert main(["eval", "--checkpoint", str(bad), "--dataset", str(ds_path)]) == 2
        assert f"{bad}: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("run, edit, message", [
        ("run", _raise_x0, "bank.prototypes: point is off the hyperboloid: |<x,x>_l + 1| = "),
        ("zs", _coincide, "bank.prototypes: all prototypes coincide; d_min undefined")])
    def test_checkpoint_prototype_refusal_names_prototypes(self, trained, zero_shot, tmp_path,
                                                           capsys, run, edit, message):
        # what the head's row check and the d_min derivation raise: the
        # learnable bank of a plain run, the frozen one of a zero-shot run
        root, ds_path, _, _ = trained
        ckpt = json.loads((root / run / "checkpoint.json").read_text())
        edit(ckpt["bank"]["prototypes"])
        bad = tmp_path / "ck.json"
        bad.write_text(json.dumps(ckpt))
        assert main(["eval", "--checkpoint", str(bad), "--dataset", str(ds_path)]) == 2
        assert f"{bad}: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("edit, message", [
        (_raise_x0, "prototypes: point is off the hyperboloid: |<x,x>_l + 1| = "),
        (_coincide, "prototypes: all prototypes coincide; d_min undefined")])
    def test_bank_prototype_refusal_names_prototypes(self, trained, zero_shot, tmp_path,
                                                     capsys, edit, message):
        root, ds_path, _, _ = trained
        doc = json.loads((root / "means_bank.json").read_text())   # zero_shot's bank
        edit(doc["prototypes"])
        bad = tmp_path / "bank.json"
        bad.write_text(json.dumps(doc))
        assert main(["zeroshot", "--config", str(root / "zs_config.json"), "--dataset",
                     str(ds_path), "--prototypes", str(bad), "--out", str(tmp_path / "o")]) == 2
        assert f"{bad}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_zero_shot_checkpoint_matches_run_metrics(self, trained, zero_shot, capsys):
        # eval holds the checkpoint's unseen classes out as its training did
        _, ds_path, _, _ = trained
        _, run = zero_shot
        assert main(["eval", "--checkpoint", str(run / "checkpoint.json"),
                     "--dataset", str(ds_path)]) == 0
        printed = json.loads(capsys.readouterr().out)
        metrics = json.loads((run / "metrics.json").read_text())
        for key in ("val_accuracy", "seen_accuracy", "unseen_accuracy", "harmonic_mean"):
            assert printed[key] == metrics[key], key
        assert printed["harmonic_mean"] is not None

    def test_zero_shot_unseen_classes_add_to_the_dataset_own(self, tmp_path):
        # a dataset holding leaf_3 out and a config naming class 1: the run
        # and eval of its checkpoint both report classes 1 and 3 as unseen
        ds_path = tmp_path / "ds.json"
        assert main(["generate", "--out", str(ds_path), "--unseen", "leaf_3"]
                    + GEN_ARGS) == 0
        ds = data.SyntheticDataset.load(ds_path)
        bank = write_bank(tmp_path / "bank.json",
                          [ds.features[ds.labels == c].mean(axis=0) for c in range(4)])
        cfg = write_config(tmp_path / "cfg.json", unseen_classes=[1])
        run = tmp_path / "zs"
        assert main(["zeroshot", "--config", cfg, "--dataset", str(ds_path),
                     "--prototypes", bank, "--out", str(run)]) == 0
        assert main(["eval", "--checkpoint", str(run / "checkpoint.json"),
                     "--dataset", str(ds_path), "--out", str(tmp_path / "eval.json")]) == 0
        a, b = (json.loads(p.read_text()) for p in (run / "metrics.json", tmp_path / "eval.json"))
        for key in ("val_accuracy", "per_class", "seen_accuracy", "unseen_accuracy",
                    "harmonic_mean"):
            assert a[key] == b[key], key
        assert a["harmonic_mean"] is not None

    def test_train_split(self, trained, capsys):
        _, ds_path, _, out = trained
        assert main(["eval", "--checkpoint", str(out / "checkpoint.json"),
                     "--dataset", str(ds_path), "--split", "train"]) == 0
        assert "val_accuracy" in capsys.readouterr().out

    def test_empty_val_split_exit_2(self, trained, tmp_path):
        _, ds_path, _, out = trained
        payload = json.loads(ds_path.read_text())
        DATASET_EDITS["train-dataset-empty-val"](payload)
        (tmp_path / "ds.json").write_text(json.dumps(payload))
        assert main(["eval", "--checkpoint", str(out / "checkpoint.json"),
                     "--dataset", str(tmp_path / "ds.json"),
                     "--out", str(tmp_path / "o" / "metrics.json")]) == 2
        assert not (tmp_path / "o").exists()


class TestHubness:
    def test_paired_table_and_reports(self, trained, tmp_path, capsys):
        _, ds_path, cfg_path, out = trained
        lin = tmp_path / "lin"
        assert main(["train", "--config", cfg_path, "--dataset", str(ds_path),
                     "--out", str(lin), "--head", "euclidean-cosine"]) == 0
        hub_out = tmp_path / "hub"
        assert main(["hubness", str(out / "checkpoint.json"),
                     str(lin / "checkpoint.json"), "--k", "2",
                     "--out", str(hub_out)]) == 0
        table = capsys.readouterr().out
        assert "hyperbolic" in table and "cosine" in table
        reports = sorted(hub_out.glob("hubness_*.json"))
        assert len(reports) == 2
        for r in reports:
            validate_file(r, "hubness_report")
            assert r.with_suffix(".csv").exists()
        validate_file(hub_out / "manifest.json", "manifest")

    def test_same_named_checkpoints_keep_their_reports(self, trained, zero_shot, tmp_path):
        # two hyperbolic runs, both named checkpoint.json
        _, _, _, out = trained
        _, zs = zero_shot
        hub_out = tmp_path / "hub"
        assert main(["hubness", str(out / "checkpoint.json"), str(zs / "checkpoint.json"),
                     "--k", "2", "--out", str(hub_out)]) == 0
        assert len(list(hub_out.glob("hubness_*.json"))) == 2
        assert len(list(hub_out.glob("hubness_*.csv"))) == 2
        manifest = json.loads((hub_out / "manifest.json").read_text())
        assert len(manifest["outputs"]) == 4

    def test_bad_k_exit_2(self, trained, tmp_path):
        _, _, _, out = trained
        assert main(["hubness", str(out / "checkpoint.json"), "--k", "99",
                     "--out", str(tmp_path / "h")]) == 2


class TestImportPrototypes:
    def test_antipodal_pair_d_min(self, tmp_path, capsys):
        emb = tmp_path / "emb.txt"
        emb.write_text("left -1 0\nright 1 0\n")
        bank_path = tmp_path / "bank.json"
        assert main(["import-prototypes", "--embeddings", str(emb),
                     "--out", str(bank_path)]) == 0
        assert "d_min=2.000000" in capsys.readouterr().out
        bank = H.PrototypeBank.load(bank_path)
        assert bank.frozen
        assert bank.d_min == pytest.approx(2.0)
        validate_file(bank_path, "prototype_bank")

    def test_already_hyperbolic_round_trip(self, tmp_path):
        emb = tmp_path / "emb.txt"
        emb.write_text("a 0.5 0.5\nb -1 1\n")
        first = tmp_path / "bank.json"
        assert main(["import-prototypes", "--embeddings", str(emb),
                     "--out", str(first)]) == 0
        bank = H.PrototypeBank.load(first)
        reexport = tmp_path / "reexport.txt"
        lines = [f"{n} " + " ".join(repr(float(v)) for v in row)
                 for n, row in zip(bank.class_names, bank.prototypes)]
        reexport.write_text("\n".join(lines) + "\n")
        second = tmp_path / "bank2.json"
        assert main(["import-prototypes", "--embeddings", str(reexport),
                     "--already-hyperbolic", "--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_rejections_exit_2(self, tmp_path, capsys):
        # each refusal starts with the file's path; float() reads nan, inf
        # and 1e400, which the parser refuses at their line, with no warning
        cases = {
            "single.txt": ("only 1 0\n", "need at least 2 classes"),
            "dup.txt": ("a 1 0\na 0 1\n", "duplicate class name 'a' (line 2)"),
            "ragged.txt": ("a 1 0\nb 1\n", "ragged row at line 2"),
            "empty.txt": ("a\nb\n", "empty vector at line 1"),
            "token.txt": ("a 1 0\nb 1 x\n",
                          "bad number at line 2: could not convert string to float: 'x'"),
            "nan.txt": ("a 1 0\nb 1 nan\nc 0 1\n", "non-finite number 'nan' at line 2"),
            "inf.txt": ("a 1 0\nb -inf 1\n", "non-finite number '-inf' at line 2"),
            "big.txt": ("a 1e400 0\nb 0 1\n", "non-finite number '1e400' at line 1"),
        }
        for fname, (text, message) in cases.items():
            p = tmp_path / fname
            p.write_text(text)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert main(["import-prototypes", "--embeddings", str(p),
                             "--out", str(tmp_path / "o" / "bank.json")]) == 2, fname
            assert capsys.readouterr().err == f"error: {p}: {message}\n"
            assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("row", ["800 2", "800 0", "400 2", "1e200 1e200"],
                             ids=["exp0-overflows", "zero-times-inf", "x0-squared-overflows",
                                  "norm-overflows"])
    def test_row_too_far_out_names_file_and_class(self, tmp_path, capsys, row):
        # exp0 of the row, or the square of its x0 the hyperboloid check
        # reads, overflows: one line on stderr, no numpy warning
        emb = tmp_path / "emb.txt"
        emb.write_text(f"b 3 4\na {row}\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["import-prototypes", "--embeddings", str(emb),
                         "--out", str(tmp_path / "o" / "bank.json")]) == 2
            # a Euclidean bank keeps the row as given
            assert main(["import-prototypes", "--embeddings", str(emb), "--mode",
                         "euclidean-linear", "--out", str(tmp_path / "lin.json")]) == 0
        err = capsys.readouterr().err
        assert err.startswith(f"error: {emb}: class 'a' is too far out") and err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    def test_duplicate_on_the_last_of_many_lines(self, tmp_path, capsys):
        # every name is checked against every earlier one; a set keeps the
        # 20,000-line file linear
        lines = [f"w{i} {i % 7} 1" for i in range(19_999)] + ["w123 0 1"]
        emb = tmp_path / "emb.txt"
        emb.write_text("\n".join(lines) + "\n")
        assert main(["import-prototypes", "--embeddings", str(emb),
                     "--out", str(tmp_path / "o" / "bank.json")]) == 2
        assert "duplicate class name 'w123' (line 20000)" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("delta", ["nan", "inf", "0"])
    def test_bad_delta_exit_2(self, tmp_path, delta):
        emb = tmp_path / "emb.txt"
        emb.write_text("a 1 0\nb 0 1\n")
        assert main(["import-prototypes", "--embeddings", str(emb), "--delta", delta,
                     "--out", str(tmp_path / "o" / "bank.json")]) == 2
        assert not (tmp_path / "o").exists()

    def test_coinciding_euclidean_rows(self, tmp_path, capsys):
        # no Euclidean logit reads d_min, so equal rows need none
        emb = tmp_path / "emb.txt"
        emb.write_text("a 1 0\nb 1 0\n")
        bank_path = tmp_path / "bank.json"
        assert main(["import-prototypes", "--embeddings", str(emb),
                     "--mode", "euclidean-linear", "--out", str(bank_path)]) == 0
        assert "d_min" not in capsys.readouterr().out
        assert "d_min" not in json.loads(bank_path.read_text())
        validate_file(bank_path, "prototype_bank")

    @pytest.mark.parametrize("mode", ["euclidean-linear", "euclidean-cosine"])
    def test_delta_of_a_head_without_shift_exit_2(self, tmp_path, capsys, mode):
        emb = tmp_path / "emb.txt"
        emb.write_text("a 1 0\nb 0 1\n")
        assert main(["import-prototypes", "--embeddings", str(emb), "--mode", mode,
                     "--delta", "1.4", "--out", str(tmp_path / "o" / "bank.json")]) == 2
        assert "--delta" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flags, delta", [([], 1.4), (["--delta", "2.5"], 2.5)])
    def test_manifest_records_the_resolved_delta(self, tmp_path, flags, delta):
        emb = tmp_path / "emb.txt"
        emb.write_text("a 1 0\nb 0 1\n")
        bank_path = tmp_path / "bank.json"
        assert main(["import-prototypes", "--embeddings", str(emb), "--out", str(bank_path)]
                    + flags) == 0
        assert json.loads((tmp_path / "manifest.json").read_text())["config"]["delta"] == delta
        assert H.PrototypeBank.load(bank_path).delta == delta

    # what each mode writes for the rows "a 0.6 0.8", "b 0 1": exp0 images
    # (cosh 1, sinh 1 times the row) or the rows as given; with
    # --already-hyperbolic, the rows as given for the hyperbolic mode only
    @pytest.mark.parametrize("mode, written, already", [
        ("hyperbolic", [[np.cosh(1.0), 0.6 * np.sinh(1.0), 0.8 * np.sinh(1.0)],
                        [np.cosh(1.0), 0.0, np.sinh(1.0)]], "ok"),
        ("euclidean-linear", [[0.6, 0.8], [0.0, 1.0]], "refused"),
        ("euclidean-cosine", [[0.6, 0.8], [0.0, 1.0]], "refused")])
    def test_rows_each_mode_writes(self, tmp_path, mode, written, already):
        emb = tmp_path / "emb.txt"
        emb.write_text("a 0.6 0.8\nb 0 1\n")
        assert main(["import-prototypes", "--embeddings", str(emb), "--mode", mode,
                     "--out", str(tmp_path / "bank.json")]) == 0
        np.testing.assert_allclose(H.PrototypeBank.load(tmp_path / "bank.json").prototypes,
                                   written, rtol=1e-15)
        # a hyperboloid row as given: x0 = sqrt(1 + 1.5^2 + 2^2)
        point = tmp_path / "point.txt"
        point.write_text(f"a {float(np.sqrt(7.25))!r} 1.5 2\nb 1 0 0\n")
        code = main(["import-prototypes", "--embeddings", str(point), "--mode", mode,
                     "--already-hyperbolic", "--out", str(tmp_path / "already.json")])
        assert code == {"ok": 0, "refused": 2}[already]
        if already == "ok":
            assert (H.PrototypeBank.load(tmp_path / "already.json").prototypes.tolist()
                    == [[np.sqrt(7.25), 1.5, 2.0], [1.0, 0.0, 0.0]])

    def test_already_hyperbolic_euclidean_exit_2(self, tmp_path):
        emb = tmp_path / "emb.txt"
        emb.write_text("a 1 0\nb 0 1\n")
        assert main(["import-prototypes", "--embeddings", str(emb),
                     "--mode", "euclidean-linear", "--already-hyperbolic",
                     "--out", str(tmp_path / "bank.json")]) == 2


class TestZeroShot:
    def test_prototype_width_mismatch_exit_2(self, tmp_path, capsys):
        ds_path = tmp_path / "ds.json"
        assert main(["generate", "--out", str(ds_path), "--unseen", "leaf_3"]
                    + GEN_ARGS) == 0
        emb = tmp_path / "emb.txt"
        emb.write_text("".join(f"leaf_{c} {np.cos(c)} {np.sin(c)}\n" for c in range(4)))
        bank_path = tmp_path / "bank.json"
        assert main(["import-prototypes", "--embeddings", str(emb),
                     "--out", str(bank_path)]) == 0
        cfg = write_config(tmp_path / "cfg.json", embed_dim=16)
        assert main(["zeroshot", "--config", cfg, "--dataset", str(ds_path),
                     "--prototypes", str(bank_path), "--out", str(tmp_path / "zs")]) == 2
        assert "embed_dim 16" in capsys.readouterr().err

    def test_end_to_end(self, tmp_path, capsys):
        ds_path = tmp_path / "ds.json"
        assert main(["generate", "--out", str(ds_path), "--unseen", "leaf_3"]
                    + GEN_ARGS) == 0
        ds = data.SyntheticDataset.load(ds_path)
        emb = tmp_path / "emb.txt"
        lines = []
        for c, name in enumerate(ds.tree.leaf_classes):
            mean = ds.features[ds.labels == c].mean(axis=0)
            lines.append(name + " " + " ".join(repr(float(v)) for v in mean))
        emb.write_text("\n".join(lines) + "\n")
        bank_path = tmp_path / "bank.json"
        assert main(["import-prototypes", "--embeddings", str(emb),
                     "--out", str(bank_path)]) == 0
        cfg = write_config(tmp_path / "cfg.json", encoder=False)
        out = tmp_path / "zs"
        assert main(["zeroshot", "--config", cfg, "--dataset", str(ds_path),
                     "--prototypes", str(bank_path), "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "unseen accuracy" in printed
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["unseen_accuracy"] is not None
        assert metrics["harmonic_mean"] is not None
        validate_file(out / "metrics.json", "metrics")


def _first_row(rows, value):
    """rows with the first entry of the first row replaced by value"""
    return [[value] + rows[0][1:]] + rows[1:]


MALFORMED = {
    "feature-token": ("dataset", lambda d: {**d, "features": _first_row(d["features"], "x")}),
    "splits-list": ("dataset", lambda d: {**d, "splits": list(d["splits"].values())}),
    "ragged-row": ("dataset", lambda d: {**d, "features": [d["features"][0][:-1]]
                                         + d["features"][1:]}),
    "missing-labels": ("dataset", lambda d: {k: v for k, v in d.items() if k != "labels"}),
    "label-99": ("dataset", lambda d: {**d, "labels": [
        99 if i == d["splits"]["train"][0] else lab for i, lab in enumerate(d["labels"])]}),
    "labels-short": ("dataset", lambda d: {**d, "labels": d["labels"][:-5]}),
    "split-index": ("dataset", lambda d: {**d, "splits": {
        **d["splits"], "val": d["splits"]["val"] + [len(d["labels"])]}}),
    "checkpoint-step": ("checkpoint", lambda d: {**d, "optimizer": {
        k: v for k, v in d["optimizer"].items() if k != "step"}}),
    "bank-token": ("bank", lambda d: {**d["bank"], "frozen": True,
                                      "prototypes": _first_row(d["bank"]["prototypes"], "x")}),
}


class TestMalformedFiles:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_exit_2_names_the_file(self, trained, tmp_path, capsys, case):
        _, ds_path, cfg_path, out = trained
        kind, corrupt = MALFORMED[case]
        source = ds_path if kind == "dataset" else out / "checkpoint.json"
        bad = tmp_path / f"{kind}.json"
        bad.write_text(json.dumps(corrupt(json.loads(source.read_text()))))
        argv = {
            "dataset": ["train", "--config", cfg_path, "--dataset", str(bad),
                        "--out", str(tmp_path / "o")],
            "checkpoint": ["eval", "--checkpoint", str(bad), "--dataset", str(ds_path)],
            "bank": ["zeroshot", "--config", cfg_path, "--dataset", str(ds_path),
                     "--prototypes", str(bad), "--out", str(tmp_path / "o")],
        }[kind]
        assert main(argv) == 2
        assert str(bad) in capsys.readouterr().err

    def test_deep_nesting_exit_2(self, trained, tmp_path, capsys):
        _, ds_path, _, _ = trained
        cfg = tmp_path / "deep.json"
        cfg.write_text("[" * 200000 + "]" * 200000)
        assert main(["train", "--config", str(cfg), "--dataset", str(ds_path),
                     "--out", str(tmp_path / "o")]) == 2
        assert f"{cfg}: malformed file (nested too deeply)" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_internal_key_error_is_not_an_input_error(self, tmp_path, monkeypatch):
        def broken(**kwargs):
            raise KeyError("internal")

        monkeypatch.setattr(data, "generate", broken)
        with pytest.raises(KeyError):
            main(["generate", "--out", str(tmp_path / "ds.json")] + GEN_ARGS)


# a resumed run's edits to its checkpoint's config, and to the dataset's shape
RESUMED = {
    "train-resume-class-count": ({}, {"num_classes": 6}),
    "train-resume-features": ({}, {"num_features": 12}),
    "train-resume-no-encoder": ({"encoder": False}, {}),
    "train-resume-encoder-hidden": ({"encoder_hidden": 7}, {}),
}

def older_optimizer(opt: dict, **steps) -> dict:
    """`opt` in the older checkpoint format: one step count per tensor, the
    common count unless `steps` overrides it."""
    step = opt.pop("step")
    opt["param_steps"] = {**dict.fromkeys(opt["first_moment"], step), **steps}
    return opt


# a resumed run's edits to its checkpoint's Adam state, each refused before
# anything is written
RESUMED_OPTIMIZER = {
    "train-resume-unequal-steps": lambda o: older_optimizer(o, **{"enc.b1": 1}),
    "train-resume-missing-moment": lambda o: o["first_moment"].pop("enc.W2"),
    "train-resume-moment-shape": lambda o: o["second_moment"].update({"enc.b2": [0.0]}),
    "train-resume-negative-second-moment":
        lambda o: o["second_moment"]["enc.b1"].__setitem__(0, -1.0),
}

# edits to a checkpoint's encoder that `eval` and `train --resume` refuse
ENCODER_EDITS = {
    "nan-weight": lambda e: e["W1"][0].__setitem__(0, float("nan")),
    "short-b1": lambda e: e.update(b1=e["b1"][:1]),
    "long-b2": lambda e: e.update(b2=e["b2"][:3]),
}
ENCODER_CASES = [f"{command}-encoder-{edit}" for command in ("eval", "train-resume")
                 for edit in ENCODER_EDITS]


def _as_list(field):
    """An edit that turns the object `payload[field]` into the list of its values."""
    return lambda payload: payload.update({field: list(payload[field].values())})


# edits to other checkpoint fields, each refused when `eval` or `train --resume`
# loads the checkpoint
CHECKPOINT_EDITS = {
    "encoder-list": _as_list("encoder"),
    "first-moment-list": lambda c: _as_list("first_moment")(c["optimizer"]),
    "second-moment-list": lambda c: _as_list("second_moment")(c["optimizer"]),
    "param-steps-list": lambda c: _as_list("param_steps")(older_optimizer(c["optimizer"])),
    "step-float": lambda c: c["optimizer"].update(step=2.5),
    "step-string": lambda c: c["optimizer"].update(step="3"),
    "step-bool": lambda c: c["optimizer"].update(step=True),
    "epoch-string": lambda c: c.update(epoch="1"),
    "epoch-float": lambda c: c.update(epoch=1.5),
    "epoch-bool": lambda c: c.update(epoch=True),
    "epoch-negative": lambda c: c.update(epoch=-1),
    "epoch-beyond-config": lambda c: c.update(epoch=5, config={**c["config"], "epochs": 1}),
    "train-loss-string": lambda c: c.update(train_loss=["x"]),
    "train-loss-nan": lambda c: c.update(train_loss=[float("nan")]),
    "train-loss-not-list": lambda c: c.update(train_loss="x"),
    # a loss history must hold one value per finished epoch
    "train-loss-short": lambda c: c.update(train_loss=[], config={**c["config"], "epochs": 3}),
    "train-loss-long": lambda c: c.update(train_loss=c["train_loss"] * 2),
    # bank row c scores the dataset's class c: names must be its leaf classes,
    # as strings and in order
    "bank-names-int": lambda c: c["bank"].update(class_names=[10, 11, 12, 13]),
    "bank-names-reversed": lambda c: c["bank"]["class_names"].reverse(),
    # x0 * x0 overflows, so no tolerance can be formed for the row
    "bank-prototype-far": lambda c: c["bank"]["prototypes"][0].__setitem__(0, 1e308),
}
CHECKPOINT_CASES = [f"{command}-checkpoint-{edit}" for command in ("eval", "train-resume")
                    for edit in CHECKPOINT_EDITS]

# edits to a frozen bank's file that `zeroshot` refuses: JSON true/false is no
# number and a string no bool; the config's delta matches the value a cast reads
BANK_EDITS = {
    "zeroshot-frozen-string": ({"frozen": "false"}, {}),
    "zeroshot-frozen-number": ({"frozen": 1}, {}),
    "zeroshot-delta-string": ({"delta": "1.4"}, {}),
    "zeroshot-delta-bool": ({"delta": True}, {"delta": 1.0}),
    "zeroshot-names-permuted": ({"class_names": ["leaf_1", "leaf_0", "leaf_2", "leaf_3"]}, {}),
    # a JSON integer beyond any float
    "zeroshot-prototype-huge": ({"prototypes": [[10**400] + [0.0] * 8] + [[1.0] + [0.0] * 8] * 3},
                                {}),
}
# edits to a dataset's file that `train` refuses
DATASET_EDITS = {
    "train-dataset-seed-float": lambda d: d.update(seed=2.9),
    "train-dataset-seed-bool": lambda d: d.update(seed=True),
    "train-dataset-parent-float": lambda d: d["tree"]["parents"].__setitem__(0, 0.5),
    "train-dataset-empty-val": lambda d: d["splits"].update(
        train=sorted(d["splits"]["train"] + d["splits"]["val"]), val=[]),
    "train-dataset-bucket-name": lambda d: d.update(buckets={"leaf_9": "rare"}),
    "train-dataset-bucket-value": lambda d: d.update(buckets={"leaf_0": "bogus"}),
    "train-dataset-buckets-array": lambda d: d.update(buckets=["leaf_0"]),
    # class names are distinct strings: integers, a string read as its
    # characters and a repeated name are refused
    "train-dataset-leaf-int": lambda d: d["tree"].update(leaf_classes=[1, 2, 3, 4]),
    "train-dataset-super-string": lambda d: d["tree"].update(supercategories="ab"),
    "eval-dataset-leaf-repeated": lambda d: d["tree"]["leaf_classes"].__setitem__(3, "leaf_0"),
    # a power-law record turns two split checks off, so it must be a real one
    "train-dataset-params-list": lambda d: d.update(params=[]),
    "train-dataset-power-law-string": lambda d: d["params"].update(power_law_exponent="x"),
    "train-dataset-power-law-zero": lambda d: d["params"].update(power_law_exponent=0),
    # labels and split indices are JSON integers, not numbers that round to one
    "train-dataset-label-fraction": lambda d: d["labels"].__setitem__(d["labels"].index(2), 2.7),
    "eval-dataset-label-string": lambda d: d["labels"].__setitem__(d["labels"].index(3), "3"),
    "train-dataset-label-bool": lambda d: d["labels"].__setitem__(d["labels"].index(1), True),
    "train-dataset-split-float": lambda d: d["splits"]["train"].__setitem__(
        0, float(d["splits"]["train"][0])),
    # a row listed twice would train twice per epoch
    "train-dataset-split-repeat": lambda d: d["splits"]["train"].extend(
        d["splits"]["train"][:5]),
    # JSON integers beyond int64 and float64
    "train-dataset-label-huge": lambda d: d["labels"].__setitem__(0, 2**70),
    "train-dataset-split-huge": lambda d: d["splits"]["train"].__setitem__(0, 2**70),
    "train-dataset-feature-huge": lambda d: d["features"][0].__setitem__(0, 10**400),
    # features are JSON numbers, not strings or true/false that convert to one
    "train-dataset-feature-string": lambda d: d["features"][0].__setitem__(0, "1.5"),
    "train-dataset-feature-bool": lambda d: d["features"][1].__setitem__(1, True),
}

# generate flags refused before any file is written
GENERATE_CASES = {
    "generate": ["--classes", "2", "--super", "4"],
    "generate-zero-features": ["--n-features", "0"],
    "generate-imbalance-nan": ["--imbalance-exponent", "nan"],
    "generate-negative-features": ["--n-features", "-1"],
    "generate-negative-samples": ["--samples", "-5"],
    "generate-no-samples": ["--samples", "0"],
    "generate-no-classes": ["--classes", "0", "--super", "0"],
    "generate-no-super": ["--super", "0"],
    "generate-negative-seed": ["--seed", "-1"],
    # every row of every class rounds into train
    "generate-empty-val": ["--samples", "200", "--classes", "4", "--super", "2",
                           "--train-fraction", "0.99", "--background-fraction", "0"],
}


# settings every run refuses before writing anything: test id -> (key, value)
BAD_SETTINGS = {
    "focal-gamma-neg": ("focal_gamma", -1), "focal-alpha-0": ("focal_alpha", 0),
    "focal-alpha-1.5": ("focal_alpha", 1.5), "cosine-tau-0": ("cosine_tau", 0),
    "cosine-tau-neg": ("cosine_tau", -1), "encoder-hidden-0": ("encoder_hidden", 0),
    "embed-dim-0": ("embed_dim", 0), "seed-neg": ("seed", -1),
    "learning-rate-nan": ("learning_rate", float("nan")),
    "delta-nan": ("delta", float("nan")),
    "weight-decay-inf": ("weight_decay", float("inf")),
    "unseen-float": ("unseen_classes", [1.5]), "unseen-bool": ("unseen_classes", [True]),
    "unseen-object": ("unseen_classes", [{"a": 1}]),
}
# the cases a run refused late or not at all when the config did not check
# them; the rest already met another refusal before any output (unseen_classes
# with a learnable bank, a bank delta or width, or encoder weights that differ)
BAD_SETTING_CASES = [
    f"{command}:{setting}" for command, skip in (
        ("train", ("unseen",)), ("zeroshot", ("delta", "embed")),
        ("resume", ("unseen", "delta", "embed", "encoder")))
    for setting in BAD_SETTINGS if not setting.startswith(skip)
]


def _bad_setting_argv(kind, tmp_path, trained):
    """argv of a `<command>:<setting>` run: `train` and `zeroshot` read the
    setting from --config, `resume` from the trained run's edited checkpoint."""
    _, ds_path, _, run = trained
    command, setting = kind.split(":")
    key, value = BAD_SETTINGS[setting]
    if command == "resume":
        payload = json.loads((run / "checkpoint.json").read_text())
        payload["config"][key] = value
        ck = tmp_path / "ck.json"
        ck.write_text(json.dumps(payload))
        source = ["--resume", str(ck)]
    else:
        source = ["--config", write_config(tmp_path / "c.json", **{key: value})]
    argv = ["--dataset", str(ds_path), "--out", str(tmp_path / "o")] + source
    if command == "zeroshot":
        rows = np.random.default_rng(0).normal(0.0, 1.0, (4, 8))
        return ["zeroshot", "--prototypes", write_bank(tmp_path / "bank.json", rows)] + argv
    return ["train"] + argv


def _dataset(path, **shape):
    """A GEN_ARGS-sized dataset with `shape` overriding its generator arguments."""
    data.generate(**{"num_features": 8, "num_super": 2, "num_classes": 4,
                     "num_samples": 600, "seed": 0, **shape}).save(path)
    return path


def _edited_dataset(kind, tmp_path, ds_path):
    """A copy of the dataset at ds_path with the DATASET_EDITS edit `kind` applied."""
    payload = json.loads(ds_path.read_text())
    DATASET_EDITS[kind](payload)
    edited = tmp_path / "ds_edited.json"
    edited.write_text(json.dumps(payload))
    return edited


def _refused_argv(kind, tmp_path, trained):
    """argv of a `kind` run whose input is bad; every output goes under tmp_path/o"""
    _, ds_path, cfg_path, run = trained
    out = tmp_path / "o"
    if ":" in kind:
        return _bad_setting_argv(kind, tmp_path, trained)
    if kind in GENERATE_CASES:
        return ["generate", "--out", str(out / "ds.json")] + GENERATE_CASES[kind]
    if kind in ENCODER_CASES or kind in CHECKPOINT_CASES:
        payload = json.loads((run / "checkpoint.json").read_text())
        if kind in ENCODER_CASES:
            ENCODER_EDITS[kind.split("-encoder-")[1]](payload["encoder"])
        else:
            CHECKPOINT_EDITS[kind.split("-checkpoint-")[1]](payload)
        ck = tmp_path / "ck.json"
        ck.write_text(json.dumps(payload))
        if kind.startswith("eval"):
            return ["eval", "--checkpoint", str(ck), "--dataset", str(ds_path),
                    "--out", str(out / "metrics.json")]
        return ["train", "--resume", str(ck), "--dataset", str(ds_path), "--out", str(out)]
    if kind.startswith("train"):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"epochs": 2, "momentum": 0.9}))
        argv = ["--config", str(bad)]
        if kind == "train-unseen":
            argv = ["--config", write_config(tmp_path / "c.json", unseen_classes=[3])]
        elif kind == "train-prototype-lr":
            argv = ["--config", write_config(tmp_path / "c.json", prototype_learning_rate=5.0),
                    "--head", "euclidean-linear"]
        elif kind == "train-dataset-unseen":
            # a learnable bank cannot fit a class with no train rows
            unseen = data.holdout_unseen(data.SyntheticDataset.load(ds_path), ["leaf_3"])
            ds_path = tmp_path / "ds_unseen.json"
            unseen.save(ds_path)
            argv = ["--config", cfg_path]
        elif kind == "train-dataset-unseen-name":
            # the name form a config accepts, but a dataset stores indices
            payload = json.loads(ds_path.read_text())
            ds_path = tmp_path / "ds_named.json"
            ds_path.write_text(json.dumps({**payload, "unseen_classes": ["leaf_1"]}))
            argv = ["--config", cfg_path]
        elif kind in DATASET_EDITS:
            ds_path = _edited_dataset(kind, tmp_path, ds_path)
            argv = ["--config", cfg_path]
        elif kind in RESUMED_OPTIMIZER:
            payload = json.loads((run / "checkpoint.json").read_text())
            RESUMED_OPTIMIZER[kind](payload["optimizer"])
            ck = tmp_path / "ck.json"
            ck.write_text(json.dumps(payload))
            argv = ["--resume", str(ck)]
        elif kind in RESUMED:
            edit, shape = RESUMED[kind]
            payload = json.loads((run / "checkpoint.json").read_text())
            payload["config"].update(edit)
            ck = tmp_path / "ck.json"
            ck.write_text(json.dumps(payload))
            argv = ["--resume", str(ck)]
            if shape:
                ds_path = _dataset(tmp_path / "ds_other.json", **shape)
        return ["train", "--dataset", str(ds_path), "--out", str(out)] + argv
    if kind.startswith("zeroshot"):
        rows = np.random.default_rng(0).normal(0.0, 1.0, (4, 8))   # fits embed_dim 8
        cfg, bank = cfg_path, tmp_path / "bank.json"
        if kind == "zeroshot":
            bank.write_text(json.dumps({"mode": "hyperbolic", "frozen": True}))
        elif kind == "zeroshot-head-mode":
            H.PrototypeBank(H.MODE_LINEAR, rows, [f"leaf_{c}" for c in range(4)],
                            frozen=True).save(bank)
            cfg = write_config(tmp_path / "c.json", head_mode=H.MODE_COSINE)
        else:
            write_bank(bank, rows[:, :2] if kind == "zeroshot-width" else rows,
                       frozen=kind != "zeroshot-learnable-bank")
        if kind in BANK_EDITS:
            bank_edit, config_edit = BANK_EDITS[kind]
            bank.write_text(json.dumps({**json.loads(bank.read_text()), **bank_edit}))
            cfg = write_config(tmp_path / "c.json", unseen_classes=[3], **config_edit)
        if kind == "zeroshot-unseen-index":
            cfg = write_config(tmp_path / "c.json", unseen_classes=[9])
        elif kind == "zeroshot-delta":   # the bank keeps the default delta 1.4
            cfg = write_config(tmp_path / "c.json", unseen_classes=[3], delta=5.0)
        return ["zeroshot", "--config", cfg, "--dataset", str(ds_path),
                "--prototypes", str(bank), "--out", str(out)]
    if kind == "hubness":
        return ["hubness", str(run / "metrics.json"), "--out", str(out)]
    if kind.startswith("eval"):
        if kind in DATASET_EDITS:
            ds = _edited_dataset(kind, tmp_path, ds_path)
        else:
            shape = {"eval-features": {"num_features": 12},
                     "eval-class-count": {"num_classes": 6}}
            ds = _dataset(tmp_path / "ds_other.json", **shape[kind])
        return ["eval", "--checkpoint", str(run / "checkpoint.json"), "--dataset", str(ds),
                "--out", str(out / "metrics.json")]
    emb = tmp_path / "emb.txt"
    emb.write_text("a 1 0\nb 1\n")
    return ["import-prototypes", "--embeddings", str(emb), "--out", str(out / "bank.json")]


@pytest.mark.parametrize("kind", ["train", "zeroshot", "hubness",
                                  "import-prototypes", "train-unseen", "train-prototype-lr",
                                  "train-resume-class-count", "zeroshot-unseen-index",
                                  "zeroshot-learnable-bank", "zeroshot-width",
                                  "zeroshot-head-mode", "zeroshot-delta",
                                  "train-resume-features", "train-resume-no-encoder",
                                  "train-resume-encoder-hidden", "eval-features",
                                  "eval-class-count", "train-dataset-unseen-name",
                                  "train-dataset-unseen"]
                         + sorted(RESUMED_OPTIMIZER) + ENCODER_CASES + sorted(GENERATE_CASES)
                         + sorted(BANK_EDITS) + sorted(DATASET_EDITS)
                         + CHECKPOINT_CASES
                         + BAD_SETTING_CASES)
def test_refused_run_writes_nothing(trained, tmp_path, kind):
    assert main(_refused_argv(kind, tmp_path, trained)) == 2
    assert not (tmp_path / "o").exists()
    assert not list(tmp_path.rglob("manifest.json"))


@pytest.mark.parametrize("command", ["import-prototypes", "zeroshot", "train-resume"])
def test_cosine_zero_row_refused_before_output(trained, tmp_path, command):
    # cosine similarity is undefined on a zero row: a cosine bank holding one
    # is refused as it is built or loaded, before any output exists
    root, ds_path, cfg_path, _ = trained
    out = tmp_path / "o"
    names = [f"leaf_{c}" for c in range(4)]
    rows = np.eye(4, 8)
    rows[0] = 0.0
    if command == "import-prototypes":
        emb = tmp_path / "emb.txt"
        emb.write_text("".join(f"{n} " + " ".join(map(str, r)) + "\n"
                               for n, r in zip(names, rows)))
        argv = ["import-prototypes", "--embeddings", str(emb), "--mode", H.MODE_COSINE,
                "--out", str(out / "bank.json")]
    elif command == "zeroshot":
        bank = tmp_path / "bank.json"
        bank.write_text(json.dumps({"mode": H.MODE_COSINE, "prototypes": rows.tolist(),
                                    "class_names": names, "delta": H.DEFAULT_DELTA,
                                    "frozen": True}))
        cfg = write_config(tmp_path / "c.json", unseen_classes=[3], head_mode=H.MODE_COSINE)
        argv = ["zeroshot", "--config", cfg, "--dataset", str(ds_path),
                "--prototypes", str(bank), "--out", str(out)]
    else:
        cos = root / "cos"
        if not cos.exists():
            assert main(["train", "--config", cfg_path, "--dataset", str(ds_path),
                         "--head", H.MODE_COSINE, "--out", str(cos)]) == 0
        payload = json.loads((cos / "checkpoint.json").read_text())
        payload["bank"]["prototypes"][0] = [0.0] * 8
        ck = tmp_path / "ck.json"
        ck.write_text(json.dumps(payload))
        argv = ["train", "--resume", str(ck), "--dataset", str(ds_path), "--out", str(out)]
    assert main(argv) == 2
    assert not out.exists()
    assert not list(tmp_path.rglob("manifest.json"))


# the older checkpoint formats a resume still reads
OLDER_CHECKPOINTS = {
    "rate-keys": lambda c: c["optimizer"].update(learning_rate=0.01, weight_decay=0.0,
                                                 beta1=0.9, beta2=0.999, eps=1e-08),
    "param-steps-d-min": lambda c: (older_optimizer(c["optimizer"]),
                                    c["bank"].update(d_min=1.0)),
}


def _jsonschema(doc, name):
    jsonschema.validate(doc, schemas.load_schema(name))


def _accepts(validate, doc, name) -> bool:
    """Whether `validate` takes `doc` as a `name` document; a checkpoint's
    bank must be a `prototype_bank` document, as its decoder checks."""
    try:
        validate(doc, name)
        if name == "checkpoint":
            validate(doc["bank"], "prototype_bank")
    except (jsonschema.ValidationError, ParameterError):
        return False
    return True


@pytest.mark.parametrize("kind", sorted(DATASET_EDITS) + sorted(BANK_EDITS)
                         + [f"checkpoint-{edit}" for edit in CHECKPOINT_EDITS]
                         + [f"encoder-{edit}" for edit in ENCODER_EDITS]
                         + [f"older-{edit}" for edit in OLDER_CHECKPOINTS])
def test_validators_agree_on_edited_files(trained, tmp_path, kind):
    """jsonio.validate refuses an edited file exactly when jsonschema does, but
    for the split index 3.0, which JSON Schema reads as the integer 3."""
    _, ds_path, _, run = trained
    if kind in DATASET_EDITS:
        name, doc = "dataset", json.loads(ds_path.read_text())
        DATASET_EDITS[kind](doc)
    elif kind in BANK_EDITS:
        write_bank(tmp_path / "bank.json", np.random.default_rng(0).normal(0.0, 1.0, (4, 8)))
        name, doc = "prototype_bank", {**json.loads((tmp_path / "bank.json").read_text()),
                                       **BANK_EDITS[kind][0]}
    else:
        name, doc = "checkpoint", json.loads((run / "checkpoint.json").read_text())
        group, edit = kind.split("-", 1)
        if group == "encoder":
            ENCODER_EDITS[edit](doc["encoder"])
        else:
            {"checkpoint": CHECKPOINT_EDITS, "older": OLDER_CHECKPOINTS}[group][edit](doc)
    doc = json.loads(json.dumps(doc))   # as a file decodes
    ours, oracle = _accepts(jsonio.validate, doc, name), _accepts(_jsonschema, doc, name)
    if kind == "train-dataset-split-float":
        assert (ours, oracle) == (False, True)
    else:
        assert ours == oracle
    if kind.startswith("older-"):
        assert ours
        (tmp_path / "ck.json").write_text(json.dumps(doc))
        assert training.load_checkpoint(tmp_path / "ck.json").opt.step > 0


# an ASCII locale with UTF-8 mode off: open()'s default encoding is ASCII
ASCII_LOCALE = {"PYTHONUTF8": "0", "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0"}


def _run_ascii_locale(*argv):
    """The CLI run in a fresh interpreter under ASCII_LOCALE."""
    env = {**os.environ, **ASCII_LOCALE, "PYTHONPATH": os.pathsep.join(sys.path)}
    return subprocess.run([sys.executable, "-m", "lorentzheads.cli", *argv], env=env,
                          capture_output=True, text=True, encoding="utf-8")


class TestUtf8WhateverTheLocale:
    def test_utf8_class_names_import(self, tmp_path):
        emb = tmp_path / "emb.txt"
        emb.write_bytes("caf\u00e9 0.1 0.2\nth\u00e9 0.3 0.4\n".encode("utf-8"))
        run = _run_ascii_locale("import-prototypes", "--embeddings", str(emb),
                                "--out", str(tmp_path / "bank.json"))
        assert run.returncode == 0, run.stderr
        bank = H.PrototypeBank.load(tmp_path / "bank.json")
        assert bank.class_names == ["caf\u00e9", "th\u00e9"]

    def test_latin1_embeddings_exit_2(self, tmp_path):
        emb = tmp_path / "emb.txt"
        emb.write_bytes("a 0.1 0.2\ncaf\u00e9 0.3 0.4\n".encode("latin-1"))
        run = _run_ascii_locale("import-prototypes", "--embeddings", str(emb),
                                "--out", str(tmp_path / "o" / "bank.json"))
        assert run.returncode == 2
        assert run.stderr == f"error: {emb}: not UTF-8 text at line 2\n"
        assert not (tmp_path / "o").exists()

    def test_utf8_json_reads(self, tmp_path):
        """A file holding raw UTF-8, as json.dump(ensure_ascii=False) writes it."""
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(json.dumps({"epochs": 1, "head_mode": "caf\u00e9"},
                                   ensure_ascii=False).encode("utf-8"))
        run = _run_ascii_locale("train", "--config", str(cfg), "--dataset", "none.json",
                                "--out", str(tmp_path / "o"))
        # the config decodes, and its schema, not the decoder, refuses the head
        # mode: one character U+00E9, which the ASCII stderr backslash-escapes
        assert run.returncode == 2
        assert "head_mode must be one of" in run.stderr
        assert "not 'caf\\xe9'" in run.stderr
        assert not (tmp_path / "o").exists()
