"""The benchmark's workloads.

Each workload drives the package only through its public modules, always
through module or class attributes so the traced run sees every call.  A
workload has three steps:

- ``setup`` builds the inputs from the seed (timed as ``setup_s``);
- ``warm_up`` trains once with the full default config, untimed, writes
  the reference checkpoint and records the reference loss history;
- ``rep`` is one measured repetition: train, evaluate, checkpoint
  round-trip (and hubness for the zero-shot workload), with checks.

Why each workload exists is recorded in BENCHMARK.json.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import time
from dataclasses import dataclass

import numpy as np

import checks
from samples import Samples
from lorentzheads import cli, data, geometry, heads, hubness, manifest, optim, training

# Epochs of each timed training: one call then takes a fraction of a second,
# so a run holds dozens.  Throughput is per epoch and does not depend on it.
TIMED_EPOCHS = 2
# Evaluations per trained model and repetition; one takes milliseconds, so
# a single call would be mostly timer noise.
EVAL_REPEATS = 10
# Checkpoint round-trips per trained model and repetition.
ROUNDTRIP_REPEATS = 3
# The frozen bank is exp0 of the class means times this factor.  With it the
# harmonic mean lands around 0.2-0.8 across seeds; random prototypes give 0,
# which would leave the unseen path unexercised.
MEAN_SCALE = 0.1
# Points in the subset the k-occurrence oracle recomputes in pure Python.
ORACLE_POINTS = 200


def trace_targets():
    """(owner, attribute, span name, size_arg) for every traced function."""
    layers = {
        optim: ["riemannian_step", "euclidean_step"],
        geometry: ["lorentz_inner", "exp_map_at", "tangent_project", "project_to_manifold",
                   "assert_on_manifold", "batch_exp_map_origin", "batch_minkowski_inner",
                   "grad_exp_map_origin", "batch_distance"],
        heads: ["hyperbolic_loss_and_grads", "euclidean_loss_and_grads", "batch_focal_loss",
                "batch_bank_logits"],
        training.Encoder: ["forward", "backward"],
        training: ["train", "evaluate", "save_checkpoint", "load_checkpoint"],
        hubness: ["pairwise_distances", "k_occurrence", "distance_histogram"],
        data: ["generate"],
        data.SyntheticDataset: ["save", "load"],
        manifest: ["sha256_file"],
        cli: ["main"],
    }
    sized = {"save_checkpoint", "sha256_file"}   # first argument is the file path
    targets = []
    for owner, attrs in layers.items():
        if isinstance(owner, type):
            prefix = f"{owner.__module__.rsplit('.', 1)[-1]}.{owner.__name__}"
        else:
            prefix = owner.__name__.rsplit(".", 1)[-1]
        for attr in attrs:
            targets.append((owner, attr, f"{prefix}.{attr}", 0 if attr in sized else None))
    return targets


class Operation:
    def __init__(self):
        self.problems: list[str] = []

    def check(self, problem: str | None) -> None:
        if problem is not None:
            self.problems.append(problem)


class Ledger:
    """Counts attempted operations and the ones that raised or failed a check."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    @contextlib.contextmanager
    def operation(self, what: str):
        self.attempted += 1
        op = Operation()
        try:
            yield op
        except Exception as e:
            op.problems.append(f"raised {type(e).__name__}: {e}")
            raise
        finally:
            if op.problems:
                self.failures.append(f"{what}: {'; '.join(op.problems)}")

    @property
    def failed(self) -> int:
        return len(self.failures)


@dataclass
class Reference:
    """What the warm-up training of one model leaves for the repetitions."""

    loss_history: list
    checkpoint_bytes: bytes
    checkpoint_path: str
    loaded: tuple                 # load_checkpoint's result, re-saved each round-trip
    encoder: object


@dataclass
class Inputs:
    dataset: object
    configs: list
    workdir: str
    bank: object = None           # frozen bank (zero-shot only)
    bank_bytes: bytes = b""


def _read(path) -> bytes:
    with open(path, "rb") as f:
        return f.read()


def _config_via_file(config, path):
    with open(path, "w") as f:
        json.dump(config.to_dict(), f, sort_keys=True)
    return training.ExperimentConfig.load(path)


class TrainWorkload:
    """Learnable heads trained on the default generator shape.

    The warm-up trains each head once with the full default config; that
    model gives val_accuracy, the checks on a converged model and the
    checkpoint for the round-trips.  The timed trainings repeat the same
    config cut to TIMED_EPOCHS epochs.
    """

    def __init__(self, name: str, head_modes, accuracy_floor: float,
                 num_samples: int = 8000):
        self.name = name
        self.head_modes = list(head_modes)
        self.accuracy_floor = accuracy_floor
        self.num_samples = num_samples

    def setup(self, seed: int, workdir: str) -> Inputs:
        os.makedirs(workdir, exist_ok=True)
        path = os.path.join(workdir, "dataset.json")
        data.generate(num_samples=self.num_samples, seed=seed).save(path)
        ds = data.SyntheticDataset.load(path)
        configs = [
            _config_via_file(training.ExperimentConfig(seed=seed, head_mode=mode),
                             os.path.join(workdir, f"config-{i}.json"))
            for i, mode in enumerate(self.head_modes)
        ]
        return Inputs(dataset=ds, configs=configs, workdir=workdir)

    def _train(self, inputs: Inputs, config, out_dir=None):
        return training.train(config, inputs.dataset, out_dir=out_dir)

    def _check_trained(self, inputs: Inputs, bank, op: Operation) -> None:
        if bank.mode == heads.MODE_HYPERBOLIC:
            op.check(checks.on_manifold(bank.prototypes))

    def _check_converged(self, report, op: Operation) -> None:
        op.check(checks.at_least(report.val_accuracy, self.accuracy_floor, "val_accuracy"))

    def warm_up(self, inputs: Inputs, ledger: Ledger, samples: Samples) -> list:
        """Train every model once with the full config, untimed, and keep
        its references; records val_accuracy (mean over the heads)."""
        refs, accuracy = [], []
        for i, config in enumerate(inputs.configs):
            out_dir = os.path.join(inputs.workdir, f"warmup-{i}")
            os.makedirs(out_dir, exist_ok=True)
            with ledger.operation(f"train {config.head_mode} ({config.epochs} epochs)") as op:
                bank, encoder, report, ckpts = self._train(inputs, config, out_dir=out_dir)
                self._check_trained(inputs, bank, op)
                self._check_converged(report, op)
            path = ckpts[-1]
            ref = Reference(report.train_loss, _read(path), path,
                            training.load_checkpoint(path), encoder)
            refs.append(ref)
            accuracy.append(report.val_accuracy)
            self._evaluate(inputs, config, bank, encoder, report, ledger, Samples())
            self._roundtrip(ref, ledger, Samples())
        samples.add_untimed("val_accuracy", float(np.mean(accuracy)))
        return refs

    def rep(self, inputs: Inputs, refs: list, ledger: Ledger, samples: Samples) -> None:
        rows, seconds, trained = 0, 0.0, []
        with samples.calibrated():
            for config, ref in zip(inputs.configs, refs):
                config = dataclasses.replace(config, epochs=TIMED_EPOCHS)
                with ledger.operation(f"train {config.head_mode}") as op:
                    t0 = time.perf_counter()
                    bank, encoder, report, _ = self._train(inputs, config)
                    seconds += time.perf_counter() - t0
                    # same seed, so the first epochs replay the warm-up's exactly
                    op.check(checks.same_loss_history(ref.loss_history[:config.epochs],
                                                      report.train_loss))
                    self._check_trained(inputs, bank, op)
                rows += len(inputs.dataset.train_idx) * config.epochs
                trained.append((config, bank, encoder, report))
            samples.add("train_samples_per_s", rows / seconds)
        for (config, bank, encoder, report), ref in zip(trained, refs):
            self._evaluate(inputs, config, bank, encoder, report, ledger, samples)
            self._roundtrip(ref, ledger, samples)

    def _evaluate(self, inputs, config, bank, encoder, trained, ledger, samples) -> None:
        rows = len(inputs.dataset.val_idx)
        with samples.calibrated():
            for _ in range(EVAL_REPEATS):
                with ledger.operation("evaluate val") as op:
                    t0 = time.perf_counter()
                    report = training.evaluate_split(bank, encoder, inputs.dataset, "val",
                                                     tau=config.cosine_tau)
                    dt = time.perf_counter() - t0
                    if report.val_accuracy != trained.val_accuracy:
                        op.check(f"val_accuracy {report.val_accuracy} differs from the "
                                 f"training report's {trained.val_accuracy}")
                samples.add("eval_rows_per_s", rows / dt)

    def _roundtrip(self, ref: Reference, ledger: Ledger, samples: Samples) -> None:
        path = ref.checkpoint_path + ".roundtrip"
        with samples.calibrated("json"):
            for _ in range(ROUNDTRIP_REPEATS):
                with ledger.operation("checkpoint round-trip") as op:
                    t0 = time.perf_counter()
                    training.save_checkpoint(path, *ref.loaded)
                    loaded = training.load_checkpoint(path)
                    dt = time.perf_counter() - t0
                    op.check(checks.same_bytes(ref.checkpoint_bytes, _read(path),
                                               "re-saved checkpoint"))
                ref.loaded = loaded
                samples.add("checkpoint_roundtrip_ms", dt * 1e3)


class ZeroShotWorkload(TrainWorkload):
    """Encoder-only training against a frozen hyperbolic bank built from
    scaled class means, with held-out classes, plus hubness analysis of the
    warm-up model's validation embeddings."""

    def __init__(self, name: str, accuracy_floor: float, num_samples: int = 10000,
                 num_classes: int = 64, num_super: int = 8, num_unseen: int = 4):
        super().__init__(name, [heads.MODE_HYPERBOLIC], accuracy_floor, num_samples)
        self.num_classes = num_classes
        self.num_super = num_super
        self.num_unseen = num_unseen

    def setup(self, seed: int, workdir: str) -> Inputs:
        os.makedirs(workdir, exist_ok=True)
        ds_path = os.path.join(workdir, "dataset.json")
        vec_path = os.path.join(workdir, "class_vectors.txt")
        bank_path = os.path.join(workdir, "bank.json")
        unseen = np.random.default_rng(seed).choice(self.num_classes, self.num_unseen,
                                                     replace=False)
        _cli(["generate", "--out", ds_path, "--classes", str(self.num_classes),
              "--super", str(self.num_super), "--samples", str(self.num_samples),
              "--seed", str(seed), "--unseen", ",".join(f"leaf_{u}" for u in sorted(unseen))])
        ds = data.SyntheticDataset.load(ds_path)
        with open(vec_path, "w") as f:
            for c, name in enumerate(ds.tree.leaf_classes):
                mean = ds.features[ds.labels == c].mean(axis=0) * MEAN_SCALE
                f.write(" ".join([name] + [repr(float(v)) for v in mean]) + "\n")
        _cli(["import-prototypes", "--embeddings", vec_path, "--out", bank_path])
        config = _config_via_file(
            training.ExperimentConfig(seed=seed, unseen_classes=list(ds.unseen_classes)),
            os.path.join(workdir, "config-0.json"))
        return Inputs(dataset=ds, configs=[config], workdir=workdir,
                      bank=heads.PrototypeBank.load(bank_path), bank_bytes=_read(bank_path))

    def _train(self, inputs: Inputs, config, out_dir=None):
        return training.zero_shot_eval(config, inputs.dataset, inputs.bank, out_dir=out_dir)

    def _check_trained(self, inputs: Inputs, bank, op: Operation) -> None:
        resaved = (json.dumps(bank.to_dict(), sort_keys=True) + "\n").encode()
        op.check(checks.same_bytes(inputs.bank_bytes, resaved, "frozen bank"))

    def _check_converged(self, report, op: Operation) -> None:
        super()._check_converged(report, op)
        op.check(checks.positive(report.harmonic_mean, "harmonic_mean"))

    def warm_up(self, inputs: Inputs, ledger: Ledger, samples: Samples) -> list:
        refs = super().warm_up(inputs, ledger, samples)
        ds = inputs.dataset
        samples.add_untimed("harmonic_mean", training.evaluate_split(
            inputs.bank, refs[0].encoder, ds, "val").harmonic_mean)
        self._hubness(inputs, refs, ledger, Samples(), oracle=True)
        return refs

    def rep(self, inputs: Inputs, refs: list, ledger: Ledger, samples: Samples) -> None:
        super().rep(inputs, refs, ledger, samples)
        self._hubness(inputs, refs, ledger, samples)

    def _hubness(self, inputs: Inputs, refs: list, ledger: Ledger, samples: Samples,
                 oracle: bool = False) -> None:
        ds = inputs.dataset
        points = geometry.batch_exp_map_origin(
            training.embed(refs[0].encoder, ds.features[ds.val_idx]))
        with samples.calibrated(), ledger.operation("hubness") as op:
            t0 = time.perf_counter()
            report = hubness.analyze_points(points, hubness.KIND_HYPERBOLIC, k=hubness.DEFAULT_K)
            samples.add("hubness_s", time.perf_counter() - t0)
            op.check(checks.k_occurrence_total(report.k_occurrence.counts, hubness.DEFAULT_K))
            if oracle:    # the analysis is deterministic; once per run suffices
                sub = points[:ORACLE_POINTS]
                dist = np.arccosh(np.maximum(
                    np.outer(sub[:, 0], sub[:, 0]) - sub[:, 1:] @ sub[:, 1:].T, 1.0))
                op.check(checks.k_occurrence_matches_oracle(
                    dist, hubness.DEFAULT_K, hubness.k_occurrence(dist, hubness.DEFAULT_K).counts))


def _cli(argv) -> None:
    """Run one CLI command in-process; its console report is not ours to print."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"lorentzheads {argv[0]} exited with {code}")


WORKLOADS = {
    w.name: w for w in (
        TrainWorkload("train-hyperbolic", [heads.MODE_HYPERBOLIC], accuracy_floor=0.95),
        TrainWorkload("train-euclidean", [heads.MODE_LINEAR, heads.MODE_COSINE],
                      accuracy_floor=0.95),
        ZeroShotWorkload("zeroshot-analysis", accuracy_floor=0.9),
    )
}
