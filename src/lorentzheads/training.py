"""End-to-end experiment driver.

A small Euclidean encoder (optional 2-layer perceptron with rectified-linear
activation) feeds one of the classification heads; training minimizes the
sigmoid focal loss with Adam on Euclidean parameters (one step per batch
over one buffer holding them all, with their gradients written straight into
a second buffer of the same layout) and Riemannian SGD on hyperbolic
prototypes.  Evaluation reports accuracy, supercategory accuracy
(a prediction also counts if it shares the groundtruth's parent category),
per-class precision/recall, seen/unseen splits with their harmonic mean, and
per-bucket accuracy for imbalanced runs.  Runs are deterministic given the
config and seed; checkpoints round-trip bit-exactly.

Every run trains a `RunState`, the seven fields of a checkpoint: `start`
builds a fresh one and `load_checkpoint` reads a saved one.  `prepare` makes
every check a state must pass on a dataset, so a caller can refuse a run
before writing anything, and holds the config's unseen classes out of train;
`check_fit`, its shape and class-name checks, also guards `eval`.
"""

from __future__ import annotations

import dataclasses
import math
import os
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import geometry, heads, jsonio, optim
from .data import BUCKETS, ClassTree, SyntheticDataset, holdout_unseen
from .errors import ContractError, NumericalError, ParameterError
from .heads import BACKGROUND, PrototypeBank

# number field -> (its range in words, the test a value must pass)
_RANGES = {
    **dict.fromkeys(("learning_rate", "prototype_learning_rate", "grad_clip_norm", "delta",
                     "cosine_tau"), ("> 0", lambda v: v > 0)),
    **dict.fromkeys(("weight_decay", "focal_gamma", "seed"), (">= 0", lambda v: v >= 0)),
    **dict.fromkeys(("epochs", "batch_size", "eval_every", "encoder_hidden", "embed_dim"),
                    (">= 1", lambda v: v >= 1)),
    "focal_alpha": ("in (0, 1]", lambda v: 0 < v <= 1),
}


@dataclass
class ExperimentConfig:
    """Training settings; every field is read.  eval_every sets only the
    checkpoint cadence: validation metrics are computed once, after the last
    epoch."""

    head_mode: str = heads.MODE_HYPERBOLIC
    delta: float = heads.DEFAULT_DELTA
    focal_gamma: float = 2.0
    focal_alpha: float = 0.25
    learning_rate: float = 1e-2
    prototype_learning_rate: float | None = None
    weight_decay: float = 0.0
    grad_clip_norm: float | None = None
    epochs: int = 40
    batch_size: int = 64
    seed: int = 0
    eval_every: int = 10
    encoder: bool = True
    encoder_hidden: int = 64
    embed_dim: int = 16
    cosine_tau: float = heads.DEFAULT_TAU
    unseen_classes: list = field(default_factory=list)

    def __post_init__(self):
        """The one type and range check of a run's settings, however the
        config is built, so a bad setting is refused before any output."""
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if not jsonio.is_a(value, f.type):
                raise ParameterError(f"config key {f.name!r} must be {f.type}, "
                                     f"not {type(value).__name__}")
        if self.head_mode not in heads.MODES:
            raise ParameterError(f"unknown head mode {self.head_mode!r}")
        for name, (rule, ok) in _RANGES.items():
            value = getattr(self, name)
            # NaN fails every test; abs() < inf refuses ±Infinity, not a huge int
            if value is not None and not (ok(value) and abs(value) < math.inf):
                raise ParameterError(f"{name} must be finite and {rule}, not {value}")
        for u in self.unseen_classes:
            if not jsonio.is_a(u, "str | int"):   # a leaf name or a class index
                raise ParameterError(f"unseen_classes holds class names or indices, not {u!r}")

    @property
    def proto_lr(self) -> float:
        if self.prototype_learning_rate is None:
            return self.learning_rate
        return self.prototype_learning_rate

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        if not isinstance(d, dict):
            raise ParameterError(f"config must be a JSON object, not {type(d).__name__}")
        extra = set(d) - {f.name for f in dataclasses.fields(cls)}
        if extra:
            raise ParameterError(f"unknown config keys: {sorted(extra)}")
        return cls(**d)

    @classmethod
    def load(cls, path) -> "ExperimentConfig":
        return jsonio.read(path, cls.from_dict)


@dataclass
class Encoder:
    """Two linear layers with rectified-linear activation in between."""

    W1: np.ndarray
    b1: np.ndarray
    W2: np.ndarray
    b2: np.ndarray

    @classmethod
    def init(cls, rng, n_in: int, hidden: int, n_out: int) -> "Encoder":
        return cls(
            W1=rng.normal(0.0, np.sqrt(2.0 / n_in), size=(n_in, hidden)),
            b1=np.zeros(hidden),
            W2=rng.normal(0.0, np.sqrt(2.0 / hidden), size=(hidden, n_out)),
            b2=np.zeros(n_out),
        )

    def forward(self, X: np.ndarray):
        """(E, cache): the embeddings of the rows of X, and the (X, H) pair
        `backward` reads, H the hidden activations."""
        H = X @ self.W1
        H += self.b1
        np.maximum(H, 0.0, out=H)
        E = H @ self.W2
        E += self.b2
        return E, (X, H)

    def backward(self, cache, dE: np.ndarray, out: dict | None = None) -> dict:
        """The weight gradients by name, written into `out`'s arrays (in
        `train`, views of its gradient buffer) or into new ones; returns them."""
        X, H = cache
        if out is None:
            out = {name: np.empty_like(w) for name, w in self.params().items()}
        # H > 0 exactly where the pre-activation is > 0
        dH = dE @ self.W2.T
        dH *= H > 0.0
        np.matmul(X.T, dH, out=out["enc.W1"])
        dH.sum(axis=0, out=out["enc.b1"])
        np.matmul(H.T, dE, out=out["enc.W2"])
        dE.sum(axis=0, out=out["enc.b2"])
        return out

    def params(self) -> dict:
        return {"enc.W1": self.W1, "enc.b1": self.b1, "enc.W2": self.W2, "enc.b2": self.b2}

    def set_param(self, name: str, value: np.ndarray) -> None:
        setattr(self, name.split(".", 1)[1], value)

    @classmethod
    def from_dict(cls, d: dict) -> "Encoder":
        if not isinstance(d, dict):
            raise ParameterError(f"encoder must be an object of weights by name, "
                                 f"not {type(d).__name__}")
        return cls(**{k: np.asarray(v, dtype=np.float64) for k, v in d.items()})


def embed(encoder: Encoder | None, X: np.ndarray) -> np.ndarray:
    if encoder is None:
        return np.asarray(X, dtype=np.float64)
    return encoder.forward(X)[0]


def harmonic_mean(a: float, b: float) -> float:
    if a <= 0.0 or b <= 0.0:
        return 0.0
    return 2.0 * a * b / (a + b)


@dataclass
class MetricsReport:
    train_loss: list = field(default_factory=list)   # per-epoch means
    val_accuracy: float | None = None
    supercategory_accuracy: float | None = None
    per_class: dict = field(default_factory=dict)    # name -> {precision, recall, support}
    seen_accuracy: float | None = None
    unseen_accuracy: float | None = None
    harmonic_mean: float | None = None
    bucket_accuracy: dict | None = None
    wall_clock_sec: float = 0.0

    def save(self, json_path) -> None:
        jsonio.write(json_path, self)
        rows = []
        for i, v in enumerate(self.train_loss):
            rows.append((i, "train_loss", v))
        last = max(len(self.train_loss) - 1, 0)
        for key in ("val_accuracy", "supercategory_accuracy", "seen_accuracy",
                    "unseen_accuracy", "harmonic_mean", "wall_clock_sec"):
            v = getattr(self, key)
            if v is not None:
                rows.append((last, key, v))
        with open(jsonio.csv_path(json_path), "w") as f:
            f.write("epoch,metric,value\n")
            for e, m, v in rows:
                f.write(f"{e},{m},{v!r}\n")


def _label_rows(labels: np.ndarray, classes, C: int) -> np.ndarray:
    """Whether each label in [BACKGROUND, C) is one of `classes`, indices in
    [0, C), as np.isin would say: a lookup table whose last entry, the one
    BACKGROUND indexes, stays False."""
    table = np.zeros(C + 1, dtype=bool)
    table[list(classes)] = True
    return table[labels]


def evaluate(bank: PrototypeBank, encoder: Encoder | None, features: np.ndarray,
             labels: np.ndarray, tree: ClassTree, tau: float = heads.DEFAULT_TAU,
             unseen_classes=(), buckets=None) -> MetricsReport:
    """Score a labeled split.

    Foreground rows count as correct when the argmax class is right;
    background rows count as correct when no class exceeds confidence 0.5.
    Supercategory accuracy accepts any prediction sharing the groundtruth's
    parent.  Per-class precision/recall use confidence-gated predictions
    (max confidence <= 0.5 predicts background).
    """
    t0 = time.perf_counter()
    labels = np.asarray(labels)
    emb = embed(encoder, features)
    S = heads.batch_bank_logits(emb, bank, tau=tau)
    pred = np.argmax(S, axis=1)
    max_conf = heads.sigmoid(S[np.arange(len(pred)), pred])
    gated = np.where(max_conf > 0.5, pred, BACKGROUND)

    fg = labels != BACKGROUND
    parents = np.asarray(tree.parents)
    correct = np.where(fg, pred == labels, max_conf <= 0.5)
    sup_correct = np.where(
        fg, parents[pred] == parents[np.where(fg, labels, 0)], max_conf <= 0.5
    )

    C = len(tree.leaf_classes)
    support = np.bincount(labels[fg], minlength=C)
    predicted = np.bincount(gated[gated != BACKGROUND], minlength=C)
    hits = np.bincount(labels[fg & (gated == labels)], minlength=C)
    precision = hits / np.maximum(predicted, 1)
    recall = hits / np.maximum(support, 1)
    per_class = {
        name: {"precision": p, "recall": r, "support": n}
        for name, p, r, n in zip(tree.leaf_classes, precision.tolist(), recall.tolist(),
                                 support.tolist())
    }

    report = MetricsReport(
        val_accuracy=float(correct.mean()),
        supercategory_accuracy=float(sup_correct.mean()),
        per_class=per_class,
    )

    unseen_classes = sorted(int(u) for u in unseen_classes)
    if unseen_classes:
        unseen_mask = _label_rows(labels, unseen_classes, C)
        seen_fg = fg & ~unseen_mask
        report.seen_accuracy = float(correct[seen_fg].mean()) if seen_fg.any() else 0.0
        report.unseen_accuracy = float(correct[unseen_mask].mean()) if unseen_mask.any() else 0.0
        report.harmonic_mean = harmonic_mean(report.seen_accuracy, report.unseen_accuracy)

    if buckets:
        name_to_idx = {n: i for i, n in enumerate(tree.leaf_classes)}
        acc = {}
        for bucket in BUCKETS:
            members = [name_to_idx[n] for n, b in buckets.items() if b == bucket]
            rows = _label_rows(labels, members, C)
            acc[bucket] = float(correct[rows].mean()) if rows.any() else 0.0
        report.bucket_accuracy = acc

    report.wall_clock_sec = time.perf_counter() - t0
    return report


def evaluate_split(bank, encoder, dataset: SyntheticDataset, split: str = "val",
                   tau: float = heads.DEFAULT_TAU) -> MetricsReport:
    idx = dataset.val_idx if split == "val" else dataset.train_idx
    return evaluate(
        bank, encoder, dataset.features[idx], dataset.labels[idx], dataset.tree,
        tau=tau, unseen_classes=dataset.unseen_classes, buckets=dataset.buckets or None,
    )


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


class RunState(NamedTuple):
    """A run between epochs: save_checkpoint's arguments after `path`."""

    config: ExperimentConfig
    epoch: int
    encoder: Encoder | None
    bank: PrototypeBank
    opt: optim.OptimizerState
    rng: np.random.Generator
    train_loss: list


def save_checkpoint(path, config: ExperimentConfig, epoch: int, encoder: Encoder | None,
                    bank: PrototypeBank, opt: optim.OptimizerState, rng: np.random.Generator,
                    train_loss: list) -> None:
    jsonio.write(path, {
        "config": config,
        "epoch": epoch,
        "encoder": encoder,
        "bank": bank,
        "optimizer": opt,
        "rng_state": rng.bit_generator.state,
        "train_loss": train_loss,
    })


def _decode_checkpoint(payload: dict) -> RunState:
    config = ExperimentConfig.from_dict(payload["config"])
    epoch, train_loss = payload["epoch"], payload.get("train_loss", [])
    if not jsonio.is_a(epoch, "int") or not 0 <= epoch <= config.epochs:
        raise ParameterError(f"epoch must be an integer in [0, {config.epochs}], not {epoch!r}")
    if not isinstance(train_loss, list) or not all(
            jsonio.is_a(v, "float") and abs(v) < math.inf for v in train_loss):
        raise ParameterError(f"train_loss must be a list of finite numbers, not {train_loss!r}")
    # one mean loss per finished epoch, or a resumed run's history is wrong
    if len(train_loss) != epoch:
        raise ParameterError(f"train_loss holds {len(train_loss)} values for epoch {epoch}")
    encoder = Encoder.from_dict(payload["encoder"]) if payload["encoder"] is not None else None
    bank = PrototypeBank.from_dict(payload["bank"])
    opt = optim.OptimizerState.from_dict(payload["optimizer"])
    rng = np.random.default_rng(0)
    rng.bit_generator.state = payload["rng_state"]
    return RunState(config, epoch, encoder, bank, opt, rng, train_loss)


def load_checkpoint(path) -> RunState:
    """The save_checkpoint arguments after `path`, read back from it."""
    return jsonio.read(path, _decode_checkpoint)


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


def _numerical_error(what: str, epoch: int, batch_idx, encoder: Encoder | None,
                     bank: PrototypeBank) -> NumericalError:
    norms = {k: float(np.linalg.norm(v)) for k, v in _trainable(encoder, bank).items()}
    diagnostics = {"last_batch": [int(i) for i in batch_idx], "param_norms": norms}
    return NumericalError(f"{what} at epoch {epoch}: {diagnostics}")


def start(config: ExperimentConfig, dataset: SyntheticDataset,
          bank: PrototypeBank | None = None) -> RunState:
    """A fresh run at epoch 0; a given bank must be frozen (zero-shot)."""
    if bank is not None and not bank.frozen:
        raise ParameterError("zero-shot evaluation requires a frozen bank")
    rng = np.random.default_rng(config.seed)
    encoder = (
        Encoder.init(rng, dataset.num_features, config.encoder_hidden, config.embed_dim)
        if config.encoder else None
    )
    if bank is None:
        bank = heads.random_bank(config.head_mode, list(dataset.tree.leaf_classes),
                                 config.embed_dim, rng, delta=config.delta)
    return RunState(config, 0, encoder, bank, optim.OptimizerState(), rng, [])


def check_fit(state: RunState, dataset: SyntheticDataset) -> None:
    """Refuse a state whose encoder or bank does not fit its config and `dataset`."""
    config, encoder, bank = state.config, state.encoder, state.bank
    weights = encoder.params().values() if encoder is not None else ()
    shapes = [np.shape(w) for w in weights] or None
    n, h, e = dataset.num_features, config.encoder_hidden, config.embed_dim
    fits = [(n, h), (h,), (h, e), (e,)] if config.encoder else None
    if shapes != fits:
        raise ParameterError(f"encoder weights W1, b1, W2, b2 {shapes or 'absent'}, but {n} "
                             f"features and the config need {fits or 'none'}")
    if not all(np.isfinite(w).all() for w in weights):
        raise ParameterError("encoder weights contain non-finite entries")
    if encoder is None and config.embed_dim != dataset.num_features:
        raise ParameterError("without an encoder, embed_dim must equal the feature dim")
    if list(bank.class_names) != list(dataset.tree.leaf_classes):
        # row c scores the dataset's class c: a permuted bank would score
        # every class against another class's prototype
        raise ParameterError(f"bank classes {list(bank.class_names)} are not the dataset's "
                             f"leaf classes {list(dataset.tree.leaf_classes)} in order")
    if bank.feature_dim != config.embed_dim:
        raise ParameterError(f"{bank.mode} prototypes of width {bank.prototypes.shape[1]} "
                             f"do not fit embed_dim {config.embed_dim}")


def _trainable(encoder: Encoder | None, bank: PrototypeBank) -> dict:
    """Every trainable tensor by name; a frozen bank is not one of them."""
    params = encoder.params() if encoder is not None else {}
    if not bank.frozen:
        params["prototypes"] = bank.prototypes
    return params


def prepare(state: RunState, dataset: SyntheticDataset):
    """Refuse a state that cannot train on `dataset`; otherwise return the
    dataset with `state.config.unseen_classes` held out of its train split,
    whether RSGD steps the prototypes, and the trainable tensors Adam steps
    (the rest) by name."""
    check_fit(state, dataset)
    config, bank = state.config, state.bank
    params = _trainable(state.encoder, bank)
    rsgd = "prototypes" in params and bank.mode == heads.MODE_HYPERBOLIC
    if (bank.mode, bank.delta) != (config.head_mode, config.delta):
        raise ParameterError(f"a {bank.mode} prototype bank with delta {bank.delta} cannot "
                             f"train with head_mode {config.head_mode!r}, delta {config.delta}")
    if config.unseen_classes and not bank.frozen:
        raise ParameterError("unseen_classes needs a frozen prototype bank (zeroshot); "
                             "train would fit every class")
    if config.prototype_learning_rate is not None and not rsgd:
        raise ParameterError("prototype_learning_rate is read only by the RSGD step "
                             "of a learnable hyperbolic bank")
    if rsgd:
        del params["prototypes"]
    state.opt.check(params)
    return holdout_unseen(dataset, config.unseen_classes), rsgd, params


def train(config: ExperimentConfig, dataset: SyntheticDataset, out_dir=None,
          state: RunState | None = None):
    """Train `state` (by default `start(config, dataset)`; for a resumed run,
    the load_checkpoint result) to `config.epochs`, advancing its encoder,
    bank, optimizer, RNG and loss history in place; the Adam-stepped tensors
    and their moments become views of one buffer each.  Returns (bank, encoder,
    report, checkpoint_paths); every save overwrites `out_dir/checkpoint.json`,
    so checkpoint_paths names it once, or is empty when nothing was saved."""
    t0 = time.perf_counter()
    if state is None:
        state = start(config, dataset)
    elif state.config != config:
        raise ParameterError("the run state holds another config than the one given")
    dataset, rsgd, adam = prepare(state, dataset)
    _, start_epoch, encoder, bank, opt, rng, loss_hist = state
    # the Adam-stepped tensors become views of one buffer, their moments
    # views of two more, so one euclidean_step call per batch steps them all
    flat, views = optim.pack(adam)
    for name, view in views.items():
        if name == "prototypes":
            bank.prototypes = view
        else:
            encoder.set_param(name, view)
    first_moment, second_moment = opt.pack(views)
    # the gradients land in views of a fourth buffer laid out like the
    # others, so Adam reads them with no per-batch copy
    grad, grads = optim.pack({name: np.zeros_like(v) for name, v in views.items()})
    checkpoints = []

    for epoch in range(start_epoch, config.epochs):
        perm = rng.permutation(dataset.train_idx)
        total = 0.0
        for lo in range(0, len(perm), config.batch_size):
            batch = perm[lo:lo + config.batch_size]
            X = dataset.features[batch]
            y = dataset.labels[batch]
            if encoder is not None:
                emb, cache = encoder.forward(X)
            else:
                emb = X
            loss, grad_emb, grad_proto = heads.loss_and_grads(
                emb, bank, y, config.focal_gamma, config.focal_alpha, tau=config.cosine_tau)
            if not np.isfinite(loss):
                raise _numerical_error("non-finite loss", epoch, batch, encoder, bank)
            if encoder is not None:
                encoder.backward(cache, grad_emb, out=grads)
            if rsgd:   # the last key, as the clipping norm sums it
                grads["prototypes"] = grad_proto
            elif not bank.frozen:
                grads["prototypes"][...] = grad_proto
            if config.grad_clip_norm is not None:
                optim.clip_gradients(grads, config.grad_clip_norm)
            if rsgd:
                # before Adam, so a breakdown reports the norms before the update
                try:
                    bank.prototypes = optim.riemannian_step(bank.prototypes, grads["prototypes"],
                                                            config.proto_lr)
                except ContractError as e:
                    # inputs were validated before the loop; a contract
                    # violation here means the iterates overflowed
                    raise _numerical_error(f"numerical breakdown ({e})", epoch, batch,
                                           encoder, bank) from e
            if views:   # a run with no Adam-stepped tensor counts no Adam step
                opt.step += 1
                optim.euclidean_step(flat, grad, first_moment, second_moment, opt.step,
                                     config.learning_rate, config.weight_decay)
            if not (np.isfinite(flat).all()
                    and (not rsgd or np.isfinite(bank.prototypes).all())):
                raise _numerical_error("non-finite parameters after update", epoch, batch,
                                       encoder, bank)
            total += loss * len(batch)
        loss_hist.append(total / len(perm))

        last = epoch == config.epochs - 1
        if out_dir is not None and ((epoch + 1) % config.eval_every == 0 or last):
            path = os.path.join(out_dir, "checkpoint.json")
            save_checkpoint(path, config, epoch + 1, encoder, bank, opt, rng, loss_hist)
            checkpoints = [path]

    report = evaluate_split(bank, encoder, dataset, "val", tau=config.cosine_tau)
    report.train_loss = list(loss_hist)
    report.wall_clock_sec = time.perf_counter() - t0
    if out_dir is not None:
        report.save(os.path.join(out_dir, "metrics.json"))
    return bank, encoder, report, checkpoints


def zero_shot_eval(config: ExperimentConfig, dataset: SyntheticDataset,
                   bank: PrototypeBank, out_dir=None):
    """Train the encoder against a frozen prototype bank with unseen classes
    held out of the train split, then evaluate seen/unseen accuracy and HM."""
    return train(config, dataset, out_dir, state=start(config, dataset, bank))
