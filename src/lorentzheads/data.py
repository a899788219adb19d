"""Synthetic hierarchical datasets.

Samples stand in for detector proposal features: supercategory means are
drawn from a broad isotropic Gaussian, leaf-class means scatter around their
parent mean, and individual samples scatter around their leaf mean.  An
optional fraction of background samples comes from a diffuse Gaussian
covering the feature range.  Generation is a pure function of the parameters,
which `generate`'s signature alone declares, and the seed.  A file is decoded
once it passes the shipped `dataset` schema, which `jsonio.read` checks as it
decodes the features a row block at a time, from a window of the file's
text, into one float64 matrix; `validate` checks what no schema can.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from . import jsonio
from .errors import ContractError, ParameterError
from .heads import BACKGROUND

# the frequency buckets of an imbalanced dataset, most frequent first
BUCKETS = ("frequent", "common", "rare")


@dataclass
class ClassTree:
    """Depth-2 hierarchy: leaf classes grouped under supercategories."""

    supercategories: list[str]
    leaf_classes: list[str]
    parents: list[int]  # parent supercategory index per leaf

    def __post_init__(self):
        S, C = len(self.supercategories), len(self.leaf_classes)
        if S < 2:
            raise ParameterError("need at least 2 supercategories")
        if C < S:
            raise ParameterError("need at least as many leaf classes as supercategories")
        if len(self.parents) != C or any(not 0 <= p < S for p in self.parents):
            raise ParameterError("invalid parent assignment")


@dataclass
class SyntheticDataset:
    features: np.ndarray          # (N, n)
    labels: np.ndarray            # (N,) int, BACKGROUND for background rows
    train_idx: np.ndarray
    val_idx: np.ndarray
    tree: ClassTree
    seed: int
    params: dict = field(default_factory=dict)
    buckets: dict = field(default_factory=dict)   # class name -> frequent/common/rare
    unseen_classes: list[int] = field(default_factory=list)

    def __post_init__(self):
        self.validate()

    @property
    def num_classes(self) -> int:
        return len(self.tree.leaf_classes)

    @property
    def num_features(self) -> int:
        return self.features.shape[1]

    def validate(self) -> None:
        N = self.features.shape[0]
        if not np.all(np.isfinite(self.features)):
            raise ContractError("features contain non-finite entries")
        if self.features.ndim != 2 or self.num_features < 1 or self.labels.shape != (N,):
            raise ContractError("need an (N, n) feature matrix, n >= 1, with one label per row")
        if np.any((self.labels < BACKGROUND) | (self.labels >= self.num_classes)):
            raise ContractError(f"labels must lie in [{BACKGROUND}, {self.num_classes})")
        for idx in (self.train_idx, self.val_idx):
            if np.any((idx < 0) | (idx >= N)):
                raise ContractError(f"split indices must lie in [0, {N})")
        # how often each row is listed across both splits
        listed = np.bincount(np.concatenate([self.train_idx, self.val_idx]), minlength=N)
        if listed.max(initial=0) > 1:
            if np.intersect1d(self.train_idx, self.val_idx).size:
                raise ContractError("train/val split must be disjoint")
            raise ContractError(f"split indices must not repeat: row {int(listed.argmax())} "
                                f"is listed {int(listed.max())} times")
        if not self.val_idx.size:
            raise ContractError("the val split is empty: nothing to evaluate")
        # holdout/imbalance datasets deliberately drop train rows, and a
        # power-law profile keeps its rare classes below the usual 10-row floor
        power_law = "power_law_exponent" in self.params
        if power_law and not 0 < self.params["power_law_exponent"] < np.inf:
            raise ContractError("power_law_exponent must be finite and > 0")
        if not (self.unseen_classes or power_law or listed.all()):
            raise ContractError("train/val split must cover the dataset")
        if not all(0 <= u < self.num_classes for u in self.unseen_classes):   # scored by index
            raise ContractError(f"unseen_classes must be class indices in "
                                f"[0, {self.num_classes}), not {self.unseen_classes}")
        for name, bucket in self.buckets.items():
            if name not in self.tree.leaf_classes or bucket not in BUCKETS:
                raise ContractError(f"buckets must map leaf class names to one of "
                                    f"{', '.join(BUCKETS)}, not {name!r}: {bucket!r}")
        floor = 1 if power_law else 10
        counts = self.class_counts("train")
        active = [c for c in range(self.num_classes) if c not in self.unseen_classes]
        low = [c for c in active if counts[c] < floor]
        if low:
            raise ContractError(f"classes with fewer than {floor} train samples: {low}")

    def class_counts(self, split: str = "train") -> np.ndarray:
        idx = self.train_idx if split == "train" else self.val_idx
        lab = self.labels[idx]
        return np.bincount(lab[lab != BACKGROUND], minlength=self.num_classes)

    # -- serialization ------------------------------------------------------

    def save(self, path) -> None:
        jsonio.write(path, {
            "params": self.params,
            "tree": self.tree,
            "seed": self.seed,
            "features": self.features,
            "labels": self.labels,
            "splits": {"train": self.train_idx, "val": self.val_idx},
            "buckets": self.buckets,
            "unseen_classes": self.unseen_classes,
        })

    @classmethod
    def from_dict(cls, d: dict) -> "SyntheticDataset":
        """The dataset a `dataset` document holds, once it passes the schema."""
        jsonio.validate(d, "dataset")
        return cls._decode(d)

    @classmethod
    def _decode(cls, d: dict) -> "SyntheticDataset":
        """The dataset a checked `dataset` document holds."""
        return cls(
            features=np.asarray(d["features"], dtype=np.float64),
            labels=np.asarray(d["labels"], dtype=np.int64),
            train_idx=np.asarray(d["splits"]["train"], dtype=np.int64),
            val_idx=np.asarray(d["splits"]["val"], dtype=np.int64),
            tree=ClassTree(**d["tree"]),
            seed=d["seed"],
            params=d["params"],
            buckets=d.get("buckets", {}),
            unseen_classes=list(d.get("unseen_classes", [])),
        )

    @classmethod
    def load(cls, path) -> "SyntheticDataset":
        return jsonio.read(path, cls._decode, "dataset")


def generate(
    num_features: int = 16,
    num_super: int = 4,
    num_classes: int = 16,
    num_samples: int = 8000,
    sigma_super: float = 4.0,
    sigma_leaf: float = 1.0,
    sigma_x: float = 0.5,
    background_fraction: float = 0.2,
    train_fraction: float = 0.8,
    seed: int = 0,
) -> SyntheticDataset:
    """Deterministically generate a labeled hierarchical dataset.

    The one declaration of the generator's parameters: the `generate` flags
    take their defaults and types from it, and the dataset's `params` record
    its arguments but `seed`, a field of its own.
    """
    params = {k: v for k, v in locals().items() if k != "seed"}   # only arguments yet
    # zero feature columns reach SyntheticDataset.validate, which refuses them
    for name, value, low in (("num_features", num_features, 0), ("num_super", num_super, 2),
                             ("num_samples", num_samples, 1), ("seed", seed, 0)):
        if value < low:
            raise ParameterError(f"{name} must be >= {low}, not {value}")
    if num_classes < num_super:
        raise ParameterError("num_classes must be >= num_super")
    if not (0.0 <= background_fraction < 1.0):
        raise ParameterError("background_fraction must be in [0, 1)")
    if not (0.0 < train_fraction < 1.0):
        raise ParameterError("train_fraction must be in (0, 1)")
    if sigma_leaf < 0 or sigma_super <= 0 or sigma_x < 0:
        raise ParameterError("sigmas must be non-negative (sigma_super > 0)")

    rng = np.random.default_rng(seed)
    super_means = rng.normal(0.0, sigma_super, size=(num_super, num_features))
    parents = [c * num_super // num_classes for c in range(num_classes)]
    leaf_means = super_means[parents] + rng.normal(
        0.0, sigma_leaf, size=(num_classes, num_features)
    )

    n_bg = int(round(num_samples * background_fraction))
    n_fg = num_samples - n_bg
    base, extra = divmod(n_fg, num_classes)
    counts = [base + (1 if c < extra else 0) for c in range(num_classes)]

    feats, labels = [], []
    for c, cnt in enumerate(counts):
        feats.append(leaf_means[c] + rng.normal(0.0, sigma_x, size=(cnt, num_features)))
        labels.append(np.full(cnt, c, dtype=np.int64))
    if n_bg:
        feats.append(rng.normal(0.0, sigma_super, size=(n_bg, num_features)))
        labels.append(np.full(n_bg, BACKGROUND, dtype=np.int64))
    features = np.concatenate(feats)
    labels = np.concatenate(labels)

    # stratified split so every class keeps its share of train samples
    train_parts, val_parts = [], []
    for lab in list(range(num_classes)) + [BACKGROUND]:
        idx = np.nonzero(labels == lab)[0]
        if idx.size == 0:
            continue
        perm = rng.permutation(idx)
        cut = int(round(train_fraction * idx.size))
        train_parts.append(perm[:cut])
        val_parts.append(perm[cut:])
    train_idx = np.sort(np.concatenate(train_parts))
    val_idx = np.sort(np.concatenate(val_parts))

    tree = ClassTree(
        supercategories=[f"super_{s}" for s in range(num_super)],
        leaf_classes=[f"leaf_{c}" for c in range(num_classes)],
        parents=parents,
    )
    return SyntheticDataset(
        features=features,
        labels=labels,
        train_idx=train_idx,
        val_idx=val_idx,
        tree=tree,
        seed=seed,
        # background rows are drawn with sigma_super; the record names it too
        params={**params, "background_sigma": sigma_super},
    )


def imbalance_profile(dataset: SyntheticDataset, power_law_exponent: float) -> SyntheticDataset:
    """Subsample train classes to a discrete power-law frequency profile.

    Class ranked r (0-based, by class index) keeps round(n_max * (r+1)^-a)
    train samples.  Classes are bucketed into frequent/common/rare by
    frequency terciles of the resulting counts.
    """
    if not 0 < power_law_exponent < np.inf:
        raise ParameterError("power_law_exponent must be finite and > 0")
    counts = dataset.class_counts("train")
    n_max = counts.max()
    targets = [int(round(n_max * (r + 1) ** (-power_law_exponent)))
               for r in range(dataset.num_classes)]
    if any(t < 1 for t in targets):
        raise ParameterError("exponent subsamples a class below 1 sample")

    rng = np.random.default_rng(dataset.seed + 1)
    keep = []
    train_labels = dataset.labels[dataset.train_idx]
    for c in range(dataset.num_classes):
        idx = dataset.train_idx[train_labels == c]
        perm = rng.permutation(idx)
        keep.append(perm[: min(targets[c], idx.size)])
    keep.append(dataset.train_idx[train_labels == BACKGROUND])
    new_train = np.sort(np.concatenate(keep))

    new_counts = np.bincount(
        dataset.labels[new_train][dataset.labels[new_train] != BACKGROUND],
        minlength=dataset.num_classes,
    )
    order = np.argsort(-new_counts, kind="stable")
    C = dataset.num_classes
    # near-equal terciles so every bucket is populated for C >= 3
    sizes = [len(part) for part in np.array_split(np.arange(C), 3)]
    cut1, cut2 = sizes[0], sizes[0] + sizes[1]
    buckets = {}
    for pos, c in enumerate(order):
        name = dataset.tree.leaf_classes[int(c)]
        buckets[name] = "frequent" if pos < cut1 else ("common" if pos < cut2 else "rare")

    return dataclasses.replace(
        dataset, train_idx=new_train, buckets=buckets,
        params={**dataset.params, "power_law_exponent": power_law_exponent},
    )


def holdout_unseen(dataset: SyntheticDataset, unseen_classes) -> SyntheticDataset:
    """Remove the listed classes from the train split; the val split keeps them.

    Class entries may be indices or leaf names; the result's `unseen_classes`
    lists their indices and the dataset's own.  Where both are empty,
    `dataset` itself is returned.
    """
    resolved = []
    for u in unseen_classes:
        if isinstance(u, str):
            if u not in dataset.tree.leaf_classes:
                raise ParameterError(f"unknown class name {u!r}")
            resolved.append(dataset.tree.leaf_classes.index(u))
        else:
            if not (0 <= int(u) < dataset.num_classes):
                raise ParameterError(f"class index {u} out of range")
            resolved.append(int(u))
    resolved = sorted(set(resolved) | set(dataset.unseen_classes))
    if len(resolved) >= dataset.num_classes:
        raise ParameterError("cannot hold out every class")
    if not resolved:
        return dataset

    train_labels = dataset.labels[dataset.train_idx]
    keep = ~np.isin(train_labels, resolved)
    return dataclasses.replace(dataset, train_idx=dataset.train_idx[keep],
                               unseen_classes=resolved)
