"""Command-line surface.

Subcommands: generate, train, eval, zeroshot, hubness, import-prototypes.
The `generate` flags are `data.generate`'s keywords under the spellings of
GENERATE_FLAGS, with the defaults and types of its signature.
Every command but eval writes a manifest (resolved config, input/output
digests, seed, timestamps) into its output directory.  Each reads every
input before the manifest creates that directory, so a run refused for a
missing, unreadable or malformed input, a bad flag, or a run state that
cannot train on its dataset, writes nothing.
Exit codes: 0 ok, 2 config/input error (an unreadable path included),
3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import json
import math
import os
import sys

import numpy as np

from . import data, heads, hubness, jsonio, training
from .errors import ContractError, NumericalError, ParameterError
from .manifest import RunManifest

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


# data.generate keyword -> its `generate` flag; the default and type of each
# flag are the keyword's, read from the signature
GENERATE_FLAGS = {
    "num_features": "--n-features", "num_super": "--super", "num_classes": "--classes",
    "num_samples": "--samples", "sigma_super": "--sigma-super", "sigma_leaf": "--sigma-leaf",
    "sigma_x": "--sigma-x", "background_fraction": "--background-fraction",
    "train_fraction": "--train-fraction", "seed": "--seed",
}


def cmd_generate(args) -> int:
    params = {name: getattr(args, name) for name in GENERATE_FLAGS}
    unseen = [u for u in (args.unseen or "").split(",") if u]
    ds = data.generate(**params)
    if args.imbalance_exponent is not None:
        ds = data.imbalance_profile(ds, args.imbalance_exponent)
    ds = data.holdout_unseen(ds, unseen)
    manifest = RunManifest(
        os.path.dirname(os.path.abspath(args.out)), command="generate",
        config={**params, "unseen": unseen, "imbalance_exponent": args.imbalance_exponent},
        seed=args.seed,
    )
    ds.save(args.out)
    manifest.finalize([args.out])

    counts = ds.class_counts("train")
    print(f"wrote {args.out}: {ds.features.shape[0]} samples, {ds.num_classes} classes")
    for c, name in enumerate(ds.tree.leaf_classes):
        bucket = ds.buckets.get(name, "-")
        flag = " (unseen)" if c in ds.unseen_classes else ""
        print(f"  {name}: train={counts[c]} bucket={bucket}{flag}")
    n_bg = int(np.sum(ds.labels == heads.BACKGROUND))
    print(f"  background: {n_bg}")
    return EXIT_OK


def _train_run(args, state, ds, input_paths):
    """Train `state` on `ds` into `args.out`, making the manifest once `prepare` passes."""
    training.prepare(state, ds)
    manifest = RunManifest(args.out, command=args.cmd, config=state.config.to_dict(),
                           seed=state.config.seed, input_paths=input_paths)
    _, _, report, ckpts = training.train(state.config, ds, args.out, state=state)
    manifest.finalize(list(ckpts) + [os.path.join(args.out, "metrics.json"),
                                     os.path.join(args.out, "metrics.csv")])
    return report


def cmd_train(args) -> int:
    if args.head and args.resume:
        raise ParameterError("--head cannot be combined with --resume: "
                             "a resumed run keeps the checkpoint's head")
    # a resumed run continues under the checkpoint's config
    state = training.load_checkpoint(args.resume) if args.resume else None
    config = state.config if state else training.ExperimentConfig.load(args.config)
    if args.head:   # replace() runs the config's checks again
        config = dataclasses.replace(config, head_mode=args.head)
    ds = data.SyntheticDataset.load(args.dataset)
    report = _train_run(args, state or training.start(config, ds), ds,
                        [args.resume or args.config, args.dataset])
    print(f"final train loss {report.train_loss[-1]:.6f}")
    print(f"val accuracy {report.val_accuracy:.4f}  "
          f"supercategory accuracy {report.supercategory_accuracy:.4f}")
    return EXIT_OK


def cmd_eval(args) -> int:
    state = training.load_checkpoint(args.checkpoint)
    # score the split the run saw: its unseen classes out of train, as in training
    ds = data.holdout_unseen(data.SyntheticDataset.load(args.dataset),
                             state.config.unseen_classes)
    training.check_fit(state, ds)
    report = training.evaluate_split(state.bank, state.encoder, ds, args.split,
                                     tau=state.config.cosine_tau)
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        report.save(args.out)
    print(json.dumps({k: v for k, v in vars(report).items() if k != "per_class"},
                     sort_keys=True))
    return EXIT_OK


def cmd_zeroshot(args) -> int:
    config = training.ExperimentConfig.load(args.config)
    ds = data.SyntheticDataset.load(args.dataset)
    bank = heads.PrototypeBank.load(args.prototypes)
    if not config.unseen_classes and ds.unseen_classes:
        config = dataclasses.replace(config, unseen_classes=list(ds.unseen_classes))
    report = _train_run(args, training.start(config, ds, bank), ds,
                        [args.config, args.dataset, args.prototypes])
    print(f"seen accuracy {report.seen_accuracy}  unseen accuracy {report.unseen_accuracy}  "
          f"HM {report.harmonic_mean}")
    return EXIT_OK


def cmd_hubness(args) -> int:
    reports = [hubness.hubness_report(training.load_checkpoint(ckpt).bank, k=args.k)
               for ckpt in args.checkpoints]
    manifest = RunManifest(
        args.out, command="hubness", config={"k": args.k, "checkpoints": args.checkpoints},
        seed=None, input_paths=args.checkpoints,
    )
    outputs = []
    # the argument position keeps two same-named checkpoints of one kind apart
    for i, (ckpt, report) in enumerate(zip(args.checkpoints, reports)):
        stem = os.path.splitext(os.path.basename(ckpt))[0]
        path = os.path.join(args.out, f"hubness_{i}_{stem}_{report.kind}.json")
        report.save(path)
        outputs += [path, jsonio.csv_path(path)]
    manifest.finalize(outputs)
    print(f"{'checkpoint':<40} {'distance':<12} k_skewness")
    for ckpt, report in zip(args.checkpoints, reports):
        print(f"{ckpt:<40} {report.kind:<12} {report.k_occurrence.skewness:+.4f}")
    return EXIT_OK


def _parse_embedding_file(path):
    names, rows, seen = [], [], set()   # the set keeps the duplicate check O(1)
    # a byte that is not UTF-8 decodes to a lone surrogate, which no UTF-8 line holds
    with open(path, encoding="utf-8", errors="surrogateescape") as f:
        for lineno, line in enumerate(f, 1):
            try:
                line.encode("utf-8")
            except UnicodeEncodeError:
                raise ParameterError(f"{path}: not UTF-8 text at line {lineno}") from None
            parts = line.split()
            if not parts:
                continue
            name, vals = parts[0], parts[1:]
            if name in seen:
                raise ParameterError(f"{path}: duplicate class name {name!r} (line {lineno})")
            if rows and len(vals) != len(rows[0]):
                raise ParameterError(f"{path}: ragged row at line {lineno}")
            if not vals:
                raise ParameterError(f"{path}: empty vector at line {lineno}")
            try:
                row = [float(v) for v in vals]
            except ValueError as e:
                raise ParameterError(f"{path}: bad number at line {lineno}: {e}") from None
            if not all(map(math.isfinite, row)):   # float() reads nan, inf and 1e400
                bad = next(v for v, x in zip(vals, row) if not math.isfinite(x))
                raise ParameterError(f"{path}: non-finite number {bad!r} at line {lineno}")
            rows.append(row)
            names.append(name)
            seen.add(name)
    if len(names) < 2:
        raise ParameterError(f"{path}: need at least 2 classes")
    return names, np.asarray(rows, dtype=np.float64)


def cmd_import_prototypes(args) -> int:
    names, vectors = _parse_embedding_file(args.embeddings)
    head = heads.HEADS[args.mode]
    if args.already_hyperbolic and not head.exp0:
        raise ParameterError("--already-hyperbolic only applies to hyperbolic mode")
    if args.delta is not None and not head.shifted:
        raise ParameterError(f"--delta is read only by a head whose logits shift distances, "
                             f"not by {args.mode}")
    delta = heads.DEFAULT_DELTA if args.delta is None else args.delta
    protos = vectors
    if head.exp0 and not args.already_hyperbolic:
        with np.errstate(over="ignore", invalid="ignore"):   # refused below, not warned about
            protos = head.rows(vectors)
            far = ~np.isfinite(protos[:, 0] ** 2)   # the hyperboloid check squares x0
        if far.any():
            raise ParameterError(f"{args.embeddings}: class {names[far.argmax()]!r} is too far "
                                 f"out: its row's x0 = cosh(norm), squared, overflows")
    bank = heads.PrototypeBank(args.mode, protos, names, delta=delta, frozen=True)
    manifest = RunManifest(
        os.path.dirname(os.path.abspath(args.out)), command="import-prototypes",
        config={"embeddings": args.embeddings, "mode": args.mode, "delta": delta,
                "already_hyperbolic": args.already_hyperbolic},
        seed=None, input_paths=[args.embeddings],
    )
    bank.save(args.out)
    manifest.finalize([args.out])
    d_min = f", d_min={bank.d_min:.6f}" if head.shifted else ""
    print(f"wrote {args.out}: {bank.num_classes} classes{d_min}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="lorentzheads",
        description="Hyperbolic classification-head experiments on synthetic hierarchical data",
    )
    sub = p.add_subparsers(dest="cmd", required=True)

    g = sub.add_parser("generate", help="generate a synthetic hierarchical dataset")
    g.add_argument("--out", required=True)
    for name, param in inspect.signature(data.generate).parameters.items():
        g.add_argument(GENERATE_FLAGS[name], dest=name, type=type(param.default),
                       default=param.default, help="default %(default)s")
    g.add_argument("--unseen", help="comma-separated leaf names held out of the train split")
    g.add_argument("--imbalance-exponent", type=float)
    g.set_defaults(func=cmd_generate)

    t = sub.add_parser("train", help="train a classification head")
    source = t.add_mutually_exclusive_group(required=True)
    source.add_argument("--config")
    source.add_argument("--resume", help="checkpoint to continue from, under its own config")
    t.add_argument("--dataset", required=True)
    t.add_argument("--out", required=True)
    t.add_argument("--head", choices=heads.MODES)
    t.set_defaults(func=cmd_train)

    e = sub.add_parser("eval", help="evaluate a checkpoint on a dataset split")
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--dataset", required=True)
    e.add_argument("--split", choices=["train", "val"], default="val")
    e.add_argument("--out")
    e.set_defaults(func=cmd_eval)

    z = sub.add_parser("zeroshot", help="train against frozen prototypes and report seen/unseen")
    z.add_argument("--config", required=True)
    z.add_argument("--dataset", required=True)
    z.add_argument("--prototypes", required=True)
    z.add_argument("--out", required=True)
    z.set_defaults(func=cmd_zeroshot)

    h = sub.add_parser("hubness", help="pairwise-distance histogram and k-occurrence skewness")
    h.add_argument("checkpoints", nargs="+")
    h.add_argument("--k", type=int, default=hubness.DEFAULT_K)
    h.add_argument("--out", required=True)
    h.set_defaults(func=cmd_hubness)

    i = sub.add_parser("import-prototypes", help="build a frozen bank from semantic embeddings")
    i.add_argument("--embeddings", required=True,
                   help="text file, one line per class: name v1 v2 ... vn")
    i.add_argument("--mode", choices=heads.MODES, default=heads.MODE_HYPERBOLIC)
    i.add_argument("--delta", type=float, help=f"default {heads.DEFAULT_DELTA}")
    i.add_argument("--already-hyperbolic", action="store_true",
                   help="embedding rows are (n+1)-coordinate hyperboloid points")
    i.add_argument("--out", required=True)
    i.set_defaults(func=cmd_import_prototypes)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParameterError, ContractError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
