"""lorentzheads benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Builds the workload's inputs from
the seed, warms up, then repeats the workload for S seconds and checks every
output.  With --trace 0 it reports the end-to-end metrics of untraced runs;
with --trace 1 it alternates untraced and traced passes and reports the
per-layer metrics of the traced ones.  The last line of standard output is
one JSON object {"correct", "attempted", "failed", "metrics"}; a timing's
value is the median of its samples scaled to a reference host speed (see
samples.py).  The lines before it give, scaled and raw, each metric's
median, a slow-side percentile where there are enough samples, and the
sample count, plus the environment.  Per-run records and traced spans go
to .perfbench/ in the checkout.  Exits 1 when any check fails and 2 when
the checkout has no package source.
"""

from __future__ import annotations

import os

# BLAS and OpenMP size their thread pools when numpy loads; one thread keeps
# timings comparable across runs on a shared two-core box.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"

# Setups per untraced run: one before the warm-up, the rest spread over the
# measured window.
SETUP_REPEATS = 10

END_TO_END = {
    "setup_s": "s",
    "train_samples_per_s": "samples/s",
    "eval_rows_per_s": "rows/s",
    "checkpoint_roundtrip_ms": "ms",
    "val_accuracy": "fraction",
    "peak_rss_mb": "MB",
}
# Timed metrics: True for a rate (higher is better), False for a duration.
# Each run reports the median of the samples scaled to the reference host
# speed (see samples.py).
TIMED = {
    "setup_s": False,
    "train_samples_per_s": True,
    "eval_rows_per_s": True,
    "checkpoint_roundtrip_ms": False,
    "hubness_s": False,
}
# Reported on the zero-shot workload only, so they are printed for reading
# but are not part of the per-workload metric set.
WORKLOAD_ONLY = {"hubness_s": "s", "harmonic_mean": "fraction"}

_SPANS = {
    "optim.riemannian_step": ("calls", "self_s"),
    "geometry.lorentz_inner": ("calls", "self_s"),
    "geometry.exp_map_at": ("calls", "self_s"),
    "geometry.tangent_project": ("calls", "self_s"),
    "geometry.project_to_manifold": ("calls", "self_s"),
    "geometry.batch_exp_map_origin": ("self_s",),
    "geometry.batch_minkowski_inner": ("self_s",),
    "geometry.grad_exp_map_origin": ("self_s",),
    "geometry.batch_distance": ("self_s",),
    "heads.hyperbolic_loss_and_grads": ("calls", "self_s"),
    "heads.euclidean_loss_and_grads": ("calls", "self_s"),
    "heads.batch_focal_loss": ("self_s",),
    "optim.euclidean_step": ("calls", "self_s"),
    "training.Encoder.forward": ("self_s",),
    "training.Encoder.backward": ("self_s",),
    "training.train": ("self_s",),
    "heads.batch_bank_logits": ("self_s",),
    "training.evaluate": ("self_s",),
    "training.save_checkpoint": ("self_s", "bytes"),
    "training.load_checkpoint": ("self_s",),
    "hubness.pairwise_distances": ("calls", "self_s"),
    "hubness.k_occurrence": ("calls", "self_s"),
    "hubness.distance_histogram": ("calls", "self_s"),
    "geometry.assert_on_manifold": ("calls",),
    "data.generate": ("self_s",),
    "data.SyntheticDataset.save": ("self_s",),
    "data.SyntheticDataset.load": ("self_s",),
    "manifest.sha256_file": ("calls", "bytes", "self_s"),
    "cli.main": ("self_s",),
}
_FIELD_UNITS = {"calls": "count", "self_s": "s", "bytes": "B"}
PER_LAYER = {
    **{f"{span}.{f}": _FIELD_UNITS[f] for span, fields in _SPANS.items() for f in fields},
    "optim.rsgd_calls_per_step": "calls/step",
    "training.steps": "count",
    "trace.overhead_s": "s",
}


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):      # numpy < 1.26 has no dict mode
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
    }


def layer_metrics(stats: dict) -> dict:
    """Per-layer values of one traced pass from its per-span aggregates."""
    def get(span, f):
        return stats.get(span, {}).get(f, 0)

    out = {name: get(*name.rsplit(".", 1)) for name in PER_LAYER
           if name.rsplit(".", 1)[0] in _SPANS}
    steps = get("heads.hyperbolic_loss_and_grads", "calls") + get(
        "heads.euclidean_loss_and_grads", "calls")
    out["training.steps"] = steps
    out["optim.rsgd_calls_per_step"] = (
        get("optim.riemannian_step", "calls") / steps if steps else 0.0)
    return out


def timed_setup(workload, seed: int, workdir: Path, ledger, samples):
    n = samples.count("setup_s")
    with samples.calibrated("json"), ledger.operation("setup"):
        t0 = time.perf_counter()
        inputs = workload.setup(seed, str(workdir / f"setup-{n}"))
        samples.add("setup_s", time.perf_counter() - t0)
    return inputs


def measure(workload, seed: int, seconds: float, trace: bool, workdir: Path):
    """Run one workload; returns (ledger, end-to-end or per-layer values,
    samples, tracer or None)."""
    import spans
    import workloads
    from samples import Samples

    ledger = workloads.Ledger()
    samples = Samples()
    tracer = spans.Tracer() if trace else None
    values: dict = {}
    try:
        inputs = timed_setup(workload, seed, workdir, ledger, samples)
        refs = workload.warm_up(inputs, ledger, samples)
        start = time.perf_counter()
        if not trace:
            while True:
                workload.rep(inputs, refs, ledger, samples)
                elapsed = time.perf_counter() - start
                # spread the remaining setups evenly over the measured window
                share = min(elapsed / seconds, 1.0) if seconds > 0 else 1.0
                while samples.count("setup_s") < 1 + round(share * (SETUP_REPEATS - 1)):
                    timed_setup(workload, seed, workdir, ledger, samples)
                if elapsed >= seconds:
                    break
            values = {name: statistics.median(samples.scaled(name, TIMED[name]))
                      for name in END_TO_END if name in TIMED}
            values["val_accuracy"] = statistics.median(samples.raw["val_accuracy"])
            values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        else:
            # A pass is setup + one repetition; untraced and traced passes
            # alternate so machine drift hits both alike.
            walls = Samples()
            targets = workloads.trace_targets()
            n = 0
            while True:
                for traced in (False, True):
                    tracer.run_id = n
                    with walls.calibrated(), (
                            tracer.installed(targets) if traced else contextlib.nullcontext()):
                        t0 = time.perf_counter()
                        pass_inputs = workload.setup(seed, str(workdir / f"pass-{n}-{int(traced)}"))
                        workload.rep(pass_inputs, refs, ledger, Samples() if traced else samples)
                        walls.add(f"traced={traced}", time.perf_counter() - t0)
                n += 1
                if time.perf_counter() - start >= seconds:
                    break
            per_pass = [layer_metrics(s) for s in tracer.per_run().values()]
            values = {name: statistics.median(p[name] for p in per_pass)
                      for name in PER_LAYER if name != "trace.overhead_s"}
            # adjacent passes share most of the host's load, so pair them
            values["trace.overhead_s"] = statistics.median(
                t - u for t, u in zip(walls.scaled("traced=True", rate=False),
                                      walls.scaled("traced=False", rate=False)))
    except Exception:
        traceback.print_exc()
        if not ledger.failures:
            ledger.failures.append("benchmark raised outside any operation")
    return ledger, values, samples, tracer


def parse_args(argv, names):
    p = argparse.ArgumentParser(description="lorentzheads benchmark")
    p.add_argument("--workload", required=True, choices=sorted(names))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None, registry=None) -> int:
    src = ROOT / "src"
    if not (src / "lorentzheads" / "__init__.py").is_file():
        print(f"error: no package source at {src}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    if registry is None:
        from workloads import WORKLOADS as registry
    args = parse_args(argv, registry)
    trace = bool(args.trace)
    units = PER_LAYER if trace else END_TO_END

    workdir = OUT / f"work-{os.getpid()}"
    try:
        ledger, values, samples, tracer = measure(
            registry[args.workload], args.seed, args.seconds, trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    from samples import summarize

    env = environment()
    summaries = {}
    for name, raw in samples.raw.items():
        if name in TIMED:
            summaries[name] = {"scaled": summarize(samples.scaled(name, TIMED[name]), TIMED[name]),
                               "raw": summarize(raw, TIMED[name]),
                               "slowdown": statistics.median(samples.slowdown[name])}
        else:
            summaries[name] = {"raw": summarize(raw, False)}
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    print(f"# {tag} seconds={args.seconds:g}")
    print("# env " + json.dumps(env, sort_keys=True))
    for name, kinds in summaries.items():
        unit = END_TO_END.get(name) or WORKLOAD_ONLY.get(name, "")
        line = " | ".join(
            f"{kind} " + " ".join(f"{k}={v:.6g}" for k, v in s.items()) if isinstance(s, dict)
            else f"{kind}={s:.3g}" for kind, s in kinds.items())
        print(f"# {name} [{unit}]: {line}")
    print(f"# error_rate: {ledger.failed}/{ledger.attempted}")
    for failure in ledger.failures:
        print(f"# FAILED {failure}")

    OUT.mkdir(exist_ok=True)
    record = {"env": env, "summaries": summaries, "metrics": values,
              "samples": {"raw": samples.raw, "slowdown": samples.slowdown},
              "attempted": ledger.attempted, "failures": ledger.failures}
    with open(OUT / f"{tag}.json", "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    if tracer is not None:
        tracer.save(OUT / f"{args.workload}-spans.npz")

    correct = not ledger.failures
    print(json.dumps({
        "correct": correct,
        "attempted": max(ledger.attempted, 1),
        "failed": ledger.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units if name in values},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
