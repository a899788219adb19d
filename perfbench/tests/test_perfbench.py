"""Tests of the benchmark itself: span arithmetic, attribute restoration,
metric names against BENCHMARK.json, and checks that catch broken outputs.

Run with:  python3 -m pytest perfbench/tests
"""

import io
import json
import re
import shutil
import subprocess
import sys
import types
from contextlib import redirect_stdout

import numpy as np
import pytest

import checks
import run
import spans
import workloads
from lorentzheads import geometry, heads, hubness

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def tiny_registry():
    """The three workloads at sizes that finish in seconds."""
    return {
        "train-hyperbolic": workloads.TrainWorkload(
            "train-hyperbolic", [heads.MODE_HYPERBOLIC], 0.5, num_samples=600),
        "train-euclidean": workloads.TrainWorkload(
            "train-euclidean", [heads.MODE_LINEAR, heads.MODE_COSINE], 0.5,
            num_samples=600),
        "zeroshot-analysis": workloads.ZeroShotWorkload(
            "zeroshot-analysis", 0.5, num_samples=1600, num_classes=16, num_super=4,
            num_unseen=2),
    }


def run_main(monkeypatch, tmp_path, *argv):
    monkeypatch.setattr(run, "OUT", tmp_path)
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run.main(list(argv), registry=tiny_registry())
    return code, json.loads(buf.getvalue().strip().splitlines()[-1])


# -- spans -------------------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    # root [0,10] > a [1,4], b [5,9] > c [6,7]
    start = [0.0, 1.0, 5.0, 6.0]
    end = [10.0, 4.0, 9.0, 7.0]
    parent = [-1, 0, 0, 2]
    np.testing.assert_allclose(spans.self_times(start, end, parent), [3.0, 3.0, 3.0, 1.0])


def test_tracer_aggregates_calls_and_self_time_per_run():
    mod = types.ModuleType("toy")

    def leaf():
        return 1

    def outer(n):
        return sum(mod.leaf() for _ in range(n))

    mod.leaf, mod.outer = leaf, outer
    tracer = spans.Tracer()
    with tracer.installed([(mod, "leaf", "toy.leaf", None), (mod, "outer", "toy.outer", None)]):
        tracer.run_id = 0
        assert mod.outer(3) == 3
        tracer.run_id = 1
        mod.outer(5)
    per_run = tracer.per_run()
    assert per_run[0]["toy.leaf"]["calls"] == 3 and per_run[1]["toy.leaf"]["calls"] == 5
    assert per_run[1]["toy.outer"]["calls"] == 1
    a = tracer.arrays()
    roots = a["parent"] == -1
    own = spans.self_times(a["start"], a["end"], a["parent"])
    # self times partition the root spans' wall time
    assert own.min() >= 0.0
    assert own.sum() == pytest.approx((a["end"] - a["start"])[roots].sum())


def test_wrappers_restored_even_when_traced_code_raises():
    mod = types.ModuleType("toy")

    def boom():
        raise ValueError("x")

    mod.boom = boom
    tracer = spans.Tracer()
    with pytest.raises(ValueError):
        with tracer.installed([(mod, "boom", "toy.boom", None)]):
            mod.boom()
    assert mod.boom is boom
    assert tracer.per_run()[0]["toy.boom"]["calls"] == 1


def test_wrappers_restored_after_traced_run(tmp_path):
    targets = workloads.trace_targets()
    before = [vars(owner)[attr] for owner, attr, _, _ in targets]
    ledger, values, _, tracer = run.measure(
        tiny_registry()["train-hyperbolic"], 3, 0.0, True, tmp_path)
    assert not ledger.failures
    assert values["optim.rsgd_calls_per_step"] == 16
    assert [vars(owner)[attr] for owner, attr, _, _ in targets] == before
    # classmethods come back as the very same descriptor, not a rewrap
    assert all(b is vars(o)[a] for b, (o, a, _, _) in zip(before, targets))
    assert len(tracer.start) > 0


# -- metric names ------------------------------------------------------------


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_printed_end_to_end_metrics_match_spec(monkeypatch, tmp_path, workload):
    code, result = run_main(monkeypatch, tmp_path, "--workload", workload, "--seed", "1",
                            "--seconds", "0", "--trace", "0")
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    spec = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_printed_per_layer_metrics_match_spec(monkeypatch, tmp_path):
    code, result = run_main(monkeypatch, tmp_path, "--workload", "zeroshot-analysis",
                            "--seed", "1", "--seconds", "0", "--trace", "1")
    assert code == 0 and result["correct"]
    spec = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["optim.riemannian_step.calls"] == 0
    assert metrics["hubness.k_occurrence.calls"] > 0
    assert (tmp_path / "zeroshot-analysis-spans.npz").is_file()


def test_spec_matches_benchmark_code():
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    for w in SPEC["workloads"]:
        floor = float(re.search(r"val_accuracy floor ([0-9.]+)", w["why"]).group(1))
        assert floor == workloads.WORKLOADS[w["name"]].accuracy_floor
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_bare_directory_exits_nonzero_without_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train-hyperbolic", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# -- checks catch broken outputs ---------------------------------------------


def test_on_manifold_flags_a_drifted_prototype():
    P = geometry.batch_exp_map_origin(np.random.default_rng(0).normal(size=(5, 4)))
    assert checks.on_manifold(P) is None
    P[2, 1] += 1e-3
    assert "off the hyperboloid" in checks.on_manifold(P)
    P[2] = -P[2]
    assert "upper sheet" in checks.on_manifold(P)


def test_k_occurrence_checks_flag_tampered_counts():
    pts = geometry.batch_exp_map_origin(np.random.default_rng(1).normal(size=(40, 3)))
    D = hubness.pairwise_distances(pts, hubness.KIND_HYPERBOLIC)
    counts = hubness.k_occurrence(D, 4).counts
    assert checks.k_occurrence_total(counts, 4) is None
    assert checks.k_occurrence_matches_oracle(D, 4, counts) is None
    moved = counts.copy()
    moved[0] += 1
    moved[1] -= 1
    assert checks.k_occurrence_total(moved, 4) is None        # the sum alone misses it
    assert checks.k_occurrence_matches_oracle(D, 4, moved) is not None
    assert checks.k_occurrence_total(counts + 1, 4) is not None


def test_value_checks_flag_bad_values():
    assert checks.same_bytes(b"ab", b"ab", "x") is None
    assert checks.same_bytes(b"ab", b"ac", "x") is not None
    assert checks.same_loss_history([1.0, 0.5], [1.0, 0.5]) is None
    assert checks.same_loss_history([1.0, 0.5], [1.0, 0.5000001]) is not None
    assert checks.at_least(0.8, 0.9, "acc") is not None
    assert checks.at_least(float("nan"), 0.9, "acc") is not None
    assert checks.positive(0.0, "hm") is not None


def test_broken_package_output_fails_the_run(monkeypatch, tmp_path):
    real = hubness.k_occurrence

    def off_by_one(dist, k):
        out = real(dist, k)
        out.counts[0] += 1
        return out

    monkeypatch.setattr(hubness, "k_occurrence", off_by_one)
    code, result = run_main(monkeypatch, tmp_path, "--workload", "zeroshot-analysis",
                            "--seed", "1", "--seconds", "0", "--trace", "0")
    assert code == 1
    assert result["correct"] is False and result["failed"] >= 1
