"""Timed samples scaled to a reference host speed.

On a shared host, load from other tenants slows a single-threaded run by up
to ~1.8x for tens of seconds at a time.  A whole run can fall inside one
such phase, and then no statistic over its raw samples recovers the
unloaded speed.  So every timed operation is preceded by a fixed reference
computation of the same kind of work and independent of the package under
test: a small training step for compute, a JSON round-trip for file work.
The sample is scaled by the slowdown that reference showed around it (its
time over its time on the reference host, an unloaded 2.1 GHz Xeon core,
averaged over a run just before and one just after): a rate is multiplied
by the slowdown, a duration divided by it.
Scaled values read as the value on the reference host.  Raw values and
slowdowns are kept next to them.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time

import numpy as np

_rng = np.random.default_rng(0)
_X = _rng.normal(size=(64, 16))
_W1 = _rng.normal(size=(16, 64)) * 0.1
_W2 = _rng.normal(size=(64, 16)) * 0.1


def reference_step_s() -> float:
    """Wall time of 100 fixed steps of a small two-layer perceptron with a
    focal-style loss and an Adam-style update, on 64x16 inputs."""
    t0 = time.perf_counter()
    W1, W2 = _W1.copy(), _W2.copy()
    m1, v1, m2, v2 = (np.zeros_like(W) for W in (W1, W1, W2, W2))
    for _ in range(100):
        pre = _X @ W1
        H = np.maximum(pre, 0.0)
        E = H @ W2
        q = 0.5 * (1.0 + np.tanh(0.5 * E))
        G = (q - 0.5) / 64.0 - 1e-3 * np.logaddexp(0.0, -E) * (1.0 - q) ** 2
        g2 = H.T @ G
        g1 = _X.T @ ((G @ W2.T) * (pre > 0.0))
        for P, g, m, v in ((W1, g1, m1, v1), (W2, g2, m2, v2)):
            m[...] = 0.9 * m + 0.1 * g
            v[...] = 0.999 * v + 0.001 * g * g
            P -= 1e-3 * m / (np.sqrt(v) + 1e-8)
    return time.perf_counter() - t0


_DOC = {"rows": _rng.normal(size=(150, 16)).tolist(), "ids": list(range(2000))}


def reference_json_s() -> float:
    """Wall time of 3 fixed JSON round-trips of ~60 kB of floats and ints,
    the work that dominates checkpoint and dataset files."""
    t0 = time.perf_counter()
    for _ in range(3):
        json.loads(json.dumps(_DOC, sort_keys=True))
    return time.perf_counter() - t0


# Each reference with its time on the reference host.
REFERENCES = {"compute": (reference_step_s, 0.0085), "json": (reference_json_s, 0.008)}


class Samples:
    """Per-metric samples, each with the slowdown measured around it: the
    reference's time over its time on the reference host, averaged over a
    run of the reference just before and just after the timed block (None
    for values that are not timings)."""

    def __init__(self):
        self.raw: dict[str, list[float]] = {}
        self.slowdown: dict[str, list] = {}
        self._pending: list | None = None

    @contextlib.contextmanager
    def calibrated(self, kind: str = "compute"):
        """Time a block of operations; every sample added inside it gets the
        block's slowdown."""
        reference, nominal = REFERENCES[kind]
        before = reference()
        self._pending = []
        try:
            yield
            after = reference()
            for name, value in self._pending:
                self._append(name, value, 0.5 * (before + after) / nominal)
        finally:
            self._pending = None

    def add(self, name: str, value: float) -> None:
        """Add a timing; only inside `calibrated`."""
        self._pending.append((name, value))

    def add_untimed(self, name: str, value: float) -> None:
        self._append(name, value, None)

    def _append(self, name, value, slowdown) -> None:
        self.raw.setdefault(name, []).append(value)
        self.slowdown.setdefault(name, []).append(slowdown)

    def scaled(self, name: str, rate: bool) -> list[float]:
        return [v * s if rate else v / s
                for v, s in zip(self.raw[name], self.slowdown[name])]

    def count(self, name: str) -> int:
        return len(self.raw.get(name, ()))


def summarize(values, rate: bool) -> dict:
    """Median, the highest listed percentile with at least ten samples
    beyond it on the slow side, and the sample count."""
    values = sorted(values)
    out = {"median": statistics.median(values), "n": len(values)}
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0):
        if len(values) * (1.0 - pct / 100.0) >= 10:
            cuts = statistics.quantiles(values, n=1000, method="inclusive")
            slow = 100.0 - pct if rate else pct     # a slow rate is a low one
            out[f"p{slow:g}"] = cuts[int(round(slow * 10)) - 1]
            break
    return out
