"""Correctness checks on the benchmark's outputs.

Each check returns None when the output is correct and a one-line message
when it is not.  The checks reimplement what they verify with plain numpy
or Python instead of calling the package, so a defect in the package cannot
hide itself.
"""

from __future__ import annotations

import numpy as np

# Same slack as the package's own manifold assertion: the constraint
# residual of a far point grows like x0^2 * machine epsilon.
MANIFOLD_ATOL = 1e-6


def on_manifold(points) -> str | None:
    """Every row satisfies <x,x>_l = -1 on the upper sheet."""
    P = np.asarray(points, dtype=np.float64)
    if not np.all(np.isfinite(P)):
        return "prototypes contain non-finite entries"
    x0 = P[:, 0]
    if np.any(x0 <= 0.0):
        return f"{int(np.sum(x0 <= 0.0))} prototypes are not on the upper sheet"
    residual = np.abs(-x0 * x0 + np.sum(P[:, 1:] ** 2, axis=1) + 1.0)
    bad = residual > MANIFOLD_ATOL * np.maximum(1.0, x0 * x0)
    if np.any(bad):
        return (f"{int(bad.sum())} prototypes are off the hyperboloid "
                f"(max residual {residual.max():.3e})")
    return None


def same_bytes(expected: bytes, actual: bytes, what: str) -> str | None:
    if expected != actual:
        return f"{what} changed ({len(expected)} -> {len(actual)} bytes)"
    return None


def same_loss_history(expected, actual) -> str | None:
    """Two trainings with one seed must agree bit for bit."""
    if list(expected) != list(actual):
        return "same-seed trainings produced different loss histories"
    return None


def at_least(value: float, floor: float, what: str) -> str | None:
    if not value >= floor:
        return f"{what} {value} is below its floor {floor}"
    return None


def positive(value: float, what: str) -> str | None:
    if not value > 0.0:
        return f"{what} is {value}, expected > 0"
    return None


def k_occurrence_total(counts, k: int) -> str | None:
    """Each of the N points sends exactly k edges, so counts sum to N*k."""
    counts = np.asarray(counts)
    if int(counts.sum()) != counts.size * k:
        return f"k-occurrence counts sum to {int(counts.sum())}, expected {counts.size * k}"
    return None


def brute_force_k_occurrence(dist, k: int) -> list[int]:
    """In-degree of the directed k-NN graph by sorting each row in Python;
    ties break toward the lower index."""
    n = len(dist)
    counts = [0] * n
    for i in range(n):
        others = sorted((float(dist[i][j]), j) for j in range(n) if j != i)
        for _, j in others[:k]:
            counts[j] += 1
    return counts


def k_occurrence_matches_oracle(dist, k: int, counts) -> str | None:
    expected = brute_force_k_occurrence(dist, k)
    actual = [int(c) for c in counts]
    if actual != expected:
        wrong = sum(a != e for a, e in zip(actual, expected))
        return (f"k-occurrence differs from the brute-force oracle at {wrong} "
                f"of {len(expected)} points")
    return None
