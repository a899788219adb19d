"""Hubness diagnostics for prototype sets.

Hubness is the tendency of some points to appear among the k nearest
neighbors of disproportionately many others.  It is quantified by the
Fisher-Pearson sample skewness of the k-occurrence distribution N_k(i)
(the in-degree of point i in the directed k-NN graph).  Reports pair a
pairwise-distance histogram with the k-occurrence statistics, for either
geodesic (hyperboloid) or cosine distances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geometry, jsonio
from .errors import ContractError, ParameterError
from .heads import MODE_HYPERBOLIC, PrototypeBank, unit_rows

KIND_HYPERBOLIC = "hyperbolic"
KIND_COSINE = "cosine"

DEFAULT_K = 5
DEFAULT_BINS = 20


def sample_skewness(values) -> float:
    """Fisher-Pearson sample skewness m3 / m2^(3/2); 0 for zero variance."""
    v = np.asarray(values, dtype=np.float64)
    m = v.mean()
    m2 = np.mean((v - m) ** 2)
    if m2 == 0.0:
        return 0.0
    m3 = np.mean((v - m) ** 3)
    return float(m3 / m2**1.5)


def pairwise_distances(points, kind: str) -> np.ndarray:
    """Symmetric all-pairs distance matrix with zero diagonal:
    geometry.batch_distance(P, P) for hyperbolic points, 1 - U U^T of the
    unit rows U for cosine.  Both products take numpy's A A^T path, which
    computes one triangle and mirrors it, and every later step is
    elementwise, so the matrix is symmetric bit for bit."""
    P = np.asarray(points, dtype=np.float64)
    if P.ndim != 2 or P.shape[0] < 2:
        raise ParameterError("need at least 2 points")
    if kind == KIND_HYPERBOLIC:
        geometry.assert_on_manifold(P)
        D = geometry.batch_distance(P, P)
    elif kind == KIND_COSINE:
        U, _ = unit_rows(P)
        D = U @ U.T
        np.subtract(1.0, D, out=D)
    else:
        raise ContractError(f"unknown distance kind {kind!r}")
    np.fill_diagonal(D, 0.0)
    return D


@dataclass
class KOccurrence:
    k: int
    counts: np.ndarray
    skewness: float


@dataclass
class DistanceHistogram:
    kind: str
    edges: np.ndarray
    counts: np.ndarray


def k_occurrence(dist: np.ndarray, k: int) -> KOccurrence:
    """In-degree counts of the directed k-NN graph and their skewness.

    Each point emits edges to its k nearest others; ties break toward the
    lower point index.  Rows are ranked a block at a time, without a copy
    of `dist`; a NaN distance raises ParameterError.
    """
    D = np.asarray(dist, dtype=np.float64)
    N = D.shape[0]
    if k < 1:
        raise ParameterError("k must be >= 1")
    if k >= N:
        raise ParameterError(f"k={k} must be < number of points {N}")
    counts = np.zeros(N, dtype=np.intp)
    blocks = geometry._row_blocks(N, N)
    buffers = np.empty((2, blocks[0][1], N))
    for s, e in blocks:
        rows, part = buffers[:, :e - s]
        rows[...] = D[s:e]
        rows[np.arange(e - s), np.arange(s, e)] = np.inf
        if np.isnan(rows).any():
            raise ParameterError("distances contain NaN, which has no rank")
        part[...] = rows
        part.partition(k - 1, axis=1)
        kth = part[:, [k - 1]]
        near = rows <= kth
        # a row with more ties at its k-th value than places keeps the
        # entries below it and the first ties in index order, as a stable
        # sort does
        over = np.flatnonzero(np.count_nonzero(near, axis=1) > k)
        below, tied = rows[over] < kth[over], rows[over] == kth[over]
        room = k - np.count_nonzero(below, axis=1, keepdims=True)
        near[over] = below | (tied & (np.cumsum(tied, axis=1) <= room))
        counts += np.count_nonzero(near, axis=0)
    return KOccurrence(k=k, counts=counts, skewness=sample_skewness(counts))


def _upper_triangle(D: np.ndarray):
    """The entries above the diagonal of D in pieces, a row block at a time:
    those of the block's diagonal tile (a flat copy), then the block's
    columns right of that tile (a view)."""
    for s, e in geometry._row_blocks(*D.shape):
        yield D[s:e, s:e][~np.tri(e - s, dtype=bool)]
        yield D[s:e, e:]


def distance_histogram(dist: np.ndarray, kind: str) -> DistanceHistogram:
    """Histogram over the N(N-1)/2 unordered pairwise distances: one pass
    over the upper triangle for the range, one for the summed counts."""
    D = np.asarray(dist, dtype=np.float64)
    if D.ndim != 2 or D.shape[0] < 2:
        raise ParameterError("need at least 2 points")
    ends = np.array([(b.min(initial=np.inf), b.max(initial=-np.inf))
                     for b in _upper_triangle(D)])
    span = (ends[:, 0].min(), ends[:, 1].max())
    counts = np.zeros(DEFAULT_BINS, dtype=np.intp)
    for block in _upper_triangle(D):
        block_counts, edges = np.histogram(block, bins=DEFAULT_BINS, range=span)
        counts += block_counts
    return DistanceHistogram(kind=kind, edges=edges, counts=counts)


@dataclass
class HubnessReport:
    kind: str
    k: int
    histogram: DistanceHistogram
    k_occurrence: KOccurrence

    def save(self, json_path) -> None:
        """Write the JSON report plus a plot-ready CSV of histogram bins."""
        jsonio.write(json_path, {
            "kind": self.kind,
            "k": self.k,
            "histogram": self.histogram,
            "k_occurrence": self.k_occurrence.counts,
            "skewness": self.k_occurrence.skewness,
        })
        edges = self.histogram.edges
        centers = 0.5 * (edges[:-1] + edges[1:])
        jsonio.write_csv(json_path, ["bin_center", "count"],
                         zip(centers.tolist(), self.histogram.counts.tolist()))


def analyze_points(points, kind: str, k: int = DEFAULT_K) -> HubnessReport:
    D = pairwise_distances(points, kind)
    return HubnessReport(
        kind=kind,
        k=k,
        histogram=distance_histogram(D, kind),
        k_occurrence=k_occurrence(D, k),
    )


def hubness_report(bank: PrototypeBank, k: int = DEFAULT_K) -> HubnessReport:
    """Analyze a trained bank's prototypes with its native distance kind:
    geodesic for hyperbolic banks, cosine otherwise."""
    kind = KIND_HYPERBOLIC if bank.mode == MODE_HYPERBOLIC else KIND_COSINE
    return analyze_points(bank.prototypes, kind, k=k)
