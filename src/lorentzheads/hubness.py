"""Hubness diagnostics for prototype sets.

Hubness is the tendency of some points to appear among the k nearest
neighbors of disproportionately many others.  It is quantified by the
Fisher-Pearson sample skewness of the k-occurrence distribution N_k(i)
(the in-degree of point i in the directed k-NN graph).  Reports pair a
pairwise-distance histogram with the k-occurrence statistics, for either
geodesic (hyperboloid) or cosine distances.

analyze_points never holds the N x N distance matrix: it forms it a row
block at a time, twice, ranking each block and finding the histogram's
range in the first pass and binning in the second.  Up to 362 points that
is one block, the matrix of pairwise_distances bit for bit; above that a
block's product can differ from the whole matrix's in the last bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geometry, jsonio
from .errors import ContractError, ParameterError
from .heads import PrototypeBank, unit_rows

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


def _checked_points(points, kind: str) -> np.ndarray:
    """The rows the distance kernels read: the points themselves once they
    are on the hyperboloid, or the unit rows of finite nonzero cosine points."""
    P = np.asarray(points, dtype=np.float64)
    if P.ndim != 2 or P.shape[0] < 2:
        raise ParameterError("need at least 2 points")
    if kind == KIND_HYPERBOLIC:
        geometry.assert_on_manifold(P)
        return P
    if kind == KIND_COSINE:
        return unit_rows(geometry._as_array(P, "x"))[0]
    raise ContractError(f"unknown distance kind {kind!r}")


def _distance_rows(P: np.ndarray, kind: str, s: int, e: int) -> np.ndarray:
    """Rows s..e of the distance matrix of checked rows P, 0 in each row's
    own column.  All N rows take numpy's A A^T product, which mirrors one
    triangle; fewer take the general one, which can differ in the last bits."""
    if kind == KIND_HYPERBOLIC:
        D = geometry.batch_distance(P[s:e], P)
    else:
        D = P[s:e] @ P.T
        np.subtract(1.0, D, out=D)
    D[np.arange(e - s), np.arange(s, e)] = 0.0
    return D


def pairwise_distances(points, kind: str) -> np.ndarray:
    """Symmetric all-pairs distance matrix with zero diagonal, the one-block
    case of _distance_rows: every step after the A A^T product is
    elementwise, so the matrix is symmetric bit for bit."""
    P = _checked_points(points, kind)
    return _distance_rows(P, kind, 0, len(P))


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


def _check_k(k: int, N: int) -> None:
    if k < 1:
        raise ParameterError("k must be >= 1")
    if k >= N:
        raise ParameterError(f"k={k} must be < number of points {N}")


def _rank_rows(rows: np.ndarray, part: np.ndarray, s: int, k: int,
               counts: np.ndarray) -> None:
    """Add the k-NN edges of rows s.. of a distance matrix to `counts`.

    `rows` gets inf in each row's own column; `part`, scratch of its shape,
    gets its partitioned copy.  A NaN distance raises ParameterError.
    """
    rows[np.arange(len(rows)), np.arange(s, s + len(rows))] = np.inf
    if np.isnan(rows).any():
        raise ParameterError("distances contain NaN, which has no rank")
    part[...] = rows
    part.partition(k - 1, axis=1)
    kth = part[:, [k - 1]]
    near = rows <= kth
    # a row with more ties at its k-th value than places keeps the entries
    # below it and the first ties in index order, as a stable sort does
    over = np.flatnonzero(np.count_nonzero(near, axis=1) > k)
    below, tied = rows[over] < kth[over], rows[over] == kth[over]
    room = k - np.count_nonzero(below, axis=1, keepdims=True)
    near[over] = below | (tied & (np.cumsum(tied, axis=1) <= room))
    counts += np.count_nonzero(near, axis=0)


def k_occurrence(dist: np.ndarray, k: int) -> KOccurrence:
    """In-degree counts of the directed k-NN graph and their skewness.

    Each point emits edges to its k nearest others; ties break toward the
    lower point index.  Rows are ranked a block at a time, without a copy
    of `dist`; a NaN distance raises ParameterError.
    """
    D = np.asarray(dist, dtype=np.float64)
    N = D.shape[0]
    _check_k(k, N)
    counts = np.zeros(N, dtype=np.intp)
    blocks = geometry._row_blocks(N, N)
    buffers = np.empty((2, blocks[0][1], N))
    for s, e in blocks:
        rows, part = buffers[:, :e - s]
        rows[...] = D[s:e]
        _rank_rows(rows, part, s, k, counts)
    return KOccurrence(k=k, counts=counts, skewness=sample_skewness(counts))


def _upper_pieces(rows: np.ndarray, s: int):
    """The entries right of the diagonal in rows s..e of a square matrix:
    those of the block's diagonal tile (a flat copy), then the block's
    columns right of that tile (a view)."""
    e = s + len(rows)
    return rows[:, s:e][~np.tri(e - s, dtype=bool)], rows[:, e:]


def _widen(span, rows: np.ndarray, s: int):
    """(lo, hi) widened to the entries right of the diagonal of rows s.. ."""
    lo, hi = span
    for piece in _upper_pieces(rows, s):
        lo = np.minimum(lo, piece.min(initial=np.inf))
        hi = np.maximum(hi, piece.max(initial=-np.inf))
    return lo, hi


def _bin(rows: np.ndarray, s: int, span, counts: np.ndarray) -> np.ndarray:
    """Add the histogram of the entries right of the diagonal of rows s..
    over `span` to `counts`; returns the bin edges."""
    for piece in _upper_pieces(rows, s):
        piece_counts, edges = np.histogram(piece, bins=DEFAULT_BINS, range=span)
        counts += piece_counts
    return edges


def distance_histogram(dist: np.ndarray, kind: str) -> DistanceHistogram:
    """Histogram over the N(N-1)/2 unordered pairwise distances: one pass
    over the upper triangle's row blocks for the range, one for the summed
    counts."""
    D = np.asarray(dist, dtype=np.float64)
    if D.ndim != 2 or D.shape[0] < 2:
        raise ParameterError("need at least 2 points")
    blocks = geometry._row_blocks(*D.shape)
    span = (np.inf, -np.inf)
    for s, e in blocks:
        span = _widen(span, D[s:e], s)
    counts = np.zeros(DEFAULT_BINS, dtype=np.intp)
    for s, e in blocks:
        edges = _bin(D[s:e], s, span, counts)
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
    """The report of distance_histogram and k_occurrence of the points'
    distance matrix, without the matrix: a first pass over its row blocks
    ranks each and finds the histogram's range, a second forms each block
    again and bins it."""
    P = _checked_points(points, kind)
    N = len(P)
    _check_k(k, N)
    blocks = geometry._row_blocks(N, N)
    part = np.empty((blocks[0][1], N))
    span = (np.inf, -np.inf)
    occurrences = np.zeros(N, dtype=np.intp)
    for s, e in blocks:
        rows = _distance_rows(P, kind, s, e)
        span = _widen(span, rows, s)
        _rank_rows(rows, part[:e - s], s, k, occurrences)
        del rows    # free each block before the next is formed
    del part
    counts = np.zeros(DEFAULT_BINS, dtype=np.intp)
    for s, e in blocks:
        edges = _bin(_distance_rows(P, kind, s, e), s, span, counts)
    return HubnessReport(
        kind=kind,
        k=k,
        histogram=DistanceHistogram(kind=kind, edges=edges, counts=counts),
        k_occurrence=KOccurrence(k=k, counts=occurrences,
                                 skewness=sample_skewness(occurrences)),
    )


def hubness_report(bank: PrototypeBank, k: int = DEFAULT_K) -> HubnessReport:
    """Analyze a trained bank's prototypes with its head's distance kind."""
    return analyze_points(bank.prototypes, bank.head.kind, k=k)
