import tracemalloc

import numpy as np
import pytest

from lorentzheads import geometry as G
from lorentzheads import heads as H
from lorentzheads import hubness
from lorentzheads.errors import ContractError, ParameterError

from reference_geometry import origin


def brute_force_k_occurrence(D, k):
    """Independent O(N^2) scan: sort (distance, index) pairs per row."""
    N = D.shape[0]
    counts = [0] * N
    for i in range(N):
        pairs = sorted((D[i, j], j) for j in range(N) if j != i)
        for _, j in pairs[:k]:
            counts[j] += 1
    return np.asarray(counts)


def whole_matrix_distances(P, kind):
    """The all-at-once composition, symmetrised, that pairwise_distances must
    reproduce; the Lorentz products are written out, not batch_distance's."""
    if kind == "hyperbolic":
        M = P[:, 1:] @ P[:, 1:].T - np.multiply.outer(P[:, 0], P[:, 0])
        D = np.arccosh(np.maximum(-M, 1.0))
    else:
        U = P / np.linalg.norm(P, axis=1, keepdims=True)
        D = 1.0 - U @ U.T
    D = 0.5 * (D + D.T)
    np.fill_diagonal(D, 0.0)
    return D


def whole_matrix_histogram(D):
    return np.histogram(D[np.triu_indices(len(D), k=1)], bins=hubness.DEFAULT_BINS)


def stable_sort_k_occurrence(D, k):
    D = D.copy()
    np.fill_diagonal(D, np.inf)
    neighbors = np.argsort(D, axis=1, kind="stable")[:, :k]
    return np.bincount(neighbors.ravel(), minlength=len(D))


def row_block_points(rng, N, kind, rounded):
    """N points for `kind`: exp0 images (hyperbolic) or plain rows (cosine) of
    Gaussian vectors, or of lattice points, which give many tied distances
    and some duplicate rows."""
    V = rng.normal(0.0, 1.0, (N, 6))
    if rounded:
        V = np.round(V)
        V[:, 0] += 0.5
    return G.batch_exp_map_origin(V) if kind == "hyperbolic" else V


def exact_product_points(rng, N, kind):
    """N points whose distance products are exact, so no summation order can
    change a bit: hyperboloid points with spatial coordinates in
    {-1/2, 0, 1/2}, or cosine rows with four entries of +-1 (norm 2, unit
    entries +-1/2).  The small lattice gives many tied distances and some
    duplicate rows."""
    if kind == "hyperbolic":
        S = rng.integers(-1, 2, (N, 6)) / 2.0
        return np.hstack([np.sqrt(1.0 + np.sum(S * S, axis=1, keepdims=True)), S])
    P = np.zeros((N, 8))
    cols = np.argsort(rng.uniform(size=(N, 8)), axis=1)[:, :4]
    np.put_along_axis(P, cols, rng.choice([-1.0, 1.0], (N, 4)), axis=1)
    return P


class TestRowBlocks:
    """The row-block kernels against the whole-matrix ones, bit for bit,
    with N spanning several full blocks and a partial one."""

    @pytest.fixture(params=[(700, None), (50, 7)], ids=["module-blocks", "7-row-blocks"])
    def n_points(self, request, monkeypatch):
        N, rows = request.param
        if rows is not None:   # blocks of `rows` rows of an N-column matrix
            monkeypatch.setattr(G, "_BLOCK_ELEMENTS", rows * N)
        blocks = G._row_blocks(N, N)
        assert len(blocks) >= 4 and blocks[0][1] > blocks[-1][1] - blocks[-1][0]
        return N

    @pytest.mark.parametrize("kind", ["hyperbolic", "cosine"])
    @pytest.mark.parametrize("rounded", [False, True], ids=["exact", "ties"])
    def test_same_bits_as_whole_matrix(self, rng, n_points, kind, rounded):
        P = row_block_points(rng, n_points, kind, rounded)
        D = hubness.pairwise_distances(P, kind)
        np.testing.assert_array_equal(D, whole_matrix_distances(P, kind))
        for M in (D, np.round(D, 1)):
            hist = hubness.distance_histogram(M, kind)
            counts, edges = whole_matrix_histogram(M)
            np.testing.assert_array_equal(hist.edges, edges)
            np.testing.assert_array_equal(hist.counts, counts)
            for k in (1, 5, n_points - 1):
                np.testing.assert_array_equal(hubness.k_occurrence(M, k).counts,
                                              stable_sort_k_occurrence(M, k))

    @pytest.mark.parametrize("kind", ["hyperbolic", "cosine"])
    def test_streamed_report_equals_matrix_path(self, rng, n_points, kind):
        P = exact_product_points(rng, n_points, kind)
        D = hubness.pairwise_distances(P, kind)
        pairs = D[np.triu_indices(n_points, 1)]
        assert 2 * len(np.unique(pairs)) < len(pairs)    # lattice ties
        hist = hubness.distance_histogram(D, kind)
        for k in (1, 5, n_points - 1):
            rep = hubness.analyze_points(P, kind, k=k)
            occ = hubness.k_occurrence(D, k)
            assert (rep.kind, rep.k, rep.histogram.kind) == (kind, k, kind)
            np.testing.assert_array_equal(rep.histogram.edges, hist.edges)
            np.testing.assert_array_equal(rep.histogram.counts, hist.counts)
            np.testing.assert_array_equal(rep.k_occurrence.counts, occ.counts)
            assert rep.k_occurrence.skewness == occ.skewness

    def test_asymmetric_matrix(self, rng, n_points):
        # k_occurrence ranks each row on its own; it needs no symmetry
        D = np.round(rng.uniform(0.0, 3.0, (n_points, n_points)), 1)
        np.testing.assert_array_equal(hubness.k_occurrence(D, 3).counts,
                                      stable_sort_k_occurrence(D, 3))

    def test_nan_refused(self, rng, n_points):
        D = rng.uniform(0.0, 1.0, (n_points, n_points))
        D[n_points - 1, 0] = np.nan    # in the last, partial block
        with pytest.raises(ParameterError, match="NaN"):
            hubness.k_occurrence(D, 2)

    def test_nan_on_the_diagonal_is_never_ranked(self, rng, n_points):
        D = rng.uniform(0.0, 1.0, (n_points, n_points))
        np.fill_diagonal(D, np.nan)
        np.testing.assert_array_equal(hubness.k_occurrence(D, 2).counts,
                                      stable_sort_k_occurrence(D, 2))


@pytest.mark.parametrize("N", [2, 50, 700])
@pytest.mark.parametrize("kind", ["hyperbolic", "cosine"])
@pytest.mark.parametrize("rounded", [False, True], ids=["exact", "ties"])
def test_distance_kernels_equal_their_transposes(rng, N, kind, rounded):
    # numpy's A A^T product mirrors one triangle and every later step is
    # elementwise, so pairwise_distances needs no symmetrisation pass
    P = row_block_points(rng, N, kind, rounded)
    if kind == "hyperbolic":
        D = G.batch_distance(P, P)
    else:
        U, _ = H.unit_rows(P)
        D = 1.0 - U @ U.T
    assert D.tobytes() == D.T.tobytes()
    D = hubness.pairwise_distances(P, kind)
    assert D.tobytes() == D.T.tobytes()


@pytest.mark.parametrize("N", [2000, 4000])
@pytest.mark.parametrize("kind", ["hyperbolic", "cosine"])
def test_analysis_holds_no_distance_matrix(rng, kind, N):
    # the peak is a few row blocks whatever N is; one matrix is 8 N^2 bytes
    P = G.batch_exp_map_origin(rng.normal(0.0, 1.0, (N, 8)))
    tracemalloc.start()
    try:
        hubness.analyze_points(P, kind)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 8 * G._BLOCK_ELEMENTS


class TestAnalysisRefusals:
    """analyze_points refuses what the matrix path refuses, with the same
    error, before it forms any row block."""

    @pytest.fixture(autouse=True)
    def no_blocks(self, monkeypatch):
        def formed(*args):
            raise AssertionError("a row block was formed")
        monkeypatch.setattr(hubness, "_distance_rows", formed)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("kind", ["hyperbolic", "cosine"])
    def test_non_finite_points(self, rng, kind, bad):
        P = G.batch_exp_map_origin(rng.normal(0.0, 1.0, (6, 3)))
        P[4, 1] = bad
        for analysis in (hubness.analyze_points, hubness.pairwise_distances):
            with pytest.raises(ContractError, match="x contains non-finite entries"):
                analysis(P, kind)

    @pytest.mark.parametrize("k", [0, -1, 6, 7])
    @pytest.mark.parametrize("kind", ["hyperbolic", "cosine"])
    def test_k_out_of_range(self, rng, monkeypatch, kind, k):
        P = G.batch_exp_map_origin(rng.normal(0.0, 1.0, (6, 3)))
        with pytest.raises(ParameterError) as streamed:
            hubness.analyze_points(P, kind, k=k)
        monkeypatch.undo()
        with pytest.raises(ParameterError) as matrix:
            hubness.k_occurrence(hubness.pairwise_distances(P, kind), k)
        assert str(streamed.value) == str(matrix.value)

    @pytest.mark.parametrize("points, kind, error", [
        (np.zeros((1, 3)), "cosine", ParameterError),
        (np.eye(3), "manhattan", ContractError),
        (np.vstack([np.eye(3), np.zeros(3)]), "cosine", ContractError),
        (np.eye(3), "hyperbolic", ContractError),
    ], ids=["one-point", "unknown-kind", "zero-row", "off-manifold"])
    def test_bad_points(self, points, kind, error):
        for analysis in (hubness.analyze_points, hubness.pairwise_distances):
            with pytest.raises(error):
                analysis(points, kind)


class TestPairwiseDistances:
    def test_identical_points(self):
        P = G.batch_exp_map_origin([[0.5, 0.5]] * 2)
        D = hubness.pairwise_distances(P, "hyperbolic")
        assert D[0, 1] == pytest.approx(0.0, abs=1e-7)

    def test_geometry_oracle(self):
        P = np.stack([origin(1), [np.cosh(1.0), np.sinh(1.0)]])
        D = hubness.pairwise_distances(P, "hyperbolic")
        assert D[0, 1] == pytest.approx(1.0)

    def test_antipodal_cosine(self):
        D = hubness.pairwise_distances([[1.0, 0.0], [-1.0, 0.0]], "cosine")
        assert D[0, 1] == pytest.approx(2.0)

    def test_cosine_rows_normalised_once(self, rng):
        # the same bits as dividing each row by its norm; a zero row is refused
        P = rng.normal(0.0, 1.0, (6, 4))
        np.testing.assert_array_equal(hubness.pairwise_distances(P, "cosine"),
                                      whole_matrix_distances(P, "cosine"))
        with pytest.raises(ContractError, match="nonzero"):
            hubness.pairwise_distances(np.vstack([P, np.zeros(4)]), "cosine")

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_cosine_rows_whose_squares_overflow_or_underflow(self, scale):
        # such a row is the unit row of its direction, not a zero vector
        P = [[1.0, 1.0], [1.0, 1.0], [1.0, 0.0], [0.0, 1.0]]
        extreme = [[scale, scale]] + P[1:]
        assert (hubness.pairwise_distances(extreme, "cosine").tobytes()
                == hubness.pairwise_distances(P, "cosine").tobytes())

    def test_symmetric_zero_diagonal(self, rng):
        P = G.batch_exp_map_origin(rng.normal(0.0, 1.0, (8, 3)))
        D = hubness.pairwise_distances(P, "hyperbolic")
        np.testing.assert_array_equal(D, D.T)
        np.testing.assert_array_equal(np.diag(D), np.zeros(8))

    def test_unknown_kind(self):
        with pytest.raises(ContractError):
            hubness.pairwise_distances(np.eye(3), "manhattan")


class TestKOccurrence:
    def test_collinear_oracle(self):
        pts = np.array([0.0, 1.0, 2.0, 10.0])
        D = np.abs(pts[:, None] - pts[None, :])
        occ = hubness.k_occurrence(D, 1)
        np.testing.assert_array_equal(occ.counts, [1, 2, 1, 0])

    def test_counts_sum_is_k_times_n(self, rng):
        for _ in range(10):
            X = rng.normal(size=(20, 4))
            D = np.linalg.norm(X[:, None] - X[None, :], axis=-1)
            for k in (1, 3, 7):
                occ = hubness.k_occurrence(D, k)
                assert occ.counts.sum() == k * 20

    def test_matches_brute_force(self, rng):
        for N in (10, 30, 50):
            X = rng.normal(size=(N, 5))
            exact = np.linalg.norm(X[:, None] - X[None, :], axis=-1)
            # rounding leaves many tied distances, which go to the lower index
            for D in (exact, np.round(exact)):
                for k in (1, 5, N - 1):
                    occ = hubness.k_occurrence(D, k)
                    np.testing.assert_array_equal(occ.counts, brute_force_k_occurrence(D, k))

    def test_simplex_all_counts_equal(self):
        # orthonormal rows: all pairwise cosine distances equal; with
        # k = N - 1 every point is everyone's neighbor
        N = 8
        D = hubness.pairwise_distances(np.eye(N), "cosine")
        occ = hubness.k_occurrence(D, N - 1)
        np.testing.assert_array_equal(occ.counts, np.full(N, N - 1))
        assert occ.skewness == 0.0

    def test_ring_symmetry_skewness_zero(self):
        # evenly spaced directions on a circle; k=2 picks both angular
        # neighbors for every point
        N = 12
        ang = 2 * np.pi * np.arange(N) / N
        P = np.stack([np.cos(ang), np.sin(ang)], axis=1)
        occ = hubness.k_occurrence(hubness.pairwise_distances(P, "cosine"), 2)
        np.testing.assert_array_equal(occ.counts, np.full(N, 2))
        assert occ.skewness == 0.0

    def test_monotone_transform_invariance(self, rng):
        X = rng.normal(size=(25, 4))
        D = np.linalg.norm(X[:, None] - X[None, :], axis=-1)
        a = hubness.k_occurrence(D, 5)
        b = hubness.k_occurrence(2.0 * D + 1.0, 5)
        np.testing.assert_array_equal(a.counts, b.counts)
        assert a.skewness == b.skewness

    def test_k_bounds(self):
        D = np.zeros((4, 4))
        with pytest.raises(ParameterError):
            hubness.k_occurrence(D, 4)
        with pytest.raises(ParameterError):
            hubness.k_occurrence(D, 0)


class TestSkewness:
    def test_zero_variance(self):
        assert hubness.sample_skewness([3, 3, 3]) == 0.0

    def test_matches_definition(self, rng):
        v = rng.normal(size=200)
        m = v.mean()
        ref = np.mean((v - m) ** 3) / np.mean((v - m) ** 2) ** 1.5
        assert hubness.sample_skewness(v) == pytest.approx(ref)

    def test_positive_for_planted_hub(self, rng):
        # one centroid prototype among far-apart satellites becomes everyone's
        # nearest neighbor
        satellites = G.batch_exp_map_origin(3.0 * np.eye(6))
        hub = origin(6)[None, :]
        P = np.concatenate([hub, satellites])
        occ = hubness.k_occurrence(hubness.pairwise_distances(P, "hyperbolic"), 1)
        assert occ.counts[0] == 6
        assert occ.skewness > 0.0


class TestReports:
    def test_histogram_counts_all_pairs(self, rng):
        P = G.batch_exp_map_origin(rng.normal(0.0, 1.0, (10, 4)))
        rep = hubness.analyze_points(P, "hyperbolic", k=3)
        assert rep.histogram.counts.sum() == 10 * 9 // 2
        with pytest.raises(ParameterError, match="2 points"):
            hubness.distance_histogram(np.zeros((1, 1)), "hyperbolic")

    def test_bank_dispatch(self, rng):
        hyp = H.PrototypeBank(
            H.MODE_HYPERBOLIC,
            G.batch_exp_map_origin(rng.normal(0.0, 1.0, (6, 3))),
            [f"c{i}" for i in range(6)],
        )
        cos = H.PrototypeBank(H.MODE_COSINE, rng.normal(size=(6, 3)),
                              [f"c{i}" for i in range(6)])
        assert hubness.hubness_report(hyp).kind == "hyperbolic"
        assert hubness.hubness_report(cos).kind == "cosine"

    def test_report_files(self, tmp_path, rng):
        P = G.batch_exp_map_origin(rng.normal(0.0, 1.0, (8, 3)))
        rep = hubness.analyze_points(P, "hyperbolic", k=3)
        path = tmp_path / "report.json"
        rep.save(path)
        assert path.exists()
        assert b"\r" not in (tmp_path / "report.csv").read_bytes()
        csv_lines = (tmp_path / "report.csv").read_text().strip().splitlines()
        assert csv_lines[0] == "bin_center,count"
        total = sum(int(line.split(",")[1]) for line in csv_lines[1:])
        assert total == 8 * 7 // 2

        from conftest import validate_file
        validate_file(path, "hubness_report")
