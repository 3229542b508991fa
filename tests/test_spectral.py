import time
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components
from scipy.spatial.distance import cdist

from llrgraph import spectral
from llrgraph.data import InputError
from llrgraph.graphio import CSR
from llrgraph.metrics import clustering_accuracy
from llrgraph.spectral import (
    KMeansConfig,
    kmeans,
    normalized_laplacian_embedding,
    spectral_cluster,
    sym_eig,
)

from oracles import kmeans_best_objective


def _rng(seed):
    return np.random.Generator(np.random.PCG64(seed))


def _block_graph(sizes, weight=1.0):
    """Exactly block-diagonal graph of complete blocks (zero diagonal)."""
    n = sum(sizes)
    W = np.zeros((n, n))
    start = 0
    for s in sizes:
        W[start : start + s, start : start + s] = weight
        start += s
    np.fill_diagonal(W, 0.0)
    return sp.csr_matrix(W)


def _wcss(points, labels):
    obj = 0.0
    for c in np.unique(labels):
        members = points[labels == c]
        obj += float(((members - members.mean(axis=0)) ** 2).sum())
    return obj


def test_sym_eig_contract_on_random_matrices():
    rng = _rng(0)
    for trial in range(20):
        m = int(rng.integers(2, 21))
        A = rng.standard_normal((m, m))
        A = (A + A.T) / 2
        evals, evecs = sym_eig(A)
        scale = 1.0 + np.abs(A).max()
        assert np.abs(A @ evecs - evecs * evals).max() <= 1e-6 * scale
        assert np.abs(evecs.T @ evecs - np.eye(m)).max() <= 1e-6
        assert np.all(np.diff(evals) >= -1e-12), "eigenvalues must ascend"


def test_sym_eig_rejects_bad_input():
    with pytest.raises(ValueError, match="square"):
        sym_eig(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="symmetric"):
        sym_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="finite"):
        sym_eig(np.array([[np.inf, 0.0], [0.0, 1.0]]))


def test_embedding_separates_disconnected_blocks():
    W = _block_graph([4, 5])
    coords = normalized_laplacian_embedding(W, 2)
    # rows within a block coincide; across blocks they are orthogonal
    for block in (range(0, 4), range(4, 9)):
        rows = coords[list(block)]
        assert np.abs(rows - rows[0]).max() < 1e-8
    assert abs(float(coords[0] @ coords[5])) < 1e-8


def test_embedding_rows_unit_norm():
    rng = _rng(1)
    X = rng.random((12, 12))
    W = sp.csr_matrix(np.triu(X, 1) + np.triu(X, 1).T)
    coords = normalized_laplacian_embedding(W, 3)
    assert np.abs(np.linalg.norm(coords, axis=1) - 1.0).max() < 1e-10


def test_embedding_rejects_isolated_vertex():
    W = sp.csr_matrix(np.array([[0.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(ValueError, match=r"isolated.*\[0, 1\]"):
        normalized_laplacian_embedding(W, 1)


def test_embedding_rejects_degrees_beyond_the_float_range():
    W = sp.csr_matrix(np.array([[0.0, 1e308, 1e308], [1e308, 0.0, 1.0], [1e308, 1.0, 0.0]]))
    with pytest.raises(ValueError, match="beyond the float range"):
        normalized_laplacian_embedding(W, 2)


def test_embedding_rejects_negative_weights():
    W = sp.csr_matrix(np.array([[0.0, 2.0, -1.0], [2.0, 0.0, 1.0], [-1.0, 1.0, 0.0]]))
    with pytest.raises(ValueError, match=r"edge \(0, 2\) has weight -1\.0; graph weights must be finite and nonnegative"):
        normalized_laplacian_embedding(W, 1)


def test_embedding_warns_on_unrepresented_components():
    # 3 disconnected blocks but only 2 eigenvectors requested: at least one
    # block cannot be represented, leaving numerically zero rows.
    W = _block_graph([3, 3, 3])
    with pytest.warns(RuntimeWarning, match="zero rows"):
        normalized_laplacian_embedding(W, 2)


def _random_block_graph(rng, sizes):
    """Random positive weights inside each block, none across; vertices are
    shuffled so components interleave. A block of size 1 gets a self-loop."""
    n = sum(sizes)
    W = np.zeros((n, n))
    start = 0
    for s in sizes:
        B = rng.uniform(0.1, 1.0, size=(s, s))
        W[start : start + s, start : start + s] = np.triu(B, 1) + np.triu(B, 1).T if s > 1 else B
        start += s
    perm = rng.permutation(n)
    return sp.csr_matrix(W[np.ix_(perm, perm)])


def _dense_reference(W, k):
    """Row-normalized top-k eigenvectors of D^{-1/2} W D^{-1/2} by a full eigh."""
    inv_sqrt = 1.0 / np.sqrt(np.asarray(W.sum(axis=1)).ravel())
    A = inv_sqrt[:, None] * W.toarray() * inv_sqrt[None, :]
    evals, evecs = np.linalg.eigh(A)
    n = A.shape[0]
    if k < n:
        assert evals[n - k] - evals[n - k - 1] > 1e-6, "top-k space must be well defined"
    coords = evecs[:, ::-1][:, :k]
    return coords / np.linalg.norm(coords, axis=1)[:, None]


@pytest.mark.parametrize(
    "sizes, k",
    [
        ([9], 3),  # c = 1
        ([2, 6, 5], 5),  # 1 < c < k, the size-2 block's extra pair is not taken
        ([2, 3, 6], 7),  # 1 < c < k, blocks smaller than k - c
        ([1, 4, 5], 6),  # a single vertex with a self-loop
        ([4, 6, 3], 3),  # c = k
    ],
)
def test_component_embedding_matches_dense_eigensolve(sizes, k):
    rng = _rng(11)
    for trial in range(3):
        W = _random_block_graph(rng, sizes)
        got = normalized_laplacian_embedding(W, k)
        want = _dense_reference(W, k)
        assert np.abs(cdist(got, got) - cdist(want, want)).max() < 1e-10, f"trial {trial}"


def test_components_equal_to_k_need_no_eigensolve(monkeypatch):
    def no_eigensolve(A):
        raise AssertionError("sym_eig must not run when components == k")

    monkeypatch.setattr(spectral, "sym_eig", no_eigensolve)
    W = _random_block_graph(_rng(12), [4, 5, 3])
    coords = normalized_laplacian_embedding(W, 3)
    # components are numbered by their smallest vertex
    _, labels = connected_components(W, directed=False)
    first = [int(np.flatnonzero(labels == comp)[0]) for comp in range(3)]
    assert first == sorted(first)
    assert np.array_equal(coords, np.eye(3)[labels])


def _assert_same_components(W):
    want = connected_components(W != 0, directed=False)
    got = spectral._components(W)
    assert got[0] == want[0]
    assert np.array_equal(got[1], want[1])


def test_components_match_scipy_on_random_patterns():
    """Exact count and labels against SciPy on graphs with explicit stored
    zeros, self-loops and patterns stored in one direction only."""
    rng = _rng(14)
    stored_zeros = 0
    for trial in range(300):
        n = int(rng.integers(1, 25))
        e = int(rng.integers(0, 2 * n + 1))
        rows, cols = rng.integers(0, n, e), rng.integers(0, n, e)
        if trial % 3 == 0:
            cols = np.where(rng.random(e) < 0.3, rows, cols)  # self-loops
        vals = rng.choice([0.0, 1.0, 0.25], e)
        W = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
        stored_zeros += W.nnz > np.count_nonzero(W.data)
        _assert_same_components(W)
    assert stored_zeros > 50
    _assert_same_components(sp.csr_matrix((1, 1)))
    _assert_same_components(sp.csr_matrix(([0.0, 2.0], ([0, 1], [1, 2])), shape=(4, 4)))


def test_components_of_a_shuffled_long_path_take_few_rounds():
    """Plain min-label propagation needs one round per path vertex here and
    takes seconds; hook and jump needs a few rounds."""
    n = 20_000
    order = _rng(15).permutation(n)
    W = sp.csr_matrix((np.ones(n - 1), (order[:-1], order[1:])), shape=(n, n))
    start = time.perf_counter()
    c, labels = spectral._components(W)
    assert time.perf_counter() - start < 1.0
    assert c == 1 and not labels.any()


def test_more_components_than_k_keeps_dense_eigensolve():
    rng = _rng(13)
    for sizes, k in (([3, 4, 5, 6], 2), ([3, 4, 5, 6], 3), ([5, 5, 5], 2)):
        W = _random_block_graph(rng, sizes)
        inv_sqrt = 1.0 / np.sqrt(np.asarray(W.sum(axis=1)).ravel())
        _, evecs = sym_eig(inv_sqrt[:, None] * W.toarray() * inv_sqrt[None, :])
        want = evecs[:, ::-1][:, :k].copy()
        norms = np.linalg.norm(want, axis=1)
        norms[norms < 1e-12] = 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            got = normalized_laplacian_embedding(W, k)
        assert np.array_equal(got, want / norms[:, None]), f"sizes={sizes} k={k}"


def test_more_components_than_k_above_the_dense_bound_raises_before_densifying(monkeypatch):
    """4097 disjoint edges (n = 8194, c = 4097 > k = 3) name n, c, k and the
    GiB of one n x n matrix, and no dense matrix is made."""
    def refuse(*args):
        raise AssertionError("no dense matrix may be formed above DENSE_MAX_VERTICES")

    monkeypatch.setattr(CSR, "toarray", refuse)
    monkeypatch.setattr(CSR, "block", refuse)
    edges = 4097
    heads = 2 * np.arange(edges)
    W = CSR.from_triplets(np.r_[heads, heads + 1], np.r_[heads + 1, heads], np.ones(2 * edges), (2 * edges, 2 * edges))
    with pytest.raises(ValueError, match=r"c=4097 components, k=3 clusters.* at most 4096 vertices, got n=8194: "
                                         r"one n x n matrix takes 0\.50 GiB"):
        normalized_laplacian_embedding(W, 3)


def test_kmeans_recovers_separated_blobs():
    rng = _rng(2)
    centers = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
    points = np.vstack([c + 0.1 * rng.standard_normal((15, 2)) for c in centers])
    truth = np.repeat(np.arange(3), 15)
    labels = kmeans(points, KMeansConfig(k=3, seed=0))
    assert clustering_accuracy(labels, truth) == 1.0


def test_kmeans_deterministic_given_seed():
    rng = _rng(3)
    points = rng.standard_normal((40, 3))
    a = kmeans(points, KMeansConfig(k=4, seed=9))
    b = kmeans(points, KMeansConfig(k=4, seed=9))
    assert np.array_equal(a, b)


def test_kmeans_reaches_exhaustive_optimum_on_tiny_inputs():
    rng = _rng(4)
    for trial in range(5):
        points = rng.standard_normal((7, 2))
        k = 3
        labels = kmeans(points, KMeansConfig(k=k, restarts=20, seed=trial))
        got = _wcss(points, labels)
        best = kmeans_best_objective(points, k)
        assert got <= best + 1e-9, f"trial {trial}: wcss {got} vs optimal {best}"


def test_kmeans_more_restarts_never_worse():
    rng = _rng(5)
    points = rng.standard_normal((30, 4))
    one = kmeans(points, KMeansConfig(k=5, restarts=1, seed=0))
    many = kmeans(points, KMeansConfig(k=5, restarts=20, seed=0))
    assert _wcss(points, many) <= _wcss(points, one) + 1e-12


def test_kmeans_handles_duplicate_points():
    # more clusters than distinct locations exercises empty-cluster repair
    points = np.array([[0.0, 0.0]] * 4 + [[5.0, 5.0]] * 4)
    labels = kmeans(points, KMeansConfig(k=3, seed=0))
    assert labels.shape == (8,)
    assert set(labels.tolist()) <= {0, 1, 2}


def test_kmeans_config_validates_k_against_n():
    KMeansConfig(k=4).validate(4)
    with pytest.raises(InputError, match="k=5 must not exceed the sample count n=4"):
        KMeansConfig(k=5).validate(4)


def test_kmeans_validation():
    with pytest.raises(ValueError, match="k must be"):
        kmeans(np.zeros((4, 2)), KMeansConfig(k=0))
    with pytest.raises(ValueError, match="at least k"):
        kmeans(np.zeros((2, 2)), KMeansConfig(k=3))
    with pytest.raises(ValueError, match="restarts"):
        KMeansConfig(k=2, restarts=0)


def test_kmeans_rejects_non_finite_points():
    points = np.zeros((6, 2))
    points[1:3] = [[1.0, 1.0], [2.0, 2.0]]
    points[4, 1] = np.nan
    with pytest.raises(ValueError, match=r"finite.*\[4\]"):
        kmeans(points, KMeansConfig(k=2))


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_kmeans_rejects_overflowing_squared_distances():
    # Finite points whose squared distances overflow would leave k-means++
    # searching a NaN distribution; just below that scale they cluster.
    rng = _rng(8)
    truth = np.repeat([0, 1, 2], 10)
    points = rng.standard_normal((30, 3)) + 10.0 * np.eye(3)[truth]
    with pytest.raises(ValueError, match="squared distances overflowed"):
        kmeans(points * 1e160, KMeansConfig(k=3))
    assert clustering_accuracy(kmeans(points * 1e150, KMeansConfig(k=3)), truth) == 1.0


def test_spectral_cluster_block_diagonal_is_perfect():
    W = _block_graph([5, 6, 7], weight=2.0)
    truth = np.repeat([0, 1, 2], [5, 6, 7])
    labels = spectral_cluster(W, KMeansConfig(k=3, seed=0))
    assert clustering_accuracy(labels, truth) == 1.0


def test_spectral_cluster_deterministic():
    rng = _rng(6)
    base = np.abs(rng.standard_normal((20, 20)))
    W = sp.csr_matrix(np.triu(base, 1) + np.triu(base, 1).T)
    a = spectral_cluster(W, KMeansConfig(k=3, seed=4))
    b = spectral_cluster(W, KMeansConfig(k=3, seed=4))
    assert np.array_equal(a, b)


@pytest.mark.parametrize("k", [0, 4])
def test_normalized_laplacian_embedding_rejects_k_outside_one_to_n(k):
    with pytest.raises(ValueError, match=rf"k must lie in \[1, n=3\], got {k}"):
        normalized_laplacian_embedding(np.ones((3, 3)) - np.eye(3), k)
