"""Normalized spectral clustering: symmetric-normalized affinity embedding
with row normalization, followed by restarted k-means."""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Any

import numpy as np

from .data import InputError, _rng, sum_of_squares
from .graphio import CSR, as_csr, as_graph

#: Largest n * max(k, dim) * restarts of one group of k-means restarts that
#: iterate together, which bounds their per-group arrays.
_GROUP_VALUES = 2**16
#: Lloyd iterations per restart, at most, and the center shift that stops one.
_MAX_ITER = 300
_SHIFT_TOL = 1e-8
#: Most vertices of a graph with more components than clusters (c > k), whose
#: embedding forms n x n matrices; a larger one raises ValueError before any.
DENSE_MAX_VERTICES = 4096


@dataclass(frozen=True)
class KMeansConfig:
    """k-means settings; an out-of-range value raises InputError when made."""

    k: int
    restarts: int = 20
    seed: int = 0

    def __post_init__(self) -> None:
        if self.k < 1:
            raise InputError(f"k must be >= 1, got {self.k}")
        if self.restarts < 1:
            raise InputError(f"restarts must be >= 1, got {self.restarts}")
        if self.seed < 0:
            raise InputError(f"seed must be >= 0, got {self.seed}")

    def validate(self, n: int) -> None:
        """Check k <= n for n samples."""
        if self.k > n:
            raise InputError(f"clusters k={self.k} must not exceed the sample count n={n}")


def sym_eig(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix, eigenvalues ascending.

    Raises on non-symmetric input and enforces the residual contract
    max|A V - V diag(mu)| <= 1e-8 * (1 + max|A|).
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix contains non-finite entries")
    if np.max(np.abs(A - A.T), initial=0.0) > 1e-10:
        raise ValueError("matrix is not symmetric within 1e-10")
    evals, evecs = np.linalg.eigh(A)
    scale = 1.0 + np.max(np.abs(A), initial=0.0)
    residual = np.max(np.abs(A @ evecs - evecs * evals), initial=0.0)
    if residual > 1e-8 * scale:
        raise RuntimeError(f"eigendecomposition residual {residual:.3e} exceeds contract")
    return evals, evecs


def _degrees(W: CSR) -> np.ndarray:
    """Vertex degrees; raises on isolated vertices and on degrees whose sum
    overflows, which would turn the normalized coordinates into NaN or zero."""
    with np.errstate(over="ignore"):
        degrees = W.row_sums()
        total = degrees.sum()
    isolated = np.flatnonzero(degrees <= 0)
    if isolated.size:
        raise ValueError(f"graph has isolated vertices (zero degree): {isolated.tolist()}")
    if not np.isfinite(total):
        raise ValueError(f"graph degrees sum to {total}, beyond the float range; rescale the edge weights")
    return degrees


def _components(W: Any) -> tuple[int, np.ndarray]:
    """Connected components of the nonzero pattern of W, read as undirected:
    the count and each vertex's label, components numbered by smallest vertex.

    Hook and jump (Shiloach & Vishkin, J. Algorithms 1982), vectorized over
    the edges: each round hooks the larger of the two roots of every edge
    that joins two trees onto the smaller one, then pointer-jumps every
    vertex to its root. A parent is never larger than its child, so each
    root is its tree's smallest vertex.
    """
    W = as_csr(W)
    nonzero = W.data != 0
    u, v = W.entry_rows()[nonzero], W.indices[nonzero]
    parent = np.arange(W.shape[0])
    while u.size:
        pu, pv = parent[u], parent[v]
        joins = pu != pv
        u, v, pu, pv = u[joins], v[joins], pu[joins], pv[joins]
        np.minimum.at(parent, np.maximum(pu, pv), np.minimum(pu, pv))
        while True:
            grand = parent[parent]
            if np.array_equal(grand, parent):
                break
            parent = grand
    roots, labels = np.unique(parent, return_inverse=True)
    return roots.size, labels


def _component_embedding(W: CSR, degrees: np.ndarray, c: int, labels: np.ndarray, k: int) -> np.ndarray:
    """Top-k eigenvectors of D^{-1/2} W D^{-1/2} when the graph has c <= k components.

    Eigenvalue 1 has multiplicity c, with eigenvectors D^{1/2} 1_C; these fill
    the first c columns in component order. The other k - c columns come from
    each component's own block: its eigenpairs below the top one, merged by
    descending eigenvalue, ties by component order, then by position.
    """
    n = W.shape[0]
    sqrt_deg = np.sqrt(degrees)
    coords = np.zeros((n, k))
    coords[np.arange(n), labels] = sqrt_deg / np.sqrt(np.bincount(labels, weights=degrees))[labels]
    if k == c:
        return coords
    inv_sqrt = 1.0 / sqrt_deg
    columns = []  # (-eigenvalue, component, position, vertices, eigenvector)
    for comp in range(c):
        idx = np.flatnonzero(labels == comp)
        if idx.size < 2:
            continue
        A = inv_sqrt[idx, None] * W.block(idx) * inv_sqrt[None, idx]
        evals, evecs = sym_eig(A)
        # Descending from the second pair: the top one (eigenvalue 1) is
        # already a column, and a block contributes at most k - c columns.
        for pos in range(min(idx.size - 1, k - c)):
            columns.append((-evals[-2 - pos], comp, pos, idx, evecs[:, -2 - pos]))
    columns.sort(key=lambda column: column[:3])
    for col, (_, _, _, idx, vec) in enumerate(columns[: k - c], start=c):
        coords[idx, col] = vec
    return coords


def normalized_laplacian_embedding(W: Any, k: int) -> np.ndarray:
    """Spectral coordinates from the symmetric-normalized affinity.

    Computes D^{-1/2} W D^{-1/2}, takes the eigenvectors of the k largest
    eigenvalues (columns ordered by descending eigenvalue), and normalizes
    each row to unit length. Rows with norm below 1e-12 are left zero and
    reported through a warning.

    With c connected components, eigenvalue 1 has multiplicity c. When
    c <= k, its eigenvectors are the closed-form D^{1/2} 1_C (component
    order, components numbered by smallest vertex) and the remaining k - c
    come from eigensolves of the components' own blocks, so no n x n matrix
    is formed; with c = k no eigensolve runs. When c > k, the dense n x n
    eigensolve picks k vectors from the degenerate eigenspace; n above
    DENSE_MAX_VERTICES raises ValueError.

    W is a CSR, SciPy or dense matrix, through as_graph; repeated entries are added first.
    """
    # Nonnegative weights make eigenvalue 1 the top of every component's
    # block (Perron-Frobenius), which the component-wise path relies on.
    W = as_graph(W)
    n = W.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must lie in [1, n={n}], got {k}")
    degrees = _degrees(W)
    c, labels = _components(W)
    if c <= k:
        coords = _component_embedding(W, degrees, c, labels, k)
    elif n > DENSE_MAX_VERTICES:
        raise ValueError(
            f"the c > k embedding (c={c} components, k={k} clusters) is dense and allows at most "
            f"{DENSE_MAX_VERTICES} vertices, got n={n}: one n x n matrix takes {8 * n * n / 2**30:.2f} GiB"
        )
    else:
        inv_sqrt = 1.0 / np.sqrt(degrees)
        A = inv_sqrt[:, None] * W.toarray() * inv_sqrt[None, :]
        _, evecs = sym_eig(A)
        coords = evecs[:, ::-1][:, :k].copy()

    norms = np.linalg.norm(coords, axis=1)
    zero_rows = np.flatnonzero(norms < 1e-12)
    if zero_rows.size:
        warnings.warn(
            f"spectral embedding has numerically zero rows: {zero_rows.tolist()}",
            RuntimeWarning,
            stacklevel=2,
        )
    safe = norms.copy()
    safe[zero_rows] = 1.0
    return coords / safe[:, None]


def _sq_dists(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """(g, n) squared distances from every point to each of g centers."""
    return sum_of_squares(col - c[:, None] for col, c in zip(points.T, centers.T))


def _kmeanspp_init(points: np.ndarray, u: np.ndarray) -> np.ndarray:
    """k-means++ starts of a group of restarts, as (g, k, dim) centers, from
    their (g, k) table of uniforms. Restart r takes as center t the point
    whose slice of the normalized cumulative weights holds u[r, t], found as
    the count of cumulative weights at or below it. A point's weight is 1 for
    the first center and when every point already is a center, else its
    squared distance to the nearest center."""
    g, k = u.shape
    centers = np.empty((g, k, points.shape[1]))
    d2 = np.full((g, points.shape[0]), np.inf)
    w = np.ones_like(d2)
    for t in range(k):
        cdf = np.cumsum(w, axis=1)
        if not np.all(np.isfinite(cdf[:, -1])):
            raise ValueError("k-means++ squared distances overflowed; rescale the points")
        cdf /= cdf[:, -1:]
        centers[:, t] = points[np.count_nonzero(cdf <= u[:, t, None], axis=1)]
        d2 = np.minimum(d2, _sq_dists(points, centers[:, t]))
        w = np.where(d2.any(axis=1, keepdims=True), d2, 1.0)
    return centers


def _repair_empty(d2: np.ndarray, assign: np.ndarray, counts: np.ndarray) -> None:
    """Give each empty cluster, in place, the point farthest from its centroid,
    stealing only from clusters that keep at least one member. kmeans refuses
    n < k, so while a cluster is empty some other cluster holds two points."""
    n = assign.size
    for c in np.flatnonzero(counts == 0):
        own_d2 = d2[np.arange(n), assign]
        candidates = np.flatnonzero(counts[assign] >= 2)
        farthest = candidates[np.argmax(own_d2[candidates])]
        counts[assign[farthest]] -= 1
        assign[farthest] = c
        counts[c] += 1


def _centroids(points: np.ndarray, assign: np.ndarray, counts: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Member means of every cluster of a group of restarts; empty clusters keep
    their center. Sums run over members in index order."""
    g, k, dim = centers.shape
    new = centers.copy()
    filled = counts > 0
    bins = (np.arange(g)[:, None] * k + assign).ravel()
    sums = np.stack(
        [np.bincount(bins, weights=np.tile(points[:, j], g), minlength=g * k) for j in range(dim)], axis=1
    ).reshape(g, k, dim)
    new[filled] = sums[filled] / counts[filled][:, None]
    return new


def _lloyd(points: np.ndarray, centers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lloyd iterations of a group of restarts at once, from their (g, k, dim)
    starting centers. Returns the (g, n) labels and the g objectives; every
    restart rounds bit for bit as if it ran alone."""
    g, k, _ = centers.shape
    n = points.shape[0]
    assign = np.zeros((g, n), dtype=np.intp)
    objective = np.full(g, np.inf)
    increased: dict[int, str] = {}
    active = np.arange(g)
    for _ in range(_MAX_ITER):
        a = active.size
        old = centers[active]
        d2 = np.stack([_sq_dists(points, old[:, c]) for c in range(k)], axis=2)
        labels = np.argmin(d2, axis=2)  # ties resolve to the smaller centroid index
        counts = np.bincount((np.arange(a)[:, None] * k + labels).ravel(), minlength=a * k).reshape(a, k)
        for r in np.flatnonzero((counts == 0).any(axis=1)):
            _repair_empty(d2[r], labels[r], counts[r])
        del d2  # freed before the objective's (a, n, dim) centroids
        new = _centroids(points, labels, counts, old)
        own = new[np.arange(a)[:, None], labels]
        obj = sum_of_squares(col - c for col, c in zip(points.T, np.moveaxis(own, 2, 0))).sum(axis=1)
        prev = objective[active]
        # Lloyd objective is non-increasing up to floating-point noise.
        up = obj > prev + 1e-9 * (1.0 + np.abs(prev))
        for r in np.flatnonzero(up):
            increased[int(active[r])] = f"k-means objective increased from {float(prev[r])!r} to {float(obj[r])!r}"
        shift = np.max(np.linalg.norm(new - old, axis=2), axis=1)
        centers[active] = new
        assign[active] = labels
        objective[active] = obj
        active = active[~((shift < _SHIFT_TOL) | up)]
        if not active.size:
            break
    if increased:
        raise RuntimeError(increased[min(increased)])
    return assign, objective


def kmeans(points: np.ndarray, config: KMeansConfig) -> np.ndarray:
    """Restarted k-means++ / Lloyd. One (restarts, k) table of uniforms is
    drawn from _rng(config.seed), and restart r takes its k-means++ centers
    by row r (_kmeanspp_init), so row r does not depend on the restart
    count. The restart with the lowest within-cluster sum of squares wins
    (ties by lowest restart index). Restarts iterate together in groups whose
    per-group arrays hold at most _GROUP_VALUES values. On k distinct unit
    vectors e_j (how c = k components embed) every restart ends at the
    partition by vector with objective 0; restart 0 wins, so only it runs."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[0] < config.k:
        raise ValueError(f"need at least k={config.k} points, got shape {points.shape}")
    bad = np.flatnonzero(~np.all(np.isfinite(points), axis=1))
    if bad.size:
        raise ValueError(f"k-means points must be finite; rows {bad.tolist()} are not")

    n, hot = points.shape[0], np.argmax(points, axis=1)
    units = np.count_nonzero(points) == n and np.all(points[np.arange(n), hot] == 1.0)
    restarts = 1 if units and np.unique(hot).size == config.k else config.restarts
    u = _rng(config.seed).random((restarts, config.k))
    group = max(1, _GROUP_VALUES // (n * max(config.k, points.shape[1])))
    best_labels, best_obj = None, np.inf
    for first in range(0, restarts, group):
        centers = _kmeanspp_init(points, u[first : first + group])
        labels, obj = _lloyd(points, centers)
        r = int(np.argmin(obj))  # first of equal objectives: the lowest restart
        if best_labels is None or obj[r] < best_obj:
            best_obj = obj[r]
            best_labels = labels[r]
    return best_labels


def spectral_cluster(W: Any, config: KMeansConfig) -> np.ndarray:
    """Cluster graph vertices: spectral embedding at dimension config.k, then k-means."""
    return kmeans(normalized_laplacian_embedding(W, config.k), config)
