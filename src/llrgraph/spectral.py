"""Normalized spectral clustering: symmetric-normalized affinity embedding
with row normalization, followed by restarted k-means."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np
from scipy.sparse import spmatrix
from scipy.sparse.csgraph import connected_components

from .data import InputError, _rng

#: Largest n * max(k, dim) * restarts of one group of k-means restarts that
#: iterate together, which bounds their per-group arrays.
_GROUP_VALUES = 2**16


@dataclass(frozen=True)
class KMeansConfig:
    k: int
    restarts: int = 20
    max_iter: int = 300
    tol: float = 1e-8
    seed: int = 0

    def validate(self, n: int | None = None) -> None:
        """Check each value's own range; given the sample count n, also k <= n."""
        if self.k < 1:
            raise InputError(f"k must be >= 1, got {self.k}")
        if self.restarts < 1:
            raise InputError(f"restarts must be >= 1, got {self.restarts}")
        if self.max_iter < 1:
            raise InputError(f"max_iter must be >= 1, got {self.max_iter}")
        if not self.tol > 0:
            raise InputError(f"tol must be positive, got {self.tol}")
        if n is not None and self.k > n:
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


def _degrees(W: spmatrix) -> np.ndarray:
    """Vertex degrees; raises on isolated vertices."""
    degrees = np.asarray(W.sum(axis=1)).ravel()
    isolated = np.flatnonzero(degrees <= 0)
    if isolated.size:
        raise ValueError(f"graph has isolated vertices (zero degree): {isolated.tolist()}")
    return degrees


def _dense(W: spmatrix) -> np.ndarray:
    return W.toarray() if hasattr(W, "toarray") else np.asarray(W, dtype=float)


def _component_embedding(W: spmatrix, degrees: np.ndarray, c: int, labels: np.ndarray, k: int) -> np.ndarray:
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
        A = inv_sqrt[idx, None] * _dense(W[idx][:, idx]) * inv_sqrt[None, idx]
        evals, evecs = sym_eig(A)
        # Descending from the second pair: the top one (eigenvalue 1) is
        # already a column, and a block contributes at most k - c columns.
        for pos in range(min(idx.size - 1, k - c)):
            columns.append((-evals[-2 - pos], comp, pos, idx, evecs[:, -2 - pos]))
    columns.sort(key=lambda column: column[:3])
    for col, (_, _, _, idx, vec) in enumerate(columns[: k - c], start=c):
        coords[idx, col] = vec
    return coords


def normalized_laplacian_embedding(W: spmatrix, k: int) -> np.ndarray:
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
    eigensolve picks k vectors from the degenerate eigenspace.
    """
    n = W.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must lie in [1, n={n}], got {k}")
    # Nonnegative weights make eigenvalue 1 the top of every component's
    # block (Perron-Frobenius), which the component-wise path relies on.
    negative = np.flatnonzero(np.asarray((W < 0).sum(axis=1)).ravel())
    if negative.size:
        raise ValueError(f"graph has negative edge weights at vertices: {negative.tolist()}")
    degrees = _degrees(W)
    c, labels = connected_components(W != 0, directed=False)
    if c <= k:
        coords = _component_embedding(W, degrees, c, labels, k)
    else:
        inv_sqrt = 1.0 / np.sqrt(degrees)
        A = inv_sqrt[:, None] * _dense(W) * inv_sqrt[None, :]
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
    diff = points - centers[:, None, :]
    return np.sum(np.square(diff, out=diff), axis=2)


def _kmeanspp_init(points: np.ndarray, k: int, seeds: range) -> np.ndarray:
    """k-means++ starts of a group of restarts, as (g, k, dim) centers; restart
    r draws from _rng(seeds[r]). The first center is integers(n); each later
    one replicates Generator.choice(n, p=d2 / total), one random() searched
    (side="right") in the normalized cumulative sum, or is integers(n) when
    every point already is a center (total 0)."""
    n = points.shape[0]
    rngs = [_rng(seed) for seed in seeds]
    choice = np.array([rng.integers(n) for rng in rngs])
    centers = np.empty((len(rngs), k, points.shape[1]))
    centers[:, 0] = points[choice]
    d2 = _sq_dists(points, centers[:, 0])
    for t in range(1, k):
        total = d2.sum(axis=1)
        if not np.all(np.isfinite(total)):
            raise ValueError("k-means++ squared distances overflowed; rescale the points")
        live = np.flatnonzero(total > 0)
        cdf = np.cumsum(d2[live] / total[live, None], axis=1)
        cdf /= cdf[:, -1:]
        for r, row in zip(live, cdf):
            choice[r] = row.searchsorted(rngs[r].random(), side="right")
        for r in np.flatnonzero(total == 0):
            choice[r] = rngs[r].integers(n)
        centers[:, t] = points[choice]
        d2 = np.minimum(d2, _sq_dists(points, centers[:, t]))
    return centers


def _repair_empty(d2: np.ndarray, assign: np.ndarray, counts: np.ndarray) -> None:
    """Give each empty cluster, in place, the point farthest from its centroid,
    stealing only from clusters that keep at least one member."""
    n = assign.size
    for c in np.flatnonzero(counts == 0):
        own_d2 = d2[np.arange(n), assign]
        candidates = np.flatnonzero(counts[assign] >= 2)
        if candidates.size == 0:
            break
        farthest = candidates[np.argmax(own_d2[candidates])]
        counts[assign[farthest]] -= 1
        assign[farthest] = c
        counts[c] += 1


def _centroids(points: np.ndarray, assign: np.ndarray, counts: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Member means of every cluster of a group of restarts; empty clusters keep
    their center. Sums run over members in index order, as in a per-cluster
    points[members].mean(axis=0)."""
    g, k, dim = centers.shape
    new = centers.copy()
    filled = counts > 0
    if dim == 1:
        # A one-column points[members].mean(axis=0) sums pairwise, not in
        # index order as bincount does, so 1-D points keep it.
        for r, c in zip(*np.nonzero(filled)):
            new[r, c] = points[assign[r] == c].mean(axis=0)
        return new
    bins = (np.arange(g)[:, None] * k + assign).ravel()
    sums = np.stack(
        [np.bincount(bins, weights=np.tile(points[:, j], g), minlength=g * k) for j in range(dim)], axis=1
    ).reshape(g, k, dim)
    new[filled] = sums[filled] / counts[filled][:, None]
    return new


def _lloyd(points: np.ndarray, centers: np.ndarray, config: KMeansConfig) -> tuple[np.ndarray, np.ndarray]:
    """Lloyd iterations of a group of restarts at once, from their (g, k, dim)
    starting centers. Returns the (g, n) labels and the g objectives; every
    restart rounds bit for bit as if it ran alone."""
    g, k, _ = centers.shape
    n = points.shape[0]
    assign = np.zeros((g, n), dtype=np.intp)
    objective = np.full(g, np.inf)
    increased: dict[int, str] = {}
    active = np.arange(g)
    for _ in range(config.max_iter):
        a = active.size
        old = centers[active]
        d2 = np.empty((a, n, k))
        for c in range(k):
            diff = points - old[:, None, c, :]
            d2[:, :, c] = np.sum(np.square(diff, out=diff), axis=2)
        labels = np.argmin(d2, axis=2)  # ties resolve to the smaller centroid index
        counts = np.bincount((np.arange(a)[:, None] * k + labels).ravel(), minlength=a * k).reshape(a, k)
        for r in np.flatnonzero((counts == 0).any(axis=1)):
            _repair_empty(d2[r], labels[r], counts[r])
        del d2, diff  # freed before the objective's buffer of the same size
        new = _centroids(points, labels, counts, old)
        diff = new[np.arange(a)[:, None], labels]
        np.subtract(points, diff, out=diff)
        obj = np.sum(np.square(diff, out=diff), axis=(1, 2))
        prev = objective[active]
        # Lloyd objective is non-increasing up to floating-point noise.
        up = obj > prev + 1e-9 * (1.0 + np.abs(prev))
        for r in np.flatnonzero(up):
            increased[int(active[r])] = f"k-means objective increased from {float(prev[r])!r} to {float(obj[r])!r}"
        shift = np.max(np.linalg.norm(new - old, axis=2), axis=1)
        centers[active] = new
        assign[active] = labels
        objective[active] = obj
        active = active[~((shift < config.tol) | up)]
        if not active.size:
            break
    if increased:
        raise RuntimeError(increased[min(increased)])
    return assign, objective


def kmeans(points: np.ndarray, config: KMeansConfig) -> np.ndarray:
    """Restarted k-means++ / Lloyd. Restart r uses seed config.seed + r; the
    restart with the lowest within-cluster sum of squares wins (ties by
    lowest restart index). Restarts iterate together in groups whose
    per-group arrays hold at most _GROUP_VALUES values."""
    points = np.asarray(points, dtype=float)
    config.validate()
    if points.ndim != 2 or points.shape[0] < config.k:
        raise ValueError(f"need at least k={config.k} points, got shape {points.shape}")
    bad = np.flatnonzero(~np.all(np.isfinite(points), axis=1))
    if bad.size:
        raise ValueError(f"k-means points must be finite; rows {bad.tolist()} are not")

    group = max(1, _GROUP_VALUES // (points.shape[0] * max(config.k, points.shape[1])))
    best_labels, best_obj = None, np.inf
    for first in range(0, config.restarts, group):
        seeds = range(config.seed + first, config.seed + min(first + group, config.restarts))
        centers = _kmeanspp_init(points, config.k, seeds)
        labels, obj = _lloyd(points, centers, config)
        r = int(np.argmin(obj))  # first of equal objectives: the lowest restart
        if best_labels is None or obj[r] < best_obj:
            best_obj = obj[r]
            best_labels = labels[r]
    return best_labels


def spectral_cluster(W: spmatrix, k: int, config: KMeansConfig) -> np.ndarray:
    """Cluster graph vertices: spectral embedding at dimension k, then k-means."""
    coords = normalized_laplacian_embedding(W, k)
    return kmeans(coords, replace(config, k=k))
