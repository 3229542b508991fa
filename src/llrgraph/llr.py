"""Locally linear representation similarity graphs.

Each point x_i is encoded over a dictionary of its d_dict nearest other
points by solving a constrained quadratic that blends a pairwise-distance
penalty with the linear reconstruction residual,

    minimize  lam * ||S c||^2 + (1 - lam) * ||x_i - D c||^2
    subject to  1^T c = 1,

where D holds the dictionary atoms as columns and S is the diagonal matrix
of distances from x_i to each atom. The closed-form minimizer is

    c = M^{-1} 1 / (1^T M^{-1} 1),
    M = lam * S^T S + (1 - lam) * (x_i 1^T - D)^T (x_i 1^T - D).

u = M^{-1} 1 is computed one of two ways. With B = x_i 1^T - D (m x d_dict)
and the diagonal part lam * s^2 + ridge, the fit term B^T B has rank <= m.
When m < d_dict and lam >= LOW_RANK_MIN_LAMBDA, a Woodbury solve in scaled
variables factors only an m x m system, O(d_dict m^2 + m^3) per point.
Otherwise the dense d_dict x d_dict M gets a Cholesky solve, O(d_dict^3) per
point; this keeps the LLE limit lam = 0, where the diagonal part is only the
ridge and the Woodbury form loses accuracy, exact.

The coefficient vectors are sparsified to the k_keep strongest entries by
absolute value and symmetrized into a nonnegative similarity graph with
W_ij = |C_ij| + |C_ji|.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.sparse import csr_matrix
from scipy.spatial.distance import cdist

from .data import InputError, validate_data_matrix

#: Row-sum tolerance below which a coefficient normalization is degenerate.
DEGENERATE_TOL = 1e-12
#: Smallest lambda at which a point with fewer ambient dimensions than atoms
#: is solved through the low-rank (Woodbury) path; below it the direct solve
#: keeps the LLE limit lambda = 0 exact.
LOW_RANK_MIN_LAMBDA = 1e-3


@dataclass(frozen=True)
class HyperParams:
    """Graph construction hyperparameters.

    lam is the distance/representation trade-off in [0, 1); k_keep is the
    number of strongest connections retained per point; d_dict is the
    dictionary size (nearest neighbors used as atoms); epsilon scales the
    trace-relative ridge added to guard singular systems.
    """

    lam: float
    k_keep: int
    d_dict: int
    epsilon: float = 1e-9

    def validate(self, n: int | None = None) -> None:
        """Check each value's own range; given the sample count n, also the
        bounds k_keep <= d_dict <= n - 1 that a graph on n samples needs."""
        if not 0.0 <= self.lam < 1.0:
            raise InputError(f"lambda must lie in [0, 1), got {self.lam}")
        if self.k_keep < 1:
            raise InputError(f"k_keep must be >= 1, got {self.k_keep}")
        if self.d_dict < 1:
            raise InputError(f"d_dict must be >= 1, got {self.d_dict}")
        if self.epsilon < 0:
            raise InputError(f"epsilon must be nonnegative, got {self.epsilon}")
        if n is None:
            return
        if self.k_keep > self.d_dict:
            raise InputError(f"k_keep ({self.k_keep}) must not exceed d_dict ({self.d_dict})")
        if self.d_dict > n - 1:
            raise InputError(f"d_dict ({self.d_dict}) must not exceed n - 1 ({n - 1})")


@dataclass
class Dictionary:
    """Dictionary of point `owner`: atom_indices are global sample indices
    (excluding owner), atoms holds the corresponding samples as columns."""

    owner: int
    atom_indices: np.ndarray  # (d_dict,) global indices
    atoms: np.ndarray  # (m, d_dict)


def neighbour_table(X: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k nearest other samples of every sample, as (n, k) index and distance tables.

    Row i excludes i itself and is ordered by ascending Euclidean distance,
    ties broken by smaller global index. Rows are sorted one at a time so that
    the n x n distance matrix is the only quadratic buffer. Distances are
    taken on X scaled by the exact power of two that brings max|X| into
    [0.5, 1) and scaled back, so data above about 1e154 does not overflow
    the squared differences.
    """
    e = int(np.frexp(np.abs(X).max(initial=0.0))[1])
    Xs = np.ldexp(X, -e)
    dists = cdist(Xs, Xs)
    np.ldexp(dists, e, out=dists)
    np.fill_diagonal(dists, np.inf)
    idx = np.empty((X.shape[0], k), dtype=np.intp)
    for i, row in enumerate(dists):
        idx[i] = np.argsort(row, kind="stable")[:k]
    return idx, np.take_along_axis(dists, idx, axis=1)


def build_dictionary(X: np.ndarray, i: int, d_dict: int) -> Dictionary:
    """Collect the d_dict nearest samples to x_i (excluding i) as dictionary atoms.

    Atoms are ordered by ascending Euclidean distance, ties broken by smaller
    global index. d_dict = n-1 yields the full dictionary.
    """
    X = validate_data_matrix(X)
    n = X.shape[0]
    if n < 2:
        raise ValueError("need at least 2 samples to build a dictionary")
    if not 0 <= i < n:
        raise ValueError(f"sample index {i} out of range for n={n}")
    if not 1 <= d_dict <= n - 1:
        raise ValueError(f"d_dict must lie in [1, n-1={n - 1}], got {d_dict}")
    order = neighbour_table(X, d_dict)[0][i]
    return Dictionary(owner=i, atom_indices=order, atoms=X[order].T.copy())


def distance_diagonal(X: np.ndarray, dic: Dictionary) -> np.ndarray:
    """Distances from the owner point to each dictionary atom, in atom order.

    Taken like neighbour_table's: on data scaled by the exact power of two
    that brings max|X| into [0.5, 1), then scaled back.
    """
    X = validate_data_matrix(X)
    e = int(np.frexp(np.abs(X).max(initial=0.0))[1])
    return np.ldexp(np.linalg.norm(np.ldexp(X[dic.owner][:, None] - dic.atoms, -e), axis=0), e)


def _ridge(trace: float, epsilon: float, d: int) -> float:
    return epsilon * (trace / d) if trace > 0 else epsilon


def _direct_solve(B: np.ndarray, s: np.ndarray, lam: float, epsilon: float) -> np.ndarray:
    """u = M^{-1} 1 by a Cholesky solve of the dense d x d M; O(d^3)."""
    d = B.shape[1]
    M = (1.0 - lam) * (B.T @ B)
    M[np.diag_indices(d)] += lam * s**2
    ridge = _ridge(float(np.trace(M)), epsilon, d)
    if ridge > 0:
        M[np.diag_indices(d)] += ridge
    return scipy.linalg.solve(M, np.ones(d), assume_a="pos")


def _low_rank_solve(B: np.ndarray, s: np.ndarray, lam: float, epsilon: float) -> np.ndarray:
    """u = M^{-1} 1 by the Woodbury identity on the rank <= m term; O(d m^2 + m^3).

    With the diagonal part delta = lam s^2 + ridge, r = delta^{-1/2} and
    G = B diag(r), M = diag(1/r) (I + (1 - lam) G^T G) diag(1/r), so
    M^{-1} 1 = r * (r - G^T y) with (G G^T + I / (1 - lam)) y = G r.
    """
    m, d = B.shape
    delta = lam * s**2 + _ridge((1.0 - lam) * float(np.sum(B * B)) + lam * float(s @ s), epsilon, d)
    if not delta.min() > 0:
        raise scipy.linalg.LinAlgError("zero distance with a zero ridge makes M singular")
    r = 1.0 / np.sqrt(delta)
    G = B * r
    K = G @ G.T
    K[np.diag_indices(m)] += 1.0 / (1.0 - lam)
    y = scipy.linalg.solve(K, G @ r, assume_a="pos")
    return r * (r - G.T @ y)


def _solve_core(x: np.ndarray, atoms: np.ndarray, s: np.ndarray, lam: float, epsilon: float, owner: int) -> np.ndarray:
    m, d = atoms.shape
    # Rescale by an exact power of two that brings max(s) into [0.5, 1). Each
    # |B_kj| <= s_j, so M and its ridge scale by exactly 4^-e and the
    # coefficients are unchanged, while 1^T u stays clear of under- and
    # overflow whatever the scale of the data. B is Fortran-ordered whatever
    # the layout of atoms, so that BLAS sums its products in one order and a
    # dictionary copy solves bit for bit like a view of the data.
    e = int(np.frexp(s.max(initial=0.0))[1])
    B = np.ldexp(x[:, None] - np.asfortranarray(atoms), -e)  # column j = x - atom_j
    s = np.ldexp(s, -e)
    solve = _low_rank_solve if m < d and lam >= LOW_RANK_MIN_LAMBDA else _direct_solve
    try:
        u = solve(B, s, lam, epsilon)
    except scipy.linalg.LinAlgError as exc:
        raise ValueError(f"degenerate coefficient system for sample {owner}: {exc}") from None
    total = float(u.sum())
    if not np.isfinite(total) or abs(total) < DEGENERATE_TOL:
        raise ValueError(f"degenerate coefficient solution for sample {owner}: 1^T u = {total}")
    return u / total


def solve_coefficients(
    X: np.ndarray, dic: Dictionary, s: np.ndarray, lam: float, epsilon: float = 1e-9
) -> np.ndarray:
    """Solve the constrained quadratic for the coefficients of one point.

    Returns the coefficient vector aligned with dic.atom_indices; it sums to
    one by construction. A trace-relative ridge epsilon * (trace(M)/d_dict)
    (plain epsilon when the trace vanishes) guards singular systems, and the
    system is solved with a symmetric positive-definite factorization.
    """
    HyperParams(lam=lam, k_keep=1, d_dict=1, epsilon=epsilon).validate()  # one solve uses lam and epsilon only
    X = validate_data_matrix(X)
    s = np.asarray(s, dtype=float)
    if not np.all(np.isfinite(s)) or np.any(s < 0):
        raise ValueError("distance diagonal must be finite and nonnegative")
    if s.shape[0] != dic.atoms.shape[1]:
        raise ValueError("distance diagonal length must match dictionary size")
    return _solve_core(X[dic.owner], dic.atoms, s, lam, epsilon, dic.owner)


def sparsify(values: np.ndarray, atom_indices: np.ndarray, k_keep: int) -> tuple[np.ndarray, np.ndarray]:
    """Keep the k_keep entries of largest absolute value (ties: smaller global
    index), drop the rest, and return (global_indices, values) sorted by
    global index. Retained values are not renormalized; exact zeros are not
    stored.
    """
    values = np.asarray(values, dtype=float)
    atom_indices = np.asarray(atom_indices)
    if not 1 <= k_keep <= values.size:
        raise ValueError(f"k_keep must lie in [1, {values.size}], got {k_keep}")
    order = np.lexsort((atom_indices, -np.abs(values)))[:k_keep]
    kept = order[values[order] != 0.0]
    idx = atom_indices[kept]
    out = np.argsort(idx)
    return idx[out], values[kept][out]


def symmetrize(C: csr_matrix) -> csr_matrix:
    """Symmetrize a coefficient matrix into a similarity graph, W_ij = |C_ij| + |C_ji|."""
    if C.shape[0] != C.shape[1]:
        raise ValueError(f"coefficient matrix must be square, got {C.shape}")
    if C.shape[0] and np.any(C.diagonal() != 0):
        raise ValueError("coefficient matrix must have a zero diagonal")
    A = abs(C.tocsr(copy=True))
    W = (A + A.T).tocsr()
    W.sort_indices()
    return W


def coefficient_table(X: np.ndarray, params: HyperParams) -> tuple[np.ndarray, np.ndarray]:
    """Unsparsified coefficients of every sample over its dictionary.

    Returns the (n, d_dict) neighbour-index table and the matching
    coefficient table; row i sums to one. params.k_keep is not used, so one
    table serves every retention level.
    """
    idx, dist = neighbour_table(X, params.d_dict)
    coef = np.empty(idx.shape)
    for i, (order, s) in enumerate(zip(idx, dist)):
        coef[i] = _solve_core(X[i], X[order].T, s, params.lam, params.epsilon, owner=i)
    return idx, coef


def sparsify_table(idx: np.ndarray, coef: np.ndarray, k_keep: int) -> csr_matrix:
    """Sparsify each coefficient row to its k_keep strongest entries and
    scatter them to global indices as an (n, n) matrix."""
    n = idx.shape[0]
    cols: list[np.ndarray] = []
    vals: list[np.ndarray] = []
    for order, c in zip(idx, coef):
        kept_idx, kept = sparsify(c, order, k_keep)
        cols.append(kept_idx)
        vals.append(kept)
    rows = np.repeat(np.arange(n), [c.size for c in cols])
    C = csr_matrix((np.concatenate(vals), (rows, np.concatenate(cols))), shape=(n, n))
    C.sort_indices()
    return C


def build_llr_coefficients(X: np.ndarray, params: HyperParams) -> csr_matrix:
    """Per-point coefficient rows, sparsified and scattered to global indices.

    Row i holds the retained coefficients of point i; the diagonal is zero
    because each point's dictionary excludes the point itself. Rows are
    independent, so the result does not depend on processing order.
    """
    X = validate_data_matrix(X)
    params.validate(X.shape[0])
    return sparsify_table(*coefficient_table(X, params), params.k_keep)


def build_llr_graph(X: np.ndarray, params: HyperParams) -> csr_matrix:
    """Construct the similarity graph: solve per-point coefficients over
    nearest-neighbor dictionaries, keep the k_keep strongest per point,
    and symmetrize."""
    return symmetrize(build_llr_coefficients(X, params))
