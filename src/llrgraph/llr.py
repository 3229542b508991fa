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
ridge and the Woodbury form loses accuracy, exact. Either path solves a stack
of points at once, and each point rounds as if it were solved alone.

The coefficient vectors are sparsified to the k_keep strongest entries by
absolute value and symmetrized into a nonnegative similarity graph with
W_ij = |C_ij| + |C_ji|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from .data import InputError, unit_scale, validate_data_matrix
from .graphio import CSR, as_csr

#: Row-sum tolerance below which a coefficient normalization is degenerate.
DEGENERATE_TOL = 1e-12
#: Smallest lambda at which a point with fewer ambient dimensions than atoms
#: is solved through the low-rank (Woodbury) path; below it the direct solve
#: keeps the LLE limit lambda = 0 exact.
LOW_RANK_MIN_LAMBDA = 1e-3
#: Largest number of values in one per-chunk array of the neighbour search
#: (the 1-NN search included) and the batched coefficient solve (512 KB of float64).
_CHUNK_VALUES = 2**16
#: A neighbour table: (n, k) neighbour indices and distances, as neighbour_table returns them.
NeighbourTable = tuple[np.ndarray, np.ndarray]


@dataclass(frozen=True)
class HyperParams:
    """Graph construction hyperparameters.

    lam is the distance/representation trade-off in [0, 1); k_keep is the
    number of strongest connections retained per point; d_dict is the
    dictionary size (nearest neighbors used as atoms); epsilon scales the
    trace-relative ridge added to guard singular systems. A value out of
    its own range raises InputError when the parameters are made.
    """

    d_dict: int
    lam: float = 0.5
    k_keep: int = 8
    epsilon: float = 1e-9

    def __post_init__(self) -> None:
        if not 0.0 <= self.lam < 1.0:
            raise InputError(f"lambda must lie in [0, 1), got {self.lam}")
        if self.k_keep < 1:
            raise InputError(f"k_keep must be >= 1, got {self.k_keep}")
        if self.d_dict < 1:
            raise InputError(f"d_dict must be >= 1, got {self.d_dict}")
        if not math.isfinite(self.epsilon):
            raise InputError(f"epsilon must be finite, got {self.epsilon}")
        if self.epsilon < 0:
            raise InputError(f"epsilon must be nonnegative, got {self.epsilon}")

    def validate(self, n: int) -> None:
        """Check the bounds k_keep <= d_dict <= n - 1 that a graph on n samples needs."""
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


def _exact_distances(Q, R) -> np.ndarray:
    """sqrt(sum_j (q_j - r_j)^2) over broadcast pairs, with Q and R given
    column by column (iterables of m arrays). The squares are summed from
    column 0 up, acc += (q_j - r_j)^2, the order and rounding of cdist's
    Euclidean distance, so the results equal its bit for bit."""
    acc = None
    for q, r in zip(Q, R):
        d = q - r
        d *= d
        acc = d if acc is None else np.add(acc, d, out=acc)
    return np.sqrt(acc, out=acc)


def neighbour_table(X: np.ndarray, k: int, queries: np.ndarray | None = None) -> NeighbourTable:
    """The k nearest rows of X to each query, as (n_queries, k) index and distance tables.

    Without queries, the queries are the rows of X, each excluding itself. A
    row holds the first k entries of the whole row stably sorted by Euclidean
    distance (ties: smaller index), so a k-wide table is the first k columns
    of any wider one. The distances are cdist's (scipy.spatial.distance), bit
    for bit, taken on the data and queries scaled together by unit_scale and
    scaled back: data above about 1e154 does not overflow, a distance that
    leaves the float range raises ValueError, and data already in that range
    keeps its scale, so its distances rank. Where the entries span too many
    orders of magnitude, the common scale underflows the distance of rows that
    differ to 0; where such zeros fill a row of the table, or their unscaled
    distances would order the row otherwise, ValueError is raised too.

    A screen picks each row's k candidates from A = |r|^2 - 2 q.r, the squared
    distance less |q|^2 (the same along a row), one BLAS product per block of
    rows within _CHUNK_VALUES. Whatever order BLAS sums in, with or without
    FMA and at any thread count, A + |q|^2 is within gamma_{m+1} (|q| + |r|)^2
    of d^2 (Higham, Accuracy and Stability of Numerical Algorithms, 2002,
    section 3.1); the exact sum is within gamma_{m+2} d^2 of d^2; and sums
    more than a relative 8u apart keep distinct square roots. The margin is
    twice what those bounds need (u = 2^-53), with room for underflow, even
    flushed to zero; so when no sample outside the k candidates has A within
    the margin of the k-th candidate's, every sample outside has an exact
    distance strictly above every candidate's. Exact distances are then taken
    for the (rows, k) candidates only, in index order, scaled back and stably
    sorted. Rows that fail the screen (ties and near-ties at the k-th
    candidate), rows whose k-th distance leaves the normal float range when
    scaled back (where scaling could merge distances), and every row when k
    covers all of X, get the exact distances of the whole row and a stable
    sort instead. No n x n matrix is built.
    """
    X, self_search = validate_data_matrix(X), queries is None
    if self_search:
        e, R = unit_scale(X)
        Q = R
    else:
        e, R, Q = unit_scale(X, queries)
    n, m = R.shape
    if not 1 <= k <= n - self_search:
        raise ValueError(f"k must lie in [1, {n - self_search}], got {k}")
    nq = Q.shape[0]
    Rt, Qt = np.ascontiguousarray(R.T), np.ascontiguousarray(Q.T)
    idx, dist = np.empty((nq, k), dtype=np.intp), np.empty((nq, k))
    block = max(1, _CHUNK_VALUES // n)
    if k == n - self_search:
        full = np.ones(nq, dtype=bool)  # every sample is a neighbour: nothing to screen
    else:
        full = np.zeros(nq, dtype=bool)
        r_sq = np.einsum("ij,ij->i", R, R)
        q_sq = r_sq if self_search else np.einsum("ij,ij->i", Q, Q)
        bound = (np.sqrt(q_sq) + np.sqrt(r_sq.max())) ** 2
        margin = (8 * m + 64) * (np.ldexp(bound, -53) + np.finfo(float).tiny)
        for a in range(0, nq, block):
            b = min(a + block, nq)
            A = (-2.0 * Q[a:b]) @ Rt
            A += r_sq  # |q|^2 is the same along the row, so it changes no comparison
            rows = np.arange(b - a)
            if self_search:
                A[rows, a + rows] = np.inf
            sel = np.argpartition(A, k - 1, axis=1)[:, :k]
            kth = np.take_along_axis(A, sel, axis=1).max(axis=1)
            full[a:b] = np.count_nonzero(A <= (kth + margin[a:b])[:, None], axis=1) > k
            idx[a:b] = np.sort(sel, axis=1)
        # Exact distances of the candidates, for chunks of rows within _CHUNK_VALUES.
        rows_per = max(1, _CHUNK_VALUES // k)
        for a in range(0, nq, rows_per):
            sel = idx[a : a + rows_per]
            near = _exact_distances(Qt[:, a : a + rows_per, None], (r[sel] for r in Rt))
            with np.errstate(over="ignore"):  # an overflowed row is searched in full, which reports it
                np.ldexp(near, e, out=near)
            # The candidates are in index order, so a stable sort by distance puts ties in index order too.
            order = np.argsort(near, axis=1, kind="stable")
            idx[a : a + rows_per] = np.take_along_axis(sel, order, axis=1)
            dist[a : a + rows_per] = np.take_along_axis(near, order, axis=1)
        kth = dist[:, -1]
        full |= ~(np.isfinite(kth) & ((kth >= np.finfo(float).tiny) | (e >= 0)))
    redo = np.flatnonzero(full)
    for a in range(0, redo.size, block):
        rows = redo[a : a + block]
        D = _exact_distances(Qt[:, rows, None], Rt)
        with np.errstate(over="ignore"):  # an overflowed neighbour is reported below
            np.ldexp(D, e, out=D)
        if self_search:
            D[np.arange(rows.size), rows] = np.inf
        sel = np.argsort(D, axis=1, kind="stable")[:, :k]
        near = np.take_along_axis(D, sel, axis=1)
        overflowed = np.isinf(near).any(axis=1)
        if overflowed.any():
            # The diagonal is inf too, so an overflowed row may have selected
            # its own sample; name an overflowed pair of two samples.
            r = int(np.argmax(overflowed))
            far = np.flatnonzero(np.isinf(D[r]))
            j = int(far[far != rows[r]][0])
            raise ValueError(f"distance between samples {rows[r]} and {j} is beyond the float range")
        idx[rows], dist[rows] = sel, near
    # A selected distance of 0 between rows that are apart underflowed at the
    # common scale, and such zeros are ranked by index. The table stands where
    # their unscaled distances keep each row in order and the zeros do not
    # fill it, which would leave out samples that may be nearer.
    rows, cols = np.nonzero(dist == 0)
    if rows.size:
        unscaled = X if self_search else np.asarray(queries, dtype=float)
        lost = _exact_distances(unscaled[rows].T, X[idx[rows, cols]].T)
        true = dist.copy()
        true[rows, cols] = lost
        unranked = (dist[:, -1] == 0) | np.any(np.diff(true, axis=1) < 0, axis=1)
        bad = np.flatnonzero((lost > 0) & unranked[rows])
        if bad.size:
            i, j = rows[bad[0]], idx[rows[bad[0]], cols[bad[0]]]
            raise ValueError(f"distance between samples {i} and {j} underflows at the data's scale, so its "
                             "neighbours cannot be ranked: the entries span too many orders of magnitude")
    return idx, dist


def neighbour_prefix(X: np.ndarray, k: int, table: NeighbourTable | None = None) -> NeighbourTable:
    """The first k columns of table, a neighbour table of X at least k wide; neighbour_table(X, k) without one."""
    if table is None:
        return neighbour_table(X, k)
    if table[0].shape[0] != X.shape[0] or table[0].shape[1] < k:
        raise ValueError(f"a neighbour table of shape {table[0].shape} lacks {k} neighbours of {X.shape[0]} samples")
    return table[0][:, :k], table[1][:, :k]


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

    The distances of neighbour_table, bit for bit: summed by _exact_distances
    on unit_scale(X), then scaled back.
    """
    e, X = unit_scale(validate_data_matrix(X))
    return np.ldexp(_exact_distances(X[dic.owner][:, None], X[dic.atom_indices].T), e)


def _uses_low_rank(m: int, d: int, lam: float) -> bool:
    return m < d and lam >= LOW_RANK_MIN_LAMBDA


def _ridge(trace: np.ndarray, epsilon: float, d: int) -> np.ndarray:
    return np.where(trace > 0, epsilon * (trace / d), epsilon)


def _solve_pos(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """scipy.linalg.solve(A, b, assume_a="pos") on a stack of systems. SciPy may
    round one 1 x 1 system differently from a stack of them (1.17 divides it
    out), so 1 x 1 systems are solved one at a time, each as a system of its own."""
    import scipy.linalg  # imported on first use, to keep the CLI's start-up light

    if A.shape[-1] == 1:
        return np.stack([scipy.linalg.solve(a, y, assume_a="pos") for a, y in zip(A, b)])
    return scipy.linalg.solve(A, b, assume_a="pos")


def _direct_solve(Bt: np.ndarray, s: np.ndarray, lam: float, epsilon: float) -> np.ndarray:
    """u = M^{-1} 1 for a stack of points by Cholesky solves of the dense d x d M; O(d^3) each."""
    d = Bt.shape[1]
    diag = np.arange(d)
    M = (1.0 - lam) * (Bt @ Bt.transpose(0, 2, 1))
    M[:, diag, diag] += lam * s**2
    M[:, diag, diag] += _ridge(np.trace(M, axis1=1, axis2=2), epsilon, d)[:, None]
    return _solve_pos(M, np.ones((*s.shape, 1)))[:, :, 0]


def _low_rank_solve(Bt: np.ndarray, s: np.ndarray, lam: float, epsilon: float) -> np.ndarray:
    """u = M^{-1} 1 for a stack of points by the Woodbury identity on the rank <= m
    term; O(d m^2 + m^3) each.

    With the diagonal part delta = lam s^2 + ridge, r = delta^{-1/2} and
    G = B diag(r), M = diag(1/r) (I + (1 - lam) G^T G) diag(1/r), so
    M^{-1} 1 = r * (r - G^T y) with (G G^T + I / (1 - lam)) y = G r.
    """
    d, m = Bt.shape[1:]
    ss = (s[:, None, :] @ s[:, :, None])[:, 0, 0]
    delta = lam * s**2 + _ridge((1.0 - lam) * np.sum(Bt * Bt, axis=(1, 2)) + lam * ss, epsilon, d)[:, None]
    if not delta.min() > 0:
        raise np.linalg.LinAlgError("zero distance with a zero ridge makes M singular")
    r = 1.0 / np.sqrt(delta)
    Gt = Bt * r[:, :, None]  # slice i is G_i^T
    G = Gt.transpose(0, 2, 1)
    K = G @ Gt
    diag = np.arange(m)
    K[:, diag, diag] += 1.0 / (1.0 - lam)
    y = _solve_pos(K, G @ r[:, :, None])
    return r * (r - (Gt @ y)[:, :, 0])


def _coefficient_rows(
    x: np.ndarray, atoms: np.ndarray, s: np.ndarray, lam: float, epsilon: float, owners: np.ndarray
) -> np.ndarray:
    """Coefficients of a stack of points: x is (r, m), atoms (r, d, m) holds each
    point's atoms as rows, s (r, d) the distances, owners the sample numbers."""
    d, m = atoms.shape[1:]
    # Rescale each point by an exact power of two that brings max(s) into
    # [0.5, 1). Each |B_kj| <= s_j, so M and its ridge scale by exactly 4^-e
    # and the coefficients are unchanged, while 1^T u stays clear of under-
    # and overflow whatever the scale of the data. The stack is C-ordered, so
    # each slice is its B^T in one layout and BLAS sums its products in one
    # order, whatever the layout of the atoms the caller passed.
    e = np.frexp(s.max(axis=1, initial=0.0))[1]
    Bt = np.subtract(x[:, None, :], atoms, order="C")  # row j of slice i = x_i - atom_j
    np.ldexp(Bt, -e[:, None, None], out=Bt)
    solve = _low_rank_solve if _uses_low_rank(m, d, lam) else _direct_solve
    try:
        u = solve(Bt, np.ldexp(s, -e[:, None]), lam, epsilon)
    except np.linalg.LinAlgError as exc:
        if len(owners) == 1:
            raise ValueError(f"degenerate coefficient system for sample {owners[0]}: {exc}") from None
        # A stacked LAPACK error names a slice, not a sample: solve the points
        # one at a time so that the first failing one raises its own message.
        for i in range(len(owners)):
            _coefficient_rows(x[i : i + 1], atoms[i : i + 1], s[i : i + 1], lam, epsilon, owners[i : i + 1])
        raise
    total = u.sum(axis=1)
    bad = np.flatnonzero(~(np.isfinite(total) & (np.abs(total) >= DEGENERATE_TOL)))
    if bad.size:
        i = bad[0]
        raise ValueError(f"degenerate coefficient solution for sample {owners[i]}: 1^T u = {float(total[i])}")
    return u / total[:, None]


def solve_coefficients(
    X: np.ndarray, dic: Dictionary, s: np.ndarray, lam: float, epsilon: float = HyperParams.epsilon
) -> np.ndarray:
    """Solve the constrained quadratic for the coefficients of one point.

    Returns the coefficient vector aligned with dic.atom_indices; it sums to
    one by construction. A trace-relative ridge epsilon * (trace(M)/d_dict)
    (plain epsilon when the trace vanishes) guards singular systems, and the
    system is solved with a symmetric positive-definite factorization. This
    is the one-row case of coefficient_table's solve.
    """
    HyperParams(lam=lam, k_keep=1, d_dict=1, epsilon=epsilon)  # range-checks lam and epsilon, all one solve uses
    X = validate_data_matrix(X)
    s = np.asarray(s, dtype=float)
    if not np.all(np.isfinite(s)) or np.any(s < 0):
        raise ValueError("distance diagonal must be finite and nonnegative")
    if s.shape[0] != dic.atoms.shape[1]:
        raise ValueError("distance diagonal length must match dictionary size")
    return _coefficient_rows(X[dic.owner][None], dic.atoms.T[None], s[None], lam, epsilon, np.array([dic.owner]))[0]


def _strongest(idx: np.ndarray, coef: np.ndarray, k_keep: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The k_keep entries of each row with the largest absolute value (ties:
    smaller index), exact zeros dropped, as (rows, indices, values).

    Selects before sorting: a partition finds each row's k_keep-th largest
    |coef|, and only the entries at least that large, ties included, are
    sorted by (row, -|coef|, index) and cut at rank k_keep per row.
    """
    d = coef.shape[1]
    if not 1 <= k_keep <= d:
        raise ValueError(f"k_keep must lie in [1, {d}], got {k_keep}")
    mag = np.abs(coef)
    # Fancy indexing copies the thresholds out, so the partitioned copy is freed.
    rows, pos = np.nonzero(mag >= np.partition(mag, d - k_keep, axis=1)[:, [d - k_keep]])
    order = np.lexsort((idx[rows, pos], -mag[rows, pos], rows))
    rows, pos = rows[order], pos[order]
    vals = coef[rows, pos]
    kept = (np.arange(rows.size) - np.searchsorted(rows, rows) < k_keep) & (vals != 0.0)
    return rows[kept], idx[rows, pos][kept], vals[kept]


def sparsify(values: np.ndarray, atom_indices: np.ndarray, k_keep: int) -> tuple[np.ndarray, np.ndarray]:
    """Keep the k_keep entries of largest absolute value (ties: smaller global
    index), drop the rest, and return (global_indices, values) sorted by
    global index. Retained values are not renormalized; exact zeros are not
    stored. This is the one-row case of sparsify_table.
    """
    values = np.asarray(values, dtype=float)
    atom_indices = np.asarray(atom_indices)
    _, idx, kept = _strongest(atom_indices[None], values[None], k_keep)
    out = np.argsort(idx)
    return idx[out], kept[out]


def symmetrize(C: Any) -> CSR:
    """Symmetrize a coefficient matrix into a similarity graph, W_ij = |C_ij| + |C_ji|.

    As SciPy's abs(C) + abs(C).T: C's repeated entries are added first (by
    as_csr), and sums that are exactly zero are not stored.
    """
    A = as_csr(C)
    rows = A.entry_rows()
    if np.any(A.data[rows == A.indices] != 0):
        raise ValueError("coefficient matrix must have a zero diagonal")
    # abs makes every sum |C_ij| + |C_ji| of nonnegative terms, which is zero only when both are.
    data = np.abs(A.data)
    nonzero = data != 0
    rows, cols, data = rows[nonzero], A.indices[nonzero], data[nonzero]
    return CSR.from_triplets(np.concatenate([rows, cols]), np.concatenate([cols, rows]), np.concatenate([data, data]),
                             A.shape)


def coefficient_table(
    X: np.ndarray, params: HyperParams, *, table: NeighbourTable | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Unsparsified coefficients of every sample over its dictionary, the
    first d_dict columns of table (a neighbour table of X) or of a new search.

    Returns the (n, d_dict) neighbour-index table and the matching
    coefficient table; row i sums to one. params.k_keep is not used, so one
    table serves every retention level. Points are solved as stacks of rows
    whose largest array holds at most _CHUNK_VALUES values; each row rounds
    bit for bit like solve_coefficients on that point.
    """
    idx, dist = neighbour_prefix(X, params.d_dict, table)
    (n, d), m = idx.shape, X.shape[1]
    per_row = d * m if _uses_low_rank(m, d, params.lam) else d * max(d, m)
    rows = max(1, _CHUNK_VALUES // per_row)
    coef = np.empty(idx.shape)
    for a in range(0, n, rows):
        b = min(a + rows, n)
        coef[a:b] = _coefficient_rows(X[a:b], X[idx[a:b]], dist[a:b], params.lam, params.epsilon, np.arange(a, b))
    return idx, coef


def sparsify_table(idx: np.ndarray, coef: np.ndarray, k_keep: int) -> CSR:
    """Sparsify each coefficient row to its k_keep strongest entries and
    scatter them to global indices as an (n, n) matrix."""
    n = idx.shape[0]
    return CSR.from_triplets(*_strongest(idx, coef, k_keep), (n, n))


def build_llr_coefficients(X: np.ndarray, params: HyperParams, *, table: NeighbourTable | None = None) -> CSR:
    """Per-point coefficient rows, sparsified and scattered to global indices;
    table as in coefficient_table.

    Row i holds the retained coefficients of point i; the diagonal is zero
    because each point's dictionary excludes the point itself. Rows are
    independent, so the result does not depend on processing order.
    """
    X = validate_data_matrix(X)
    params.validate(X.shape[0])
    return sparsify_table(*coefficient_table(X, params, table=table), params.k_keep)


def build_llr_graph(X: np.ndarray, params: HyperParams, *, table: NeighbourTable | None = None) -> CSR:
    """Construct the similarity graph: solve per-point coefficients over
    nearest-neighbor dictionaries, keep the k_keep strongest per point,
    and symmetrize. table is as in coefficient_table."""
    return symmetrize(build_llr_coefficients(X, params, table=table))
