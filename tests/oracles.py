"""Independent reference implementations used to check the library.

Everything here is written the slow, obvious way (explicit loops, exhaustive
search, textbook formulas) and avoids the code paths under test.
"""

from __future__ import annotations

import csv
import itertools
import math

import numpy as np
import scipy.linalg
import scipy.sparse
from scipy.spatial.distance import cdist


def quadratic_matrix(x: np.ndarray, atoms: np.ndarray, s: np.ndarray, lam: float) -> np.ndarray:
    """M = lam * S^T S + (1 - lam) * (x 1^T - D)^T (x 1^T - D), entry by entry.

    atoms has atoms as columns (m x d), matching the solver's convention.
    """
    d = atoms.shape[1]
    M = np.zeros((d, d))
    for i in range(d):
        for j in range(d):
            fit = float(np.dot(x - atoms[:, i], x - atoms[:, j]))
            M[i, j] = (1.0 - lam) * fit
            if i == j:
                M[i, j] += lam * float(s[i]) ** 2
    return M


def ridge_of(M: np.ndarray, epsilon: float) -> float:
    trace = float(np.trace(M))
    d = M.shape[0]
    return epsilon * (trace / d) if trace > 0 else epsilon


def nullspace_coefficients(
    x: np.ndarray, atoms: np.ndarray, s: np.ndarray, lam: float, epsilon: float
) -> np.ndarray:
    """Solve min_c c^T (M + ridge I) c subject to 1^T c = 1 by eliminating the
    constraint: c = c0 + N z with c0 feasible and N an orthonormal basis of
    the null space of the all-ones row. The same ridge as the implementation
    is applied so both sides optimize the identical objective.
    """
    d = atoms.shape[1]
    M = quadratic_matrix(x, atoms, s, lam)
    A = M + ridge_of(M, epsilon) * np.eye(d)
    if d == 1:
        return np.ones(1)
    c0 = np.zeros(d)
    c0[0] = 1.0
    N = scipy.linalg.null_space(np.ones((1, d)))
    H = N.T @ A @ N
    g = N.T @ (A @ c0)
    z = np.linalg.solve(H, -g)
    return c0 + N @ z


def load_csv_cell_by_cell(path, label_column=None):
    """load_csv as its docstring states it: csv.reader's non-empty rows, a
    header when the first row holds a cell float() rejects, and float() of
    each stripped feature cell, one at a time. Returns (X, labels, names),
    labels None without a label column; raises ValueError with load_csv's
    messages."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        rows = [row for row in csv.reader(fh) if row]
    if not rows:
        raise ValueError(f"{path}:1: empty file")

    def is_number(cell):
        try:
            float(cell)
        except ValueError:
            return False
        return True

    header = None if all(is_number(cell) for cell in rows[0]) else [cell.strip() for cell in rows[0]]
    first = 1 if header is None else 2
    data = rows[first - 1:]
    if not data:
        raise ValueError(f"{path}: no data rows")
    width = len(data[0])
    for number, row in list(enumerate(data, start=first)) + [(1, rows[0])]:
        if len(row) != width:
            raise ValueError(f"{path}: ragged row {number}: expected {width} cells, got {len(row)}")

    label = None
    if isinstance(label_column, int) or (isinstance(label_column, str) and label_column.lstrip("-").isdigit()):
        label = int(label_column)
        if not 0 <= label < width:
            raise ValueError(f"label column index {label} out of range for {width} columns")
    elif label_column is not None:
        if header is None:
            raise ValueError(f"label column {label_column!r} given by name but file has no header row")
        if label_column not in header:
            raise ValueError(f"label column {label_column!r} not found in header {header}")
        label = header.index(label_column)
    if width == (label is not None):
        raise ValueError("no feature columns left after removing the label column")

    X = []
    for number, row in enumerate(data, start=first):
        values = []
        for j, cell in enumerate(row):
            if j == label:
                continue
            cell = cell.strip()
            try:
                value = float(cell)
            except ValueError:
                raise ValueError(f"{path}: non-numeric cell at row {number}, column {j + 1}: {cell!r}") from None
            if not math.isfinite(value):
                raise ValueError(f"{path}: non-finite cell at row {number}, column {j + 1}: {cell!r}")
            values.append(value)
        X.append(values)
    X = np.array(X, dtype=float)
    if label is None:
        return X, None, None
    names = []
    for row in data:
        if row[label].strip() not in names:
            names.append(row[label].strip())
    return X, np.array([names.index(row[label].strip()) for row in data], dtype=np.int64), names


def pairwise_distances(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    out = np.zeros((X.shape[0], Y.shape[0]))
    for i in range(X.shape[0]):
        for j in range(Y.shape[0]):
            out[i, j] = math.sqrt(float(((X[i] - Y[j]) ** 2).sum()))
    return out


def knn_indices(X: np.ndarray, i: int, k: int) -> list[int]:
    """Indices of the k nearest samples to X[i], excluding i, ties by smaller index."""
    dists = []
    for j in range(X.shape[0]):
        if j != i:
            dists.append((math.sqrt(float(((X[i] - X[j]) ** 2).sum())), j))
    dists.sort()
    return [j for _, j in dists[:k]]


def neighbour_table_math_dist(X: np.ndarray, k: int) -> tuple[list[list[int]], list[list[float]]]:
    """The k nearest rows to each row of X, excluding itself, by math.dist on the
    unscaled rows, stably sorted (ties: smaller index), with their distances."""
    rows = np.asarray(X, dtype=float).tolist()
    dist = [[math.dist(p, q) for q in rows] for p in rows]
    idx = [sorted((j for j in range(len(rows)) if j != i), key=dist[i].__getitem__)[:k] for i in range(len(rows))]
    return idx, [[dist[i][j] for j in row] for i, row in enumerate(idx)]


def best_assignment(cost: np.ndarray) -> float:
    """Minimum-cost injective row-to-column assignment by brute force."""
    rows, cols = cost.shape
    best = math.inf
    if rows <= cols:
        for perm in itertools.permutations(range(cols), rows):
            total = sum(cost[r, perm[r]] for r in range(rows))
            best = min(best, total)
    else:
        for perm in itertools.permutations(range(rows), cols):
            total = sum(cost[perm[c], c] for c in range(cols))
            best = min(best, total)
    return float(best)


def best_accuracy(pred: np.ndarray, truth: np.ndarray) -> float:
    """Clustering accuracy by exhaustive search over injective label maps."""
    pred_vals = sorted(set(int(v) for v in pred))
    truth_vals = sorted(set(int(v) for v in truth))
    n = len(pred)
    best = 0
    if len(pred_vals) <= len(truth_vals):
        for perm in itertools.permutations(truth_vals, len(pred_vals)):
            mapping = dict(zip(pred_vals, perm))
            best = max(best, sum(1 for p, t in zip(pred, truth) if mapping[int(p)] == int(t)))
    else:
        for perm in itertools.permutations(pred_vals, len(truth_vals)):
            mapping = dict(zip(truth_vals, perm))
            best = max(best, sum(1 for p, t in zip(pred, truth) if mapping[int(t)] == int(p)))
    return best / n


def nmi_reference(pred: np.ndarray, truth: np.ndarray) -> float:
    """NMI with sqrt normalization computed from raw counts and dictionaries."""
    n = len(pred)
    joint: dict[tuple[int, int], int] = {}
    pa: dict[int, int] = {}
    pb: dict[int, int] = {}
    for p, t in zip(pred, truth):
        joint[(int(p), int(t))] = joint.get((int(p), int(t)), 0) + 1
        pa[int(p)] = pa.get(int(p), 0) + 1
        pb[int(t)] = pb.get(int(t), 0) + 1
    ha = -sum((c / n) * math.log(c / n) for c in pa.values() if c > 0)
    hb = -sum((c / n) * math.log(c / n) for c in pb.values() if c > 0)
    if ha == 0.0 or hb == 0.0:
        # zero-entropy convention: 1 for identical set partitions, else 0
        groups_a: dict[int, set[int]] = {}
        groups_b: dict[int, set[int]] = {}
        for idx, (p, t) in enumerate(zip(pred, truth)):
            groups_a.setdefault(int(p), set()).add(idx)
            groups_b.setdefault(int(t), set()).add(idx)
        same = set(frozenset(g) for g in groups_a.values()) == set(frozenset(g) for g in groups_b.values())
        return 1.0 if same else 0.0
    mi = 0.0
    for (p, t), c in joint.items():
        mi += (c / n) * math.log((c / n) / ((pa[p] / n) * (pb[t] / n)))
    return mi / math.sqrt(ha * hb)


def kmeans_best_objective(points: np.ndarray, k: int) -> float:
    """Optimal within-cluster sum of squared distances by exhaustive assignment."""
    n = points.shape[0]
    best = math.inf
    for assign in itertools.product(range(k), repeat=n):
        obj = 0.0
        for c in range(k):
            members = [i for i in range(n) if assign[i] == c]
            if not members:
                continue
            center = points[members].mean(axis=0)
            obj += float(((points[members] - center) ** 2).sum())
        best = min(best, obj)
    return best


def eig2(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form eigendecomposition of a symmetric 2x2 matrix, ascending."""
    a, b, c = float(A[0, 0]), float(A[0, 1]), float(A[1, 1])
    tr = a + c
    disc = math.sqrt(max((a - c) ** 2 + 4 * b * b, 0.0))
    lo, hi = (tr - disc) / 2.0, (tr + disc) / 2.0
    vecs = []
    for lam in (lo, hi):
        if abs(b) > 1e-300:
            v = np.array([lam - c, b])
        elif a >= c:
            v = np.array([1.0, 0.0]) if lam == hi else np.array([0.0, 1.0])
        else:
            v = np.array([0.0, 1.0]) if lam == hi else np.array([1.0, 0.0])
        norm = math.sqrt(float((v**2).sum()))
        vecs.append(v / norm if norm > 0 else v)
    return np.array([lo, hi]), np.column_stack(vecs)


# One-at-a-time definitions of the batched library bodies. They solve,
# sparsify and iterate one point, row or restart per loop pass, with the same
# floating-point operations in the same order, so the library must match them
# bit for bit.


def _ridge_one(trace: float, epsilon: float, d: int) -> float:
    return epsilon * (trace / d) if trace > 0 else epsilon


def _cholesky_solve_one(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """A^{-1} b for one symmetric positive-definite A by its Cholesky factor A = L L^T."""
    L = np.linalg.cholesky(A)
    return np.linalg.solve(L.T, np.linalg.solve(L, b))


def direct_solve_one(B: np.ndarray, s: np.ndarray, lam: float, epsilon: float) -> np.ndarray:
    """u = M^{-1} 1 for one point by a Cholesky solve of the dense d x d M."""
    d = B.shape[1]
    M = (1.0 - lam) * (B.T @ B)
    M[np.diag_indices(d)] += lam * s**2
    ridge = _ridge_one(float(np.trace(M)), epsilon, d)
    if ridge > 0:
        M[np.diag_indices(d)] += ridge
    return _cholesky_solve_one(M, np.ones(d))


def low_rank_solve_one(B: np.ndarray, s: np.ndarray, lam: float, epsilon: float) -> np.ndarray:
    """u = M^{-1} 1 for one point by the Woodbury identity on the rank <= m term."""
    m, d = B.shape
    delta = lam * s**2 + _ridge_one((1.0 - lam) * float(np.sum(B * B)) + lam * float(s @ s), epsilon, d)
    if not delta.min() > 0:
        raise np.linalg.LinAlgError("zero distance with a zero ridge makes M singular")
    r = 1.0 / np.sqrt(delta)
    G = B * r
    K = G @ G.T
    K[np.diag_indices(m)] += 1.0 / (1.0 - lam)
    y = _cholesky_solve_one(K, G @ r)
    return r * (r - G.T @ y)


def coefficients_one(x, atoms, s, lam, epsilon, low_rank_min_lambda):
    """Coefficients of one point over atoms (m x d, atoms as columns)."""
    m, d = atoms.shape
    e = int(np.frexp(s.max(initial=0.0))[1])
    B = np.ldexp(x[:, None] - np.asfortranarray(atoms), -e)  # column j = x - atom_j, Fortran-ordered
    s = np.ldexp(s, -e)
    solve = low_rank_solve_one if m < d and lam >= low_rank_min_lambda else direct_solve_one
    u = solve(B, s, lam, epsilon)
    return u / float(u.sum())


def neighbour_table_full(X: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The neighbour table the slow way: the whole n x n distance matrix
    (power-of-two scaled like the library's), self set to inf, every row
    stably sorted in full, so ties go to the smaller index."""
    e = int(np.frexp(np.abs(X).max(initial=0.0))[1])
    Xs = np.ldexp(X, -e)
    with np.errstate(over="ignore"):  # an overflowed distance is inf, as the library sees it
        dists = np.ldexp(cdist(Xs, Xs), e)
    np.fill_diagonal(dists, np.inf)
    idx = np.argsort(dists, axis=1, kind="stable")[:, :k]
    return idx, np.take_along_axis(dists, idx, axis=1)


def nearest_training_index(train: np.ndarray, test: np.ndarray) -> np.ndarray:
    """Index of each test row's nearest training row by the whole cdist
    matrix, the first on ties."""
    return np.argmin(cdist(test, train), axis=1)


def coefficient_table_loop(X, idx, dist, lam, epsilon, low_rank_min_lambda):
    """The coefficient table solved one point at a time over a given neighbour table."""
    coef = np.empty(idx.shape)
    for i, (order, s) in enumerate(zip(idx, dist)):
        coef[i] = coefficients_one(X[i], X[order].T, s, lam, epsilon, low_rank_min_lambda)
    return coef


def sparsify_table_loop(idx: np.ndarray, coef: np.ndarray, k_keep: int):
    """Per row: the k_keep largest |coef| (ties by smaller index), exact zeros
    dropped, scattered to an (n, n) CSR matrix."""
    n = idx.shape[0]
    rows, cols, vals = [], [], []
    for i, (order, c) in enumerate(zip(idx, coef)):
        ranked = sorted(range(c.size), key=lambda j: (-abs(c[j]), order[j]))[:k_keep]
        for j in sorted(ranked, key=lambda j: order[j]):
            if c[j] != 0.0:
                rows.append(i)
                cols.append(order[j])
                vals.append(c[j])
    entries = (np.array(vals, dtype=float), (np.array(rows, dtype=np.intp), np.array(cols, dtype=np.intp)))
    C = scipy.sparse.csr_matrix(entries, shape=(n, n))
    C.sort_indices()
    return C


def csr_from_triplets(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, n: int):
    """An (n, n) CSR matrix from (row, column, value) triplets, built as
    sparsify_table built it before it counted rows itself: SciPy's COO
    conversion, then a sort of each row's columns."""
    C = scipy.sparse.csr_matrix((vals, (rows, cols)), shape=(n, n))
    C.sort_indices()
    return C


def kmeanspp_init_one(points: np.ndarray, u: np.ndarray) -> np.ndarray:
    """k-means++ start of one restart from its k uniforms: center t is the
    point at np.searchsorted(side="right") of u[t] in the normalized
    cumulative weights, where a point weighs 1 for the first center and when
    every point already is a center, else its squared distance to the
    nearest center."""
    n = points.shape[0]
    centers = np.empty((len(u), points.shape[1]))
    w = np.ones(n)
    for t, draw in enumerate(u):
        cdf = np.cumsum(w)
        centers[t] = points[np.searchsorted(cdf / cdf[-1], draw, side="right")]
        sq = np.cumsum((points - centers[t]) ** 2, axis=-1)[..., -1]
        d2 = sq if t == 0 else np.minimum(d2, sq)
        w = d2 if d2.any() else np.ones(n)
    return centers


def lloyd_one(points: np.ndarray, centers: np.ndarray, max_iter: int, tol: float):
    """Lloyd iterations of one restart with empty-cluster repair; (labels, objective)."""
    n, k = points.shape[0], centers.shape[0]
    prev_obj = np.inf
    assign = np.zeros(n, dtype=np.int64)
    for _ in range(max_iter):
        d2 = np.cumsum((points[:, None, :] - centers[None, :, :]) ** 2, axis=-1)[..., -1]
        assign = np.argmin(d2, axis=1)
        counts = np.bincount(assign, minlength=k)
        for c in np.flatnonzero(counts == 0):
            own_d2 = d2[np.arange(n), assign]
            candidates = np.flatnonzero(counts[assign] >= 2)
            if candidates.size == 0:
                break
            farthest = candidates[np.argmax(own_d2[candidates])]
            counts[assign[farthest]] -= 1
            assign[farthest] = c
            counts[c] += 1
        new_centers = centers.copy()
        for c in range(k):
            members = assign == c
            if members.any():
                new_centers[c] = np.cumsum(points[members], axis=0)[-1] / members.sum()
        obj = float(np.sum(np.cumsum((points - new_centers[assign]) ** 2, axis=-1)[..., -1]))
        shift = float(np.max(np.linalg.norm(new_centers - centers, axis=1)))
        centers = new_centers
        prev_obj = obj
        if shift < tol:
            break
    return assign, prev_obj


def kmeans_loop(points: np.ndarray, k: int, restarts: int, seed: int, max_iter: int = 300, tol: float = 1e-8):
    """Labels of restarted k-means++ / Lloyd, one restart at a time; restart r
    starts from row r of one (restarts, k) table of PCG64(seed) uniforms and
    the lowest objective wins, ties by lowest restart."""
    u = np.random.Generator(np.random.PCG64(seed)).random((restarts, k))
    best, best_obj = None, math.inf
    for row in u:
        labels, obj = lloyd_one(points, kmeanspp_init_one(points, row), max_iter, tol)
        if best is None or obj < best_obj:
            best, best_obj = labels, obj
    return best
