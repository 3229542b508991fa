"""Linear subspace learning on similarity graphs.

Two graph-driven linear embeddings plus the 1-NN evaluation used to score
them. The neighborhood-preserving embedding consumes per-point
reconstruction coefficients; the locality-preserving projection consumes a
symmetric affinity graph. Both reduce to a generalized symmetric
eigenproblem, formed from sparse products without any n x n matrix, whose
smallest eigenvectors form the projection columns.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any

import numpy as np

from .data import InputError, _fix_column_signs, load_csv, unit_scale, validate_data_matrix
from .graphio import as_csr, as_graph
from .llr import DEGENERATE_TOL, _ridge, neighbour_table
from .llr import symmetrize  # noqa: F401  (perfbench/spans.py times calls at this name)
from .spectral import _degrees

_B_RIDGE = 1e-10  # generalized_sym_eig's ridge on B, relative to trace(B)/m


def generalized_sym_eig(A: np.ndarray, B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve A v = gamma B v for a symmetric pencil, eigenvalues ascending.

    B gets a trace-relative ridge of 1e-10 * (trace(B)/m) (_B_RIDGE) before factorization;
    eigenvectors are B-orthonormal (v^T B v = 1). The residual contract
    ||A v - gamma B v|| <= 1e-6 * (1 + ||A||) is enforced per solve.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if A.shape != B.shape or A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"A and B must be square with matching shape, got {A.shape} and {B.shape}")
    for name, M in (("A", A), ("B", B)):
        if not np.all(np.isfinite(M)):
            raise ValueError(f"{name} contains non-finite entries")
        if np.max(np.abs(M - M.T), initial=0.0) > 1e-10 * (1.0 + np.max(np.abs(M), initial=0.0)):
            raise ValueError(f"{name} is not symmetric")

    # Reduce through B's Cholesky factor, as LAPACK's sygvd does (Golub & Van
    # Loan, Matrix Computations, 8.7): with B_reg = L L^T, the pencil's
    # eigenvectors are L^-T U for the eigenvectors U of C = L^-1 A L^-T.
    m = A.shape[0]
    B_reg = B + _ridge(float(np.trace(B)), _B_RIDGE, m) * np.eye(m)
    try:
        L = np.linalg.cholesky(B_reg)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"B is not positive-definite after regularization: {exc}") from None
    C = np.linalg.solve(L, np.linalg.solve(L, A).T)
    evals, U = np.linalg.eigh((C + C.T) / 2.0)
    evecs = np.linalg.solve(L.T, U)

    scale = 1.0 + np.max(np.abs(A), initial=0.0)
    residual = np.max(np.abs(A @ evecs - (B_reg @ evecs) * evals), initial=0.0)
    if residual > 1e-6 * scale:
        raise RuntimeError(f"generalized eigensolve residual {residual:.3e} exceeds contract")
    return evals, evecs


def _projection(A: np.ndarray, B: np.ndarray, d: int) -> np.ndarray:
    """The d smallest generalized eigenvectors of (A, B), signs fixed.

    d may not exceed the numerical rank of B: the ridge alone would pick the rest.
    """
    A = (A + A.T) / 2.0
    B = (B + B.T) / 2.0
    b_evals = np.linalg.eigvalsh(B)
    rank = int(np.sum(b_evals > np.max(b_evals) * 1e-10))
    if d > rank:
        raise ValueError(f"d={d} exceeds the numerical rank {rank} of the data Gram matrix")
    _, evecs = generalized_sym_eig(A, B)
    return _fix_column_signs(evecs[:, :d].copy())


def npe_from_graph(X: np.ndarray, C: Any, d: int) -> np.ndarray:
    """Neighborhood-preserving projection driven by reconstruction coefficients.

    Each retained coefficient row of C is renormalized to sum one, giving a
    row-stochastic weight matrix Wt; with M = (I - Wt)^T (I - Wt), the
    projection columns are the eigenvectors of the d smallest eigenvalues of
    (X^T M X) a = gamma (X^T X) a, with X^T M X formed as R^T R, R = X - Wt X.
    X enters scaled by unit_scale, so the pencil stays in the float range, and
    the projection leaves scaled back by the same power of two: Y = X P is
    unchanged.
    """
    X = validate_data_matrix(X)
    n, m = X.shape
    if C.shape != (n, n):
        raise ValueError(f"coefficient matrix shape {C.shape} does not match n={n}")
    if not 1 <= d <= m:
        raise ValueError(f"d must lie in [1, m={m}], got {d}")
    C = as_csr(C)
    row_sums = C.row_sums()
    bad = np.flatnonzero(np.abs(row_sums) < DEGENERATE_TOL)
    if bad.size:
        raise ValueError(f"coefficient rows sum to ~0 for samples {bad.tolist()}; cannot renormalize")
    Wt = C.scale_rows(1.0 / row_sums)
    e, X = unit_scale(X)
    R = X - Wt @ X
    return np.ldexp(_projection(R.T @ R, X.T @ X, d), -e)


def lpp_embed(X: np.ndarray, W: Any, d: int) -> np.ndarray:
    """Locality-preserving projection from a similarity graph W, through as_graph.

    With degrees D and Laplacian L = D - W, the projection columns are the
    eigenvectors of the d smallest eigenvalues of (X^T L X) a = gamma (X^T D X) a,
    X^T L X formed over the stored edges as sum_ij w_ij (x_i - x_j)(x_i - x_j)^T / 2.
    X is scaled by unit_scale as in npe_from_graph.
    """
    X = validate_data_matrix(X)
    n, m = X.shape
    if W.shape != (n, n):
        raise ValueError(f"graph shape {W.shape} does not match n={n}")
    if not 1 <= d <= m:
        raise ValueError(f"d must lie in [1, m={m}], got {d}")
    W = as_graph(W)
    degrees = _degrees(W)
    e, X = unit_scale(X)
    E = X[W.entry_rows()] - X[W.indices]
    A = (E * W.data[:, None]).T @ E / 2.0
    return np.ldexp(_projection(A, (X * degrees[:, None]).T @ X, d), -e)


def transform(P: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Apply a projection: Y = X P (sample-major)."""
    X = validate_data_matrix(X)
    P = np.asarray(P, dtype=float)
    if X.shape[1] != P.shape[0]:
        raise ValueError(f"dimension mismatch: X has {X.shape[1]} columns, P has {P.shape[0]} rows")
    return X @ P


def nn_classify(train: np.ndarray, train_labels: np.ndarray, test: np.ndarray) -> np.ndarray:
    """1-nearest-neighbor labels, ties broken by the smaller training index.

    The search is neighbour_table's at k = 1 with the test rows as queries.
    Both sets are first scaled together by unit_scale, where the search keeps
    the scale of its distances, so those beyond the float range still rank.
    """
    train = validate_data_matrix(train, "train")
    test = validate_data_matrix(test, "test")
    train_labels = np.asarray(train_labels)
    if train_labels.shape[0] != train.shape[0]:
        raise ValueError("train_labels length must match train rows")
    if train.shape[1] != test.shape[1]:
        raise ValueError("train and test dimensionality differ")
    _, train, test = unit_scale(train, test)
    nearest = neighbour_table(train, 1, test)[0][:, 0]
    return train_labels[nearest]


def save_projection(path: str | Path, P: np.ndarray) -> None:
    """Write a projection matrix as CSV, m rows by d columns, full precision."""
    P = np.asarray(P, dtype=float)
    lines = [",".join(repr(float(v)) for v in row) for row in P]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_projection(path: str | Path) -> np.ndarray:
    """Read a projection matrix written by save_projection, which writes no header row."""
    ds = load_csv(path)
    if ds.header is not None:
        raise InputError(f"{path}:1: a projection file has no header row, got {ds.header}")
    return ds.X
