"""On-disk formats: sparse symmetric graphs and label vectors, and CSR, the
sparse matrix type every graph function returns.

Graph format, one file per graph:

    llr-graph v1 n=<n> sym=1
    <i> <j> <weight>
    ...

with 0-based indices, i < j, finite nonnegative full-precision decimal
weights, and lines strictly sorted by (i, j), so each edge appears once.
Only one triangle is stored; readers mirror it.
"""

from __future__ import annotations

import math
import operator
import re
from pathlib import Path
from typing import Any

import numpy as np

from .data import InputError, read_text

_HEADER_RE = re.compile(r"^llr-graph v1 n=(\d+) sym=1$")
_INT64_MIN, _INT64_MAX = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)
_INT32_MAX = int(np.iinfo(np.int32).max)


class CSR:
    """A sparse matrix in compressed sparse row form: row i holds the columns
    indices[indptr[i]:indptr[i + 1]] with the values data[indptr[i]:indptr[i + 1]].

    The arrays are SciPy's: float data, int32 indices while the shape and nnz
    fit (int64 beyond), explicit zeros stored and counted in nnz. They are not
    to be changed once made. Rows are canonical: indptr starts at 0 and never
    decreases, and the columns of each row lie in [0, ncols) and strictly
    increase, so rows are sorted and no entry repeats. The constructor checks
    this and raises ValueError naming the shape; from_triplets builds a CSR
    from entries.

    The methods below compute what the named SciPy expressions compute, bit
    for bit, without loading SciPy. Every other attribute, operator and index
    acts on a scipy.sparse.csr_matrix over the same arrays, to_scipy(), which
    is made (and SciPy loaded) on first use, so W - W.T, W != 0 and
    W.diagonal() are SciPy's. np.asarray(W) is the dense matrix, so
    scipy.sparse.csr_matrix(W) is built from it and keeps no explicit zero.
    """

    __slots__ = ("shape", "indptr", "indices", "data", "_scipy")
    # Above SciPy's 10.1, so numpy's operators defer to the reflected ones below.
    __array_priority__ = 10.2

    def __init__(self, data: Any, indices: Any, indptr: Any, shape: tuple[int, int]):
        self.shape = (int(shape[0]), int(shape[1]))
        self.data = np.asarray(data, dtype=float)
        indices, indptr = np.asarray(indices), np.asarray(indptr)
        if (indptr.shape != (self.shape[0] + 1,) or indices.shape != self.data.shape or indptr[0] != 0
                or indptr[-1] != self.data.size or np.any(np.diff(indptr) < 0)):
            raise ValueError(f"inconsistent CSR arrays for shape {self.shape}")
        if indices.size and not (0 <= indices.min() and indices.max() < self.shape[1]):
            raise ValueError(f"CSR column outside [0, {self.shape[1]}) for shape {self.shape}")
        index = np.int32 if max(*self.shape, self.data.size) <= _INT32_MAX else np.int64
        self.indices, self.indptr = indices.astype(index, copy=False), indptr.astype(index, copy=False)
        if not np.all((np.diff(self.indices) > 0) | (np.diff(self.entry_rows()) > 0)):
            raise ValueError(f"CSR columns must strictly increase within each row, for shape {self.shape}")
        self._scipy = None

    @classmethod
    def from_triplets(cls, rows: Any, cols: Any, vals: Any, shape: tuple[int, int]) -> "CSR":
        """csr_matrix((vals, (rows, cols)), shape) with sorted indices: entries
        ordered by (row, column), repeated ones added in the order given, and
        explicit zeros kept."""
        rows, cols = np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=float)
        m, n = shape
        if rows.size and not (0 <= rows.min() and rows.max() < m and 0 <= cols.min() and cols.max() < n):
            raise ValueError(f"triplet indices outside the shape {shape}")
        order = np.argsort(rows * n + cols, kind="stable")
        rows, cols, vals = rows[order], cols[order], vals[order]
        first = np.ones(rows.size, dtype=bool)
        first[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
        starts = np.flatnonzero(first)
        summed = vals[starts]
        np.add.at(summed, np.cumsum(first)[~first] - 1, vals[~first])  # each run of repeats, left to right
        indptr = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows[starts], minlength=m), out=indptr[1:])
        return cls(summed, cols[starts], indptr, shape)

    @property
    def nnz(self) -> int:
        return int(self.indptr[-1])

    def __repr__(self) -> str:
        return f"<{self.shape[0]}x{self.shape[1]} CSR with {self.nnz} stored entries>"

    def entry_rows(self) -> np.ndarray:
        """The row of every stored entry, as in W.tocoo().row."""
        return np.repeat(np.arange(self.shape[0], dtype=self.indices.dtype), np.diff(self.indptr))

    def row_sums(self) -> np.ndarray:
        """W.sum(axis=1) as a flat array: np.add.reduceat over the non-empty
        rows, added to zeros, which turns a sum of -0.0 into 0.0 as SciPy does."""
        out = np.zeros(self.shape[0])
        rows = np.flatnonzero(np.diff(self.indptr))
        if rows.size:
            out[rows] += np.add.reduceat(self.data, self.indptr[rows].astype(np.intp))
        return out

    def scale_rows(self, scale: np.ndarray) -> "CSR":
        """W.multiply(scale[:, None]): row i times scale[i], entry by entry."""
        return CSR(self.data * np.repeat(scale, np.diff(self.indptr)), self.indices, self.indptr, self.shape)

    def toarray(self) -> np.ndarray:
        """The dense matrix, repeated entries added in storage order."""
        out = np.zeros(self.shape)
        np.add.at(out, (self.entry_rows(), self.indices), self.data)
        return out

    def block(self, idx: np.ndarray) -> np.ndarray:
        """W[idx][:, idx].toarray() for a square W and distinct ascending idx."""
        pos = np.full(self.shape[0], -1)
        pos[idx] = np.arange(len(idx))
        rows, cols = pos[self.entry_rows()], pos[self.indices]
        inside = (rows >= 0) & (cols >= 0)
        out = np.zeros((len(idx), len(idx)))
        np.add.at(out, (rows[inside], cols[inside]), self.data[inside])
        return out

    def __matmul__(self, other: Any) -> Any:
        """W @ X for a dense X, each row accumulated in storage order as SciPy
        does; other operands go to SciPy."""
        if not isinstance(other, np.ndarray):
            return self.to_scipy() @ _as_scipy(other)
        if other.shape[0] != self.shape[1]:
            raise ValueError(f"dimension mismatch: {self.shape} @ {other.shape}")
        X = other.reshape(other.shape[0], -1)
        out = np.zeros((self.shape[0], X.shape[1]), dtype=np.result_type(self.data, X))
        np.add.at(out, self.entry_rows(), self.data[:, None] * X[self.indices])
        return out.reshape((self.shape[0],) + other.shape[1:])

    def __array__(self, dtype: Any = None, copy: Any = None) -> np.ndarray:
        return self.toarray() if dtype is None else self.toarray().astype(dtype)

    def to_scipy(self) -> Any:
        """A scipy.sparse.csr_matrix sharing these arrays, made on first use."""
        if self._scipy is None:
            from scipy.sparse import csr_matrix

            self._scipy = csr_matrix((self.data, self.indices, self.indptr), shape=self.shape)
        return self._scipy

    def __getattr__(self, name: str) -> Any:
        if name.startswith("_"):  # keeps copy and pickle, which probe dunders, from SciPy
            raise AttributeError(name)
        return getattr(self.to_scipy(), name)

    def __getitem__(self, key: Any) -> Any:
        return self.to_scipy()[key]


def _as_scipy(x: Any) -> Any:
    return x.to_scipy() if isinstance(x, CSR) else x


def _forward(op: Any, reflected: bool = False) -> Any:
    if reflected:
        return lambda self, other: op(_as_scipy(other), self.to_scipy())
    return lambda self, other: op(self.to_scipy(), _as_scipy(other))


for _name in ("add", "sub", "mul", "truediv", "pow"):
    setattr(CSR, f"__{_name}__", _forward(getattr(operator, _name)))
    setattr(CSR, f"__r{_name}__", _forward(getattr(operator, _name), reflected=True))
for _name in ("eq", "ne", "lt", "le", "gt", "ge"):
    setattr(CSR, f"__{_name}__", _forward(getattr(operator, _name)))
CSR.__rmatmul__ = _forward(operator.matmul, reflected=True)
CSR.__abs__ = lambda self: abs(self.to_scipy())
CSR.__neg__ = lambda self: -self.to_scipy()


def as_csr(W: Any) -> CSR:
    """A graph as a square CSR: a CSR itself, a SciPy sparse matrix's W.tocsr()
    entries with repeats added in storage order, or a dense matrix's nonzeros.
    A non-square graph raises ValueError."""
    if not isinstance(W, CSR):
        if hasattr(W, "tocsr"):
            A = W.tocsr()
            rows, cols, vals = np.repeat(np.arange(A.shape[0]), np.diff(A.indptr)), A.indices, A.data
        else:
            A = np.asarray(W, dtype=float)
            if A.ndim != 2:
                raise ValueError(f"a graph must be a 2-D matrix, got shape {A.shape}")
            rows, cols = np.nonzero(A)
            vals = A[rows, cols]
        W = CSR.from_triplets(rows, cols, vals, A.shape)
    if W.shape[0] != W.shape[1]:
        raise ValueError(f"graph must be square, got {W.shape}")
    return W


def as_graph(W: Any) -> CSR:
    """as_csr(W) for a similarity graph, which must equal W.T (explicit zeros ignored) and may have
    self-loops; a ValueError names the first negative or non-finite stored weight in row order."""
    W = as_csr(W)
    rows, cols, vals = W.entry_rows(), W.indices, W.data
    bad = np.flatnonzero(~((vals >= 0) & (vals < np.inf)))
    if bad.size:
        i, j, w = rows[bad[0]], cols[bad[0]], float(vals[bad[0]])
        raise ValueError(f"edge ({i}, {j}) has weight {w!r}; graph weights must be finite and nonnegative")
    stored = vals != 0  # explicit zeros are not edges
    rows, cols, vals = rows[stored], cols[stored], vals[stored]
    t = np.argsort(cols.astype(np.int64) * W.shape[0] + rows)  # distinct keys: W.T's entries in row order
    if not (np.array_equal(cols[t], rows) and np.array_equal(rows[t], cols) and np.array_equal(vals[t], vals)):
        raise ValueError("graph must be symmetric")
    return W


def write_graph(path: str | Path, W: Any) -> None:
    """Write the upper triangle of W (a graph, through as_graph) in W's row order;
    a self-loop, which graph files cannot store, raises ValueError first."""
    W = as_graph(W)
    row = W.entry_rows()
    loops = row[(row == W.indices) & (W.data != 0)]
    if loops.size:
        raise ValueError(f"vertex {loops[0]} has a self-loop; graph files cannot store one")
    upper = row < W.indices
    lines = [f"llr-graph v1 n={W.shape[0]} sym=1"]
    lines += [f"{i} {j} {float(w)!r}" for i, j, w in zip(row[upper], W.indices[upper], W.data[upper])]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_graph(path: str | Path) -> CSR:
    """Parse a graph file into a symmetric CSR with sorted indices.

    Malformed lines raise InputError naming the file and line: not three
    numeric fields, indices outside 0 <= i < j < n, a repeated or out-of-order
    (i, j), or a NaN or infinite weight. The first negative weight is
    reported once every line has parsed, so a malformed line is named first.
    """
    path = Path(path)
    text = read_text(path).splitlines()
    if not text:
        raise InputError(f"{path}:1: empty graph file")
    match = _HEADER_RE.match(text[0].strip())
    if not match:
        raise InputError(f"{path}:1: bad graph header {text[0]!r}")
    n = int(match.group(1))
    rows, cols, vals = [], [], []
    prev = (-1, -1)
    negative = None
    for lineno, line in enumerate(text[1:], start=2):
        line = line.strip()
        if not line:
            continue
        try:
            a, b, c = line.split()
            i, j, w = int(a), int(b), float(c)
        except ValueError:
            raise InputError(f"{path}:{lineno}: expected 'i j w' with integer i, j and numeric w, got {line!r}") from None
        if not 0 <= i < j < n:
            raise InputError(f"{path}:{lineno}: indices must satisfy 0 <= i < j < n={n}")
        if (i, j) <= prev:
            raise InputError(f"{path}:{lineno}: edge ({i}, {j}) after {prev}: lines must be unique and sorted by (i, j)")
        if not math.isfinite(w):
            raise InputError(f"{path}:{lineno}: weight must be finite, got {c!r}")
        if w < 0 and negative is None:
            negative = (f"{path}: edge ({i}, {j}) has negative weight {w!r} ({path}:{lineno}); "
                        "similarity weights must be nonnegative")
        prev = (i, j)
        rows += [i, j]
        cols += [j, i]
        vals += [w, w]
    if negative is not None:
        raise InputError(negative)
    return CSR.from_triplets(rows, cols, vals, (n, n))


def write_labels(path: str | Path, labels: np.ndarray) -> None:
    Path(path).write_text("".join(f"{int(v)}\n" for v in labels), encoding="utf-8")


def read_labels(path: str | Path, n: int | None = None) -> np.ndarray:
    """One 64-bit integer label per non-blank line; a bad line is named by file and line. Given n, another
    label count is an error at the line of label n (the first extra one) or at the line past the end."""
    text = read_text(path).splitlines()
    labels, line_n = [], len(text) + 1
    for lineno, line in enumerate(text, start=1):
        if line.strip():
            if len(labels) == n:
                line_n = lineno
            try:
                labels.append(int(line))
            except ValueError:
                raise InputError(f"{path}:{lineno}: expected an integer label, got {line.strip()!r}") from None
            if not _INT64_MIN <= labels[-1] <= _INT64_MAX:
                raise InputError(f"{path}:{lineno}: label {line.strip()} is outside the 64-bit integer range")
    if n is not None and len(labels) != n:
        raise InputError(f"{path}:{line_n}: got {len(labels)} labels for a graph on {n} nodes")
    return np.asarray(labels, dtype=np.int64)
