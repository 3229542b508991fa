"""On-disk formats: sparse symmetric graphs and label vectors.

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
import re
from pathlib import Path

import numpy as np
from scipy.sparse import csr_matrix, spmatrix

from .data import InputError

_HEADER_RE = re.compile(r"^llr-graph v1 n=(\d+) sym=1$")
_INT64_MIN, _INT64_MAX = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)


def write_graph(path: str | Path, W: spmatrix) -> None:
    """Write the upper triangle of W; a weight read_graph would reject raises ValueError first."""
    if W.shape[0] != W.shape[1]:
        raise ValueError(f"graph must be square, got {W.shape}")
    n = W.shape[0]
    coo = W.tocoo()
    upper = coo.row < coo.col
    order = np.lexsort((coo.col[upper], coo.row[upper]))
    lines = [f"llr-graph v1 n={n} sym=1"]
    rows, cols, vals = (a[upper][order] for a in (coo.row, coo.col, coo.data))
    for i, j, w in zip(rows, cols, vals):
        if not 0 <= w < math.inf:  # false for NaN too
            raise ValueError(f"edge ({i}, {j}) has weight {float(w)!r}; graph weights must be finite and nonnegative")
        lines.append(f"{i} {j} {float(w)!r}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_graph(path: str | Path) -> csr_matrix:
    """Parse a graph file into a symmetric CSR matrix.

    Malformed lines raise InputError naming the file and line: not three
    numeric fields, indices outside 0 <= i < j < n, a repeated or out-of-order
    (i, j), or a NaN or infinite weight. The first negative weight is
    reported once every line has parsed, so a malformed line is named first.
    """
    path = Path(path)
    text = path.read_text(encoding="utf-8-sig").splitlines()
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
    W = csr_matrix((vals, (rows, cols)), shape=(n, n))
    W.sort_indices()
    return W


def write_labels(path: str | Path, labels: np.ndarray) -> None:
    Path(path).write_text("".join(f"{int(v)}\n" for v in labels), encoding="utf-8")


def read_labels(path: str | Path, n: int | None = None) -> np.ndarray:
    """One 64-bit integer label per non-blank line; a bad line is named by file and line. Given n, another
    label count is an error at the line of label n (the first extra one) or at the line past the end."""
    text = Path(path).read_text(encoding="utf-8-sig").splitlines()
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
