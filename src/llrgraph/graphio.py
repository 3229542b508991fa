"""On-disk formats: sparse symmetric graphs and label vectors.

Graph format, one file per graph:

    llr-graph v1 n=<n> sym=1
    <i> <j> <weight>
    ...

with 0-based indices, i < j, finite full-precision decimal weights, and
lines strictly sorted by (i, j), so each edge appears once. Only one
triangle is stored; readers mirror it.
"""

from __future__ import annotations

import math
import re
from pathlib import Path

import numpy as np
from scipy.sparse import csr_matrix, spmatrix, triu

from .data import InputError

_HEADER_RE = re.compile(r"^llr-graph v1 n=(\d+) sym=1$")
_INT64_MIN, _INT64_MAX = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)


def write_graph(path: str | Path, W: spmatrix) -> None:
    if W.shape[0] != W.shape[1]:
        raise ValueError(f"graph must be square, got {W.shape}")
    n = W.shape[0]
    upper = triu(W.tocoo(), k=1).tocoo()
    order = np.lexsort((upper.col, upper.row))
    lines = [f"llr-graph v1 n={n} sym=1"]
    for i, j, w in zip(upper.row[order], upper.col[order], upper.data[order]):
        lines.append(f"{i} {j} {float(w)!r}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_graph(path: str | Path) -> csr_matrix:
    """Parse a graph file into a symmetric CSR matrix.

    Malformed lines raise InputError naming the file and line: not three
    numeric fields, indices outside 0 <= i < j < n, a repeated or out-of-order
    (i, j), or a NaN or infinite weight. Signed weights are read as written.
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
        prev = (i, j)
        rows += [i, j]
        cols += [j, i]
        vals += [w, w]
    W = csr_matrix((vals, (rows, cols)), shape=(n, n))
    W.sort_indices()
    return W


def write_labels(path: str | Path, labels: np.ndarray) -> None:
    Path(path).write_text("".join(f"{int(v)}\n" for v in labels), encoding="utf-8")


def read_labels(path: str | Path) -> np.ndarray:
    """One 64-bit integer label per non-blank line; a bad line is named by file and line."""
    labels = []
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8-sig").splitlines(), start=1):
        if line.strip():
            try:
                labels.append(int(line))
            except ValueError:
                raise InputError(f"{path}:{lineno}: expected an integer label, got {line.strip()!r}") from None
            if not _INT64_MIN <= labels[-1] <= _INT64_MAX:
                raise InputError(f"{path}:{lineno}: label {line.strip()} is outside the 64-bit integer range")
    return np.asarray(labels, dtype=np.int64)


def _data_line(path: str | Path, index: int, first: int = 1) -> int:
    """Line number of the index-th non-blank line at or after line `first`,
    or of the line past the end when the file has fewer: the line of label
    `index` in a labels file, or (first=2) of edge `index`, in (i, j) order,
    in a graph file."""
    lines = Path(path).read_text(encoding="utf-8-sig").splitlines()
    numbers = [no for no, line in enumerate(lines, start=1) if no >= first and line.strip()]
    return numbers[index] if index < len(numbers) else len(lines) + 1
