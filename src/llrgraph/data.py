"""Dataset ingestion, synthetic unions of subspaces, splitting, and PCA.

Conventions
-----------
- Data matrices are sample-major: shape (n, m), one sample per row.
- All stochastic operations take an explicit 64-bit seed and use
  numpy's PCG64 generator, so results are reproducible bit-for-bit.
- Labels are canonicalized to contiguous integers 0..K-1 in order of
  first appearance.
"""

from __future__ import annotations

import csv
import functools
import io
import math
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path

import numpy as np


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


class InputError(ValueError):
    """A parameter out of range for its input, or a malformed input file.

    The caller can fix it by changing the input; the command line maps it to
    exit code 2. Numerical failures stay plain ValueError or RuntimeError.
    """


def read_text(path: str | Path) -> str:
    """The file's text as UTF-8, less a leading byte-order mark, line ends
    untranslated; a byte that is not UTF-8 raises InputError naming its line."""
    raw = Path(path).read_bytes()
    try:
        return raw.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise InputError(f"{path}:{line}: byte 0x{raw[exc.start]:02x} is not UTF-8 text") from None


def unit_scale(*arrays: np.ndarray) -> tuple:
    """(e, *scaled): each array times 2**-e, for the e that brings the largest |entry| of them all into
    [0.5, 1), or e = 0 if every entry is 0. Squares of scaled data stay in the float range, and the
    scale comes back exactly (Higham, Accuracy and Stability of Numerical Algorithms, 2002, section 2.1)."""
    e = int(np.frexp(max(np.abs(a).max(initial=0.0) for a in arrays))[1])
    return (e, *(np.ldexp(a, -e) for a in arrays))


def sum_of_squares(diffs: Iterable[np.ndarray]) -> np.ndarray:
    """d_0^2 + d_1^2 + ... over the arrays diffs yields, added from the first up, acc += d_j^2:
    the one summation order of every squared distance. Each array is squared in place and
    the first is the result, so diffs must yield fresh arrays."""
    return functools.reduce(lambda acc, d: np.add(acc, d, out=acc), (np.square(d, out=d) for d in diffs))


def validate_data_matrix(X: np.ndarray, name: str = "X") -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] < 1 or X.shape[1] < 1:
        raise ValueError(f"{name} must be a 2-D matrix with n >= 1 and m >= 1, got shape {X.shape}")
    if not np.all(np.isfinite(X)):
        raise ValueError(f"{name} contains non-finite entries")
    return X


@dataclass
class LabeledDataset:
    """A data matrix with optional per-sample class labels.

    labels, when present, are canonical integers 0..K-1; label_names maps
    the canonical integer back to the original label string. header holds
    the stripped names of the header row load_csv took, None without one.
    """

    X: np.ndarray
    labels: np.ndarray | None = None
    label_names: list[str] | None = None
    header: list[str] | None = None

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def m(self) -> int:
        return self.X.shape[1]

    @property
    def n_classes(self) -> int:
        if self.labels is None:
            raise ValueError("dataset has no labels")
        return int(self.labels.max()) + 1 if self.labels.size else 0


@dataclass(frozen=True)
class SyntheticSpec:
    """Configuration for a synthetic union of linear subspaces.

    subspaces holds (intrinsic_dim, points_per_subspace) pairs, as a tuple of
    tuples. Out-of-range values raise InputError when the spec is made.
    """

    ambient_dim: int
    subspaces: tuple[tuple[int, int], ...]
    noise_sigma: float
    seed: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "subspaces", tuple(tuple(pair) for pair in self.subspaces))
        if self.ambient_dim < 1:
            raise InputError(f"ambient_dim must be >= 1, got {self.ambient_dim}")
        if not self.subspaces:
            raise InputError("at least one subspace is required")
        for dim, count in self.subspaces:
            if not 1 <= dim <= self.ambient_dim:
                raise InputError(f"intrinsic_dim {dim} must lie in [1, ambient_dim={self.ambient_dim}]")
            if count < dim + 1:
                raise InputError(f"points_per_subspace {count} must be >= intrinsic_dim + 1 = {dim + 1}")
        if not math.isfinite(self.noise_sigma):
            raise InputError(f"noise must be finite, got {self.noise_sigma}")
        if self.noise_sigma < 0:
            raise InputError(f"noise must be nonnegative, got {self.noise_sigma}")
        n = sum(count for _, count in self.subspaces)
        if n * self.ambient_dim > np.iinfo(np.intp).max // 8:
            raise InputError(f"{n} points in ambient_dim {self.ambient_dim} exceed the largest array numpy can allocate")
        if self.seed < 0:
            raise InputError(f"seed must be >= 0, got {self.seed}")


@dataclass
class PcaModel:
    mean: np.ndarray
    basis: np.ndarray  # (m, d), orthonormal columns
    energy_retained: float

    @property
    def d(self) -> int:
        return self.basis.shape[1]


def _canonicalize_labels(raw: list[str]) -> tuple[np.ndarray, list[str]]:
    index: dict[str, int] = {}  # in order of first appearance
    return np.array([index.setdefault(value, len(index)) for value in raw], dtype=np.int64), list(index)


def load_csv(path: str | Path, label_column: str | int | None = None) -> LabeledDataset:
    """Load a labeled dataset from a CSV file.

    The file may carry a single header row, auto-detected by the first row
    containing any cell that does not parse as a number; it must be as wide
    as the data rows. label_column selects the label column by header name
    or by 0-based column index.
    Cell positions in error messages are 1-based (file line, column); a row
    is named by the line it starts on, blank lines counted.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such file: {path}")

    rows, lines, plain = _read_rows(path)
    if not rows:
        raise InputError(f"{path}:1: empty file")
    # A plain row is its line, split only where cells are read: the header, the cell-by-cell
    # conversion, and the label cells, split from the end (where labels usually are) to the label.
    cells = (lambda row: row.split(",")) if plain else (lambda row: row)
    width = (lambda row: row.count(",") + 1) if plain else len

    def _is_number(cell: str) -> bool:
        try:
            float(cell)
        except ValueError:
            return False
        return True

    has_header = not all(_is_number(c) for c in cells(rows[0]))
    header = [c.strip() for c in cells(rows[0])] if has_header else None
    data_rows, data_lines = (rows[1:], lines[1:]) if has_header else (rows, lines)
    if not data_rows:
        raise InputError(f"{path}: no data rows")

    # The header, checked last, must be as wide as the data rows.
    arity = width(data_rows[0])
    for number, row in [*zip(data_lines, data_rows), (lines[0], rows[0])]:
        if width(row) != arity:
            raise InputError(f"{path}: ragged row {number}: expected {arity} cells, got {width(row)}")

    label_idx: int | None = None
    if label_column is not None:
        if isinstance(label_column, int) or (isinstance(label_column, str) and label_column.lstrip("-").isdigit()):
            label_idx = int(label_column)
            if not 0 <= label_idx < arity:
                raise InputError(f"label column index {label_idx} out of range for {arity} columns")
        else:
            if header is None:
                raise InputError(f"label column {label_column!r} given by name but file has no header row")
            if label_column not in header:
                raise InputError(f"label column {label_column!r} not found in header {header}")
            label_idx = header.index(label_column)

    feature_cols = [j for j in range(arity) if j != label_idx]
    if not feature_cols:
        raise InputError("no feature columns left after removing the label column")

    # np.loadtxt converts plain lines in one pass, reading each cell as float()
    # reads it after str.strip(). Other files, a failed pass (a non-numeric cell,
    # or one only float() takes, such as 1_0) and non-finite values go to the
    # cell-by-cell conversion, which names the first bad cell.
    shape = (len(data_rows), len(feature_cols))
    try:
        X = np.loadtxt(data_rows, delimiter=",", usecols=feature_cols, comments=None, quotechar=None,
                       ndmin=2) if plain else None
    except ValueError:
        X = None
    if X is None or X.shape != shape or not np.isfinite(X).all():
        X = _parse_cells(path, [cells(row) for row in data_rows], data_lines, feature_cols)

    if label_idx is None:
        return LabeledDataset(X=X, header=header)
    back = arity - label_idx  # the label column's place, counted from the end
    raw = [row.rsplit(",", back)[-back] for row in data_rows] if plain else [row[label_idx] for row in data_rows]
    labels, names = _canonicalize_labels([cell.strip() for cell in raw])
    return LabeledDataset(X=X, labels=labels, label_names=names, header=header)


def _read_rows(path: Path) -> tuple[list[str] | list[list[str]], list[int], bool]:
    """The file's non-empty lines, the file line of each, and True when each is
    simply split at "," into the row csv.reader gives; else csv.reader's
    non-empty rows, the line each starts on, and False.

    A line splits so when the text holds no quote, carriage return or NUL
    (which csv.reader refuses before Python 3.11), and no line is longer than
    csv's field size limit. A row csv.reader refuses raises InputError naming
    the file and line.
    """
    text = read_text(path)
    lines = text.split("\n")
    if '"' in text or "\r" in text or "\0" in text or max(map(len, lines), default=0) > csv.field_size_limit():
        reader = csv.reader(io.StringIO(text, newline=""))
        rows, numbers, start = [], [], 1
        try:
            for row in reader:
                if row:
                    rows.append(row)
                    numbers.append(start)
                start = reader.line_num + 1
        except csv.Error as exc:
            raise InputError(f"{path}:{reader.line_num}: {exc}") from None
        return rows, numbers, False
    return [line for line in lines if line], [number for number, line in enumerate(lines, start=1) if line], True


def _parse_cells(path: Path, data_rows: list[list[str]], data_lines: list[int], feature_cols: list[int]) -> np.ndarray:
    """load_csv's feature cells converted one at a time; raises InputError at the first bad cell."""
    X = np.empty((len(data_rows), len(feature_cols)), dtype=float)
    for r, (row, number) in enumerate(zip(data_rows, data_lines)):
        for out_j, j in enumerate(feature_cols):
            cell = row[j].strip()
            try:
                value = float(cell)
            except ValueError:
                raise InputError(
                    f"{path}: non-numeric cell at row {number}, column {j + 1}: {cell!r}"
                ) from None
            if not math.isfinite(value):
                raise InputError(
                    f"{path}: non-finite cell at row {number}, column {j + 1}: {cell!r}"
                )
            X[r, out_j] = value
    return X


def save_csv(path: str | Path, ds: LabeledDataset) -> None:
    """Write a dataset as CSV with a header row; labels go to a 'label' column."""
    path = Path(path)
    m = ds.m
    header = [f"f{j}" for j in range(m)]
    if ds.labels is not None:
        header.append("label")
    lines = [",".join(header)]
    for i in range(ds.n):
        cells = [repr(float(v)) for v in ds.X[i]]
        if ds.labels is not None:
            cells.append(str(int(ds.labels[i])))
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def train_test_split(
    ds: LabeledDataset,
    train_fraction: float,
    seed: int,
) -> tuple[LabeledDataset, LabeledDataset]:
    """Split a labeled dataset into train and test parts, class by class.

    Draws ceil(train_fraction * n_c) samples of each class c without
    replacement. Indices within each part keep ascending order, and the two
    parts always partition the input exactly; the test part is never empty.
    """
    if ds.labels is None:
        raise InputError("the train/test split requires labels")
    if not 0.0 < train_fraction < 1.0:
        raise InputError(f"train_fraction must lie in (0, 1), got {train_fraction}")
    if seed < 0:
        raise InputError(f"seed must be >= 0, got {seed}")
    rng = _rng(seed)
    train_parts = []
    for c in range(ds.n_classes):
        idx_c = np.flatnonzero(ds.labels == c)
        if idx_c.size < 2:
            raise InputError(f"class {c} has {idx_c.size} sample(s); stratified split needs >= 2")
        take = math.ceil(train_fraction * idx_c.size)
        train_parts.append(rng.permutation(idx_c)[:take])
    train_idx = np.sort(np.concatenate(train_parts))
    if train_idx.size == ds.n:
        raise InputError(
            f"train_fraction {train_fraction} leaves no test sample: ceil(train_fraction * n_c) = n_c for every class c"
        )

    mask = np.zeros(ds.n, dtype=bool)
    mask[train_idx] = True
    test_idx = np.flatnonzero(~mask)

    def _subset(idx: np.ndarray) -> LabeledDataset:
        return LabeledDataset(X=ds.X[idx].copy(), labels=ds.labels[idx], label_names=ds.label_names)

    return _subset(train_idx), _subset(test_idx)


def _fix_column_signs(V: np.ndarray) -> np.ndarray:
    # Make the largest-magnitude entry of each column positive (ties: first).
    for j in range(V.shape[1]):
        col = V[:, j]
        anchor = int(np.argmax(np.abs(col)))
        if col[anchor] < 0:
            V[:, j] = -col
    return V


def check_pca_energy(energy: float) -> None:
    """The energy fraction PCA retains must lie in (0, 1]; raises InputError."""
    if not 0.0 < energy <= 1.0:
        raise InputError(f"pca_energy must lie in (0, 1], got {energy}")


def pca_fit(X: np.ndarray, energy: float) -> PcaModel:
    """Fit PCA retaining the smallest dimensionality that reaches `energy`.

    Uses the eigendecomposition of the sample covariance (denominator n-1)
    of mean-centered data. d is the smallest integer such that the top-d
    eigenvalue mass divided by the total is >= energy. The fit runs on
    unit_scale(X), and only the mean scales back.
    """
    X = validate_data_matrix(X)
    check_pca_energy(energy)
    n = X.shape[0]
    if n < 2:
        raise ValueError("pca_fit needs at least 2 samples")

    e, X = unit_scale(X)
    mean = X.mean(axis=0)
    Xc = X - mean
    cov = (Xc.T @ Xc) / (n - 1)
    evals, evecs = np.linalg.eigh(cov)
    evals = np.maximum(evals[::-1], 0.0)  # descending, clipped tiny negatives
    evecs = evecs[:, ::-1]

    total = float(evals.sum())
    if total <= 0.0:
        raise ValueError("zero total variance: all samples are identical")

    cum = np.cumsum(evals)
    # Relative slack so that energy=1.0 resolves to the numerical rank.
    target = energy * total - 1e-12 * total
    d = int(np.searchsorted(cum, target) + 1)
    d = min(d, evals.size)

    basis = _fix_column_signs(evecs[:, :d].copy())
    return PcaModel(mean=np.ldexp(mean, e), basis=basis, energy_retained=float(cum[d - 1] / total))


def pca_transform(model: PcaModel, X: np.ndarray) -> np.ndarray:
    X = validate_data_matrix(X)
    if X.shape[1] != model.mean.shape[0]:
        raise ValueError(
            f"dimensionality mismatch: X has {X.shape[1]} columns, model expects {model.mean.shape[0]}"
        )
    return (X - model.mean) @ model.basis


def synth_union_of_subspaces(
    spec: SyntheticSpec, return_bases: bool = False
) -> LabeledDataset | tuple[LabeledDataset, list[np.ndarray]]:
    """Generate a labeled union of linear subspaces.

    Per subspace: an orthonormal basis is drawn as the QR factor of a seeded
    Gaussian matrix; coefficient vectors are drawn from the unit Gaussian,
    scaled to unit norm, then uniformly rescaled in [0.5, 1.5] to keep points
    away from the shared origin; isotropic Gaussian noise is added last.
    Labels record the source subspace. Deterministic given spec.seed.
    """
    rng = _rng(spec.seed)
    blocks: list[np.ndarray] = []
    labels: list[np.ndarray] = []
    bases: list[np.ndarray] = []
    for s, (dim, count) in enumerate(spec.subspaces):
        G = rng.standard_normal((spec.ambient_dim, dim))
        Q, _ = np.linalg.qr(G)
        basis = Q[:, :dim]
        coeff = rng.standard_normal((count, dim))
        norms = np.linalg.norm(coeff, axis=1)
        norms[norms == 0] = 1.0
        coeff = coeff / norms[:, None]
        scales = rng.uniform(0.5, 1.5, size=count)
        pts = (coeff * scales[:, None]) @ basis.T
        pts = pts + spec.noise_sigma * rng.standard_normal(pts.shape)
        blocks.append(pts)
        labels.append(np.full(count, s, dtype=np.int64))
        bases.append(basis)

    ds = LabeledDataset(
        X=np.vstack(blocks),
        labels=np.concatenate(labels),
        label_names=[str(s) for s in range(len(spec.subspaces))],
    )
    if return_bases:
        return ds, bases
    return ds
