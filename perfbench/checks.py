"""Reference computations and output checks for the benchmark.

Everything here is plain numpy/scipy written apart from the llrgraph code
under test: the checks never import llrgraph. Each ``check_*`` function
returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import itertools
import math
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components
from scipy.spatial.distance import cdist

#: Coefficient agreement required between the program and the elimination solve.
COEF_TOL = 1e-6
#: Agreement required for graph weights, which have no solve in them.
WEIGHT_RTOL = 1e-12


# ---------------------------------------------------------------------------
# Inputs


def union_of_subspaces(
    entropy: int | list[int], ambient_dim: int, subspaces: list[tuple[int, int]], noise: float
) -> tuple[np.ndarray, np.ndarray]:
    """Seeded union of linear subspaces, following the documented generator.

    Per subspace: the Q factor of a Gaussian (ambient_dim x dim) is the basis;
    Gaussian coefficients are scaled to unit norm, then by a uniform factor in
    [0.5, 1.5]; isotropic Gaussian noise is added last. With an integer seed
    this reproduces the points ``llrgraph`` draws for a preset, so sweep cells
    can be recomputed without calling the program.
    """
    rng = np.random.Generator(np.random.PCG64(entropy))
    blocks, labels = [], []
    for s, (dim, count) in enumerate(subspaces):
        Q, _ = np.linalg.qr(rng.standard_normal((ambient_dim, dim)))
        coeff = rng.standard_normal((count, dim))
        norms = np.linalg.norm(coeff, axis=1)
        norms[norms == 0] = 1.0
        coeff = coeff / norms[:, None]
        scales = rng.uniform(0.5, 1.5, size=count)
        pts = (coeff * scales[:, None]) @ Q[:, :dim].T
        blocks.append(pts + noise * rng.standard_normal(pts.shape))
        labels.append(np.full(count, s, dtype=np.int64))
    return np.vstack(blocks), np.concatenate(labels)


def fig1_points(seed: int, per_subspace: int = 50, noise: float = 0.01) -> tuple[np.ndarray, np.ndarray]:
    """The fig1 preset: subspaces of dimension 1, 1 and 2 in R^3."""
    return union_of_subspaces(seed, 3, [(1, per_subspace), (1, per_subspace), (2, per_subspace)], noise)


def write_csv(path: Path, X: np.ndarray, labels: np.ndarray) -> None:
    """Header ``f0..f{m-1},label``, full-precision floats."""
    header = ",".join([f"f{j}" for j in range(X.shape[1])] + ["label"])
    lines = [header] + [
        ",".join(repr(float(v)) for v in row) + f",{int(label)}" for row, label in zip(X, labels)
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_labels(path: Path, labels: np.ndarray) -> None:
    path.write_text("".join(f"{int(v)}\n" for v in labels), encoding="utf-8")


# ---------------------------------------------------------------------------
# Readers for the program's output formats


def read_label_file(path: Path) -> np.ndarray:
    return np.array([int(line) for line in path.read_text().split()], dtype=np.int64)


def read_graph_file(path: Path) -> sp.csr_matrix:
    """Parse ``llr-graph v1 n=<n> sym=1`` followed by ``i j w`` lines (i < j)."""
    lines = path.read_text().splitlines()
    head = lines[0].split()
    if head[:2] != ["llr-graph", "v1"] or head[3] != "sym=1":
        raise ValueError(f"{path}: unexpected header {lines[0]!r}")
    n = int(head[2].removeprefix("n="))
    body = np.loadtxt(lines[1:], ndmin=2).reshape(-1, 3)
    i = body[:, 0].astype(np.int64)
    j = body[:, 1].astype(np.int64)
    w = body[:, 2]
    W = sp.coo_matrix((np.concatenate([w, w]), (np.concatenate([i, j]), np.concatenate([j, i]))), shape=(n, n))
    return W.tocsr()


# ---------------------------------------------------------------------------
# Reference graphs


def _neighbour_order(dist_row: np.ndarray, owner: int) -> np.ndarray:
    """Other points by ascending distance, ties to the smaller index."""
    d = dist_row.copy()
    d[owner] = np.inf
    return np.argsort(d, kind="stable")[:-1]


def heat_graph_ref(X: np.ndarray, k_nn: int) -> sp.csr_matrix:
    """Union-kNN heat-kernel graph, sigma = median retained distance."""
    n = X.shape[0]
    D = cdist(X, X)
    masked = D.copy()
    np.fill_diagonal(masked, np.inf)
    nn = np.argsort(masked, axis=1, kind="stable")[:, :k_nn]
    adj = np.zeros((n, n), dtype=bool)
    adj[np.repeat(np.arange(n), k_nn), nn.ravel()] = True
    iu, ju = np.nonzero(np.triu(adj | adj.T, k=1))
    dist = D[iu, ju]
    sigma = float(np.median(dist))
    w = np.exp(-(dist**2) / (2.0 * sigma**2))
    W = sp.coo_matrix((np.concatenate([w, w]), (np.concatenate([iu, ju]), np.concatenate([ju, iu]))), shape=(n, n))
    return W.tocsr()


def eliminate(A: np.ndarray) -> np.ndarray:
    """argmin c^T A c subject to 1^T c = 1, by constraint elimination.

    With c = e_d + E z and E = [I; -1^T], a basis of the null space of 1^T,
    the constrained problem becomes the unconstrained (E^T A E) z = -E^T A e_d.
    """
    d = A.shape[0]
    if d == 1:
        return np.ones(1)
    a = A[:-1, -1]
    alpha = A[-1, -1]
    H = A[:-1, :-1] - a[:, None] - a[None, :] + alpha
    z = np.linalg.solve(H, alpha - a)
    return np.append(z, 1.0 - z.sum())


def llr_coefficients_ref(
    X: np.ndarray, lam: float, d_dict: int, epsilon: float, rows=None
) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Full (unsparsified) coefficient vector of each requested row.

    Row i is encoded over its d_dict nearest other points with the
    distance-penalized objective lam ||S c||^2 + (1 - lam) ||x - D c||^2 plus
    the documented trace-relative ridge epsilon * trace(M) / d_dict.
    Returns {i: (atom indices, coefficients)}.
    """
    n = X.shape[0]
    D = cdist(X, X)
    out = {}
    for i in range(n) if rows is None else rows:
        atoms = _neighbour_order(D[i], i)[:d_dict]
        B = X[i] - X[atoms]
        M = (1.0 - lam) * (B @ B.T) + lam * np.diag(D[i, atoms] ** 2)
        trace = float(np.trace(M))
        ridge = epsilon * trace / d_dict if trace > 0 else epsilon
        out[i] = (atoms, eliminate(M + ridge * np.eye(d_dict)))
    return out


def keep_strongest(atoms: np.ndarray, c: np.ndarray, k_keep: int) -> tuple[np.ndarray, np.ndarray]:
    """The k_keep entries of largest |c| (ties: smaller index), zeros dropped, sorted by index."""
    order = np.lexsort((atoms, -np.abs(c)))[:k_keep]
    order = order[c[order] != 0.0]
    by_index = np.argsort(atoms[order])
    return atoms[order][by_index], c[order][by_index]


def llr_graph_ref(coefficients: dict[int, tuple[np.ndarray, np.ndarray]], n: int, k_keep: int) -> sp.csr_matrix:
    """W = |C| + |C|^T from reference coefficients of every row, k_keep kept per row.

    Coefficients at lam=0 with d_dict=k_keep=k give the LLE graph.
    """
    rows, cols, vals = [], [], []
    for i, (atoms, c) in coefficients.items():
        idx, kept = keep_strongest(atoms, c, k_keep)
        rows.append(np.full(idx.size, i))
        cols.append(idx)
        vals.append(np.abs(kept))
    A = sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n)).tocsr()
    return (A + A.T).tocsr()


def intra_mass(W: sp.spmatrix, labels: np.ndarray) -> float:
    """Share of edge weight between same-class vertices."""
    coo = W.tocoo()
    same = labels[coo.row] == labels[coo.col]
    return float(coo.data[same].sum() / coo.data.sum())


# ---------------------------------------------------------------------------
# Reference scores


def counts_table(pred: np.ndarray, truth: np.ndarray) -> np.ndarray:
    _, p = np.unique(pred, return_inverse=True)
    _, t = np.unique(truth, return_inverse=True)
    size = max(p.max(), t.max()) + 1
    table = np.zeros((size, size), dtype=np.int64)
    np.add.at(table, (p, t), 1)
    return table


def accuracy_by_permutation(pred: np.ndarray, truth: np.ndarray) -> float:
    """Best agreement over every one-to-one relabelling, by exhaustive search."""
    table = counts_table(pred, truth)
    size = table.shape[0]
    best = max(sum(table[r, perm[r]] for r in range(size)) for perm in itertools.permutations(range(size)))
    return best / pred.size


def nmi_ref(pred: np.ndarray, truth: np.ndarray) -> float:
    """I(P; T) / sqrt(H(P) H(T)) with natural logs, from the contingency counts."""
    table = counts_table(pred, truth).astype(float)
    n = table.sum()
    pr = table.sum(axis=1) / n
    pc = table.sum(axis=0) / n
    h = [-sum(p * math.log(p) for p in marg if p > 0) for marg in (pr, pc)]
    if h[0] == 0.0 or h[1] == 0.0:
        one_to_one = np.all((table > 0).sum(axis=0) <= 1) and np.all((table > 0).sum(axis=1) <= 1)
        return 1.0 if one_to_one else 0.0
    mi = sum(
        (table[r, c] / n) * math.log((table[r, c] / n) / (pr[r] * pc[c]))
        for r in range(table.shape[0])
        for c in range(table.shape[1])
        if table[r, c] > 0
    )
    return mi / math.sqrt(h[0] * h[1])


def stratified_split(labels: np.ndarray, train_fraction: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Train/test indices: per class in label order, ceil(fraction * n_c) from a PCG64 permutation."""
    rng = np.random.Generator(np.random.PCG64(seed))
    train = []
    for c in range(int(labels.max()) + 1):
        members = np.flatnonzero(labels == c)
        train.append(rng.permutation(members)[: math.ceil(train_fraction * members.size)])
    train_idx = np.sort(np.concatenate(train))
    return train_idx, np.setdiff1d(np.arange(labels.size), train_idx)


# ---------------------------------------------------------------------------
# Checks


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def check_graph_equal(W: sp.csr_matrix, ref: sp.csr_matrix, what: str, rtol: float = WEIGHT_RTOL) -> list[str]:
    """Same edge set and weights within rtol; W must be symmetric with a zero diagonal."""
    problems = []
    if W.shape != ref.shape:
        return [f"{what}: shape {W.shape} != reference {ref.shape}"]
    if abs(W - W.T).max() > 0:
        problems.append(f"{what}: graph is not symmetric")
    if W.diagonal().any():
        problems.append(f"{what}: graph has a nonzero diagonal")
    pattern = (W != 0).astype(np.int8) - (ref != 0).astype(np.int8)
    if pattern.count_nonzero():
        problems.append(f"{what}: {pattern.count_nonzero()} edges differ from the reference")
    elif W.nnz:
        diff = abs(W - ref).max()
        if diff > rtol * abs(ref).max():
            problems.append(f"{what}: weights differ from the reference by {diff:.3e}")
    return problems


def check_coefficient_rows(
    C: sp.csr_matrix, X: np.ndarray, lam: float, d_dict: int, k_keep: int, epsilon: float, rows, tol: float = COEF_TOL
) -> list[str]:
    """Sparsified coefficient rows of the program against the elimination solve."""
    problems = []
    C = sp.csr_matrix(C)
    for i, (atoms, c) in llr_coefficients_ref(X, lam, d_dict, epsilon, rows).items():
        idx, kept = keep_strongest(atoms, c, k_keep)
        row = C.getrow(i)
        order = np.argsort(row.indices)
        got_idx, got = row.indices[order], row.data[order]
        if not np.array_equal(got_idx, idx):
            problems.append(f"coefficient row {i}: kept atoms {got_idx.tolist()} != reference {idx.tolist()}")
        elif np.max(np.abs(got - kept), initial=0.0) > tol:
            problems.append(f"coefficient row {i}: off by {np.max(np.abs(got - kept)):.3e} (> {tol:g})")
    return problems


def fig1_grid(seeds: list[int], lambdas: list[float], k_values: list[int]) -> list[tuple[str, float | None, int, int]]:
    """Cell keys (method, lambda, k, seed) in the order the sweep documents."""
    cells = []
    for seed in seeds:
        cells += [("llr", lam, k, seed) for lam in lambdas for k in k_values]
        cells += [("heat", None, k, seed) for k in k_values]
        cells += [("lle", None, k, seed) for k in k_values]
    return cells


def check_sweep_summary(report: dict, seeds: list[int], lambdas: list[float], k_values: list[int]) -> list[str]:
    """The cell grid is complete and in order, scores are in range, and the summary agrees with the cells."""
    cells = report["metrics"]["cells"]
    keys = [(c["method"], c["lambda"], c["k"], c["seed"]) for c in cells]
    expected = fig1_grid(seeds, lambdas, k_values)
    if keys != expected:
        return [f"sweep cells: got {len(keys)} cells, expected the {len(expected)}-cell grid in order"]
    problems = []
    for c in cells:
        for name in ("ac", "nmi", "intra_class_edge_mass"):
            if not 0.0 <= c[name] <= 1.0:
                problems.append(f"cell {c['method']} lambda={c['lambda']} k={c['k']} seed={c['seed']}: {name}={c[name]}")
    for method, s in report["metrics"]["summary"].items():
        rows = [c for c in cells if c["method"] == method]
        acs = [c["ac"] for c in rows]
        nmis = [c["nmi"] for c in rows]
        want = {"mean_ac": float(np.mean(acs)), "max_ac": max(acs), "mean_nmi": float(np.mean(nmis)), "max_nmi": max(nmis)}
        for name, value in want.items():
            if not _close(s[name], value, 1e-12):
                problems.append(f"summary {method}.{name}={s[name]!r}, cells give {value!r}")
        if s["best"] != rows[acs.index(max(acs))]:
            problems.append(f"summary {method}.best is not the first cell of highest ac")
        for seed in seeds:
            seed_rows = [c for c in rows if c["seed"] == seed]
            seed_acs = [c["ac"] for c in seed_rows]
            if s["best_by_seed"][str(seed)] != seed_rows[seed_acs.index(max(seed_acs))]:
                problems.append(f"summary {method}.best_by_seed[{seed}] is not that seed's first best cell")
    return problems


def check_cell_mass(cell: dict, W_ref: sp.spmatrix, labels: np.ndarray, tol: float = COEF_TOL) -> list[str]:
    """A cell's intra-class edge mass against the mass of the reference graph."""
    want = intra_mass(W_ref, labels)
    if abs(cell["intra_class_edge_mass"] - want) > tol:
        return [
            f"cell {cell['method']} lambda={cell['lambda']} k={cell['k']} seed={cell['seed']}: "
            f"intra_class_edge_mass={cell['intra_class_edge_mass']!r}, reference {want!r}"
        ]
    return []


def check_components_are_classes(W: sp.spmatrix, labels: np.ndarray) -> list[str]:
    """Connected components coincide exactly with the classes."""
    n_comp, comp = connected_components(W, directed=False)
    n_cls = int(labels.max()) + 1
    if n_comp != n_cls or counts_table(comp, labels).astype(bool).sum() != n_cls:
        return [f"graph has {n_comp} connected components that are not the {n_cls} classes"]
    return []


def check_cluster_scores(pred: np.ndarray, truth: np.ndarray, report: dict) -> list[str]:
    """Ideal case: exhaustive-permutation AC is 1, and the report agrees with recomputed AC and NMI."""
    problems = []
    if pred.shape != truth.shape:
        return [f"cluster labels: {pred.size} written for {truth.size} vertices"]
    ac = accuracy_by_permutation(pred, truth)
    if ac != 1.0:
        problems.append(f"cluster accuracy {ac!r} by exhaustive matching, the ideal case needs 1")
    metrics = report["metrics"]
    if metrics["ac"] != ac:
        problems.append(f"report ac={metrics['ac']!r}, recomputed {ac!r}")
    nmi = nmi_ref(pred, truth)
    if not _close(metrics["nmi"], nmi, 1e-12):
        problems.append(f"report nmi={metrics['nmi']!r}, recomputed {nmi!r}")
    return problems


def check_classification(pred: np.ndarray, test_labels: np.ndarray, report: dict, floor: float) -> list[str]:
    """Accuracy recomputed from the written predictions matches the report and clears the floor."""
    if pred.shape != test_labels.shape:
        return [f"predictions: {pred.size} written for {test_labels.size} test points"]
    acc = float(np.count_nonzero(pred == test_labels)) / pred.size
    problems = []
    if not _close(report["metrics"]["accuracy"], acc, 1e-12):
        problems.append(f"report accuracy={report['metrics']['accuracy']!r}, recomputed {acc!r}")
    if acc < floor:
        problems.append(f"accuracy {acc!r} below the floor {floor}")
    return problems
