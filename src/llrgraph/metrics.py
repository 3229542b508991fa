"""Clustering and classification quality measures."""

from __future__ import annotations

import math
from typing import Any

import numpy as np

from .graphio import as_graph


def contingency_table(pred: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """Counts matrix, predicted clusters as rows and true classes as columns."""
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    if pred.shape != truth.shape or pred.ndim != 1:
        raise ValueError(f"label vectors must be 1-D with equal length, got {pred.shape} and {truth.shape}")
    _, pi = np.unique(pred, return_inverse=True)
    _, ti = np.unique(truth, return_inverse=True)
    counts = np.zeros((pi.max() + 1, ti.max() + 1), dtype=np.int64)
    np.add.at(counts, (pi, ti), 1)
    return counts


def _assign_rows(cost: np.ndarray) -> np.ndarray:
    """Column of every row in a minimum-cost assignment of an n x m matrix, n <= m.

    Shortest augmenting paths with dual potentials (Kuhn-Munkres in the form
    of Jonker & Volgenant, Computing 1987): each row in turn grows a
    Dijkstra tree over reduced costs until it reaches a free column, then
    flips the path. O(n^2 m) steps in plain Python, which beats per-step
    numpy calls on contingency tables up to about 100 x 100.
    """
    n, m = cost.shape
    rows = cost.tolist()
    u = [0.0] * n  # row potentials
    v = [0.0] * (m + 1)  # column potentials; column m is the virtual root
    owner = [-1] * (m + 1)  # row assigned to each column
    for i in range(n):
        owner[m] = i
        j0 = m
        dist = [math.inf] * m
        prev = [m] * m  # previous column on the shortest path
        used = [False] * (m + 1)
        while owner[j0] >= 0:
            used[j0] = True
            row, ui = rows[owner[j0]], u[owner[j0]]
            delta, j1 = math.inf, -1
            for j in range(m):
                if not used[j]:
                    reduced = row[j] - ui - v[j]
                    if reduced < dist[j]:
                        dist[j], prev[j] = reduced, j0
                    if dist[j] < delta:
                        delta, j1 = dist[j], j
            for j in range(m + 1):
                if used[j]:
                    u[owner[j]] += delta
                    v[j] -= delta
                elif j < m:
                    dist[j] -= delta
            j0 = j1
        while j0 != m:
            owner[j0] = owner[prev[j0]]
            j0 = prev[j0]
    cols = np.full(n, -1, dtype=np.int64)
    for j in range(m):
        if owner[j] >= 0:
            cols[owner[j]] = j
    return cols


def hungarian(cost: np.ndarray) -> np.ndarray:
    """Minimum-cost injective row-to-column assignment.

    Returns an array of length n_rows with the assigned column per row, or
    -1 for rows left unassigned when the matrix has more rows than columns.
    """
    cost = np.asarray(cost, dtype=float)
    if cost.ndim != 2 or cost.size == 0:
        raise ValueError(f"cost must be a nonempty 2-D matrix, got shape {cost.shape}")
    if not np.all(np.isfinite(cost)):
        raise ValueError("cost matrix contains non-finite entries")
    if cost.shape[0] <= cost.shape[1]:
        return _assign_rows(cost)
    rows = _assign_rows(cost.T)  # the row of every column
    assignment = np.full(cost.shape[0], -1, dtype=np.int64)
    assignment[rows] = np.arange(cost.shape[1])
    return assignment


def clustering_accuracy(pred: np.ndarray, truth: np.ndarray) -> float:
    """Best label-matched agreement fraction over injective cluster-to-class maps."""
    counts = contingency_table(pred, truth)
    assignment = hungarian(-counts.astype(float))
    matched = sum(
        int(counts[r, c]) for r, c in enumerate(assignment) if c >= 0
    )
    return matched / int(counts.sum())


def _entropy(p: np.ndarray) -> float:
    p = p[p > 0]
    return -math.fsum((p * np.log(p)).tolist())


def nmi(pred: np.ndarray, truth: np.ndarray) -> float:
    """Normalized mutual information with square-root normalization.

    Natural-log entropies from the contingency table; 0 log 0 = 0. If either
    marginal entropy is zero the value is 1 when the two partitions are
    identical as set partitions and 0 otherwise. The marginals are integer
    counts over n, and every sum is exactly rounded (math.fsum), so the value
    is a function of the two partitions: renumbering either, or swapping
    them, leaves every bit.
    """
    counts = contingency_table(pred, truth)
    n = int(counts.sum())
    pr = counts.sum(axis=1) / n
    pc = counts.sum(axis=0) / n
    h_pred = _entropy(pr)
    h_truth = _entropy(pc)
    if h_pred == 0.0 or h_truth == 0.0:
        same = np.all((counts > 0).sum(axis=1) <= 1) and np.all((counts > 0).sum(axis=0) <= 1)
        return 1.0 if same else 0.0
    nz = counts > 0
    pij = counts[nz] / n
    mi = math.fsum((pij * np.log(pij / np.outer(pr, pc)[nz])).tolist())
    value = mi / np.sqrt(h_pred * h_truth)
    return float(min(max(value, 0.0), 1.0))


def classification_accuracy(pred: np.ndarray, truth: np.ndarray) -> float:
    """Exact-match fraction; labels are compared directly."""
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    if pred.shape != truth.shape or pred.ndim != 1:
        raise ValueError(f"label vectors must be 1-D with equal length, got {pred.shape} and {truth.shape}")
    return float(np.mean(pred == truth))


def intra_class_edge_mass(W: Any, labels: np.ndarray) -> float:
    """Fraction of total edge weight connecting same-class vertex pairs of a graph (as_graph)."""
    W = as_graph(W)
    labels = np.asarray(labels)
    if W.shape[0] != labels.shape[0]:
        raise ValueError("label length must match graph size")
    total = float(W.data.sum())
    if total <= 0:
        raise ValueError("graph has no edge mass")
    same = float(W.data[labels[W.entry_rows()] == labels[W.indices]].sum())
    return same / total
