"""The benchmark's checks accept correct outputs and reject corrupted ones.

Run with ``python3 -m pytest perfbench``. Nothing here imports llrgraph.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize import linear_sum_assignment

import checks


@pytest.fixture
def blobs():
    X, labels = checks.union_of_subspaces([9, 0], 6, [(2, 30), (2, 30), (2, 30)], 0.01)
    return X, labels


def _coefficient_matrix(X, lam, d_dict, k_keep):
    n = X.shape[0]
    rows, cols, vals = [], [], []
    for i, (atoms, c) in checks.llr_coefficients_ref(X, lam, d_dict, 1e-9).items():
        idx, kept = checks.keep_strongest(atoms, c, k_keep)
        rows += [i] * idx.size
        cols += idx.tolist()
        vals += kept.tolist()
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))


def test_elimination_matches_closed_form(blobs):
    X, _ = blobs
    (atoms, c), = checks.llr_coefficients_ref(X, 0.5, 20, 0.0, rows=[3]).values()
    B = X[3] - X[atoms]
    D = np.linalg.norm(B, axis=1)
    M = 0.5 * (B @ B.T) + 0.5 * np.diag(D**2)
    u = np.linalg.solve(M, np.ones(20))
    assert np.allclose(c, u / u.sum(), rtol=0, atol=1e-10)
    assert math.isclose(c.sum(), 1.0, abs_tol=1e-12)


def test_coefficient_rows_reject_a_perturbed_or_moved_coefficient(blobs):
    X, _ = blobs
    C = _coefficient_matrix(X, 0.3, 25, 5)
    rows = [0, 17, 44]
    assert checks.check_coefficient_rows(C, X, 0.3, 25, 5, 1e-9, rows) == []

    perturbed = C.copy()
    perturbed.data[perturbed.indptr[17]] += 1e-4
    assert checks.check_coefficient_rows(perturbed, X, 0.3, 25, 5, 1e-9, rows)

    moved = C.tolil()
    j = C.getrow(44).indices[0]
    free = next(col for col in range(X.shape[0]) if col != 44 and moved[44, col] == 0)
    moved[44, free], moved[44, j] = moved[44, j], 0.0
    assert checks.check_coefficient_rows(moved.tocsr(), X, 0.3, 25, 5, 1e-9, rows)


def test_graph_check_rejects_asymmetry_missing_edges_and_bad_weights(blobs):
    X, _ = blobs
    ref = checks.heat_graph_ref(X, 4)
    assert checks.check_graph_equal(ref.copy(), ref, "heat") == []

    i, j = ref.nonzero()[0][0], ref.nonzero()[1][0]
    asymmetric = ref.tolil()
    asymmetric[i, j] *= 1.5
    assert any("not symmetric" in p for p in checks.check_graph_equal(asymmetric.tocsr(), ref, "heat"))

    missing = ref.tolil()
    missing[i, j] = missing[j, i] = 0.0
    assert checks.check_graph_equal(missing.tocsr(), ref, "heat")

    scaled = ref * (1 + 1e-9)
    assert checks.check_graph_equal(scaled, ref, "heat")


def test_graph_file_roundtrip(tmp_path):
    (tmp_path / "g.txt").write_text("llr-graph v1 n=3 sym=1\n0 1 0.5\n1 2 0.25\n")
    W = checks.read_graph_file(tmp_path / "g.txt")
    assert W.toarray().tolist() == [[0, 0.5, 0], [0.5, 0, 0.25], [0, 0.25, 0]]


def test_heat_graph_is_union_knn_with_median_bandwidth():
    X = np.array([[0.0], [1.0], [3.0], [7.0]])
    W = checks.heat_graph_ref(X, 1).toarray()
    # nearest: 0->1, 1->0, 2->1, 3->2; edges (0,1), (1,2), (2,3) with lengths 1, 2, 4.
    sigma = 2.0
    expected = np.zeros((4, 4))
    for a, b, d in [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 4.0)]:
        expected[a, b] = expected[b, a] = math.exp(-(d**2) / (2 * sigma**2))
    assert np.allclose(W, expected, rtol=0, atol=1e-15)


def test_components_must_be_the_classes():
    labels = np.array([0, 0, 1, 1])
    W = sp.csr_matrix(np.array([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=float))
    assert checks.check_components_are_classes(W, labels) == []
    bridged = W.tolil()
    bridged[1, 2] = bridged[2, 1] = 1.0
    assert checks.check_components_are_classes(bridged.tocsr(), labels)
    assert checks.check_components_are_classes(W, np.array([0, 1, 1, 1]))


def test_cluster_scores_accept_renamed_labels_and_reject_permuted_points():
    truth = np.repeat(np.arange(5), 6)
    renamed = (truth + 2) % 5
    assert checks.check_cluster_scores(renamed, truth, {"metrics": {"ac": 1.0, "nmi": 1.0}}) == []

    swapped = renamed.copy()
    swapped[[0, 29]] = swapped[[29, 0]]
    problems = checks.check_cluster_scores(swapped, truth, {"metrics": {"ac": 1.0, "nmi": 1.0}})
    assert any("exhaustive" in p for p in problems)
    assert any("report ac" in p for p in problems)
    assert any("report nmi" in p for p in problems)


def test_permutation_accuracy_agrees_with_assignment_solver():
    rng = np.random.Generator(np.random.PCG64(5))
    for _ in range(20):
        pred, truth = rng.integers(0, 4, 40), rng.integers(0, 4, 40)
        table = checks.counts_table(pred, truth)
        r, c = linear_sum_assignment(-table)
        assert checks.accuracy_by_permutation(pred, truth) == table[r, c].sum() / 40


def test_nmi_reference_values():
    a = np.array([0, 0, 1, 1])
    assert checks.nmi_ref(a, 1 - a) == pytest.approx(1.0, abs=1e-15)
    assert checks.nmi_ref(np.array([0, 1, 0, 1]), a) == pytest.approx(0.0, abs=1e-15)
    assert checks.nmi_ref(np.zeros(4, dtype=int), a) == 0.0


def test_classification_check():
    test = np.array([0, 1, 2, 3, 4] * 4)
    pred = test.copy()
    pred[0] = 1
    assert checks.check_classification(pred, test, {"metrics": {"accuracy": 0.95}}, 0.9) == []
    assert checks.check_classification(pred, test, {"metrics": {"accuracy": 1.0}}, 0.9)
    assert checks.check_classification(pred, test, {"metrics": {"accuracy": 0.95}}, 0.99)


def test_stratified_split_partitions_each_class():
    labels = np.repeat(np.arange(3), [5, 6, 7])
    train, test = checks.stratified_split(labels, 0.5, seed=0)
    assert np.array_equal(np.sort(np.concatenate([train, test])), np.arange(18))
    assert np.bincount(labels[train]).tolist() == [3, 3, 4]


def _sweep_report(seeds, lambdas, ks):
    cells = []
    value = 0.5
    for method, lam, k, seed in checks.fig1_grid(seeds, lambdas, ks):
        value = (value * 7.3) % 1.0
        cells.append({"method": method, "lambda": lam, "k": k, "seed": seed,
                      "ac": value, "nmi": value / 2, "intra_class_edge_mass": 0.9})
    summary = {}
    for method in ("llr", "heat", "lle"):
        rows = [c for c in cells if c["method"] == method]
        acs = [c["ac"] for c in rows]
        best_by_seed = {}
        for seed in seeds:
            srows = [c for c in rows if c["seed"] == seed]
            best_by_seed[str(seed)] = max(srows, key=lambda c: c["ac"])
        summary[method] = {
            "mean_ac": float(np.mean(acs)), "max_ac": max(acs),
            "mean_nmi": float(np.mean([c["nmi"] for c in rows])), "max_nmi": max(c["nmi"] for c in rows),
            "best": max(rows, key=lambda c: c["ac"]), "best_by_seed": best_by_seed,
        }
    return {"metrics": {"cells": cells, "summary": summary}}


def test_sweep_summary_check_rejects_incomplete_grid_and_wrong_summary():
    seeds, lambdas, ks = [0, 1], [0.1, 0.2], [4, 8]
    report = _sweep_report(seeds, lambdas, ks)
    assert checks.check_sweep_summary(report, seeds, lambdas, ks) == []

    short = _sweep_report(seeds, lambdas, ks)
    del short["metrics"]["cells"][3]
    assert checks.check_sweep_summary(short, seeds, lambdas, ks)

    wrong = _sweep_report(seeds, lambdas, ks)
    wrong["metrics"]["summary"]["heat"]["mean_ac"] += 1e-6
    assert checks.check_sweep_summary(wrong, seeds, lambdas, ks)


def test_cell_mass_check(blobs):
    X, labels = blobs
    coefficients = checks.llr_coefficients_ref(X, 0.0, 4, 1e-9)
    W = checks.llr_graph_ref(coefficients, X.shape[0], 4)
    mass = checks.intra_mass(W, labels)
    cell = {"method": "lle", "lambda": None, "k": 4, "seed": 0, "intra_class_edge_mass": mass}
    assert checks.check_cell_mass(cell, W, labels) == []
    assert checks.check_cell_mass(dict(cell, intra_class_edge_mass=mass - 1e-4), W, labels)
    assert checks.check_cell_mass(cell, W, np.roll(labels, 1))
