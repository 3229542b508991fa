import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize import linear_sum_assignment

from llrgraph.metrics import (
    classification_accuracy,
    clustering_accuracy,
    contingency_table,
    hungarian,
    intra_class_edge_mass,
    nmi,
)

from oracles import best_accuracy, best_assignment, nmi_reference


def _rng(seed):
    return np.random.Generator(np.random.PCG64(seed))


def test_contingency_table_counts():
    pred = np.array([0, 0, 1, 1, 1, 2])
    truth = np.array([5, 5, 5, 7, 7, 7])
    counts = contingency_table(pred, truth)
    assert counts.tolist() == [[2, 0], [1, 2], [0, 1]]
    assert counts.sum() == 6


def test_contingency_table_relabels_arbitrary_values():
    pred = np.array([10, -3, 10])
    truth = np.array([1, 2, 1])
    counts = contingency_table(pred, truth)
    # rows/cols follow sorted unique label order: pred -3 first, then 10
    assert counts.tolist() == [[0, 1], [2, 0]]


def test_contingency_table_shape_mismatch():
    with pytest.raises(ValueError, match="equal length"):
        contingency_table(np.array([0, 1]), np.array([0, 1, 2]))


def test_hungarian_matches_exhaustive_square():
    rng = _rng(0)
    for trial in range(20):
        m = int(rng.integers(2, 7))
        cost = rng.random((m, m))
        got = hungarian(cost)
        got_cost = sum(cost[r, c] for r, c in enumerate(got))
        assert got_cost == pytest.approx(best_assignment(cost), abs=1e-12), f"trial {trial}"


def test_hungarian_matches_exhaustive_rectangular():
    rng = _rng(1)
    for trial in range(20):
        rows = int(rng.integers(2, 6))
        cols = int(rng.integers(2, 6))
        cost = rng.random((rows, cols))
        got = hungarian(cost)
        assigned = got[got >= 0]
        assert assigned.size == min(rows, cols)
        assert np.unique(assigned).size == assigned.size, "assignment must be injective"
        got_cost = sum(cost[r, c] for r, c in enumerate(got) if c >= 0)
        assert got_cost == pytest.approx(best_assignment(cost), abs=1e-12), f"trial {trial}"


@pytest.mark.parametrize("kind", ["float", "ties"])
def test_hungarian_matches_scipy_assignment_cost(kind):
    """Optimal cost, injectivity and assigned-row count against SciPy's solver
    up to 40 x 40, with 1 x m, m x 1 and more rows than columns included."""
    rng = _rng(3 if kind == "float" else 4)
    shapes = [(1, 1), (1, 7), (7, 1), (40, 40), (40, 13), (13, 40)]
    shapes += [tuple(int(v) for v in rng.integers(1, 41, 2)) for _ in range(60)]
    for rows, cols in shapes:
        if kind == "float":
            cost = rng.normal(size=(rows, cols)) * 10.0 ** rng.integers(-3, 4)
        else:
            cost = rng.integers(0, 3, (rows, cols)).astype(float)  # many equal optima
        got = hungarian(cost)
        r, c = linear_sum_assignment(cost)
        assigned = np.flatnonzero(got >= 0)
        assert assigned.size == r.size == min(rows, cols), (rows, cols)
        assert np.unique(got[assigned]).size == assigned.size, "assignment must be injective"
        want = cost[r, c].sum()
        assert cost[assigned, got[assigned]].sum() == pytest.approx(want, rel=1e-12, abs=1e-12), (rows, cols)


def test_hungarian_rejects_bad_inputs():
    with pytest.raises(ValueError, match="2-D"):
        hungarian(np.zeros(3))
    with pytest.raises(ValueError, match="non-finite"):
        hungarian(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_clustering_accuracy_matches_exhaustive():
    rng = _rng(2)
    for trial in range(20):
        n = int(rng.integers(4, 15))
        pred = rng.integers(0, 4, size=n)
        truth = rng.integers(0, 3, size=n)
        assert clustering_accuracy(pred, truth) == pytest.approx(
            best_accuracy(pred, truth), abs=1e-12
        ), f"trial {trial}"


def test_clustering_accuracy_invariant_to_relabeling():
    rng = _rng(3)
    pred = rng.integers(0, 3, size=30)
    truth = rng.integers(0, 3, size=30)
    base = clustering_accuracy(pred, truth)
    remap = np.array([2, 0, 1])
    assert clustering_accuracy(remap[pred], truth) == pytest.approx(base, abs=1e-15)
    assert clustering_accuracy(pred, remap[truth]) == pytest.approx(base, abs=1e-15)


def test_clustering_accuracy_perfect_and_type():
    pred = np.array([1, 1, 0, 0, 2, 2])
    truth = np.array([7, 7, 5, 5, 9, 9])
    value = clustering_accuracy(pred, truth)
    assert value == 1.0
    assert type(value) is float


def test_nmi_identical_partitions():
    labels = np.array([0, 0, 1, 1, 2, 2, 2])
    assert nmi(labels, labels) == pytest.approx(1.0, abs=1e-12)
    # relabeled copy is the same set partition
    assert nmi(labels, (labels + 5) % 3) == pytest.approx(1.0, abs=1e-12)


def test_nmi_independent_partitions():
    # perfectly balanced independent 2x2 contingency table
    pred = np.array([0, 0, 1, 1])
    truth = np.array([0, 1, 0, 1])
    assert nmi(pred, truth) == pytest.approx(0.0, abs=1e-12)


def test_nmi_matches_reference_on_random_partitions():
    rng = _rng(4)
    for trial in range(20):
        n = int(rng.integers(5, 40))
        pred = rng.integers(0, 4, size=n)
        truth = rng.integers(0, 3, size=n)
        assert nmi(pred, truth) == pytest.approx(
            nmi_reference(pred, truth), abs=1e-10
        ), f"trial {trial}"


def test_nmi_zero_entropy_conventions():
    ones = np.zeros(5, dtype=int)
    split = np.array([0, 0, 1, 1, 1])
    # single cluster vs single class: identical set partitions
    assert nmi(ones, ones) == 1.0
    # single cluster vs genuine split: no information
    assert nmi(ones, split) == 0.0
    assert nmi(split, ones) == 0.0
    # counts over n whose float sum is not exactly 1 must not leave a
    # single cluster a nonzero entropy (7 in 3 parts read 2e-8, 9 in 7 NaN)
    for n, parts in [(7, 3), (9, 7)]:
        assert nmi(np.zeros(n, dtype=int), np.arange(n) % parts) == 0.0
        assert nmi(np.arange(n) % parts, np.zeros(n, dtype=int)) == 0.0


def test_classification_accuracy_direct_comparison():
    pred = np.array([1, 0, 2, 2])
    truth = np.array([1, 1, 2, 0])
    assert classification_accuracy(pred, truth) == 0.5
    with pytest.raises(ValueError, match="equal length"):
        classification_accuracy(pred, truth[:3])


def test_intra_class_edge_mass_hand_example():
    # edges: (0,1) weight 2 same class, (1,2) weight 1 cross, symmetric storage
    W = sp.csr_matrix(
        np.array(
            [
                [0.0, 2.0, 0.0],
                [2.0, 0.0, 1.0],
                [0.0, 1.0, 0.0],
            ]
        )
    )
    labels = np.array([0, 0, 1])
    assert intra_class_edge_mass(W, labels) == pytest.approx(4.0 / 6.0, abs=1e-15)


def test_intra_class_edge_mass_errors():
    W = sp.csr_matrix((3, 3))
    with pytest.raises(ValueError, match="no edge mass"):
        intra_class_edge_mass(W, np.array([0, 0, 1]))
    with pytest.raises(ValueError, match="label length"):
        intra_class_edge_mass(W, np.array([0, 1]))
