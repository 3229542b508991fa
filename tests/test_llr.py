import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from llrgraph import llr
from llrgraph.data import InputError
from llrgraph.llr import (
    Dictionary,
    HyperParams,
    build_dictionary,
    build_llr_coefficients,
    build_llr_graph,
    distance_diagonal,
    neighbour_table,
    solve_coefficients,
    sparsify,
    symmetrize,
)

from oracles import knn_indices, neighbour_table_math_dist, nullspace_coefficients, pairwise_distances


def _rng(seed):
    return np.random.Generator(np.random.PCG64(seed))


def _random_instance(rng, m, d):
    x = rng.standard_normal(m)
    atoms = rng.standard_normal((m, d))
    s = np.linalg.norm(x[:, None] - atoms, axis=0)
    return x, atoms, s


class _FakeDict:
    def __init__(self, owner, atoms):
        self.owner = owner
        self.atoms = atoms
        self.atom_indices = np.arange(1, atoms.shape[1] + 1)


def test_solver_matches_nullspace_oracle():
    rng = _rng(100)
    for trial in range(60):
        m = int(rng.integers(1, 6))
        d = int(rng.integers(1, 9))
        lam = float(rng.choice([0.0, 0.3, 0.7, 0.99]))
        X = rng.standard_normal((d + 1, m))
        dic = build_dictionary(X, 0, d)
        s = distance_diagonal(X, dic)
        got = solve_coefficients(X, dic, s, lam)
        want = nullspace_coefficients(X[0], dic.atoms, s, lam, epsilon=1e-9)
        # contract tolerance: more atoms than ambient dimensions makes the
        # quadratic nearly singular, and the two solve routes round differently
        assert np.abs(got - want).max() < 1e-6, f"trial {trial}: mismatch"


def _record_solve_paths(monkeypatch):
    paths = []
    for name in ("_direct_solve", "_low_rank_solve"):
        solve = getattr(llr, name)
        monkeypatch.setattr(llr, name, lambda *args, _solve=solve, _name=name: paths.append(_name) or _solve(*args))
    return paths


def test_low_rank_solve_agrees_with_direct_solve(monkeypatch):
    # Fewer ambient dimensions than atoms: from LOW_RANK_MIN_LAMBDA = 1e-3 up
    # the Woodbury solve matches the dense Cholesky solve to 1e-12 (2e-13 at
    # 1e-3); at lambda = 1e-4 these instances differ by 2e-12, which sets
    # the constant.
    rng = _rng(30)
    lams = (1e-3, 1e-2, 0.1, 0.5, 0.9, 0.999)
    instances = []
    for _ in range(40):
        m = int(rng.integers(1, 8))
        x, atoms, s = _random_instance(rng, m, int(rng.integers(m + 1, 40)))
        instances.append((np.vstack([x, atoms.T]), _FakeDict(0, atoms), s))
    paths = _record_solve_paths(monkeypatch)
    low = [solve_coefficients(X, fake, s, lam) for X, fake, s in instances for lam in lams]
    assert set(paths) == {"_low_rank_solve"}
    monkeypatch.setattr(llr, "LOW_RANK_MIN_LAMBDA", np.inf)
    direct = [solve_coefficients(X, fake, s, lam) for X, fake, s in instances for lam in lams]
    assert set(paths) == {"_low_rank_solve", "_direct_solve"}
    assert max(np.abs(a - b).max() for a, b in zip(low, direct)) < 1e-12


@pytest.mark.parametrize(
    "m, d, lam",
    [(3, 10, 0.0), (3, 10, llr.LOW_RANK_MIN_LAMBDA / 2), (6, 6, 0.5), (8, 5, 0.5)],
    ids=["lambda-zero", "lambda-below-constant", "m-equals-d", "m-above-d"],
)
def test_direct_solve_where_low_rank_does_not_apply(monkeypatch, m, d, lam):
    # The LLE limit lambda = 0, small lambda and m >= d keep the dense
    # Cholesky solve.
    x, atoms, s = _random_instance(_rng(31), m, d)
    X = np.vstack([x, atoms.T])
    paths = _record_solve_paths(monkeypatch)
    solve_coefficients(X, _FakeDict(0, atoms), s, lam)
    assert paths == ["_direct_solve"]


def test_solution_sums_to_one():
    rng = _rng(7)
    for trial in range(50):
        m = int(rng.integers(1, 10))
        d = int(rng.integers(1, 12))
        lam = float(rng.uniform(0.0, 0.999))
        x, atoms, s = _random_instance(rng, m, d)
        c = solve_coefficients(np.vstack([x, atoms.T]), _FakeDict(0, atoms), s, lam)
        assert abs(c.sum() - 1.0) < 1e-10, f"trial {trial}: sum {c.sum()}"


def test_scale_invariance_exact_through_trace_ridge():
    # The ridge scales with trace(M), so alpha*X gives identical coefficients.
    rng = _rng(21)
    for alpha in (0.01, 1.0, 100.0, 1e8, 1e-150, 1e154, 1e306):
        X = rng.standard_normal((12, 4))
        params = HyperParams(lam=0.4, k_keep=3, d_dict=8)
        base = build_llr_coefficients(X, params).toarray()
        scaled = build_llr_coefficients(alpha * X, params).toarray()
        assert np.abs(base - scaled).max() < 1e-9, f"alpha={alpha}"


def test_neighbour_table_names_samples_whose_distance_overflows():
    # Samples 0 and 1 are 2e308 apart, beyond the largest float. The search
    # used to rank sample 0 among its own neighbours, tied with its inf self.
    X = np.array([[1e308, 0.0], [-1e308, 0.0], [0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ValueError, match=r"samples 0 and 1 is beyond the float range"):
        neighbour_table(X, 3)
    with pytest.raises(ValueError, match=r"samples 1 and 3 is beyond the float range"):
        neighbour_table(X[[2, 1, 3, 0]], 3)
    # Rows whose k nearest are in range are unaffected by the far pair.
    idx, dist = neighbour_table(X, 2)
    assert idx.tolist() == [[2, 3], [2, 3], [3, 0], [2, 0]]
    assert np.isfinite(dist).all()


def test_neighbour_table_ranks_distances_the_common_scale_would_underflow():
    # Scaled with 1e200, the squared differences of the last three samples, at
    # most 2 apart, underflow to 0, which would rank them by index. Each such
    # pair is summed at its own scale, so the table is math.dist's.
    X = np.array([[1e200, 0.0], [0.0, 0.0], [0.0, 2.0], [0.0, 1.0]])
    for rows, k in ((4, 3), (3, 2), (3, 1)):
        idx, dist = neighbour_table(X[:rows], k)
        assert (idx.tolist(), dist.tolist()) == neighbour_table_math_dist(X[:rows], k), (rows, k)
    assert neighbour_table(X, 3)[0].tolist() == [[1, 2, 3], [3, 2, 0], [3, 1, 0], [1, 2, 0]]


def test_neighbour_table_builds_no_n_by_n_matrix():
    # One 3000 x 3000 float64 distance matrix takes 72 MB; blocks of rows
    # within the chunk budget and the (n, k) tables need well under 8 MB.
    X = _rng(24).standard_normal((3000, 5))
    neighbour_table(X[:3], 1)  # first-call set-up happens outside the traced call
    tracemalloc.start()
    try:
        neighbour_table(X, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, f"peak {peak / 2**20:.1f} MB"


def test_tiny_data_solves_without_underflow():
    # Squared distances near 4.5e-315 are subnormal; the solve rescales by a
    # power of two first, so the one coefficient is exactly 1.
    X = np.array([[6.7e-158], [0.0], [0.0]])
    C = build_llr_coefficients(X, HyperParams(lam=0.0, k_keep=1, d_dict=1))
    assert np.array_equal(C.toarray(), np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]]))


def test_hyperparams_bounds_against_n_only_when_given():
    # k_keep <= d_dict <= n - 1 is a bound for building a graph on n samples,
    # checked by validate(n); own ranges are checked when the object is made.
    params = HyperParams(lam=0.5, k_keep=5, d_dict=4)
    with pytest.raises(InputError, match=r"k_keep \(5\) must not exceed d_dict \(4\)"):
        params.validate(10)
    with pytest.raises(InputError, match=r"lambda must lie in \[0, 1\), got 1.5"):
        HyperParams(lam=1.5, k_keep=5, d_dict=4)


def test_rotation_and_translation_invariance():
    rng = _rng(22)
    X = rng.standard_normal((15, 5))
    Q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    t = rng.standard_normal(5)
    params = HyperParams(lam=0.6, k_keep=4, d_dict=10)
    base = build_llr_coefficients(X, params).toarray()
    rotated = build_llr_coefficients(X @ Q.T, params).toarray()
    shifted = build_llr_coefficients(X + t, params).toarray()
    assert np.abs(base - rotated).max() < 1e-8
    assert np.abs(base - shifted).max() < 1e-8


def test_dictionary_nearest_excluding_self():
    rng = _rng(5)
    X = rng.standard_normal((20, 3))
    for i in (0, 7, 19):
        dic = build_dictionary(X, i, 6)
        assert dic.atom_indices.tolist() == knn_indices(X, i, 6)
        assert i not in dic.atom_indices
        assert np.array_equal(dic.atoms, X[dic.atom_indices].T)


def test_dictionary_tie_break_smaller_index():
    X = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    dic = build_dictionary(X, 0, 2)
    # rows 1 and 2 are duplicates at distance 1; both beat row 3
    assert dic.atom_indices.tolist() == [1, 2]


def test_dictionary_full_size():
    rng = _rng(6)
    X = rng.standard_normal((9, 2))
    dic = build_dictionary(X, 4, 8)
    assert sorted(dic.atom_indices.tolist()) == [0, 1, 2, 3, 5, 6, 7, 8]


def test_distance_diagonal_matches_naive():
    rng = _rng(8)
    X = rng.standard_normal((10, 4))
    dic = build_dictionary(X, 2, 5)
    s = distance_diagonal(X, dic)
    naive = pairwise_distances(X[2:3], X[dic.atom_indices])[0]
    assert np.abs(s - naive).max() < 1e-12


@pytest.mark.parametrize("m", [4, 16])
@pytest.mark.parametrize("d", [1, 2, 7])
def test_distance_diagonal_is_the_neighbour_tables_distances(m, d):
    # d = 1 with m >= 9 is where np.linalg.norm's sum can differ from the kernel's in the last bit.
    X = _rng(0).standard_normal((12, m))
    D = neighbour_table(X, d)[1]
    for i in range(12):
        assert np.array_equal(distance_diagonal(X, build_dictionary(X, i, d)), D[i]), i


def test_solver_rejects_bad_lambda_and_epsilon():
    rng = _rng(9)
    X = rng.standard_normal((6, 3))
    dic = build_dictionary(X, 0, 4)
    s = distance_diagonal(X, dic)
    with pytest.raises(ValueError, match="lam"):
        solve_coefficients(X, dic, s, lam=1.0)
    with pytest.raises(ValueError, match="epsilon"):
        solve_coefficients(X, dic, s, lam=0.5, epsilon=-1e-3)


def test_solver_singular_system_names_sample():
    # duplicate atoms, lam=0, epsilon=0: M is exactly singular
    x = np.array([1.0])
    atoms = np.array([[2.0, 2.0]])
    s = np.array([1.0, 1.0])
    fake = _FakeDict(0, atoms)
    with pytest.raises(ValueError, match="sample 0"):
        solve_coefficients(np.array([[1.0], [2.0], [2.0]]), fake, s, lam=0.0, epsilon=0.0)
    # an atom equal to the point, lam=0.5 (the low-rank path), epsilon=0:
    # its distance term and ridge are both zero
    X = np.array([[1.0], [1.0], [2.0]])
    s = np.array([0.0, 1.0])
    with pytest.raises(ValueError, match="sample 0"):
        solve_coefficients(X, _FakeDict(0, X[1:].T), s, lam=0.5, epsilon=0.0)


@pytest.mark.parametrize(
    "X, params",
    [
        # duplicate atoms 6 and 7 nearest to sample 5, lam=0 (the direct
        # path), epsilon=0: M is exactly singular
        (
            np.array([[0.0, 0.0], [1.0, 0.2], [0.3, 1.0], [1.2, 1.1], [2.0, 0.4], [100.0, 100.0], [101.0, 100.5], [101.0, 100.5]]),
            HyperParams(lam=0.0, k_keep=1, d_dict=2, epsilon=0.0),
        ),
        # sample 6 sits on sample 5, lam=0.5 (the low-rank path), epsilon=0:
        # a zero distance with a zero ridge
        (
            np.array([[0.0], [1.0], [3.0], [6.0], [10.0], [15.0], [15.0], [21.0]]),
            HyperParams(lam=0.5, k_keep=1, d_dict=2, epsilon=0.0),
        ),
    ],
    ids=["direct", "low-rank"],
)
def test_table_error_names_the_failing_sample_not_the_slice(X, params):
    # The table solves all eight points as one stack, in which sample 5 is
    # not the first slice; a stacked LAPACK error names only slice [0].
    with pytest.raises(ValueError, match=r"degenerate coefficient system for sample 5: "):
        build_llr_coefficients(X, params)
    for i in range(5):  # the samples before it solve
        dic = build_dictionary(X, i, params.d_dict)
        solve_coefficients(X, dic, distance_diagonal(X, dic), params.lam, params.epsilon)


def test_sparsify_keeps_strongest_with_index_tie_break():
    values = np.array([0.5, -0.7, 0.2, 0.7])
    atom_indices = np.array([3, 1, 9, 2])
    idx, kept = sparsify(values, atom_indices, 2)
    # |-0.7| ties |0.7|; smaller global index 1 first, both retained at k=2
    assert idx.tolist() == [1, 2]
    assert kept.tolist() == [-0.7, 0.7]
    idx1, kept1 = sparsify(values, atom_indices, 1)
    assert idx1.tolist() == [1] and kept1.tolist() == [-0.7]
    # the k_keep-th and (k_keep+1)-th magnitudes tie at the selection
    # threshold; the smaller global index, at the later position, is kept
    idx2, kept2 = sparsify(np.array([0.9, 0.4, -0.4, 0.1]), np.array([0, 8, 5, 2]), 2)
    assert idx2.tolist() == [0, 5] and kept2.tolist() == [0.9, -0.4]
    # an all-zero row keeps nothing
    idx0, kept0 = sparsify(np.zeros(4), np.array([3, 1, 9, 2]), 2)
    assert idx0.size == 0 and kept0.size == 0


def test_sparsify_drops_exact_zeros_and_keeps_raw_values():
    values = np.array([0.0, 0.3, 0.0])
    idx, kept = sparsify(values, np.array([5, 6, 7]), 3)
    assert idx.tolist() == [6] and kept.tolist() == [0.3]
    # retained values are never renormalized
    assert abs(kept.sum() - 0.3) == 0.0


def test_sparsify_rejects_bad_k():
    with pytest.raises(ValueError, match="k_keep"):
        sparsify(np.array([1.0, 2.0]), np.array([0, 1]), 3)
    with pytest.raises(ValueError, match="k_keep"):
        sparsify(np.array([1.0, 2.0]), np.array([0, 1]), 0)
    with pytest.raises(ValueError, match=r"k_keep must lie in \[1, 2\], got 3"):
        llr.sparsify_table(np.array([[1, 2], [0, 2], [0, 1]]), np.ones((3, 2)), 3)


def test_symmetrize_matches_dense_formula():
    rng = _rng(12)
    dense = rng.standard_normal((6, 6)) * (rng.random((6, 6)) < 0.4)
    np.fill_diagonal(dense, 0.0)
    W = symmetrize(sp.csr_matrix(dense))
    want = np.abs(dense) + np.abs(dense).T
    assert np.abs(W.toarray() - want).max() == 0.0
    assert (W != W.T).nnz == 0, "graph must be exactly symmetric"


def test_symmetrize_sums_duplicates_before_abs_and_leaves_c_alone():
    # C_01 is stored as 0.5 and -0.25, so |C_01| is 0.25, not 0.75.
    C = sp.csr_matrix((np.array([0.5, -0.25, -1.0]), np.array([1, 1, 0]), np.array([0, 2, 3])), shape=(2, 2))
    W = symmetrize(C)
    assert W.toarray().tolist() == [[0.0, 1.25], [1.25, 0.0]]
    assert C.nnz == 3 and C.data.tolist() == [0.5, -0.25, -1.0]


def test_symmetrize_rejects_nonzero_diagonal():
    C = sp.csr_matrix(np.array([[0.5, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="diagonal"):
        symmetrize(C)


def test_build_coefficients_row_contract():
    rng = _rng(13)
    X = rng.standard_normal((18, 4))
    params = HyperParams(lam=0.3, k_keep=3, d_dict=7)
    C = build_llr_coefficients(X, params)
    assert C.shape == (18, 18)
    assert np.all(C.diagonal() == 0.0)
    counts = np.diff(C.indptr)
    assert counts.max() <= 3

    # row i reproduces the one-point pipeline bit for bit
    for i in (0, 9, 17):
        dic = build_dictionary(X, i, 7)
        s = distance_diagonal(X, dic)
        c = solve_coefficients(X, dic, s, params.lam, params.epsilon)
        idx, kept = sparsify(c, dic.atom_indices, params.k_keep)
        row = C.getrow(i)
        assert row.indices.tolist() == idx.tolist()
        assert row.data.tolist() == kept.tolist()


def test_build_graph_is_symmetrized_coefficients():
    rng = _rng(14)
    X = rng.standard_normal((12, 3))
    params = HyperParams(lam=0.5, k_keep=4, d_dict=6)
    W = build_llr_graph(X, params)
    C = build_llr_coefficients(X, params)
    want = np.abs(C.toarray()) + np.abs(C.toarray()).T
    assert np.abs(W.toarray() - want).max() == 0.0


def test_hyperparams_validation():
    with pytest.raises(ValueError, match="lam"):
        HyperParams(lam=1.0, k_keep=2, d_dict=4).validate(10)
    with pytest.raises(ValueError, match="k_keep"):
        HyperParams(lam=0.5, k_keep=5, d_dict=4).validate(10)
    with pytest.raises(ValueError, match="d_dict"):
        HyperParams(lam=0.5, k_keep=2, d_dict=10).validate(10)
    HyperParams(lam=0.0, k_keep=1, d_dict=9).validate(10)


_X4 = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0], [3.0, 3.0]])
_DIC = Dictionary(owner=0, atom_indices=np.array([1, 2]), atoms=_X4[[1, 2]].T.copy())


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: neighbour_table(_X4, 0), r"k must lie in \[1, 3\], got 0"),
        (lambda: neighbour_table(_X4, 4), r"k must lie in \[1, 3\], got 4"),
        (lambda: build_dictionary(_X4[:1], 0, 1), "need at least 2 samples to build a dictionary"),
        (lambda: build_dictionary(_X4, -1, 2), "sample index -1 out of range for n=4"),
        (lambda: build_dictionary(_X4, 4, 2), "sample index 4 out of range for n=4"),
        (lambda: build_dictionary(_X4, 0, 4), r"d_dict must lie in \[1, n-1=3\], got 4"),
        (lambda: solve_coefficients(_X4, _DIC, np.array([1.0, np.nan]), 0.5), "must be finite and nonnegative"),
        (lambda: solve_coefficients(_X4, _DIC, np.array([1.0, -2.0]), 0.5), "must be finite and nonnegative"),
        (lambda: solve_coefficients(_X4, _DIC, np.array([1.0, 2.0, 3.0]), 0.5), "length must match dictionary size"),
    ],
    ids=["k 0", "k n", "one sample", "index -1", "index n", "d_dict n", "nan distance", "negative distance",
         "distance length"],
)
def test_llr_input_checks_raise_their_own_message(call, message):
    with pytest.raises(ValueError, match=message):
        call()
