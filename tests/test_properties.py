"""Property tests: graph invariants over small random inputs for every method,
and bit-identity of the batched bodies with their one-at-a-time definitions."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from llrgraph import llr, spectral
from llrgraph.baselines import HeatKernelParams, heat_kernel_graph, lle_graph
from llrgraph.embedding import nn_classify
from llrgraph.llr import (
    HyperParams,
    build_llr_coefficients,
    coefficient_table,
    distance_diagonal,
    neighbour_table,
    sparsify_table,
)
from llrgraph.metrics import nmi
from llrgraph.runs import GRAPH_METHODS, build_graph_by_method
from llrgraph.spectral import KMeansConfig, kmeans

from oracles import (
    coefficient_table_loop,
    csr_from_triplets,
    kmeans_loop,
    kmeanspp_init_one,
    lloyd_one,
    nearest_training_index,
    neighbour_table_full,
    neighbour_table_math_dist,
    sparsify_table_loop,
)

# A fixed example sequence, so that every run checks the same inputs.
PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)

# A grid of step 1/4 makes duplicate points and tied distances common. Scale
# does not matter to the solve, which rescales each system by a power of two;
# tests/test_llr.py checks that separately, down to data near 1e-158.
coordinates = st.integers(-40, 40).map(lambda v: v / 4.0)


@st.composite
def graph_inputs(draw):
    """Data of n <= 30 points (duplicates allowed) and in-range parameters."""
    n = draw(st.integers(3, 30))
    X = draw(arrays(np.float64, (n, draw(st.integers(1, 4))), elements=coordinates))
    d_dict = draw(st.integers(1, n - 1))
    return X, {
        "lam": draw(st.floats(0.0, 0.99)),
        "k_keep": draw(st.integers(1, d_dict)),
        "d_dict": d_dict,
        "k_nn": draw(st.integers(1, n - 1)),
        "sigma": draw(st.floats(0.1, 10.0)),
    }


@PROPERTY_SETTINGS
@given(graph_inputs(), st.sampled_from(GRAPH_METHODS))
def test_graph_is_symmetric_nonnegative_with_zero_diagonal(inputs, method):
    X, params = inputs
    W = build_graph_by_method(X, method, **params)
    assert W.shape == (X.shape[0], X.shape[0])
    assert (W != W.T).nnz == 0
    assert W.nnz == 0 or W.data.min() >= 0.0
    assert not W.diagonal().any()


@PROPERTY_SETTINGS
@given(graph_inputs())
def test_coefficient_rows_keep_at_most_k_keep_entries(inputs):
    X, p = inputs
    C = build_llr_coefficients(X, HyperParams(lam=p["lam"], k_keep=p["k_keep"], d_dict=p["d_dict"]))
    assert np.diff(C.indptr).max() <= p["k_keep"]
    assert not C.diagonal().any()


@PROPERTY_SETTINGS
@given(graph_inputs())
def test_lle_equals_llr_at_lambda_zero(inputs):
    X, p = inputs
    k = p["k_nn"]
    lle = build_graph_by_method(X, "lle", k_nn=k)
    llr = build_graph_by_method(X, "llr", lam=0.0, k_keep=k, d_dict=k)
    assert np.array_equal(lle.indptr, llr.indptr)
    assert np.array_equal(lle.indices, llr.indices)
    assert np.array_equal(lle.data, llr.data)


@PROPERTY_SETTINGS
@given(graph_inputs(), st.sampled_from(GRAPH_METHODS), st.integers(-60, 60), st.data())
def test_graphs_are_invariant_to_power_of_two_scaling_and_grid_translation(inputs, method, power, data):
    # Both maps are exact on the 1/4 grid: scaling moves only exponents, and
    # a translation on the grid keeps the bits of every pairwise difference.
    # The heat bandwidth is in data units, so it scales with the data.
    X, params = inputs
    shift = data.draw(arrays(np.float64, X.shape[1], elements=coordinates))
    W = build_graph_by_method(X, method, **params)
    scaled = dict(params, sigma=np.ldexp(params["sigma"], power))
    assert _same_csr(build_graph_by_method(np.ldexp(X, power), method, **scaled), W)
    assert _same_csr(build_graph_by_method(X + shift, method, **params), W)


# Small chunk and group budgets split tables into several chunks and restarts
# into several groups; 2**18 and 2**16 are the library's own.
budgets = st.sampled_from([1, 7, 40, 300, 2**16, 2**18])


def _same_csr(A, B):
    return all(np.array_equal(getattr(A, a), getattr(B, a)) for a in ("indptr", "indices", "data"))


@st.composite
def neighbour_inputs(draw):
    """Up to 40 points on a grid of 5 or 81 steps per axis, so that duplicate
    points and distances tied at the k-th neighbour are common, and any k."""
    n = draw(st.integers(2, 40))
    steps = draw(st.sampled_from([2, 40]))
    grid = st.integers(-steps, steps).map(lambda v: v / 4.0)
    X = draw(arrays(np.float64, (n, draw(st.integers(1, 3))), elements=grid))
    return X, draw(st.integers(1, n - 1))


@PROPERTY_SETTINGS
@given(neighbour_inputs(), st.sampled_from([1, 7, 64, 2**16]))
def test_neighbour_table_matches_the_full_sort(inputs, budget):
    # Small budgets split the search into many row blocks; 2**16 is the library's own.
    X, k = inputs
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(llr, "_CHUNK_VALUES", budget)
        idx, dist = neighbour_table(X, k)
    want_idx, want_dist = neighbour_table_full(X, k)
    assert idx.dtype == want_idx.dtype and idx.tobytes() == want_idx.tobytes()
    assert dist.tobytes() == want_dist.tobytes()


def _outcome(build, **kwargs):
    """The bytes of every array build returns, or the ValueError it raises."""
    try:
        out = build(**kwargs)
    except ValueError as exc:
        return repr(exc)
    arrays = (out.indptr, out.indices, out.data) if hasattr(out, "indptr") else out
    return [(a.dtype, a.shape, a.tobytes()) for a in arrays]


@PROPERTY_SETTINGS
@given(neighbour_inputs(), st.data(), st.sampled_from([1, 7, 64, 2**16]))
def test_graphs_from_a_wider_table_equal_graphs_built_alone(inputs, data, budget):
    # A k-wide neighbour table is the first k columns of any wider one, so a
    # graph that reads the prefix of a shared table equals the graph that
    # searches alone, bit for bit, through ties, duplicates and either path
    # of the search (a table of width n - 1 takes the whole-row path only).
    X, k = inputs
    wide = data.draw(st.integers(k, X.shape[0] - 1))
    sigma = data.draw(st.floats(0.1, 10.0))
    lam = data.draw(st.floats(1e-3, 0.99))
    builds = {
        "heat, auto sigma": lambda **kw: heat_kernel_graph(X, HeatKernelParams(k_nn=k), **kw),
        "heat, fixed sigma": lambda **kw: heat_kernel_graph(X, HeatKernelParams(k_nn=k, sigma=sigma), **kw),
        "lle": lambda **kw: lle_graph(X, k, **kw),
        "coefficients, lambda 0": lambda **kw: coefficient_table(X, HyperParams(lam=0.0, k_keep=1, d_dict=k), **kw),
        "coefficients, lambda > 0": lambda **kw: coefficient_table(X, HyperParams(lam=lam, k_keep=1, d_dict=k), **kw),
    }
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(llr, "_CHUNK_VALUES", budget)
        table = neighbour_table(X, wide)
        for name, build in builds.items():
            assert _outcome(build, table=table) == _outcome(build), name


def test_a_table_narrower_than_the_graph_needs_is_refused():
    X = np.arange(12.0).reshape(6, 2)
    table = neighbour_table(X, 2)
    with pytest.raises(ValueError, match="lacks 3 neighbours of 6 samples"):
        heat_kernel_graph(X, HeatKernelParams(k_nn=3), table=table)
    with pytest.raises(ValueError, match="lacks 2 neighbours of 5 samples"):
        lle_graph(X[:5], 2, table=table)


# The neighbour search screens candidates with a BLAS product and takes exact
# distances, summed column by column as cdist sums them, only where the screen
# cannot separate the k-th neighbour from the rest; on these inputs it must
# still equal the full sort bit for bit. The order of summation shows from
# about 8 columns up, so the data go up to 64.


def _seeded(draw, shape):
    return np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal(shape)


@st.composite
def continuous_inputs(draw):
    """Gaussian data, n <= 60 points in up to 64 dimensions, and any k."""
    n, m = draw(st.integers(2, 60)), draw(st.integers(1, 64))
    return _seeded(draw, (n, m)), draw(st.integers(1, n - 1))


@st.composite
def far_cluster_inputs(draw):
    """Up to four clusters of spread 10^-s, s up to 12, around centres 10^6
    from the origin: the distances within a cluster are far below the
    screen's margin, which grows with the distance from the origin."""
    n, m = draw(st.integers(2, 60)), draw(st.integers(1, 64))
    centres = 1e6 + _seeded(draw, (draw(st.integers(1, 4)), m))
    spread = 10.0 ** -draw(st.integers(0, 12))
    members = draw(arrays(np.intp, n, elements=st.integers(0, centres.shape[0] - 1)))
    return centres[members] + spread * _seeded(draw, (n, m)), draw(st.integers(1, n - 1))


@st.composite
def extreme_scale_inputs(draw):
    """Rows uniform in (-1, 1)^m scaled by 2^p, p at or up to 3 or 40 below a
    base from -1074 to 1023: distances overflow or fall below the normal
    range when scaled back, and small rows vanish beside large ones."""
    n, m = draw(st.integers(2, 40)), draw(st.integers(1, 16))
    base = draw(st.sampled_from([-1074, -1040, -1000, 0, 1000, 1023]))
    spread = draw(st.sampled_from([0, 3, 40]))
    powers = base - draw(arrays(np.int64, (n, 1), elements=st.integers(0, spread)))
    X = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(-1.0, 1.0, (n, m))
    return np.ldexp(X, powers), draw(st.integers(1, n - 1))


def _assert_matches_the_full_sort(X, k, budget):
    want_idx, want_dist = neighbour_table_full(X, k)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(llr, "_CHUNK_VALUES", budget)
        if np.isinf(want_dist).any():
            row = int(np.flatnonzero(np.isinf(want_dist).any(axis=1))[0])
            with pytest.raises(ValueError, match=rf"samples {row} and \d+ is beyond the float range"):
                neighbour_table(X, k)
            return
        idx, dist = neighbour_table(X, k)
    assert idx.dtype == want_idx.dtype and idx.tobytes() == want_idx.tobytes()
    assert dist.tobytes() == want_dist.tobytes()


@PROPERTY_SETTINGS
@given(continuous_inputs(), st.sampled_from([1, 64, 2**16]))
def test_neighbour_table_matches_the_full_sort_on_continuous_data(inputs, budget):
    _assert_matches_the_full_sort(*inputs, budget)


@PROPERTY_SETTINGS
@given(far_cluster_inputs(), st.sampled_from([1, 64, 2**16]))
def test_neighbour_table_matches_the_full_sort_on_tight_clusters_far_out(inputs, budget):
    _assert_matches_the_full_sort(*inputs, budget)


@settings(PROPERTY_SETTINGS, max_examples=200)
@given(extreme_scale_inputs(), st.sampled_from([1, 64, 2**16]))
def test_neighbour_table_matches_the_full_sort_at_extreme_scales(inputs, budget):
    _assert_matches_the_full_sort(*inputs, budget)


@st.composite
def wide_range_inputs(draw):
    """Up to 12 points near 1 in up to 4 dimensions, one column of which is
    +-10^p, p from 100 to 300, in one or two rows, and any k. At the common
    scale the other points' squared differences are subnormal or 0; a second
    far row puts one such pair among its row's screened candidates."""
    n, m = draw(st.integers(3, 12)), draw(st.integers(1, 4))
    X = 1.0 + _seeded(draw, (n, m)) / 4
    far = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2, unique=True))
    X[far, draw(st.integers(0, m - 1))] = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(100, 300))
    return X, draw(st.integers(1, n - 1))


@PROPERTY_SETTINGS
@given(wide_range_inputs(), st.sampled_from([1, 64, 2**16]))
def test_neighbour_table_ranks_points_beside_a_far_larger_entry(inputs, budget):
    # Pairs the common scale would underflow are summed at their own scale, so
    # the table is the stable sort by math.dist of the unscaled rows wherever
    # no two distances of a row lie within a few roundings of each other.
    X, k = inputs
    want_idx, want_dist = neighbour_table_math_dist(X, X.shape[0] - 1)
    assume(all(b == a or b - a > 1e-12 * b for row in want_dist for a, b in zip(row, row[1:])))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(llr, "_CHUNK_VALUES", budget)
        idx, dist = neighbour_table(X, k)
        diagonals = [distance_diagonal(X, llr.Dictionary(i, idx[i], X[idx[i]].T)) for i in range(X.shape[0])]
    assert idx.tolist() == [row[:k] for row in want_idx]
    np.testing.assert_allclose(dist, [row[:k] for row in want_dist], rtol=1e-14, atol=0)
    assert np.array(diagonals).tobytes() == dist.tobytes()


@PROPERTY_SETTINGS
@given(st.integers(1, 50), st.integers(1, 30), st.integers(1, 64), st.booleans(), st.integers(0, 2**32 - 1),
       st.sampled_from([1, 64, 2**16]))
def test_nn_classify_matches_the_first_argmin_of_cdist(n_train, n_test, m, grid, seed, budget):
    # On a coarse grid, test points tie between training points and repeat them.
    rng = np.random.default_rng(seed)
    train, test = rng.standard_normal((n_train, m)), rng.standard_normal((n_test, m))
    if grid:
        train, test = np.round(train), np.round(test)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(llr, "_CHUNK_VALUES", budget)
        got = nn_classify(train, np.arange(n_train), test)
    assert np.array_equal(got, nearest_training_index(train, test))


@PROPERTY_SETTINGS
@given(graph_inputs(), st.sampled_from([0.0, 5e-4]) | st.floats(1e-3, 0.99), budgets)
@example(inputs=(np.array([[0.0], [0.25], [1.0], [1.5], [3.0], [-2.0]]), {"k_keep": 2, "d_dict": 3}), lam=0.5,
         budget=2**16)
@example(inputs=(np.array([[0.0, 1.0], [0.25, 0.5], [1.0, -1.0], [1.5, 2.0], [-2.0, 0.0]]), {"k_keep": 1, "d_dict": 1}),
         lam=0.0, budget=2**16)
def test_coefficient_table_matches_one_point_at_a_time(inputs, lam, budget):
    # lam < LOW_RANK_MIN_LAMBDA takes the direct path; above it, m < d_dict
    # takes the low-rank path. The examples stack 1 x 1 systems: the low-rank
    # K at m = 1, and the direct M at d_dict = 1.
    X, p = inputs
    params = HyperParams(lam=lam, k_keep=p["k_keep"], d_dict=p["d_dict"])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(llr, "_CHUNK_VALUES", budget)
        idx, coef = coefficient_table(X, params)
    want_idx, dist = neighbour_table(X, params.d_dict)
    assert np.array_equal(idx, want_idx)
    want = coefficient_table_loop(X, idx, dist, lam, params.epsilon, llr.LOW_RANK_MIN_LAMBDA)
    assert np.array_equal(coef, want)


@PROPERTY_SETTINGS
@given(graph_inputs(), st.data())
def test_sparsify_table_matches_row_at_a_time(inputs, data):
    # Coefficients on the 1/4 grid have exact zeros and tied magnitudes.
    X, p = inputs
    idx = neighbour_table(X, p["d_dict"])[0]
    coef = data.draw(arrays(np.float64, idx.shape, elements=coordinates))
    assert _same_csr(sparsify_table(idx, coef, p["k_keep"]), sparsify_table_loop(idx, coef, p["k_keep"]))


@PROPERTY_SETTINGS
@given(graph_inputs(), st.data())
def test_sparsify_table_builds_the_csr_arrays_of_the_coo_conversion(inputs, data):
    # Half the coefficients are exact zeros, so whole rows often keep nothing.
    X, p = inputs
    idx = neighbour_table(X, p["d_dict"])[0]
    coef = data.draw(arrays(np.float64, idx.shape, elements=coordinates | st.just(0.0)))
    got = sparsify_table(idx, coef, p["k_keep"])
    want = csr_from_triplets(*llr._strongest(idx, coef, p["k_keep"]), idx.shape[0])
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


@st.composite
def kmeans_inputs(draw):
    """Points on a 1/7 grid, a config and a Lloyd iteration cap. Duplicates
    are common, so clusters empty out, and sums of sevenths round, so
    summation order shows."""
    n = draw(st.integers(1, 30))
    sevenths = st.integers(-40, 40).map(lambda v: v / 7.0)
    points = draw(arrays(np.float64, (n, draw(st.integers(1, 4))), elements=sevenths))
    k = draw(st.integers(1, min(n, 5)))
    restarts = draw(st.integers(1, 8))
    max_iter = draw(st.sampled_from([1, 2, 300]))
    config = KMeansConfig(k=k, restarts=restarts, seed=draw(st.integers(0, 1000)))
    return points, config, max_iter


@PROPERTY_SETTINGS
@given(kmeans_inputs(), budgets)
def test_kmeans_matches_restart_at_a_time(inputs, budget):
    points, config, max_iter = inputs
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectral, "_GROUP_VALUES", budget)
        mp.setattr(spectral, "_MAX_ITER", max_iter)
        labels = kmeans(points, config)
    want = kmeans_loop(points, config.k, config.restarts, config.seed, max_iter, spectral._SHIFT_TOL)
    assert np.array_equal(labels, want)


def test_kmeans_repairs_empty_clusters_like_one_restart_at_a_time(monkeypatch):
    # Points at two locations and three clusters: k-means++ draws one
    # location twice, which leaves a cluster empty.
    points = np.array([[0.0, 0.0]] * 9 + [[1.0, 0.0]] * 2)
    repairs = []
    repair = spectral._repair_empty
    monkeypatch.setattr(spectral, "_repair_empty", lambda *args: repairs.append(1) or repair(*args))
    monkeypatch.setattr(spectral, "_GROUP_VALUES", 50)  # groups of two restarts
    for seed in range(5):
        config = KMeansConfig(k=3, restarts=5, seed=seed)
        assert np.array_equal(kmeans(points, config), kmeans_loop(points, 3, 5, seed))
    assert repairs


def test_kmeans_runs_restart_0_alone_on_k_distinct_unit_vectors(monkeypatch):
    # Every k-means++ start takes one point of each of the k unit vectors, so
    # every restart ends at objective 0 and restart 0 wins the tie. With one
    # vector more than k, the points are no such case and all restarts run.
    rng = np.random.Generator(np.random.PCG64(5))
    points = np.eye(6)[[1, 3, 4, 5]][rng.permutation(np.arange(60) % 4)]
    calls = []
    init = spectral._kmeanspp_init
    monkeypatch.setattr(spectral, "_kmeanspp_init", lambda p, u: calls.append(len(u)) or init(p, u))
    for k, ran in [(4, 1), (3, 20)]:
        for seed in range(3):
            labels = kmeans(points, KMeansConfig(k=k, restarts=20, seed=seed))
            assert calls == [ran]
            assert np.array_equal(labels, kmeans_loop(points, k, 20, seed))
            calls.clear()


@pytest.mark.parametrize("points", ["gaussian", "two locations", "one location"])
@pytest.mark.parametrize("dim", range(1, 13))
def test_kmeanspp_starts_match_rng_choice_restart_by_restart(monkeypatch, dim, points):
    # Each restart's start is the one-at-a-time rule's on its row of the
    # table, which searches as Generator.choice does (side="right").
    # n = 300 runs past numpy's 128-element pairwise-sum block. Points at two
    # locations leave total 0 from the third center on, and at one location
    # from the second, so those draws weigh every point 1. The group budget
    # splits the seven restarts into groups of 3, 3 and 1.
    n, k, restarts, seed = 300, 4, 7, 11
    rng = np.random.Generator(np.random.PCG64(dim))
    X = rng.standard_normal((n, dim))
    X = {"gaussian": X, "two locations": X[np.arange(n) % 2], "one location": X[np.zeros(n, dtype=int)]}[points]
    starts = []
    lloyd = spectral._lloyd
    monkeypatch.setattr(spectral, "_lloyd", lambda p, centers: starts.extend(centers.copy()) or lloyd(p, centers))
    monkeypatch.setattr(spectral, "_GROUP_VALUES", 3 * n * max(k, dim))
    monkeypatch.setattr(spectral, "_MAX_ITER", 1)
    kmeans(X, KMeansConfig(k=k, restarts=restarts, seed=seed))
    u = np.random.Generator(np.random.PCG64(seed)).random((restarts, k))
    assert len(starts) == restarts
    for row, start in zip(u, starts):
        assert np.array_equal(start, kmeanspp_init_one(X, row))


def test_consecutive_seeds_share_no_kmeanspp_start(monkeypatch):
    # Seed s + 1 draws its own table, not the restarts of seed s moved by one.
    X = np.random.Generator(np.random.PCG64(3)).standard_normal((200, 3))
    starts = {0: [], 1: []}
    lloyd = spectral._lloyd
    for seed, kept in starts.items():
        monkeypatch.setattr(spectral, "_lloyd", lambda p, centers: kept.extend(centers.copy()) or lloyd(p, centers))
        kmeans(X, KMeansConfig(k=4, restarts=20, seed=seed))
    assert len(starts[0]) == len(starts[1]) == 20
    assert not any(np.array_equal(a, b) for a in starts[1] for b in starts[0])


def test_kmeanspp_draw_on_a_cdf_breakpoint_matches_rng_choice():
    # A draw of 0.0 takes point 0 first. Points -1 and 1 then weigh 1/2
    # each: the CDF is [0, 0.5, 1] and a draw of exactly 0.5 sits on a
    # breakpoint, where searchsorted(side="right"), as Generator.choice
    # searches, takes point 1, not -1.
    X = np.array([[0.0], [-1.0], [1.0]])
    u = np.array([[0.0, 0.5]])
    want = kmeanspp_init_one(X, u[0])
    assert want[1, 0] == 1.0
    assert np.array_equal(spectral._kmeanspp_init(X, u)[0], want)


@pytest.mark.parametrize("dim", [1, 2, 3, 8, 12])
def test_lloyd_objectives_match_restart_at_a_time(dim):
    # Every restart's objective, not only the winner's labels, rounds like a
    # restart run alone; a last-bit change in a centroid shows here first.
    # From 8 columns on, a sum in numpy's order would run pairwise, not from
    # column 0 up.
    rng = np.random.Generator(np.random.PCG64(dim))
    points = rng.standard_normal((200, dim))
    starts = [kmeanspp_init_one(points, row) for row in rng.random((6, 4))]
    labels, objectives = spectral._lloyd(points, np.stack(starts))
    for r, start in enumerate(starts):
        want_labels, want_objective = lloyd_one(points, start, spectral._MAX_ITER, spectral._SHIFT_TOL)
        assert np.array_equal(labels[r], want_labels)
        assert objectives[r] == want_objective


@st.composite
def relabelled_partitions(draw):
    """Two label vectors of up to 60 points in up to 6 clusters, and each
    renumbered by a permutation of the cluster numbers."""
    n = draw(st.integers(2, 60))
    pred, truth = (draw(arrays(np.int64, n, elements=st.integers(0, 5))) for _ in range(2))
    pred_map, truth_map = (np.array(draw(st.permutations(range(6)))) for _ in range(2))
    return pred, truth, pred_map[pred], truth_map[truth]


@PROPERTY_SETTINGS
@given(relabelled_partitions())
def test_nmi_is_a_function_of_the_two_partitions(partitions):
    # Renumbering either partition, or swapping the two, must leave every
    # bit of NMI: a k-means renumbering is no change of score.
    pred, truth, pred_renumbered, truth_renumbered = partitions
    value = nmi(pred, truth)
    for same in (nmi(pred_renumbered, truth), nmi(pred, truth_renumbered), nmi(truth, pred)):
        assert same.hex() == value.hex()
