"""Property tests: graph invariants over small random inputs for every method,
and bit-identity of the batched bodies with their one-at-a-time definitions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from llrgraph import llr, spectral
from llrgraph.llr import HyperParams, build_llr_coefficients, coefficient_table, neighbour_table, sparsify_table
from llrgraph.runs import GRAPH_METHODS, build_graph_by_method
from llrgraph.spectral import KMeansConfig, kmeans

from oracles import coefficient_table_loop, kmeans_loop, kmeanspp_init_one, lloyd_one, sparsify_table_loop

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


@PROPERTY_SETTINGS
@given(graph_inputs(), st.sampled_from([0.0, 5e-4]) | st.floats(1e-3, 0.99), budgets)
def test_coefficient_table_matches_one_point_at_a_time(inputs, lam, budget):
    # lam < LOW_RANK_MIN_LAMBDA takes the direct path; above it, m < d_dict
    # takes the low-rank path.
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


@st.composite
def kmeans_inputs(draw):
    """Points on a 1/7 grid and a config. Duplicates are common, so clusters
    empty out, and sums of sevenths round, so summation order shows."""
    n = draw(st.integers(1, 30))
    sevenths = st.integers(-40, 40).map(lambda v: v / 7.0)
    points = draw(arrays(np.float64, (n, draw(st.integers(1, 4))), elements=sevenths))
    config = KMeansConfig(
        k=draw(st.integers(1, min(n, 5))),
        restarts=draw(st.integers(1, 8)),
        max_iter=draw(st.sampled_from([1, 2, 300])),
        seed=draw(st.integers(0, 1000)),
    )
    return points, config


@PROPERTY_SETTINGS
@given(kmeans_inputs(), budgets)
def test_kmeans_matches_restart_at_a_time(inputs, budget):
    points, config = inputs
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectral, "_GROUP_VALUES", budget)
        labels = kmeans(points, config)
    want = kmeans_loop(points, config.k, config.restarts, config.seed, config.max_iter, config.tol)
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


@pytest.mark.parametrize("points", ["gaussian", "two locations", "one location"])
@pytest.mark.parametrize("dim", range(1, 13))
def test_kmeanspp_starts_match_rng_choice_restart_by_restart(monkeypatch, dim, points):
    # n = 300 runs past numpy's 128-element pairwise-sum block. Points at two
    # locations leave total 0 from the third center on, and at one location
    # from the second, so those draws take the integers(n) fallback. The group
    # budget splits the seven restarts into groups of 3, 3 and 1.
    n, k, restarts, seed = 300, 4, 7, 11
    rng = np.random.Generator(np.random.PCG64(dim))
    X = rng.standard_normal((n, dim))
    X = {"gaussian": X, "two locations": X[np.arange(n) % 2], "one location": X[np.zeros(n, dtype=int)]}[points]
    starts = []
    lloyd = spectral._lloyd
    monkeypatch.setattr(spectral, "_lloyd", lambda p, centers, c: starts.extend(centers.copy()) or lloyd(p, centers, c))
    monkeypatch.setattr(spectral, "_GROUP_VALUES", 3 * n * max(k, dim))
    kmeans(X, KMeansConfig(k=k, restarts=restarts, max_iter=1, seed=seed))
    assert len(starts) == restarts
    for r, start in enumerate(starts):
        assert np.array_equal(start, kmeanspp_init_one(X, k, np.random.Generator(np.random.PCG64(seed + r))))


class _OnTheBreakpoint(np.random.Generator):
    """Draws the first point, then 0.5 from every random() call."""

    def integers(self, *args, **kwargs):
        return 0

    def random(self, size=None, dtype=np.float64, out=None):
        return 0.5 if size is None else np.full(size, 0.5)


def test_kmeanspp_draw_on_a_cdf_breakpoint_matches_rng_choice(monkeypatch):
    # With the first center at 0, points -1 and 1 weigh 1/2 each: the CDF is
    # [0, 0.5, 1] and a draw of exactly 0.5 sits on a breakpoint, where
    # Generator.choice (searchsorted side="right") takes point 1, not -1.
    X = np.array([[0.0], [-1.0], [1.0]])
    monkeypatch.setattr(spectral, "_rng", lambda seed: _OnTheBreakpoint(np.random.PCG64(seed)))
    want = kmeanspp_init_one(X, 2, _OnTheBreakpoint(np.random.PCG64(0)))
    assert want[1, 0] == 1.0
    for start in spectral._kmeanspp_init(X, 2, range(2)):
        assert np.array_equal(start, want)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_lloyd_objectives_match_restart_at_a_time(dim):
    # Every restart's objective, not only the winner's labels, rounds like a
    # restart run alone; a last-bit change in a centroid shows here first.
    rng = np.random.Generator(np.random.PCG64(dim))
    points = rng.standard_normal((200, dim))
    config = KMeansConfig(k=4, restarts=6)
    starts = [kmeanspp_init_one(points, 4, np.random.Generator(np.random.PCG64(r))) for r in range(6)]
    labels, objectives = spectral._lloyd(points, np.stack(starts), config)
    for r, start in enumerate(starts):
        want_labels, want_objective = lloyd_one(points, start, config.max_iter, config.tol)
        assert np.array_equal(labels[r], want_labels)
        assert objectives[r] == want_objective
