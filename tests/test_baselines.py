import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from llrgraph.baselines import HeatKernelParams, _median, heat_kernel_graph, lle_graph
from llrgraph.llr import HyperParams, build_llr_coefficients, build_llr_graph

from oracles import knn_indices, pairwise_distances


def _rng(seed):
    return np.random.Generator(np.random.PCG64(seed))


def test_heat_kernel_union_edges_match_naive_knn():
    rng = _rng(0)
    # Gaussian points, then a small integer grid full of duplicate points
    # (distance 0.0, weight 1.0) and tied distances.
    for X in (rng.standard_normal((25, 3)), rng.integers(0, 3, size=(30, 2)).astype(float)):
        k = 4
        W = heat_kernel_graph(X, HeatKernelParams(k_nn=k, sigma=1.0))
        n = X.shape[0]
        neighbor_sets = [set(knn_indices(X, i, k)) for i in range(n)]
        want = np.zeros((n, n), dtype=bool)
        for i in range(n):
            for j in neighbor_sets[i]:
                want[i, j] = True
                want[j, i] = True
        got = W.toarray() != 0
        assert np.array_equal(got, want), "union-kNN edge set mismatch"


def test_heat_kernel_weights_formula():
    rng = _rng(1)
    X = rng.standard_normal((12, 2))
    sigma = 0.7
    D = pairwise_distances(X, X)
    # Scaling the data and sigma together leaves the weights unchanged, also
    # where the squared distances and sigma**2 would overflow.
    for scale in (1.0, 1e155):
        W = heat_kernel_graph(scale * X, HeatKernelParams(k_nn=3, sigma=scale * sigma)).toarray()
        nz = W != 0
        assert np.abs(W[nz] - np.exp(-(D[nz] ** 2) / (2 * sigma**2))).max() < 1e-12, f"scale={scale}"


def test_heat_kernel_is_exactly_symmetric():
    rng = _rng(2)
    X = rng.standard_normal((30, 4))
    W = heat_kernel_graph(X, HeatKernelParams(k_nn=5))
    assert (W != W.T).nnz == 0


def test_heat_kernel_auto_sigma_is_median_retained_distance():
    rng = _rng(3)
    X = rng.standard_normal((15, 3))
    W_auto = heat_kernel_graph(X, HeatKernelParams(k_nn=4, sigma="auto"))
    # recover the retained distances from the union edge set
    D = pairwise_distances(X, X)
    iu, ju = np.nonzero(np.triu(W_auto.toarray() != 0, k=1))
    sigma = float(np.median(D[iu, ju]))
    W_explicit = heat_kernel_graph(X, HeatKernelParams(k_nn=4, sigma=sigma))
    assert np.abs(W_auto.toarray() - W_explicit.toarray()).max() == 0.0


def test_heat_kernel_names_samples_whose_distance_overflows():
    X = np.array([[1e308, 0.0], [-1e308, 0.0], [0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ValueError, match=r"samples 0 and 1 is beyond the float range"):
        heat_kernel_graph(X, HeatKernelParams(k_nn=3))


def test_heat_kernel_auto_sigma_stays_finite_when_the_middle_distances_near_the_float_limit():
    # The two middle retained distances are about 1e308 each, so their plain
    # sum, which np.median takes, leaves the float range.
    X = np.array([[1e308, 0.0], [-1e308, 0.0], [1e308, 1.0], [-1e308, 1.0], [0.0, 0.0], [0.0, 1.0],
                  [-1e308, -1e308]])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        W = heat_kernel_graph(X, HeatKernelParams(k_nn=3))
    assert W.nnz > 0
    assert np.all(np.isfinite(W.data))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(arrays(np.float64, st.integers(1, 9), elements=st.floats(0.0, 1.7e308) | st.sampled_from(
    [0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-300, 1.0, 9e307, 1e308, 1.7976931348623157e308])))
def test_auto_sigma_median_has_the_bits_of_np_median(values):
    got = _median(values)
    middle = np.sort(values)[[(values.size - 1) // 2, values.size // 2]]
    assert middle[0] <= got <= middle[1]
    if middle[0] <= np.finfo(float).max - middle[1]:  # np.median's sum stays finite
        assert np.float64(got).tobytes() == np.float64(np.median(values)).tobytes()


def test_heat_kernel_tiny_sigma_gives_zero_weights_without_warning():
    # (d / sigma)^2 overflows to inf, and exp(-inf) = 0 is the exact weight.
    X = _rng(2).standard_normal((10, 3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        W = heat_kernel_graph(X, HeatKernelParams(k_nn=2, sigma=1e-300))
    assert W.nnz > 0
    assert np.all(W.data == 0.0)


def test_heat_kernel_auto_sigma_zero_median_rejected():
    X = np.zeros((6, 2))  # all points identical: every distance is zero
    with pytest.raises(ValueError, match="median"):
        heat_kernel_graph(X, HeatKernelParams(k_nn=2, sigma="auto"))


def test_heat_kernel_param_validation():
    with pytest.raises(ValueError, match="k_nn"):
        HeatKernelParams(k_nn=0)
    with pytest.raises(ValueError, match="k_nn"):
        HeatKernelParams(k_nn=9).validate(8)
    with pytest.raises(ValueError, match="sigma"):
        HeatKernelParams(k_nn=2, sigma=-1.0)
    with pytest.raises(ValueError, match="sigma"):
        HeatKernelParams(k_nn=2, sigma="median")


def test_lle_graph_equals_llr_at_lambda_zero():
    rng = _rng(4)
    for trial in range(5):
        X = rng.standard_normal((20, 3))
        k = int(rng.integers(2, 7))
        got = lle_graph(X, k_nn=k)
        want = build_llr_graph(X, HyperParams(lam=0.0, k_keep=k, d_dict=k))
        assert np.array_equal(got.indptr, want.indptr), f"trial {trial}"
        assert np.array_equal(got.indices, want.indices), f"trial {trial}"
        assert np.array_equal(got.data, want.data), f"trial {trial}: graphs not bit-identical"


def test_lle_rows_sum_to_one_before_symmetrization():
    rng = _rng(5)
    X = rng.standard_normal((16, 4))
    C = build_llr_coefficients(X, HyperParams(lam=0.0, k_keep=5, d_dict=5))
    sums = np.asarray(C.sum(axis=1)).ravel()
    assert np.abs(sums - 1.0).max() < 1e-10
