"""Property tests: graph invariants over small random inputs for every method."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from llrgraph.llr import HyperParams, build_llr_coefficients
from llrgraph.runs import GRAPH_METHODS, build_graph_by_method

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
