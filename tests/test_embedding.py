import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from llrgraph import llr
from llrgraph.data import InputError
from llrgraph.embedding import (
    generalized_sym_eig,
    load_projection,
    lpp_embed,
    nn_classify,
    npe_from_graph,
    save_projection,
    transform,
)
from llrgraph.llr import build_llr_coefficients, HyperParams

from oracles import pairwise_distances


def _rng(seed):
    return np.random.Generator(np.random.PCG64(seed))


def _spd(rng, m, scale=1.0):
    F = rng.standard_normal((m, m + 2))
    return scale * (F @ F.T) / (m + 2)


def test_generalized_eig_contract():
    rng = _rng(0)
    for trial in range(20):
        m = int(rng.integers(2, 13))
        A = rng.standard_normal((m, m))
        A = (A + A.T) / 2
        B = _spd(rng, m)
        evals, evecs = generalized_sym_eig(A, B)
        assert np.all(np.diff(evals) >= -1e-12)
        # B-orthonormality against the regularized B used internally
        trace = float(np.trace(B))
        B_reg = B + 1e-10 * (trace / m) * np.eye(m)
        gram = evecs.T @ B_reg @ evecs
        assert np.abs(gram - np.eye(m)).max() < 1e-6
        scale = 1.0 + np.abs(A).max()
        assert np.abs(A @ evecs - (B_reg @ evecs) * evals).max() <= 1e-6 * scale


def test_generalized_eig_refuses_grossly_singular_b():
    # a rank-3 B on a 6-dim pencil cannot meet the residual contract with the
    # tiny default ridge; the solve must fail loudly instead of returning junk
    rng = _rng(1)
    m = 6
    A = _spd(rng, m)
    low = rng.standard_normal((m, 3))
    B = low @ low.T
    with pytest.raises((RuntimeError, ValueError)):
        generalized_sym_eig(A, B)


def test_generalized_eig_input_errors():
    good = np.eye(3)
    with pytest.raises(ValueError, match="matching shape"):
        generalized_sym_eig(np.eye(3), np.eye(4))
    with pytest.raises(ValueError, match="A is not symmetric"):
        generalized_sym_eig(np.triu(np.ones((3, 3))), good)
    with pytest.raises(ValueError, match="B contains non-finite"):
        generalized_sym_eig(good, good * np.nan)


def test_generalized_eig_matches_scipy_on_random_pencils():
    """The Cholesky reduction against LAPACK's sygvd, through scipy.linalg.eigh
    on the same regularized B: eigenvalues within 1e-10 relative, eigenvector
    columns equal up to sign."""
    rng = _rng(14)
    for _ in range(50):
        m = int(rng.integers(1, 21))
        A = rng.standard_normal((m, m))
        A = (A + A.T) / 2
        B = _spd(rng, m, scale=float(rng.uniform(0.1, 10.0)))
        evals, evecs = generalized_sym_eig(A, B)
        ref_evals, ref_evecs = scipy.linalg.eigh(A, B + 1e-10 * (np.trace(B) / m) * np.eye(m))
        assert np.abs(evals - ref_evals).max() <= 1e-10 * np.abs(ref_evals).max()
        signs = np.sign(np.sum(evecs * ref_evecs, axis=0))
        assert np.abs(evecs * signs - ref_evecs).max() <= 1e-8 * np.abs(ref_evecs).max()


def test_generalized_eig_refuses_an_indefinite_b():
    # trace 0, so the ridge is 1e-10: the -1 stays negative
    with pytest.raises(ValueError, match="B is not positive-definite after regularization"):
        generalized_sym_eig(np.eye(2), np.diag([1.0, -1.0]))


def _coefficient_graph(X, lam=0.5, k_keep=4):
    params = HyperParams(lam=lam, k_keep=k_keep, d_dict=min(10, X.shape[0] - 1))
    return build_llr_coefficients(X, params)


def test_npe_shape_and_b_orthonormality():
    rng = _rng(2)
    X = rng.standard_normal((30, 6))
    C = _coefficient_graph(X)
    d = 3
    P = npe_from_graph(X, C, d)
    assert P.shape == (6, d)
    B = X.T @ X
    trace = float(np.trace(B))
    B_reg = B + 1e-10 * (trace / 6) * np.eye(6)
    gram = P.T @ B_reg @ P
    assert np.abs(gram - np.eye(d)).max() < 1e-6


def test_npe_minimizes_reconstruction_rayleigh():
    """The returned directions should score no worse than random ones on the
    objective trace(P^T X^T M X P) normalized by the B-form."""
    rng = _rng(3)
    X = rng.standard_normal((40, 5))
    C = _coefficient_graph(X)
    Wt = C.toarray()
    Wt = Wt / Wt.sum(axis=1, keepdims=True)
    M = (np.eye(40) - Wt).T @ (np.eye(40) - Wt)
    A_mat = X.T @ M @ X
    B_mat = X.T @ X

    def score(P):
        num = np.trace(P.T @ A_mat @ P)
        den = np.trace(P.T @ B_mat @ P)
        return num / den

    P = npe_from_graph(X, C, 2)
    got = score(P)
    for trial in range(10):
        Q = np.linalg.qr(rng.standard_normal((5, 2)))[0]
        assert got <= score(Q) + 1e-8, f"random trial {trial} beat the solver"


def test_npe_rejects_zero_sum_rows():
    X = _rng(5).standard_normal((4, 3))
    # row 2 sums to zero exactly
    C = sp.csr_matrix(
        np.array(
            [
                [0.0, 1.0, 0.0, 0.0],
                [1.0, 0.0, 0.0, 0.0],
                [0.0, 0.5, 0.0, -0.5],
                [1.0, 0.0, 0.0, 0.0],
            ]
        )
    )
    with pytest.raises(ValueError, match=r"samples \[2\]"):
        npe_from_graph(X, C, 1)


def test_npe_rank_and_dim_errors():
    rng = _rng(6)
    X = rng.standard_normal((20, 4))
    # embed data into 6 ambient dims with rank 4
    lift = np.zeros((4, 6))
    lift[:, :4] = np.eye(4)
    X6 = X @ lift
    C = _coefficient_graph(X6)
    with pytest.raises(ValueError, match="numerical rank"):
        npe_from_graph(X6, C, 5)
    with pytest.raises(ValueError, match=r"d must lie"):
        npe_from_graph(X6, C, 0)
    with pytest.raises(ValueError, match="does not match n"):
        npe_from_graph(X6, sp.csr_matrix((5, 5)), 2)


def test_lpp_contract_and_errors():
    rng = _rng(7)
    X = rng.standard_normal((30, 5))
    base = np.abs(rng.standard_normal((30, 30)))
    W = sp.csr_matrix(np.triu(base, 1) + np.triu(base, 1).T)
    P = lpp_embed(X, W, 3)
    assert P.shape == (5, 3)
    degrees = np.asarray(W.sum(axis=1)).ravel()
    B = (X * degrees[:, None]).T @ X
    B = (B + B.T) / 2
    trace = float(np.trace(B))
    B_reg = B + 1e-10 * (trace / 5) * np.eye(5)
    assert np.abs(P.T @ B_reg @ P - np.eye(3)).max() < 1e-6

    lonely = sp.csr_matrix((30, 30))
    with pytest.raises(ValueError, match="isolated vertices"):
        lpp_embed(X, lonely, 2)
    with pytest.raises(ValueError, match="d must lie"):
        lpp_embed(X, W, 6)
    # rank 4 in 6 ambient dims: a fifth direction would be the ridge's choice
    X6 = np.hstack([X[:, :4], np.zeros((30, 2))])
    with pytest.raises(ValueError, match="numerical rank 4"):
        lpp_embed(X6, W, 5)
    lopsided = W.tolil()
    lopsided[0, 1] += 1.0
    with pytest.raises(ValueError, match="must be symmetric"):
        lpp_embed(X, lopsided.tocsr(), 2)


def _dense_reference(A, B, d, delta=1e-10):
    """Smallest d generalized eigenvectors of the dense pencil, as columns."""
    m = A.shape[0]
    B_reg = B + delta * (np.trace(B) / m) * np.eye(m)
    return scipy.linalg.eigh(A, B_reg)[1][:, :d]


def _assert_same_columns(P, ref, tol=1e-10):
    signs = np.sign(np.sum(P * ref, axis=0))
    assert np.abs(P - ref * signs).max() < tol


def test_projections_match_dense_objectives():
    """NPE against X^T (I - Wt)^T (I - Wt) X and LPP against X^T (D - W) X,
    both written out with n x n matrices."""
    rng = _rng(12)
    n, m, d = 40, 6, 3
    X = rng.standard_normal((n, m))
    C = _coefficient_graph(X)
    dense = C.toarray()
    Wt = dense / dense.sum(axis=1, keepdims=True)
    I_minus_W = np.eye(n) - Wt
    ref = _dense_reference(X.T @ I_minus_W.T @ I_minus_W @ X, X.T @ X, d)
    _assert_same_columns(npe_from_graph(X, C, d), ref)

    base = np.abs(rng.standard_normal((n, n))) * (rng.random((n, n)) < 0.2)
    W = np.triu(base, 1) + np.triu(base, 1).T + np.diag(rng.random(n))
    D = np.diag(W.sum(axis=1))
    ref = _dense_reference(X.T @ (D - W) @ X, X.T @ D @ X, d)
    _assert_same_columns(lpp_embed(X, sp.csr_matrix(W), d), ref)


def test_projections_never_densify_the_graph(monkeypatch):
    """Neither the input graphs nor any sparse matrix derived from them is
    turned into a dense array."""
    rng = _rng(13)
    X = rng.standard_normal((30, 5))
    C = _coefficient_graph(X)
    W = abs(C.to_scipy()) + abs(C.to_scipy()).T
    expected = [npe_from_graph(X, C, 2), lpp_embed(X, W, 2)]

    def refuse(self, *args, **kwargs):
        raise AssertionError("a sparse matrix was densified")

    for cls in (sp.csr_matrix, sp.csc_matrix, sp.coo_matrix):
        monkeypatch.setattr(cls, "toarray", refuse)
        monkeypatch.setattr(cls, "todense", refuse)
    got = [npe_from_graph(X, C, 2), lpp_embed(X, W, 2)]
    for P, Q in zip(got, expected):
        assert np.array_equal(P, Q)


@pytest.mark.parametrize("exponent", [-600, -40, 40, 512])
def test_projections_scale_back_by_a_power_of_two_bit_for_bit(exponent):
    """Data scaled by 2**exponent gives the projection scaled by 2**-exponent,
    bit for bit, so X P does not change: both projections scale X into
    [0.5, 1) first, even where its squares would leave the float range."""
    rng = _rng(15)
    X = rng.standard_normal((30, 5))
    C = _coefficient_graph(X)
    W = abs(C.to_scipy()) + abs(C.to_scipy()).T
    X_scaled = np.ldexp(X, exponent)
    for project, graph in ((npe_from_graph, C), (lpp_embed, W)):
        P = project(X, graph, 2)
        assert np.array_equal(project(X_scaled, graph, 2), np.ldexp(P, -exponent))


def test_lpp_deterministic():
    rng = _rng(8)
    X = rng.standard_normal((20, 4))
    base = np.abs(rng.standard_normal((20, 20)))
    W = sp.csr_matrix(np.triu(base, 1) + np.triu(base, 1).T)
    assert np.array_equal(lpp_embed(X, W, 2), lpp_embed(X, W, 2))


def test_transform_and_dim_mismatch():
    rng = _rng(9)
    X = rng.standard_normal((7, 4))
    P = rng.standard_normal((4, 2))
    assert np.allclose(transform(P, X), X @ P)
    with pytest.raises(ValueError, match="dimension mismatch"):
        transform(rng.standard_normal((3, 2)), X)


def test_nn_classify_matches_naive_loop():
    rng = _rng(10)
    train = rng.standard_normal((25, 3))
    labels = rng.integers(0, 4, size=25)
    test = rng.standard_normal((12, 3))
    got = nn_classify(train, labels, test)
    for i in range(12):
        dists = np.linalg.norm(train - test[i], axis=1)
        assert got[i] == labels[int(np.argmin(dists))]


def test_nn_classify_tie_prefers_smaller_index():
    train = np.array([[0.0, 0.0], [0.0, 0.0], [3.0, 0.0]])
    labels = np.array([7, 8, 9])
    pred = nn_classify(train, labels, np.array([[0.0, 0.0]]))
    assert pred[0] == 7


@pytest.mark.parametrize("budget", [1, 50, 2**16])
def test_nn_classify_in_blocks_keeps_the_first_nearest(monkeypatch, budget):
    # A half-step grid repeats training points and ties test points between
    # them; squared distances on it are exact, so the naive distances match
    # bit for bit. Each training point has its own label, so a prediction
    # names the training index. A budget of 50 values makes blocks of 2 rows.
    rng = _rng(12)
    train = rng.integers(-2, 3, size=(24, 2)) / 2.0
    test = rng.integers(-4, 5, size=(31, 2)) / 4.0
    labels = np.arange(24)
    want = np.argmin(pairwise_distances(test, train), axis=1)
    monkeypatch.setattr(llr, "_CHUNK_VALUES", budget)
    assert np.array_equal(nn_classify(train, labels, test), want)


def test_nn_classify_ranks_distances_beyond_the_float_range():
    # The test point is 4e200 from training point 0 and 2e200 from point 1.
    # Unscaled, both squared distances overflow to inf and tie, which gave
    # point 0's label; on the scaled data they rank.
    pred = nn_classify(np.array([[3e200], [1e200]]), np.array([7, 9]), np.array([[-1e200]]))
    assert pred.tolist() == [9]


def test_nn_classify_ranks_distances_beyond_the_largest_float():
    # Both distances, 2e308 and about 1.9e308, exceed the largest float. The
    # search ranks on the scaled data and never scales distances back, which
    # would raise "beyond the float range" here.
    assert nn_classify(np.array([[1e308], [9e307]]), np.array([7, 9]), np.array([[-1e308]])).tolist() == [9]
    assert nn_classify(np.array([[9e307], [1e308]]), np.array([7, 9]), np.array([[-1e308]])).tolist() == [7]


def test_nn_classify_errors():
    train = np.zeros((3, 2))
    with pytest.raises(ValueError, match="train_labels length"):
        nn_classify(train, np.array([0, 1]), np.zeros((1, 2)))
    with pytest.raises(ValueError, match="dimensionality differ"):
        nn_classify(train, np.array([0, 1, 2]), np.zeros((1, 3)))


def test_projection_roundtrip_exact(tmp_path):
    rng = _rng(11)
    P = rng.standard_normal((6, 3)) * np.pi
    path = tmp_path / "proj.csv"
    save_projection(path, P)
    back = load_projection(path)
    assert np.array_equal(back, P), "roundtrip must be bit-exact"
    # save_projection writes no header, so a first row with a non-numeric cell is refused
    path.write_text("0.5,x,1.0\n1.0,2.0,3.0\n4.0,5.0,6.0\n")
    with pytest.raises(InputError, match=r"proj\.csv:1: "):
        load_projection(path)


@pytest.mark.parametrize("shape", [(3, 3), (5, 5), (4, 5)])
def test_lpp_embed_rejects_a_graph_of_another_size(shape):
    X = _rng(12).standard_normal((4, 3))
    with pytest.raises(ValueError, match=rf"graph shape \({shape[0]}, {shape[1]}\) does not match n=4"):
        lpp_embed(X, np.zeros(shape), 2)
