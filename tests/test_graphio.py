import contextlib
import re
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from llrgraph.embedding import lpp_embed
from llrgraph.graphio import CSR, as_csr, as_graph, read_graph, read_labels, write_graph, write_labels
from llrgraph.llr import symmetrize
from llrgraph.metrics import intra_class_edge_mass
from llrgraph.runs import cluster_graph
from llrgraph.spectral import normalized_laplacian_embedding


def _random_symmetric(rng, n, density=0.3):
    mask = rng.random((n, n)) < density
    vals = np.abs(rng.standard_normal((n, n))) * np.exp(rng.standard_normal((n, n)))
    upper = np.triu(np.where(mask, vals, 0.0), 1)
    return sp.csr_matrix(upper + upper.T)


def test_graph_roundtrip_bit_exact(tmp_path):
    rng = np.random.Generator(np.random.PCG64(0))
    for trial in range(10):
        W = _random_symmetric(rng, int(rng.integers(2, 25)))
        path = tmp_path / f"g{trial}.txt"
        write_graph(path, W)
        back = read_graph(path)
        assert back.shape == W.shape
        assert np.array_equal(back.toarray(), W.toarray()), f"trial {trial}"
        # writing the read-back graph reproduces the file byte for byte
        path2 = tmp_path / f"g{trial}b.txt"
        write_graph(path2, back)
        assert path.read_bytes() == path2.read_bytes()
        # a UTF-8 byte-order mark, as some editors write, is not part of the header
        bom = tmp_path / f"g{trial}bom.txt"
        bom.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert np.array_equal(read_graph(bom).toarray(), W.toarray()), f"trial {trial} with BOM"


def test_graph_file_shape(tmp_path):
    W = sp.csr_matrix(np.array([[0.0, 1.5, 0.0], [1.5, 0.0, 0.25], [0.0, 0.25, 0.0]]))
    path = tmp_path / "g.txt"
    write_graph(path, W)
    lines = path.read_text().splitlines()
    assert lines[0] == "llr-graph v1 n=3 sym=1"
    assert lines[1] == "0 1 1.5"
    assert lines[2] == "1 2 0.25"
    assert len(lines) == 3


def test_write_graph_rejects_non_square(tmp_path):
    with pytest.raises(ValueError, match="square"):
        write_graph(tmp_path / "bad.txt", sp.csr_matrix((2, 3)))


def test_write_graph_rejects_self_loops(tmp_path):
    """The format stores pairs i < j, so a self-loop would be lost; none is written."""
    path = tmp_path / "g.txt"
    with pytest.raises(ValueError, match="vertex 0 has a self-loop"):
        write_graph(path, np.array([[4.0, 1.0], [1.0, 0.0]]))
    assert not path.exists()


def test_write_graph_adds_scipy_repeats(tmp_path):
    """A SciPy CSR that stores (0, 1) twice is one edge with the summed weight."""
    W = sp.csr_matrix(([1.0, 2.0, 1.0, 2.0], [1, 1, 0, 0], [0, 2, 4]), shape=(2, 2))
    path = tmp_path / "g.txt"
    write_graph(path, W)
    assert path.read_text().splitlines() == ["llr-graph v1 n=2 sym=1", "0 1 3.0"]
    assert read_graph(path).toarray().tolist() == [[0.0, 3.0], [3.0, 0.0]]


@pytest.mark.parametrize(
    "indices, indptr, shape",
    [
        ([5, 0], [0, 1, 2], (2, 2)),  # column past the last
        ([-1, 0], [0, 1, 2], (2, 2)),  # negative column
        ([1, 1], [0, 2, 2], (2, 2)),  # a column repeated within a row
        ([1, 0], [0, 2, 2], (2, 2)),  # descending columns within a row
        ([0, 1], [0, 2, 1, 2], (3, 3)),  # decreasing indptr
        ([0, 1], [1, 1, 2], (2, 2)),  # indptr not starting at 0
    ],
)
def test_csr_rejects_malformed_arrays(indices, indptr, shape):
    with pytest.raises(ValueError, match=re.escape(str(shape))):
        CSR([1.0] * len(indices), indices, indptr, shape)


def test_graph_functions_reject_non_square_graphs():
    with pytest.raises(ValueError, match=re.escape("(3, 2)")):
        normalized_laplacian_embedding(np.ones((3, 2)), 1)
    with pytest.raises(ValueError, match=re.escape("(2, 3)")):
        intra_class_edge_mass(np.ones((2, 3)), np.array([0, 1]))
    with pytest.raises(ValueError, match=re.escape("(2, 3)")):
        cluster_graph(np.ones((2, 3)), 1, 1, 0)


# Two components, so k = c = 2 takes the closed-form path with no eigensolve.
_ASYMMETRIC = np.array([[0.0, 1.0, 0.0, 0.0], [5.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0], [0.0, 0.0, 3.0, 0.0]])


def _triangle(w):
    """A triangle graph whose edge (1, 2) has weight w."""
    return np.array([[0.0, 1.0, 1.0], [1.0, 0.0, w], [1.0, w, 0.0]])


def _must_be(edge, w):
    return f"edge {edge} has weight {w!r}; graph weights must be finite and nonnegative"


@pytest.mark.parametrize(
    "call, W, message",
    [
        (lambda W, path: normalized_laplacian_embedding(W, 2), _ASYMMETRIC, "graph must be symmetric"),
        (lambda W, path: cluster_graph(W, 2, 1, 0), _ASYMMETRIC, "graph must be symmetric"),
        (lambda W, path: normalized_laplacian_embedding(W, 1), _triangle(np.nan), _must_be((1, 2), np.nan)),
        (lambda W, path: normalized_laplacian_embedding(W, 1), _triangle(np.inf), _must_be((1, 2), np.inf)),
        (lambda W, path: lpp_embed(np.array([[0.0, 1.0], [2.0, 0.5], [1.0, 3.0]]), W, 1), _triangle(-0.5),
         _must_be((1, 2), -0.5)),
        (lambda W, path: intra_class_edge_mass(W, np.array([0, 1, 1])), _triangle(-0.5), _must_be((1, 2), -0.5)),
        (lambda W, path: write_graph(path, W), np.array([[0.0, 1.0], [5.0, 0.0]]), "graph must be symmetric"),
    ],
    ids=["embedding-asymmetric", "cluster-asymmetric", "embedding-nan", "embedding-inf", "lpp-negative",
         "edge-mass-negative", "write-asymmetric"],
)
def test_graph_functions_reject_what_is_not_a_similarity_graph(tmp_path, call, W, message):
    """Every graph consumer takes its graph through as_graph, which wants
    finite nonnegative weights and W == W.T; write_graph writes no file."""
    path = tmp_path / "g.txt"
    with pytest.raises(ValueError, match=re.escape(message)):
        call(W, path)
    assert not path.exists()


def test_read_graph_header_errors(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("")
    with pytest.raises(ValueError, match=r"g\.txt:1: empty graph file"):
        read_graph(path)
    path.write_text("llr-graph v2 n=3 sym=1\n")
    with pytest.raises(ValueError, match=r"g\.txt:1: bad graph header"):
        read_graph(path)
    path.write_text("3 nodes\n0 1 1.0\n")
    with pytest.raises(ValueError, match="bad graph header"):
        read_graph(path)


def test_read_graph_body_errors_carry_line_numbers(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("llr-graph v1 n=3 sym=1\n0 1 1.0\n0 1\n")
    with pytest.raises(ValueError, match=r"g\.txt:3: expected"):
        read_graph(path)
    path.write_text("llr-graph v1 n=3 sym=1\n1 0 1.0\n")
    with pytest.raises(ValueError, match=r"g\.txt:2: indices"):
        read_graph(path)
    path.write_text("llr-graph v1 n=3 sym=1\n0 3 1.0\n")
    with pytest.raises(ValueError, match="indices must satisfy"):
        read_graph(path)
    path.write_text("llr-graph v1 n=3 sym=1\n1 1 1.0\n")
    with pytest.raises(ValueError, match="indices must satisfy"):
        read_graph(path)


@pytest.mark.parametrize(
    "body, message",
    [
        ("0 1 1.0\n0 2 nan\n", r"g\.txt:3: weight must be finite"),
        ("0 1 inf\n", r"g\.txt:2: weight must be finite"),
        ("0 1 -inf\n", r"g\.txt:2: weight must be finite"),
        ("0 1 1.0\n0 1 2.0\n", r"g\.txt:3: edge \(0, 1\) after \(0, 1\): lines must be unique and sorted"),
        ("0 2 1.0\n0 1 2.0\n", r"g\.txt:3: edge \(0, 1\) after \(0, 2\)"),
        ("1 2 1.0\n0 2 2.0\n", r"g\.txt:3: edge \(0, 2\) after \(1, 2\)"),
        ("0 1 x\n", r"g\.txt:2: expected 'i j w' with integer i, j and numeric w"),
        ("a 1 1.0\n", r"g\.txt:2: expected 'i j w'"),
        ("0 1.5 1.0\n", r"g\.txt:2: expected 'i j w'"),
    ],
)
def test_read_graph_rejects_bad_lines(tmp_path, body, message):
    path = tmp_path / "g.txt"
    path.write_text("llr-graph v1 n=3 sym=1\n" + body)
    with pytest.raises(ValueError, match=message):
        read_graph(path)


def test_read_graph_rejects_a_negative_weight_at_its_line(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("\ufeffllr-graph v1 n=3 sym=1\n0 1 1.0\n\n0 2 -0.5\n1 2 1.0\n\n", encoding="utf-8")
    with pytest.raises(ValueError) as info:
        read_graph(path)
    assert str(info.value) == (f"{path}: edge (0, 2) has negative weight -0.5 ({path}:4); "
                               "similarity weights must be nonnegative")
    # a malformed line anywhere is named before the sign of a weight
    path.write_text("llr-graph v1 n=3 sym=1\n0 1 -1.0\n\n0 2 x\n")
    with pytest.raises(ValueError, match=r"g\.txt:4: expected 'i j w'"):
        read_graph(path)
    # negative zero is not negative
    path.write_text("llr-graph v1 n=2 sym=1\n0 1 -0.0\n")
    assert read_graph(path).nnz == 2


@pytest.mark.parametrize("weight", [-1.5, np.nan, np.inf])
def test_write_graph_rejects_weights_the_reader_rejects(tmp_path, weight):
    W = sp.csr_matrix(np.array([[0.0, 1.0, 0.0], [1.0, 0.0, weight], [0.0, weight, 0.0]]))
    path = tmp_path / "g.txt"
    with pytest.raises(ValueError, match=rf"edge \(1, 2\) has weight {weight!r}; graph weights must be finite and"):
        write_graph(path, W)
    assert not path.exists()


def test_read_graph_accepts_zero_weights(tmp_path):
    # heat-kernel weights can underflow to 0.0; the edge stays in the file
    path = tmp_path / "g.txt"
    path.write_text("llr-graph v1 n=3 sym=1\n0 1 0.0\n1 2 0.5\n")
    W = read_graph(path).to_scipy()
    assert W[0, 1] == 0.0 and W[1, 2] == 0.5 and W[2, 1] == 0.5


def test_read_graph_skips_blank_lines(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("llr-graph v1 n=2 sym=1\n\n0 1 2.0\n\n")
    W = read_graph(path).to_scipy()
    assert W[0, 1] == 2.0 and W[1, 0] == 2.0


def test_read_graph_mirrors_to_symmetric(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("llr-graph v1 n=4 sym=1\n0 2 0.125\n1 3 7.0\n")
    W = read_graph(path).toarray()
    assert np.array_equal(W, W.T)
    assert W[2, 0] == 0.125 and W[3, 1] == 7.0


def test_graph_weights_survive_full_precision(tmp_path):
    # pi to full double precision must roundtrip exactly via repr
    W = sp.csr_matrix(np.array([[0.0, np.pi], [np.pi, 0.0]]))
    path = tmp_path / "g.txt"
    write_graph(path, W)
    assert read_graph(path).to_scipy()[0, 1] == np.pi


def test_labels_roundtrip(tmp_path):
    labels = np.array([0, 2, 2, 1, 0], dtype=np.int64)
    path = tmp_path / "labels.txt"
    write_labels(path, labels)
    assert path.read_text() == "0\n2\n2\n1\n0\n"
    assert np.array_equal(read_labels(path), labels)
    path.write_text("\ufeff0\n1\n0\n", encoding="utf-8")  # with a byte-order mark
    assert read_labels(path).tolist() == [0, 1, 0]


def test_read_labels_bad_line_names_file_and_line(tmp_path):
    path = tmp_path / "labels.txt"
    path.write_text("0\n1\n\n1.5\n")
    with pytest.raises(ValueError, match=r"labels\.txt:4: expected an integer label, got '1\.5'"):
        read_labels(path)


def test_read_labels_rejects_labels_outside_int64(tmp_path):
    path = tmp_path / "labels.txt"
    path.write_text(f"0\n{2**63 - 1}\n{-(2**63)}\n")
    assert read_labels(path).tolist() == [0, 2**63 - 1, -(2**63)]
    path.write_text(f"0\n\n{2**63}\n")
    with pytest.raises(ValueError, match=r"labels\.txt:3: label 9223372036854775808 is outside the 64-bit integer range"):
        read_labels(path)


def test_read_labels_checks_the_count_against_n(tmp_path):
    path = tmp_path / "labels.txt"
    path.write_text("\ufeff0\n1\n\n1\n0\n\n", encoding="utf-8")
    assert read_labels(path, 4).tolist() == [0, 1, 1, 0]
    # too many: the line of the first extra label
    with pytest.raises(ValueError) as info:
        read_labels(path, 2)
    assert str(info.value) == f"{path}:4: got 4 labels for a graph on 2 nodes"
    with pytest.raises(ValueError, match=r"labels\.txt:5: got 4 labels for a graph on 3 nodes"):
        read_labels(path, 3)
    # too few: the line past the end
    with pytest.raises(ValueError, match=r"labels\.txt:7: got 4 labels for a graph on 5 nodes"):
        read_labels(path, 5)
    path.write_text("")
    with pytest.raises(ValueError, match=r"labels\.txt:1: got 0 labels for a graph on 1 nodes"):
        read_labels(path, 1)
    # a malformed line is named before the count
    path.write_text("0\n1\n2\nx\n")
    with pytest.raises(ValueError, match=r"labels\.txt:4: expected an integer label"):
        read_labels(path, 2)


# -- the CSR type against SciPy -------------------------------------------

@st.composite
def triplets(draw):
    """Up to 16 (row, column, value) triplets on an (n + 1) x (n + 1) matrix
    whose last row and column stay empty; repeats and exact zeros are common,
    and values span enough exponents for the order of additions to matter."""
    n = draw(st.integers(1, 8))
    count = draw(st.integers(0, 16))
    index = arrays(np.int64, count, elements=st.integers(0, n - 1))
    value = st.floats(-1e6, 1e6, allow_subnormal=False) | st.sampled_from([0.0, -0.0, 1e-300, 3e300, 0.1])
    return draw(index), draw(index), draw(arrays(np.float64, count, elements=value)), n + 1


def _same_arrays(ours, theirs):
    for name in ("indptr", "indices", "data"):
        a, b = getattr(ours, name), getattr(theirs, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert ours.shape == theirs.shape and ours.nnz == theirs.nnz


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(triplets(), st.data())
def test_csr_computes_what_scipy_computes_bit_for_bit(t, data):
    rows, cols, vals, n = t
    W = CSR.from_triplets(rows, cols, vals, (n, n))
    S = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
    S.sort_indices()
    _same_arrays(W, S)
    assert W.toarray().tobytes() == S.toarray().tobytes()
    assert W.row_sums().tobytes() == np.asarray(S.sum(axis=1)).ravel().tobytes()
    graph = (S != S.T).nnz == 0 and bool(np.all(np.isfinite(S.data) & (S.data >= 0)))
    with contextlib.nullcontext() if graph else pytest.raises(ValueError, match="symmetric|nonnegative"):
        as_graph(W)

    idx = np.array(sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1))))
    assert W.block(idx).tobytes() == S[idx][:, idx].toarray().tobytes()

    scale = data.draw(arrays(np.float64, n, elements=st.floats(-1e3, 1e3, allow_subnormal=False)))
    _same_arrays(W.scale_rows(scale), sp.csr_matrix(S.multiply(scale[:, None])))

    X = data.draw(arrays(np.float64, (n, data.draw(st.integers(1, 3))), elements=st.floats(-1e3, 1e3)))
    assert (W @ X).tobytes() == (S @ X).tobytes()
    assert (W @ X[:, 0]).tobytes() == (S @ X[:, 0]).tobytes()

    off = rows != cols  # symmetrize wants a zero diagonal
    C = sp.csr_matrix((vals[off], (rows[off], cols[off])), shape=(n, n))
    want = (abs(C) + abs(C).T).tocsr()
    want.sort_indices()
    _same_arrays(symmetrize(CSR.from_triplets(rows[off], cols[off], vals[off], (n, n))), want)
    _same_arrays(symmetrize(C), want)


def test_csr_forwards_what_it_does_not_define_to_scipy():
    """W - W.T, W == 0, W != 0 and SciPy's attributes act on a csr_matrix over
    the same arrays, and csr_matrix(W) is built from the dense matrix, without
    explicit zeros."""
    rows, cols, vals = [0, 1, 1, 2, 0, 2], [1, 0, 2, 1, 2, 0], [1.5, 1.5, -2.0, -2.0, 0.0, 0.0]
    W = CSR.from_triplets(rows, cols, vals, (3, 3))
    S = sp.csr_matrix((vals, (rows, cols)), shape=(3, 3))
    cases = {
        "W - W.T": lambda A: A - A.T,
        "W != 0": lambda A: A != 0,
        "W == 0": lambda A: A == 0,
        "W.diagonal()": lambda A: A.diagonal(),
        "W.getrow(1)": lambda A: A.getrow(1),
        "W.max()": lambda A: A.max(),
        "W.sum()": lambda A: A.sum(),
    }
    for name, case in cases.items():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", sp.SparseEfficiencyWarning)  # SciPy's, for W == 0
            got, want = case(W), case(S)
        assert type(got) is type(want), name
        dense = [np.asarray(r.toarray() if sp.issparse(r) else r) for r in (got, want)]
        assert dense[0].tobytes() == dense[1].tobytes(), name
    assert np.shares_memory(W.to_scipy().indices, W.indices) and np.shares_memory(W.to_scipy().data, W.data)
    assert np.asarray(W).tobytes() == S.toarray().tobytes()
    rebuilt = sp.csr_matrix(W)
    S.eliminate_zeros()
    _same_arrays(rebuilt, S)


@pytest.mark.parametrize("case", [lambda W: W + W, lambda W: 2 * W, lambda W: -W, abs, lambda W: W[0, 1]],
                         ids=["W + W", "2 * W", "-W", "abs(W)", "W[0, 1]"])
def test_csr_defines_no_other_operator_or_index(case):
    """Arithmetic and indexing beyond what CSR forwards raise TypeError; they
    are SciPy's only through W.to_scipy()."""
    W = CSR.from_triplets([0, 1], [1, 0], [1.5, 1.5], (2, 2))
    with pytest.raises(TypeError):
        case(W)


def test_graph_functions_take_scipy_and_dense_graphs(tmp_path):
    W = _random_symmetric(np.random.Generator(np.random.PCG64(3)), 9)
    for form in (W, W.tocoo(), W.toarray(), as_csr(W)):
        write_graph(tmp_path / "g.txt", form)
        assert np.array_equal(read_graph(tmp_path / "g.txt").toarray(), W.toarray())
        assert np.array_equal(intra_class_edge_mass(form, np.arange(9) % 2), intra_class_edge_mass(W, np.arange(9) % 2))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: as_csr(np.ones(3)), r"a graph must be a 2-D matrix, got shape \(3,\)"),
        (lambda: CSR.from_triplets([0, 3], [1, 1], [1.0, 1.0], (3, 3)), r"triplet indices outside the shape \(3, 3\)"),
        (lambda: CSR.from_triplets([0, 1], [-1, 1], [1.0, 1.0], (3, 3)), r"triplet indices outside the shape \(3, 3\)"),
        (lambda: as_csr(np.eye(3)) @ np.ones((4, 2)), r"dimension mismatch: \(3, 3\) @ \(4, 2\)"),
    ],
    ids=["1-D graph", "row outside", "column outside", "matmul shapes"],
)
def test_csr_input_checks_raise_their_own_message(call, message):
    with pytest.raises(ValueError, match=message):
        call()
