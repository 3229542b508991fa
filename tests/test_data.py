import csv
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from llrgraph.data import (
    InputError,
    LabeledDataset,
    SyntheticSpec,
    load_csv,
    pca_fit,
    pca_transform,
    save_csv,
    synth_union_of_subspaces,
    train_test_split,
    validate_data_matrix,
)

from oracles import eig2, load_csv_cell_by_cell


def test_load_csv_detects_header_and_label_by_name(tmp_path):
    p = tmp_path / "d.csv"
    for text in (
        "a,b,label\n1.0,2.0,x\n3.0,4.0,y\n1.5,0.0,x\n",
        # a UTF-8 byte-order mark is not part of the first header name
        "\ufefflabel,a,b\nx,1.0,2.0\ny,3.0,4.0\nx,1.5,0.0\n",
    ):
        p.write_text(text, encoding="utf-8")
        ds = load_csv(p, label_column="label")
        assert ds.X.shape == (3, 2)
        assert ds.labels.tolist() == [0, 1, 0]
        assert ds.label_names == ["x", "y"]


def test_load_csv_headerless_label_by_index(tmp_path):
    p = tmp_path / "d.csv"
    # a UTF-8 byte-order mark must not turn the first sample into a header
    for bom in ("", "\ufeff"):
        p.write_text(bom + "1.0,2.0,7\n3.0,4.0,9\n", encoding="utf-8")
        ds = load_csv(p, label_column=2)
        assert ds.X.shape == (2, 2)
        # labels canonicalized by first appearance, not numeric value
        assert ds.labels.tolist() == [0, 1]
        assert ds.label_names == ["7", "9"]


def test_load_csv_without_labels(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("1,2\n3,4\n")
    ds = load_csv(p)
    assert ds.labels is None
    assert ds.X.tolist() == [[1.0, 2.0], [3.0, 4.0]]


def test_load_csv_ragged_row_reports_line(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("a,b\n1,2\n3\n")
    with pytest.raises(ValueError, match="row 3"):
        load_csv(p)


def test_load_csv_non_numeric_cell_reports_position(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("1,2\n3,oops\n")
    with pytest.raises(ValueError, match="row 2, column 2"):
        load_csv(p)


@pytest.mark.parametrize(
    "text, message",
    [
        ("a,b,label\n\n\n1,2,0\n3,x,1\n", "non-numeric cell at row 5, column 2: 'x'"),
        ("a,b,label\r\n\r\n\r\n1,2,0\r\n3,x,1\r\n", "non-numeric cell at row 5, column 2: 'x'"),
        ('a,b\n"1\n",2\n\n3,x\n', "non-numeric cell at row 5, column 2: 'x'"),
        ('a,b\n1,2\n"x\ny",2\n', r"non-numeric cell at row 3, column 1: 'x\\ny'"),
        ("a,b,label\n\n1,2,0\n\n3,1\n", "ragged row 5: expected 3 cells, got 2"),
        ("\n\na,b\n1,2,3\n", "ragged row 3: expected 3 cells, got 2"),
    ],
    ids=["plain", "crlf", "multi-line row before", "multi-line row", "ragged", "ragged header"],
)
def test_load_csv_names_the_file_line_blank_lines_counted(tmp_path, text, message):
    """A row is named by the file line it starts on, whichever way the file is
    parsed, not by its count among the non-blank rows."""
    p = tmp_path / "d.csv"
    p.write_bytes(text.encode("utf-8"))
    with pytest.raises(InputError, match=re.escape(f"{p}: ") + message):
        load_csv(p)


@pytest.mark.parametrize("quote", ["", '"'], ids=["plain", "quoted"])
def test_load_csv_names_file_and_line_of_a_field_past_the_csv_limit(tmp_path, quote):
    """A field longer than csv's field size limit is an InputError at its
    line, not csv.Error."""
    p = tmp_path / "d.csv"
    p.write_text(f"a,b\n1,2\n{quote}{'1' * (csv.field_size_limit() + 1)}{quote},3\n")
    with pytest.raises(InputError, match=re.escape(f"{p}:3: field larger than field limit")):
        load_csv(p)


def test_load_csv_rejects_a_nul_byte_as_input(tmp_path):
    """csv.reader refuses a NUL byte before Python 3.11 and reads it as a cell
    from 3.11 on: either way it is an InputError at its line."""
    p = tmp_path / "d.csv"
    p.write_text("a,b\n1,2\n3,\0\n")
    with pytest.raises(InputError, match=re.escape(f"{p}") + r"(:3: line contains NUL|: non-numeric cell at row 3, column 2)"):
        load_csv(p)


def test_load_csv_missing_label_column(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError, match="'c' not found"):
        load_csv(p, label_column="c")


def test_load_csv_names_line_1_of_an_empty_file(tmp_path):
    p = tmp_path / "d.csv"
    for text in ("", "\ufeff", "\n\n"):
        p.write_text(text, encoding="utf-8")
        with pytest.raises(InputError, match=r"d\.csv:1: empty file"):
            load_csv(p)


def test_n_classes_of_an_unlabelled_dataset_raises():
    with pytest.raises(ValueError, match="dataset has no labels"):
        LabeledDataset(X=np.zeros((2, 1))).n_classes


def test_load_csv_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_csv(tmp_path / "nope.csv")


# Cells both parsers take, some of which only str.strip() clears (\x1c); and
# cells float() takes and np.loadtxt does not (1_0, an Arabic-Indic digit),
# quoted cells, a comment mark, a BOM, non-finite values and non-numbers.
_PLAIN_CELLS = st.sampled_from(["0", "1", "-2.5", "0.1", "1e-300", "5e-324", "1e308", " 1", "1 ", "\t2\t", " \t-3 ", "\x1c1"])
_ODD_CELLS = st.sampled_from([
    "1_0", "\u0661", "", " ", '""', '"1"', '"1,2"', "#1", "nan", "-inf", "1e400", "\ufeff1", "0x1", "x", "f0", "label",
])


@st.composite
def _csv_files(draw):
    """A grid of plain cells with up to two odd ones, sometimes a row one cell
    short or long, an optional header of names, blank lines, line ends \n,
    \r\n or \r, an optional BOM, and a label column that may not exist."""
    width, n = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    rows = [[draw(_PLAIN_CELLS) for _ in range(width)] for _ in range(n)]
    for _ in range(draw(st.integers(0, 2))):
        rows[draw(st.integers(0, n - 1))][draw(st.integers(0, width - 1))] = draw(_ODD_CELLS)
    if draw(st.integers(0, 4)) == 0:
        row = rows[draw(st.integers(0, n - 1))]
        row.pop() if draw(st.booleans()) else row.append(draw(_PLAIN_CELLS))
    if draw(st.booleans()):
        rows.insert(0, [f"f{j}" for j in range(width - 1)] + ["label"])
    lines = [",".join(row) for row in rows]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), "")
    end = draw(st.sampled_from(["\n", "\n", "\n", "\r\n", "\r"]))
    text = draw(st.sampled_from(["", "\ufeff"])) + end.join(lines) + draw(st.sampled_from(["", end]))
    return text, draw(st.sampled_from([None, None, 0, width - 1, "label", "label", width, "1", "f0", "y"]))


def _outcome(load, path, label_column):
    try:
        return "ok", load(path, label_column)
    except ValueError as exc:
        return type(exc) is InputError, str(exc)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_csv_files())
@example(("f0,f1,label\n1,2,a\n3,4,b\n", "label"))
@example(("1_0,2\n3,\u0661\n", None))
@example(("f0,label\r\n1,a\r\n\"2\",b\r\n", "label"))
def test_load_csv_matches_csv_reader_and_float_cell_by_cell(tmp_path_factory, csv_file):
    """load_csv, whichever way it parses, gives the oracle's values bit for bit,
    labels and label names, or the oracle's error as an InputError."""
    text, label_column = csv_file
    path = tmp_path_factory.mktemp("csv") / "d.csv"
    path.write_bytes(text.encode("utf-8"))
    got = _outcome(load_csv, path, label_column)
    want = _outcome(load_csv_cell_by_cell, path, label_column)
    if want[0] != "ok":
        assert got == (True, want[1])
        return
    assert got[0] == "ok", got
    X, labels, names = want[1]
    ds = got[1]
    assert ds.X.shape == X.shape and ds.X.tobytes() == X.tobytes()
    assert (ds.labels is None and labels is None) or np.array_equal(ds.labels, labels)
    assert ds.label_names == names


def test_save_load_roundtrip_is_exact(tmp_path):
    rng = np.random.Generator(np.random.PCG64(0))
    ds = LabeledDataset(
        X=rng.standard_normal((7, 3)),
        labels=np.array([0, 1, 2, 0, 1, 2, 0]),
        label_names=["a", "b", "c"],
    )
    p = tmp_path / "d.csv"
    save_csv(p, ds)
    back = load_csv(p, label_column="label")
    assert np.array_equal(back.X, ds.X), "repr round-trip must be bit-exact"
    assert np.array_equal(back.labels, ds.labels)


def test_split_stratified_counts_and_partition():
    rng = np.random.Generator(np.random.PCG64(3))
    labels = np.repeat([0, 1, 2], [10, 7, 5])
    ds = LabeledDataset(X=rng.standard_normal((22, 4)), labels=labels)
    train, test = train_test_split(ds, 0.5, seed=11)
    # ceil(0.5 * 10) = 5, ceil(0.5 * 7) = 4, ceil(0.5 * 5) = 3
    assert [int((train.labels == c).sum()) for c in range(3)] == [5, 4, 3]
    assert train.n + test.n == ds.n
    joined = np.sort(np.concatenate([train.X, test.X]), axis=0)
    assert np.array_equal(joined, np.sort(ds.X, axis=0))


def test_split_deterministic_and_seed_sensitive():
    ds = LabeledDataset(
        X=np.arange(40, dtype=float).reshape(20, 2),
        labels=np.repeat([0, 1], 10),
    )
    a1, _ = train_test_split(ds, 0.5, seed=7)
    a2, _ = train_test_split(ds, 0.5, seed=7)
    b, _ = train_test_split(ds, 0.5, seed=8)
    assert np.array_equal(a1.X, a2.X)
    assert not np.array_equal(a1.X, b.X)


def test_split_small_class_rejected():
    ds = LabeledDataset(X=np.zeros((3, 2)), labels=np.array([0, 0, 1]))
    with pytest.raises(ValueError, match="class 1"):
        train_test_split(ds, 0.5, seed=0)


def test_split_with_no_test_sample_rejected():
    # ceil(0.9 * 5) = 5 and ceil(0.9 * 8) = 8: every sample lands in train
    ds = LabeledDataset(X=np.zeros((13, 2)), labels=np.repeat([0, 1], [5, 8]))
    with pytest.raises(InputError, match="train_fraction 0.9 leaves no test sample"):
        train_test_split(ds, 0.9, seed=0)
    train, test = train_test_split(ds, 0.85, seed=0)  # ceil(0.85 * 8) = 7 leaves one
    assert (train.n, test.n) == (12, 1)


def test_split_without_labels_rejected():
    ds = LabeledDataset(X=np.arange(20, dtype=float).reshape(10, 2))
    with pytest.raises(InputError, match="requires labels"):
        train_test_split(ds, 0.3, seed=0)


def test_pca_full_energy_yields_rank():
    rng = np.random.Generator(np.random.PCG64(5))
    low = rng.standard_normal((30, 3)) @ rng.standard_normal((3, 8))
    model = pca_fit(low, energy=1.0)
    assert model.d == 3


def test_pca_matches_closed_form_2x2():
    rng = np.random.Generator(np.random.PCG64(9))
    for trial in range(20):
        X = rng.standard_normal((3 + trial % 4, 2))
        model = pca_fit(X, energy=1.0)
        Xc = X - X.mean(axis=0)
        cov = (Xc.T @ Xc) / (X.shape[0] - 1)
        _, vecs = eig2(cov)
        # descending order: oracle's second column is the top eigenvector
        top = vecs[:, 1]
        got = model.basis[:, 0]
        agree = min(np.abs(got - top).max(), np.abs(got + top).max())
        assert agree < 1e-8, f"trial {trial}: basis mismatch {agree}"


def test_pca_transform_centers_training_data():
    rng = np.random.Generator(np.random.PCG64(2))
    X = rng.standard_normal((25, 6)) + 3.0
    model = pca_fit(X, energy=0.9)
    Y = pca_transform(model, X)
    assert np.abs(Y.mean(axis=0)).max() < 1e-10


def test_pca_reconstruction_at_full_energy():
    rng = np.random.Generator(np.random.PCG64(4))
    X = rng.standard_normal((20, 5))
    model = pca_fit(X, energy=1.0)
    Y = pca_transform(model, X)
    back = model.mean + Y @ model.basis.T
    assert np.abs(back - X).max() < 1e-8


def test_pca_projected_data_has_exact_rank():
    # the projection spans exactly model.d directions: refitting at full
    # energy keeps every one of them and no phantom extras
    rng = np.random.Generator(np.random.PCG64(6))
    X = rng.standard_normal((40, 10))
    model = pca_fit(X, energy=0.95)
    Y = pca_transform(model, X)
    assert Y.shape == (40, model.d)
    model2 = pca_fit(Y, energy=1.0)
    assert model2.d == model.d


def test_pca_fit_scales_by_a_power_of_two_bit_for_bit():
    """pca_fit works on unit_scale(X): X times 2**600 gives the mean times
    2**600 and the same basis and energy bits, and X times 1e300, whose
    covariance would overflow, gives a finite model."""
    rng = np.random.Generator(np.random.PCG64(8))
    X = rng.standard_normal((40, 6)) @ rng.standard_normal((6, 6)) + 3.0
    for energy in (0.5, 0.9, 0.98, 1.0):
        model, big = pca_fit(X, energy), pca_fit(X * 2.0**600, energy)
        assert big.mean.tobytes() == (model.mean * 2.0**600).tobytes()
        assert big.basis.tobytes() == model.basis.tobytes()
        assert big.energy_retained == model.energy_retained
        huge = pca_fit(X * 1e300, energy)
        assert np.isfinite(huge.mean).all() and np.isfinite(huge.basis).all() and 0 < huge.energy_retained <= 1


def test_pca_rejects_constant_data():
    with pytest.raises(ValueError, match="zero total variance"):
        pca_fit(np.ones((5, 3)), energy=0.5)


def test_pca_transform_dimension_mismatch():
    model = pca_fit(np.random.Generator(np.random.PCG64(0)).standard_normal((5, 3)), 1.0)
    with pytest.raises(ValueError, match="mismatch"):
        pca_transform(model, np.zeros((2, 4)))


def test_synth_shapes_labels_and_determinism():
    spec = SyntheticSpec(ambient_dim=6, subspaces=[(2, 10), (1, 5)], noise_sigma=0.05, seed=42)
    ds1 = synth_union_of_subspaces(spec)
    ds2 = synth_union_of_subspaces(spec)
    assert ds1.X.shape == (15, 6)
    assert ds1.labels.tolist() == [0] * 10 + [1] * 5
    assert np.array_equal(ds1.X, ds2.X), "same seed must be bit-identical"


def test_synth_noiseless_points_lie_on_their_subspace():
    spec = SyntheticSpec(ambient_dim=8, subspaces=[(3, 12), (2, 9)], noise_sigma=0.0, seed=1)
    ds, bases = synth_union_of_subspaces(spec, return_bases=True)
    for i in range(ds.n):
        B = bases[int(ds.labels[i])]
        resid = ds.X[i] - B @ (B.T @ ds.X[i])
        assert np.linalg.norm(resid) < 1e-10, f"point {i} off its subspace"


def test_synth_scales_keep_points_off_origin():
    spec = SyntheticSpec(ambient_dim=5, subspaces=[(2, 30)], noise_sigma=0.0, seed=3)
    ds = synth_union_of_subspaces(spec)
    norms = np.linalg.norm(ds.X, axis=1)
    assert norms.min() > 0.5 - 1e-9 and norms.max() < 1.5 + 1e-9


def test_synth_validation():
    with pytest.raises(ValueError, match="nonnegative"):
        synth_union_of_subspaces(SyntheticSpec(3, [(1, 5)], -0.1, 0))
    with pytest.raises(ValueError, match="ambient_dim"):
        synth_union_of_subspaces(SyntheticSpec(2, [(3, 5)], 0.0, 0))
    with pytest.raises(ValueError, match="points_per_subspace"):
        synth_union_of_subspaces(SyntheticSpec(4, [(3, 3)], 0.0, 0))


def test_synth_spec_subspaces_cannot_change_after_the_checks():
    # A list passed in is stored as a tuple of tuples, so no edit can get
    # round the range checks made when the spec was made.
    spec = SyntheticSpec(ambient_dim=3, subspaces=[(1, 5), [2, 6]], noise_sigma=0.0, seed=0)
    assert spec.subspaces == ((1, 5), (2, 6))
    with pytest.raises(TypeError):
        spec.subspaces[0] = (4, 5)
    with pytest.raises(TypeError):
        spec.subspaces[1][0] = 4


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: pca_fit(np.ones((1, 3)), 0.9), "pca_fit needs at least 2 samples"),
        (lambda: validate_data_matrix(np.ones(3), "Q"),
         r"Q must be a 2-D matrix with n >= 1 and m >= 1, got shape \(3,\)"),
        (lambda: validate_data_matrix(np.ones((0, 2))), r"got shape \(0, 2\)"),
        (lambda: validate_data_matrix(np.ones((2, 0))), r"got shape \(2, 0\)"),
        (lambda: validate_data_matrix(np.array([[1.0, np.nan]])), "X contains non-finite entries"),
        (lambda: validate_data_matrix(np.array([[-np.inf, 1.0]])), "X contains non-finite entries"),
    ],
    ids=["pca one sample", "1-D", "no rows", "no columns", "nan", "inf"],
)
def test_data_input_checks_raise_their_own_message(call, message):
    with pytest.raises(ValueError, match=message):
        call()
