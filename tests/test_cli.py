import contextlib
import importlib.util
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import llrgraph
from llrgraph.cli import main
from llrgraph.data import InputError, LabeledDataset, load_csv, save_csv
from llrgraph.graphio import read_graph, read_labels
from llrgraph.llr import neighbour_table


def _synth(tmp_path, name="data.csv", per=10, seed=0, noise=0.01):
    path = tmp_path / name
    code = main(
        [
            "synth",
            "--preset",
            "fig1",
            "--per-subspace",
            str(per),
            "--noise",
            str(noise),
            "--seed",
            str(seed),
            "--output",
            str(path),
        ]
    )
    assert code == 0
    return path


def _load_report(path):
    return json.loads(path.read_text())


# -- start-up -----------------------------------------------------------

# SciPy subpackages no command loads: the neighbour search is llr's own.
NEVER_LOADED = ("scipy.spatial",)

_ADDED_BY_CLI = """
import json, sys
import numpy
before = set(sys.modules)
import llrgraph.cli
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def _scipy_modules(modules):
    return [m for m in modules if m == "scipy" or m.startswith("scipy.")]


BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _fresh_env(**blas_threads):
    """The environment of a fresh process that imports this llrgraph, with
    only the given BLAS thread variables set."""
    src = str(Path(llrgraph.__file__).resolve().parents[1])
    env = {key: value for key, value in os.environ.items() if key not in BLAS_THREAD_VARIABLES}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**env, **blas_threads}


def test_cli_import_adds_no_heavy_scipy_subpackage():
    """A fresh process importing the CLI after numpy loads no SciPy module:
    graphs are graphio.CSR values, and scipy.linalg is imported on first use."""
    out = subprocess.run([sys.executable, "-c", _ADDED_BY_CLI], env=_fresh_env(), capture_output=True, text=True,
                         check=True)
    assert _scipy_modules(json.loads(out.stdout)) == []


_MODULES_AFTER_COMMAND = """
import json, sys
from llrgraph.cli import main
code = main(sys.argv[1:])
print(json.dumps([code, sorted(sys.modules)]))
"""


@pytest.mark.parametrize(
    "argv",
    [
        ["build-graph", "--input", "data.csv", "--label-column", "label", "--method", "heat", "--output", "g.txt"],
        ["embed-classify", "--input", "data.csv", "--label-column", "label", "--method", "lpp", "--embed-dim", "2"],
        ["eval", "--input", "data.csv", "--label-column", "label", "--clusters", "3", "--seeds", "0",
         "--methods", "heat,llr", "--k-values", "4", "--restarts", "2"],
    ],
    ids=["build-graph heat", "embed-classify lpp", "eval"],
)
def test_commands_that_search_neighbours_never_load_scipy_spatial(tmp_path, argv):
    _synth(tmp_path, per=12)
    out = subprocess.run([sys.executable, "-c", _MODULES_AFTER_COMMAND, *argv], cwd=tmp_path, env=_fresh_env(),
                         capture_output=True, text=True, check=True)
    code, modules = json.loads(out.stdout.splitlines()[-1])
    assert code == 0
    assert [m for m in modules if any(m == p or m.startswith(p + ".") for p in NEVER_LOADED)] == []


@pytest.mark.parametrize(
    "argv",
    [
        ["build-graph", "--input", "data.csv", "--label-column", "label", "--method", "heat", "--output", "g.txt"],
        ["cluster", "--graph", "g.txt", "--truth-labels", "labels.txt", "--clusters", "3", "--output", "p.txt",
         "--report", "r.json"],
        ["embed-classify", "--input", "data.csv", "--label-column", "label", "--method", "lpp", "--embed-dim", "2",
         "--pred-out", "p.txt", "--report", "r.json"],
    ],
    ids=["build-graph heat", "cluster graph", "embed-classify lpp"],
)
def test_commands_without_solves_never_load_scipy(tmp_path, argv):
    """Reading, writing, clustering and scoring a graph need no SciPy, and
    neither does LPP, whose generalized eigensolve is numpy's Cholesky
    reduction: a process that runs only them ends with no scipy module loaded.
    The per-point coefficient solves (llr, lle, npe) still load scipy.linalg."""
    data = _synth(tmp_path, per=12)
    assert main(["build-graph", "--input", str(data), "--label-column", "label", "--method", "heat",
                 "--output", str(tmp_path / "g.txt")]) == 0
    (tmp_path / "labels.txt").write_text("".join(f"{i // 12}\n" for i in range(36)))  # the generator's layout
    out = subprocess.run([sys.executable, "-c", _MODULES_AFTER_COMMAND, *argv], cwd=tmp_path, env=_fresh_env(),
                         capture_output=True, text=True, check=True)
    code, modules = json.loads(out.stdout.splitlines()[-1])
    assert code == 0
    assert _scipy_modules(modules) == []


def test_default_report_does_not_depend_on_the_core_count(tmp_path):
    """With no BLAS thread variable set, the CLI runs OpenBLAS on one thread,
    so its report matches a run with OPENBLAS_NUM_THREADS=1 on any machine.
    Heat and lle at k=4, seed 0, give graphs with more components than
    clusters, whose eigenvector basis follows the thread count."""
    argv = [sys.executable, "-m", "llrgraph.cli", "eval", "--preset", "fig1", "--seeds", "0", "--methods", "heat,lle",
            "--k-values", "4", "--report"]
    for name, threads in (("default.json", {}), ("one.json", {"OPENBLAS_NUM_THREADS": "1"})):
        subprocess.run(argv + [str(tmp_path / name)], env=_fresh_env(**threads), capture_output=True, check=True)
    assert (tmp_path / "default.json").read_bytes() == (tmp_path / "one.json").read_bytes()


@pytest.mark.parametrize(
    "first, caller, after",
    [
        ("", {}, {"OPENBLAS_NUM_THREADS": "1"}),
        ("", {"OPENBLAS_NUM_THREADS": "2"}, {"OPENBLAS_NUM_THREADS": "2"}),
        ("", {"OMP_NUM_THREADS": "2"}, {"OMP_NUM_THREADS": "2"}),
        # numpy's OpenBLAS has read the variables already, so none is set
        ("import numpy", {}, {}),
    ],
)
def test_import_sets_one_blas_thread_unless_the_caller_chose(first, caller, after):
    code = f"import json, os; {first or 'pass'}; import llrgraph; print(json.dumps(dict(os.environ)))"
    out = subprocess.run([sys.executable, "-c", code], env=_fresh_env(**caller), capture_output=True, text=True,
                         check=True)
    env = json.loads(out.stdout)
    assert {key: env[key] for key in BLAS_THREAD_VARIABLES if key in env} == after


@pytest.mark.parametrize(
    "first, caller, forks",
    [
        ("", {}, True),
        ("", {"OPENBLAS_NUM_THREADS": "1"}, True),
        ("", {"OMP_NUM_THREADS": "1"}, True),
        ("", {"OPENBLAS_NUM_THREADS": "2"}, False),
        # OpenBLAS reads OPENBLAS_NUM_THREADS before OMP_NUM_THREADS
        ("", {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, False),
        # numpy's OpenBLAS loaded at the machine's thread count
        ("import numpy", {}, False),
    ],
)
def test_sweep_forks_seed_workers_only_over_one_blas_thread(first, caller, forks):
    """The sweep's seeds run in forked workers only when OpenBLAS loaded with
    one thread; more would oversubscribe the cores. multiprocessing is
    imported only when a pool runs, so importing the CLI stays as fast."""
    code = (f"import json, sys; {first or 'pass'}; import llrgraph.cli; from llrgraph import runs; "
            "print(json.dumps(['multiprocessing' in sys.modules, runs._seed_workers(10)]))")
    out = subprocess.run([sys.executable, "-c", code], env=_fresh_env(**caller), capture_output=True, text=True,
                         check=True)
    loaded, workers = json.loads(out.stdout)
    assert not loaded
    assert workers == (min(10, len(os.sched_getaffinity(0))) if forks else 1)


def test_every_name_the_benchmark_traces_resolves():
    """perfbench/spans.py times calls at module attributes, some of them
    imports kept only for it (cli.build_llr_graph, cli.heat_kernel_graph,
    runs.sparsify, embedding.symmetrize); each must still be there."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [f"{module}.{name}" for module, name, *_ in spans.WRAPS
               if not hasattr(importlib.import_module(module), name)]
    assert missing == []


# -- synth --------------------------------------------------------------


def test_synth_writes_expected_rows(tmp_path, capsys):
    path = _synth(tmp_path, per=12)
    lines = path.read_text().splitlines()
    assert len(lines) == 1 + 36  # header + 3 subspaces x 12
    assert lines[0] == "f0,f1,f2,label"
    assert "wrote" in capsys.readouterr().out


def test_synth_rerun_is_byte_identical(tmp_path):
    a = _synth(tmp_path, name="a.csv", seed=5)
    b = _synth(tmp_path, name="b.csv", seed=5)
    assert a.read_bytes() == b.read_bytes()
    c = _synth(tmp_path, name="c.csv", seed=6)
    assert a.read_bytes() != c.read_bytes()


def test_synth_custom_mode(tmp_path):
    path = tmp_path / "c.csv"
    code = main(
        ["synth", "--ambient-dim", "5", "--dims", "2,2", "--per-subspace", "8",
         "--output", str(path)]
    )
    assert code == 0
    assert len(path.read_text().splitlines()) == 1 + 16


def test_synth_usage_errors(tmp_path, capsys):
    out = str(tmp_path / "x.csv")
    # negative noise is a validation problem, not a crash
    assert main(["synth", "--preset", "fig1", "--noise", "-1", "--output", out]) == 2
    assert "error:" in capsys.readouterr().err
    # output is required
    assert main(["synth", "--preset", "fig1"]) == 2
    # preset and custom dims conflict
    assert main(["synth", "--preset", "fig1", "--dims", "1,1", "--output", out]) == 2
    # neither preset nor dims
    assert main(["synth", "--per-subspace", "5", "--output", out]) == 2
    # output directory must exist
    assert main(["synth", "--preset", "fig1", "--output", str(tmp_path / "no" / "x.csv")]) == 2
    # bad numbers are rejected during coercion
    assert main(["synth", "--preset", "fig1", "--seed", "one", "--output", out]) == 2


def test_no_command_and_unknown_command(tmp_path):
    assert main([]) == 2
    assert main(["frobnicate"]) == 2
    assert main(["--help"]) == 0


# -- build-graph ----------------------------------------------------------


def test_build_graph_report_and_artifact(tmp_path):
    data = _synth(tmp_path)
    graph = tmp_path / "g.txt"
    report = tmp_path / "r.json"
    code = main(
        ["build-graph", "--input", str(data), "--label-column", "label",
         "--lambda", "0.4", "--k-keep", "5", "--output", str(graph),
         "--report", str(report)]
    )
    assert code == 0
    W = read_graph(graph)
    assert W.shape == (30, 30)
    doc = _load_report(report)
    assert doc["schema_version"] == 1
    assert doc["command"] == "build-graph"
    assert doc["resolved_config"]["lambda"] == 0.4
    assert doc["resolved_config"]["k_keep"] == 5
    assert doc["resolved_config"]["d_dict"] == "auto"
    assert doc["derived"]["d_dict"] == 29
    assert doc["metrics"]["n"] == 30
    assert doc["metrics"]["nnz"] == W.nnz
    assert 0.0 <= doc["metrics"]["intra_class_edge_mass"] <= 1.0
    assert doc["artifacts"] == {"graph": str(graph)}
    assert doc["seed"] is None
    assert doc["timings"] is None


def test_build_graph_usage_errors(tmp_path, capsys):
    data = _synth(tmp_path)
    out = str(tmp_path / "g.txt")
    assert main(["build-graph", "--input", str(tmp_path / "nope.csv"), "--output", out]) == 2
    assert "file not found" in capsys.readouterr().err
    assert main(["build-graph", "--input", str(data), "--lambda", "1.5", "--output", out]) == 2
    assert main(["build-graph", "--input", str(data), "--lambda", "1.0", "--output", out]) == 2
    assert main(["build-graph", "--input", str(data), "--k-keep", "0", "--output", out]) == 2
    # k_keep larger than the dictionary is caught before computation
    assert main(["build-graph", "--input", str(data), "--k-keep", "40", "--output", out]) == 2
    # malformed CSV cells are configuration problems
    bad = tmp_path / "bad.csv"
    bad.write_text("f0,f1\n1.0,oops\n")
    code = main(["build-graph", "--input", str(bad), "--output", out])
    assert code == 2
    assert "row 2" in capsys.readouterr().err


@pytest.mark.parametrize(
    "header, command, message",
    [
        # one column too many, once an IndexError with exit 1
        ("f0,f1,f2,label", ["cluster", "--clusters", "2"], "h.csv: ragged row 1: expected 3 cells, got 4"),
        # one too few, once read as labels taken from the second data column
        ("f0,label", ["build-graph"], "h.csv: ragged row 1: expected 3 cells, got 2"),
    ],
)
def test_csv_header_of_another_width_exits_two(tmp_path, capsys, header, command, message):
    data = tmp_path / "h.csv"
    data.write_text(header + "\n" + "".join(f"{i}.0,{i % 7}.5,{i % 3}\n" for i in range(30)))
    out = tmp_path / "o.txt"
    assert main(command + ["--input", str(data), "--label-column", "label", "--output", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_build_graph_without_edge_mass_writes_no_graph(tmp_path, capsys):
    # At sigma 1e-300 every heat kernel weight is 0.0, so the labelled
    # graph has no edge mass to score.
    data = _synth(tmp_path)
    out = tmp_path / "g.txt"
    assert main(["build-graph", "--input", str(data), "--label-column", "label", "--method", "heat",
                 "--sigma", "1e-300", "--output", str(out)]) == 1
    assert "graph has no edge mass" in capsys.readouterr().err
    assert not out.exists()


def test_unlabelled_build_graph_without_edge_mass_writes_no_graph(tmp_path, capsys):
    # Without labels there is no edge mass to score, but a graph of 0.0
    # weights is refused all the same: every vertex of it is isolated.
    data = _synth(tmp_path)
    out = tmp_path / "g.txt"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["build-graph", "--input", str(data), "--method", "heat", "--sigma", "1e-300",
                     "--output", str(out)]) == 1
    assert "error: ValueError: graph has no edge mass" in capsys.readouterr().err
    assert not out.exists()


def test_build_graph_lle_equals_llr_at_lambda_zero(tmp_path):
    data = _synth(tmp_path, per=8)
    a, b = tmp_path / "lle.txt", tmp_path / "llr0.txt"
    assert main(["build-graph", "--input", str(data), "--method", "lle",
                 "--k-nn", "5", "--output", str(a)]) == 0
    assert main(["build-graph", "--input", str(data), "--method", "llr",
                 "--lambda", "0", "--k-keep", "5", "--d-dict", "5",
                 "--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_build_graph_pca_derived(tmp_path):
    data = _synth(tmp_path)
    graph = tmp_path / "g.txt"
    report = tmp_path / "r.json"
    assert main(["build-graph", "--input", str(data), "--label-column", "label",
                 "--pca-energy", "1.0", "--output", str(graph), "--report", str(report)]) == 0
    doc = _load_report(report)
    assert doc["derived"]["pca_dim"] == 3
    assert doc["resolved_config"]["pca_energy"] == 1.0


# -- cluster --------------------------------------------------------------


def test_cluster_dataset_mode_scores(tmp_path):
    data = _synth(tmp_path, per=15)
    labels = tmp_path / "pred.txt"
    report = tmp_path / "r.json"
    code = main(
        ["cluster", "--input", str(data), "--label-column", "label",
         "--clusters", "3", "--restarts", "5", "--seed", "1",
         "--output", str(labels), "--report", str(report)]
    )
    assert code == 0
    pred = read_labels(labels)
    assert pred.shape == (45,)
    doc = _load_report(report)
    assert doc["seed"] == 1
    for key in ("ac", "nmi", "intra_class_edge_mass"):
        assert 0.0 <= doc["metrics"][key] <= 1.0
    # dataset mode trims graph-mode keys from the resolved config
    assert "graph" not in doc["resolved_config"]
    assert "truth_labels" not in doc["resolved_config"]


def test_cluster_graph_mode_with_truth(tmp_path):
    data = _synth(tmp_path, per=15)
    graph = tmp_path / "g.txt"
    assert main(["build-graph", "--input", str(data), "--label-column", "label",
                 "--output", str(graph)]) == 0
    # truth labels straight from the generator layout
    truth = tmp_path / "truth.txt"
    truth.write_text("".join(f"{i // 15}\n" for i in range(45)))
    labels = tmp_path / "pred.txt"
    report = tmp_path / "r.json"
    code = main(
        ["cluster", "--graph", str(graph), "--truth-labels", str(truth),
         "--clusters", "3", "--output", str(labels), "--report", str(report)]
    )
    assert code == 0
    doc = _load_report(report)
    assert "ac" in doc["metrics"] and "nmi" in doc["metrics"]
    # graph mode trims construction keys from the resolved config
    assert "lambda" not in doc["resolved_config"]
    assert "input" not in doc["resolved_config"]


def test_cluster_usage_errors(tmp_path, capsys):
    data = _synth(tmp_path, per=5)
    graph = tmp_path / "g.txt"
    assert main(["build-graph", "--input", str(data), "--output", str(graph)]) == 0
    out = str(tmp_path / "pred.txt")
    # both or neither input source
    assert main(["cluster", "--clusters", "3", "--output", out]) == 2
    assert main(["cluster", "--input", str(data), "--graph", str(graph),
                 "--clusters", "3", "--output", out]) == 2
    # graph-construction flags are rejected in graph mode
    code = main(["cluster", "--graph", str(graph), "--lambda", "0.3",
                 "--clusters", "3", "--output", out])
    assert code == 2
    assert "no effect" in capsys.readouterr().err
    # truth labels belong to graph mode only
    truth = tmp_path / "t.txt"
    truth.write_text("0\n" * 15)
    assert main(["cluster", "--input", str(data), "--truth-labels", str(truth),
                 "--clusters", "3", "--output", out]) == 2
    # label count must match the graph
    short = tmp_path / "short.txt"
    short.write_text("0\n1\n")
    assert main(["cluster", "--graph", str(graph), "--truth-labels", str(short),
                 "--clusters", "3", "--output", out]) == 2
    # more clusters than samples
    assert main(["cluster", "--graph", str(graph), "--clusters", "99",
                 "--output", out]) == 2


def test_cluster_runtime_failure_exits_one(tmp_path, capsys):
    # well-formed graph file with an isolated vertex: validation passes,
    # the spectral stage fails, exit code 1
    graph = tmp_path / "g.txt"
    graph.write_text("llr-graph v1 n=3 sym=1\n0 1 1.0\n")
    code = main(["cluster", "--graph", str(graph), "--clusters", "2",
                 "--output", str(tmp_path / "pred.txt")])
    assert code == 1
    assert "isolated" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["build-graph", "--method", "heat", "--k-nn", "4", "--output", "g.txt"],
        ["cluster", "--clusters", "2", "--d-dict", "4", "--k-keep", "2", "--output", "p.txt"],
    ],
)
def test_distance_beyond_the_float_range_exits_one_naming_the_samples(tmp_path, monkeypatch, capsys, argv):
    # Rows 0 and 1 lie 2e308 apart, and k = n - 1 makes them neighbours.
    monkeypatch.chdir(tmp_path)
    Path("big.csv").write_text("f0,f1,label\n1e308,0,0\n-1e308,0,0\n0,0,1\n1,0,1\n0,1,1\n")
    code = main(argv + ["--input", "big.csv", "--label-column", "label", "--pca-energy", "none"])
    assert code == 1
    assert "distance between samples 0 and 1 is beyond the float range" in capsys.readouterr().err


@pytest.mark.parametrize("cell, codes", [("0.75", [0, 0]), ("1e100", [0, 1]), ("1e200", [1, 1])],
                         ids=["0.75", "1e100", "1e200"])
def test_a_distance_the_data_scale_erases_is_an_error(tmp_path, monkeypatch, capsys, cell, codes):
    """_FUZZ_CSV with row 3's 0.75 set to cell. At 1e200 the neighbour search's
    common scale, 2**-665, underflows the squared differences of the other
    cells, near 1: 56 of the 60 distances of a 4-nearest table would be 0, the
    llr graph would be built from neighbours in index order and the auto sigma
    would be 0. The search raises instead; up to 1e100 it raises nothing (the
    heat graph then isolates the far sample, a failure of its own)."""
    monkeypatch.chdir(tmp_path)
    rows = list(_FUZZ_CSV)
    rows[3] = rows[3].replace("0.75", cell)
    Path("d.csv").write_text("\n".join(rows) + "\n")
    X = load_csv("d.csv", label_column="label").X
    underflow = "distance between samples 0 and 1 underflows at the data's scale"
    if cell == "1e200":
        with pytest.raises(ValueError, match=underflow):
            neighbour_table(X, 4)
    else:
        assert np.count_nonzero(neighbour_table(X, 4)[1] == 0) == 0
    runs = [
        ["build-graph", "--method", "llr", "--k-keep", "4", "--pca-energy", "none", "--output", "g.txt"],
        ["cluster", "--method", "heat", "--clusters", "2", "--restarts", "2", "--k-nn", "4", "--output", "p.txt"],
    ]
    for argv, code in zip(runs, codes):
        capsys.readouterr()
        assert main(argv + ["--input", "d.csv", "--label-column", "label"]) == code
        assert (underflow in capsys.readouterr().err) == (cell == "1e200")


@pytest.mark.parametrize(
    "body, message",
    [
        ("0 1 1.0\n0 2 nan\n1 2 1.0\n", "g.txt:3: weight must be finite"),
        ("0 1 1.0\n0 2 1.0\n1 2 -1.0\n", "g.txt: edge (1, 2) has negative weight -1.0"),
        ("0 1 1.0\n0 1 1.0\n1 2 1.0\n", "g.txt:3: edge (0, 1) after (0, 1): lines must be unique and sorted by (i, j)"),
        ("0 2 1.0\n0 1 1.0\n1 2 1.0\n", "g.txt:3: edge (0, 1) after (0, 2)"),
        ("0 1 x\n1 2 1.0\n", "g.txt:2: expected 'i j w' with integer i, j and numeric w"),
    ],
)
def test_cluster_malformed_graph_file_exits_two(tmp_path, capsys, body, message):
    graph = tmp_path / "g.txt"
    graph.write_text("llr-graph v1 n=3 sym=1\n" + body)
    code = main(["cluster", "--graph", str(graph), "--clusters", "2",
                 "--output", str(tmp_path / "pred.txt")])
    assert code == 2
    assert message in capsys.readouterr().err


def test_cluster_graph_conflicts_name_file_and_line(tmp_path, capsys):
    graph = tmp_path / "g.txt"
    graph.write_text("llr-graph v1 n=3 sym=1\n0 1 1.0\n\n0 2 1.0\n1 2 -2.0\n")
    out = str(tmp_path / "pred.txt")
    assert main(["cluster", "--graph", str(graph), "--clusters", "2", "--output", out]) == 2
    assert "g.txt: edge (1, 2) has negative weight -2.0 (" + str(graph) + ":5)" in capsys.readouterr().err
    graph.write_text("llr-graph v1 n=3 sym=1\n0 1 1.0\n0 2 1.0\n")
    assert main(["cluster", "--graph", str(graph), "--clusters", "4", "--output", out]) == 2
    assert "g.txt:1: the graph has n=3 nodes, fewer than --clusters 4" in capsys.readouterr().err
    truth = tmp_path / "t.txt"
    for text, message in (("0\n\n1\n", "t.txt:4: got 2 labels"), ("0\n1\n\n1\n0\n", "t.txt:5: got 4 labels")):
        truth.write_text(text)
        assert main(["cluster", "--graph", str(graph), "--truth-labels", str(truth),
                     "--clusters", "2", "--output", out]) == 2
        assert message + " for a graph on 3 nodes" in capsys.readouterr().err


def test_cluster_malformed_truth_labels_exit_two(tmp_path, capsys):
    graph = tmp_path / "g.txt"
    graph.write_text("llr-graph v1 n=3 sym=1\n0 1 1.0\n0 2 1.0\n1 2 0.0\n")
    truth = tmp_path / "t.txt"
    truth.write_text("0\nzero\n1\n")
    code = main(["cluster", "--graph", str(graph), "--truth-labels", str(truth),
                 "--clusters", "2", "--output", str(tmp_path / "pred.txt")])
    assert code == 2
    assert "t.txt:2: expected an integer label" in capsys.readouterr().err


# -- embed-classify -------------------------------------------------------


def test_embed_classify_report_and_artifacts(tmp_path):
    data = _synth(tmp_path, per=30)
    proj = tmp_path / "P.csv"
    pred = tmp_path / "pred.txt"
    report = tmp_path / "r.json"
    code = main(
        ["embed-classify", "--input", str(data), "--label-column", "label",
         "--method", "npe", "--embed-dim", "2", "--pca-energy", "none",
         "--seed", "0", "--projection-out", str(proj), "--pred-out", str(pred),
         "--report", str(report)]
    )
    assert code == 0
    doc = _load_report(report)
    assert 0.0 <= doc["metrics"]["accuracy"] <= 1.0
    assert doc["metrics"]["n_train"] + doc["metrics"]["n_test"] == 90
    assert doc["derived"]["pca_dim"] == 3
    assert doc["derived"]["d_dict"] == doc["metrics"]["n_train"] - 1
    assert doc["resolved_config"]["pca_energy"] is None
    # lpp-only keys are trimmed for npe runs
    assert "k_nn" not in doc["resolved_config"]
    assert doc["artifacts"] == {"projection": str(proj), "predictions": str(pred)}
    P = np.loadtxt(proj, delimiter=",")
    assert P.shape == (3, 2)
    assert read_labels(pred).shape[0] == doc["metrics"]["n_test"]


@pytest.mark.parametrize("method", ["npe", "lpp"])
@pytest.mark.parametrize("factor", [2.0**512, 1e154], ids=["2^512", "1e154"])
def test_embed_classify_on_data_whose_squares_leave_the_float_range(tmp_path, method, factor):
    """NPE and LPP form their pencils from X scaled into [0.5, 1) by a power of
    two, so fig1 data scaled by 2^512 or 1e154 predicts as the unscaled data does."""
    data = _synth(tmp_path, per=20)
    ds = load_csv(data, "label")
    save_csv(tmp_path / "big.csv", LabeledDataset(ds.X * factor, ds.labels, ds.label_names))
    predictions = []
    for name in ("data.csv", "big.csv"):
        pred = tmp_path / f"{name}.txt"
        assert main(["embed-classify", "--input", str(tmp_path / name), "--label-column", "label", "--method", method,
                     "--embed-dim", "2", "--pca-energy", "none", "--pred-out", str(pred)]) == 0
        predictions.append(pred.read_bytes())
    assert predictions[0] == predictions[1]


@pytest.mark.parametrize("factor", [2.0**600, 1e200], ids=["2^600", "1e200"])
def test_pca_on_data_whose_squares_leave_the_float_range(tmp_path, factor):
    """pca_fit forms its covariance from unit_scale(X), so with PCA on, fig1
    data scaled by 2^600 or 1e200 predicts as the unscaled data does, and
    build-graph gives the same graph: byte for byte at 2^600, and with the same
    edges at 1e200, where the scaled cells round differently."""
    data = _synth(tmp_path, per=20)
    ds = load_csv(data, "label")
    save_csv(tmp_path / "big.csv", LabeledDataset(ds.X * factor, ds.labels, ds.label_names))
    for name in ("data", "big"):
        csv = ["--input", str(tmp_path / f"{name}.csv"), "--label-column", "label"]
        for method in ("npe", "lpp"):
            assert main(["embed-classify", *csv, "--method", method, "--embed-dim", "2",
                         "--pred-out", str(tmp_path / f"{name}.{method}.txt")]) == 0
        assert main(["build-graph", *csv, "--pca-energy", "0.98", "--output", str(tmp_path / f"{name}.g.txt")]) == 0
    for method in ("npe", "lpp"):
        assert (tmp_path / f"data.{method}.txt").read_bytes() == (tmp_path / f"big.{method}.txt").read_bytes()
    if factor == 2.0**600:
        assert (tmp_path / "data.g.txt").read_bytes() == (tmp_path / "big.g.txt").read_bytes()
    W, W_big = read_graph(tmp_path / "data.g.txt"), read_graph(tmp_path / "big.g.txt")
    assert np.array_equal(W.indptr, W_big.indptr) and np.array_equal(W.indices, W_big.indices)
    assert np.allclose(W.data, W_big.data, rtol=1e-12, atol=0.0)


def test_embed_classify_replay_keeps_no_pca(tmp_path):
    """A report records --pca-energy none as null, which a replay must read
    as no PCA, not as the command's default of 0.98."""
    data = tmp_path / "c.csv"
    assert main(["synth", "--ambient-dim", "6", "--dims", "2,3", "--per-subspace", "15", "--output", str(data)]) == 0
    pred, report = tmp_path / "pred.txt", tmp_path / "r1.json"
    assert main(["embed-classify", "--input", str(data), "--label-column", "label", "--method", "npe",
                 "--embed-dim", "2", "--pca-energy", "none", "--pred-out", str(pred), "--report", str(report)]) == 0
    original = pred.read_bytes()
    replay = tmp_path / "r2.json"
    assert main(["embed-classify", "--config", str(report), "--report", str(replay)]) == 0
    assert _load_report(report)["derived"]["pca_dim"] == 6
    assert replay.read_bytes() == report.read_bytes()
    assert pred.read_bytes() == original


def test_embed_classify_lpp_runs(tmp_path):
    data = _synth(tmp_path, per=20)
    report = tmp_path / "r.json"
    code = main(
        ["embed-classify", "--input", str(data), "--label-column", "label",
         "--method", "lpp", "--embed-dim", "2", "--k-nn", "6",
         "--report", str(report)]
    )
    assert code == 0
    doc = _load_report(report)
    assert "lambda" not in doc["resolved_config"]
    assert doc["resolved_config"]["k_nn"] == 6


def test_embed_classify_usage_errors(tmp_path, capsys):
    data = _synth(tmp_path, per=10)
    base = ["embed-classify", "--input", str(data), "--label-column", "label",
            "--embed-dim", "2"]
    # method-irrelevant flags are rejected
    assert main(base + ["--method", "npe", "--k-nn", "5"]) == 2
    assert "no effect" in capsys.readouterr().err
    assert main(base + ["--method", "lpp", "--lambda", "0.3"]) == 2
    # split fraction bounds
    assert main(base + ["--train-fraction", "1.0"]) == 2
    # ceil(0.95 * 10) = 10 puts every sample of each class in train
    capsys.readouterr()
    assert main(base + ["--train-fraction", "0.95"]) == 2
    assert "train_fraction 0.95 leaves no test sample" in capsys.readouterr().err
    # label column must exist
    assert main(["embed-classify", "--input", str(data), "--label-column",
                 "class", "--embed-dim", "2"]) == 2


def test_embed_classify_dim_too_large_fails(tmp_path, capsys):
    data = _synth(tmp_path, per=10)
    code = main(["embed-classify", "--input", str(data), "--label-column", "label",
                 "--embed-dim", "9", "--pca-energy", "none"])
    assert code == 1
    assert "exceeds available dimension" in capsys.readouterr().err


def test_embed_classify_single_sample_class_exits_two(tmp_path, capsys):
    # rows are grouped by class; the cut keeps one row of class 2
    data = _synth(tmp_path, per=10)
    lines = data.read_text().splitlines()
    data.write_text("\n".join(lines[:22]) + "\n")
    code = main(["embed-classify", "--input", str(data), "--label-column", "label",
                 "--embed-dim", "2"])
    assert code == 2
    assert "class 2 has 1 sample(s)" in capsys.readouterr().err


# -- eval -----------------------------------------------------------------


def test_eval_small_grid(tmp_path, capsys):
    report = tmp_path / "r.json"
    code = main(
        ["eval", "--preset", "fig1", "--per-subspace", "8",
         "--methods", "llr,heat", "--lambdas", "0.3", "--k-values", "4",
         "--seeds", "0,1", "--restarts", "3", "--report", str(report)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "mean_ac" in out and "llr" in out and "heat" in out
    doc = _load_report(report)
    assert len(doc["metrics"]["cells"]) == 4  # (1 lambda x 1 k + 1 k) x 2 seeds
    assert doc["resolved_config"]["clusters"] == 3  # defaulted from the preset
    assert doc["seed"] == [0, 1]
    assert set(doc["metrics"]["summary"]) == {"llr", "heat"}


def test_eval_input_mode(tmp_path):
    data = _synth(tmp_path, per=8)
    report = tmp_path / "r.json"
    code = main(
        ["eval", "--input", str(data), "--label-column", "label",
         "--clusters", "3", "--methods", "heat", "--k-values", "4",
         "--seeds", "0", "--restarts", "3", "--report", str(report)]
    )
    assert code == 0
    doc = _load_report(report)
    assert len(doc["metrics"]["cells"]) == 1
    assert "preset" not in doc["resolved_config"]


def test_eval_usage_errors(tmp_path, capsys):
    data = _synth(tmp_path, per=5)
    assert main(["eval"]) == 2
    assert main(["eval", "--preset", "fig1", "--input", str(data),
                 "--label-column", "label"]) == 2
    assert main(["eval", "--preset", "fig1", "--lambdas", ""]) == 2
    assert main(["eval", "--preset", "fig1", "--lambdas", "0.5,1.2"]) == 2
    assert main(["eval", "--preset", "fig1", "--methods", "llr,ward"]) == 2
    assert main(["eval", "--input", str(data), "--label-column", "label"]) == 2  # no clusters
    assert main(["eval", "--input", str(data), "--clusters", "3"]) == 2  # no label column
    # preset-mode flags rejected with --input
    code = main(["eval", "--input", str(data), "--label-column", "label",
                 "--clusters", "3", "--per-subspace", "9"])
    assert code == 2
    assert "no effect" in capsys.readouterr().err


# -- config files and replay ----------------------------------------------


def test_config_file_with_flag_override(tmp_path):
    data = _synth(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lambda": 0.7, "k_keep": 4}))
    graph = tmp_path / "g.txt"
    report = tmp_path / "r.json"
    code = main(["build-graph", "--input", str(data), "--config", str(cfg),
                 "--k-keep", "6", "--output", str(graph), "--report", str(report)])
    assert code == 0
    doc = _load_report(report)
    assert doc["resolved_config"]["lambda"] == 0.7  # from config
    assert doc["resolved_config"]["k_keep"] == 6  # flag wins


def test_config_unknown_key_rejected(tmp_path, capsys):
    data = _synth(tmp_path, per=5)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lambda": 0.7, "bandwidth": 2.0}))
    code = main(["build-graph", "--input", str(data), "--config", str(cfg),
                 "--output", str(tmp_path / "g.txt")])
    assert code == 2
    assert "unknown config keys" in capsys.readouterr().err

    # An embed-classify report from before --stratified and --npe-weights
    # were removed replays once those two keys are deleted from it.
    report = tmp_path / "r.json"
    assert main(["embed-classify", "--input", str(data), "--label-column", "label", "--embed-dim", "2",
                 "--report", str(report)]) == 0
    doc = _load_report(report)
    old = tmp_path / "old.json"
    old.write_text(json.dumps({**doc, "resolved_config": {**doc["resolved_config"], "stratified": True,
                                                          "npe_weights": "coefficients"}}))
    capsys.readouterr()
    assert main(["embed-classify", "--config", str(old)]) == 2
    assert "unknown config keys for embed-classify: npe_weights, stratified" in capsys.readouterr().err
    old.write_text(json.dumps(doc))
    assert main(["embed-classify", "--config", str(old)]) == 0


def test_config_errors(tmp_path):
    data = _synth(tmp_path, per=5)
    out = str(tmp_path / "g.txt")
    assert main(["build-graph", "--input", str(data),
                 "--config", str(tmp_path / "missing.json"), "--output", out]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["build-graph", "--input", str(data), "--config", str(bad),
                 "--output", out]) == 2
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    assert main(["build-graph", "--input", str(data), "--config", str(arr),
                 "--output", out]) == 2


@pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"], ids=["plain", "bom"])
@pytest.mark.parametrize("kind", ["csv", "graph", "labels", "config"])
def test_a_byte_that_is_not_utf8_exits_two_naming_file_and_line(tmp_path, monkeypatch, capsys, kind, bom):
    """Every input file is read by data.read_text: a byte that is not UTF-8
    exits 2 naming the file and its line, which a byte-order mark does not shift."""
    monkeypatch.chdir(tmp_path)
    Path("d.csv").write_text("\n".join(_FUZZ_CSV) + "\n")
    Path("g.txt").write_text("\n".join(_FUZZ_GRAPH) + "\n")
    Path("t.txt").write_text("\n".join(_FUZZ_LABELS) + "\n")
    Path("c.json").write_text('{\n"k_keep": 4,\n"lambda": 0.5\n}\n')
    csv_run = ["build-graph", "--input", "d.csv", "--label-column", "label", "--output", "out.txt"]
    graph_run = ["cluster", "--graph", "g.txt", "--clusters", "2", "--output", "out.txt"]
    name, argv = {
        "csv": ("d.csv", csv_run),
        "graph": ("g.txt", graph_run),
        "labels": ("t.txt", graph_run + ["--truth-labels", "t.txt"]),
        "config": ("c.json", csv_run + ["--config", "c.json"]),
    }[kind]
    lines = Path(name).read_bytes().split(b"\n")
    lines[2] = lines[2][:1] + b"\xff" + lines[2][1:]
    Path(name).write_bytes(bom + b"\n".join(lines))
    assert main(argv) == 2
    assert f"{name}:3: byte 0xff is not UTF-8 text" in capsys.readouterr().err
    assert not Path("out.txt").exists()


def test_a_config_file_with_a_byte_order_mark_replays(tmp_path):
    """A report that an editor saved with a byte-order mark still replays:
    data.read_text drops the mark, as it does for every input file."""
    data = _synth(tmp_path, per=10)
    report = tmp_path / "r.json"
    graph = tmp_path / "g.txt"
    assert main(["build-graph", "--input", str(data), "--label-column", "label", "--output", str(graph),
                 "--report", str(report)]) == 0
    bom = tmp_path / "bom.json"
    bom.write_bytes(b"\xef\xbb\xbf" + report.read_bytes())
    assert main(["build-graph", "--config", str(bom), "--output", str(tmp_path / "g2.txt")]) == 0
    assert (tmp_path / "g2.txt").read_bytes() == graph.read_bytes()


_NAN = float("nan")

# For one parameter of each kind: values as a flag gives them (strings) and as
# a config file gives them (JSON values), each with the value it coerces to or
# the error it gives.
COERCIONS = {
    ("synth", "ambient_dim"): [
        ("3", 3), (" 7 ", 7), ("-1", -1), (3, 3), (2**70, 2**70),
        (True, InputError("--ambient-dim: expected an integer, got True")),
        (False, InputError("--ambient-dim: expected an integer, got False")),
        (1.5, InputError("--ambient-dim: expected an integer, got 1.5")),
        (_NAN, InputError("--ambient-dim: expected an integer, got nan")),
        ("1.5", InputError("--ambient-dim: expected an integer, got '1.5'")),
        ("1e3", InputError("--ambient-dim: expected an integer, got '1e3'")),
        ("auto", InputError("--ambient-dim: expected an integer, got 'auto'")),
        ("", InputError("--ambient-dim: expected an integer, got ''")),
        ([1], InputError("--ambient-dim: expected an integer, got [1]")),
        ({"x": 1}, InputError("--ambient-dim: expected an integer, got {'x': 1}")),
    ],
    ("synth", "noise"): [
        ("1.5", 1.5), (" 7 ", 7.0), ("1e3", 1000.0), ("nan", _NAN), ("inf", float("inf")),
        (3, 3.0), (1.5, 1.5), (_NAN, _NAN), (2**70, float(2**70)),
        (True, InputError("--noise: expected a number, got True")),
        ("auto", InputError("--noise: expected a number, got 'auto'")),
        ("none", InputError("--noise: expected a number, got 'none'")),
        ("", InputError("--noise: expected a number, got ''")),
        ([0.5], InputError("--noise: expected a number, got [0.5]")),
        ({"x": 1}, InputError("--noise: expected a number, got {'x': 1}")),
    ],
    ("build-graph", "sigma"): [
        ("auto", "auto"), ("1.5", 1.5), ("nan", _NAN), (2, 2.0), (2**70, float(2**70)),
        (True, InputError("--sigma: expected a number, got True")),
        ("none", InputError("--sigma: expected a number, got 'none'")),
        ("", InputError("--sigma: expected a number, got ''")),
        (["auto"], InputError("--sigma: expected a number, got ['auto']")),
        ({"x": 1}, InputError("--sigma: expected a number, got {'x': 1}")),
    ],
    ("build-graph", "d_dict"): [
        ("auto", "auto"), ("5", 5), (5, 5), (2**70, 2**70),
        (False, InputError("--d-dict: expected an integer, got False")),
        (5.0, InputError("--d-dict: expected an integer, got 5.0")),
        (_NAN, InputError("--d-dict: expected an integer, got nan")),
        ("none", InputError("--d-dict: expected an integer, got 'none'")),
        ("", InputError("--d-dict: expected an integer, got ''")),
        ([5], InputError("--d-dict: expected an integer, got [5]")),
        ({"x": 1}, InputError("--d-dict: expected an integer, got {'x': 1}")),
    ],
    ("build-graph", "pca_energy"): [
        ("none", None), ("0.9", 0.9), (1, 1.0), (_NAN, _NAN), (2**70, float(2**70)),
        (True, InputError("--pca-energy: expected a number, got True")),
        ("auto", InputError("--pca-energy: expected a number, got 'auto'")),
        ("", InputError("--pca-energy: expected a number, got ''")),
        ([0.9], InputError("--pca-energy: expected a number, got [0.9]")),
        ({"x": 1}, InputError("--pca-energy: expected a number, got {'x': 1}")),
    ],
    ("eval", "seeds"): [
        ("0,1", [0, 1]), (" 4 , 8 ", [4, 8]), ("3", [3]), ([1, "2"], [1, 2]), ([], []), ([2**70], [2**70]),
        ("1,,2", InputError("--seeds: expected a comma-separated list, got '1,,2'")),
        ("", InputError("--seeds: expected a comma-separated list, got ''")),
        (3, InputError("--seeds: expected a comma-separated list, got 3")),
        (True, InputError("--seeds: expected a comma-separated list, got True")),
        ([True], InputError("--seeds: expected an integer, got True")),
        ([0.5, "x"], InputError("--seeds: expected an integer, got 0.5")),
        ("1,nan", InputError("--seeds: expected an integer, got 'nan'")),
        ("auto", InputError("--seeds: expected an integer, got 'auto'")),
        ({"x": 1}, InputError("--seeds: expected a comma-separated list, got {'x': 1}")),
    ],
    ("eval", "lambdas"): [
        ("0.1, 0.2", [0.1, 0.2]), ([1, "2"], [1.0, 2.0]), ("nan", [_NAN]), ([_NAN], [_NAN]), ([], []),
        ([2**70], [float(2**70)]),
        ([True], InputError("--lambdas: expected a number, got True")),
        ([0.5, "x"], InputError("--lambdas: expected a number, got 'x'")),
        ("none", InputError("--lambdas: expected a number, got 'none'")),
        (0.5, InputError("--lambdas: expected a comma-separated list, got 0.5")),
        ("", InputError("--lambdas: expected a comma-separated list, got ''")),
        ({"x": 1}, InputError("--lambdas: expected a comma-separated list, got {'x': 1}")),
    ],
    ("eval", "methods"): [
        ("llr,heat", ["llr", "heat"]), (" lle ", ["lle"]), (["heat", "llr"], ["heat", "llr"]), ([], []),
        (["llr", 1], InputError("--methods: expected one of llr, heat, lle, got '1'")),
        ([True], InputError("--methods: expected one of llr, heat, lle, got 'True'")),
        ("llr,x", InputError("--methods: expected one of llr, heat, lle, got 'x'")),
        ("auto", InputError("--methods: expected one of llr, heat, lle, got 'auto'")),
        ("llr,,heat", InputError("--methods: expected a comma-separated list, got 'llr,,heat'")),
        ("", InputError("--methods: expected a comma-separated list, got ''")),
        (False, InputError("--methods: expected a comma-separated list, got False")),
        ({"x": 1}, InputError("--methods: expected a comma-separated list, got {'x': 1}")),
    ],
    ("build-graph", "method"): [
        ("heat", "heat"),
        ("x", InputError("--method: expected one of llr, heat, lle, got 'x'")),
        ("none", InputError("--method: expected one of llr, heat, lle, got 'none'")),
        ("", InputError("--method: expected one of llr, heat, lle, got ''")),
        (1, InputError("--method: expected one of llr, heat, lle, got 1")),
        (True, InputError("--method: expected one of llr, heat, lle, got True")),
        (["llr"], InputError("--method: expected one of llr, heat, lle, got ['llr']")),
        ({"x": 1}, InputError("--method: expected one of llr, heat, lle, got {'x': 1}")),
    ],
    ("build-graph", "input"): [
        ("d.csv", "d.csv"), ("none", "none"),
        ("", InputError("--input: expected a path, got ''")),
        (1, InputError("--input: expected a path, got 1")),
        (True, InputError("--input: expected a path, got True")),
        (["d.csv"], InputError("--input: expected a path, got ['d.csv']")),
        ({"x": 1}, InputError("--input: expected a path, got {'x': 1}")),
    ],
    ("build-graph", "output"): [
        ("g.txt", "g.txt"), ("auto", "auto"),
        ("", InputError("--output: expected a path, got ''")),
        (2**70, InputError("--output: expected a path, got 1180591620717411303424")),
        (False, InputError("--output: expected a path, got False")),
        ({"x": 1}, InputError("--output: expected a path, got {'x': 1}")),
    ],
    ("build-graph", "label_column"): [
        ("label", "label"), ("3", 3), ("-1", -1), (2, 2), (2**70, 2**70), (" 7 ", " 7 "), ("1.5", "1.5"),
        ("none", "none"),
        (True, InputError("--label-column: expected a column name or index, got True")),
        ("", InputError("--label-column: expected a column name or index, got ''")),
        (1.5, InputError("--label-column: expected a column name or index, got 1.5")),
        (_NAN, InputError("--label-column: expected a column name or index, got nan")),
        ([0], InputError("--label-column: expected a column name or index, got [0]")),
        ({"x": 1}, InputError("--label-column: expected a column name or index, got {'x': 1}")),
    ],
}


def test_coercion_of_each_kind_from_flags_and_config_values():
    from llrgraph.cli import COMMANDS, _coerce

    params = {(name, p.key): p for name, cmd in COMMANDS.items() for p in cmd.params}
    assert {params[key].kind for key in COERCIONS} == {p.kind for p in params.values()}  # every kind
    for key, cases in COERCIONS.items():
        p = params[key]
        for raw, expected in cases:
            if isinstance(expected, InputError):
                with pytest.raises(InputError) as caught:
                    _coerce(p, raw)
                assert str(caught.value) == str(expected), (key, raw)
            else:
                assert repr(_coerce(p, raw)) == repr(expected), (key, raw)  # repr tells 3 from 3.0, and nan from nan


def test_report_replay_reproduces_run(tmp_path):
    """A report doubles as a config file; replaying it reproduces the original
    metrics and artifacts exactly."""
    data = _synth(tmp_path, per=15)
    labels1 = tmp_path / "p1.txt"
    report1 = tmp_path / "r1.json"
    args = ["cluster", "--input", str(data), "--label-column", "label",
            "--clusters", "3", "--restarts", "5", "--seed", "2",
            "--output", str(labels1), "--report", str(report1)]
    assert main(args) == 0

    labels2 = tmp_path / "p2.txt"
    report2 = tmp_path / "r2.json"
    assert main(["cluster", "--config", str(report1), "--output", str(labels2),
                 "--report", str(report2)]) == 0
    assert labels1.read_bytes() == labels2.read_bytes()
    d1, d2 = _load_report(report1), _load_report(report2)
    assert d1["metrics"] == d2["metrics"]
    # configs agree except for the overridden output path
    c1, c2 = d1["resolved_config"], d2["resolved_config"]
    assert {k: v for k, v in c1.items() if k != "output"} == {
        k: v for k, v in c2.items() if k != "output"
    }


def test_report_replay_wrong_command_rejected(tmp_path, capsys):
    data = _synth(tmp_path, per=5)
    report = tmp_path / "r.json"
    assert main(["build-graph", "--input", str(data),
                 "--output", str(tmp_path / "g.txt"), "--report", str(report)]) == 0
    code = main(["cluster", "--config", str(report), "--clusters", "3",
                 "--output", str(tmp_path / "p.txt")])
    assert code == 2
    assert "report for command" in capsys.readouterr().err


def test_timings_opt_in(tmp_path):
    data = _synth(tmp_path, per=5)
    r_plain = tmp_path / "r1.json"
    r_timed = tmp_path / "r2.json"
    assert main(["build-graph", "--input", str(data),
                 "--output", str(tmp_path / "g1.txt"), "--report", str(r_plain)]) == 0
    assert main(["build-graph", "--input", str(data), "--timings",
                 "--output", str(tmp_path / "g2.txt"), "--report", str(r_timed)]) == 0
    assert _load_report(r_plain)["timings"] is None
    timed = _load_report(r_timed)["timings"]
    assert set(timed) == {"load", "pca", "graph", "write"}
    assert all(t >= 0 for t in timed.values())


# -- parameter/size conflicts ----------------------------------------------

_EMBED = ["embed-classify", "--input", "{csv}", "--label-column", "label", "--embed-dim", "2"]
_EVAL = ["eval", "--preset", "fig1", "--seeds", "0"]

# Conflicts between a parameter and the sample count: 60 points in the CSV
# (30 in the training split), 150 in the fig1 preset.
SIZE_CONFLICTS = [
    (_EMBED + ["--d-dict", "500"], "d_dict (500) must not exceed n - 1 (29)"),
    (_EMBED + ["--k-keep", "40"], "k_keep (40) must not exceed d_dict (29)"),
    (_EMBED + ["--method", "lpp", "--k-nn", "500"], "k_nn (500) must not exceed n - 1 (29)"),
    (_EVAL + ["--methods", "heat", "--k-values", "200"], "k_nn (200) must not exceed n - 1 (149)"),
    (_EVAL + ["--methods", "llr", "--lambdas", "0.5", "--d-dict", "500"], "d_dict (500) must not exceed n - 1 (149)"),
    (_EVAL + ["--methods", "llr", "--lambdas", "0.5", "--k-values", "400"], "k_keep (400) must not exceed d_dict (149)"),
    (_EVAL + ["--methods", "heat", "--k-values", "4", "--clusters", "151"],
     "clusters k=151 must not exceed the sample count n=150"),
    (["cluster", "--input", "{csv}", "--label-column", "label", "--clusters", "99", "--output", "{dir}/p.txt"],
     "clusters k=99 must not exceed the sample count n=60"),
]


def _argv(tmp_path, template):
    csv = tmp_path / "d.csv"
    if not csv.exists():
        _synth(tmp_path, name="d.csv", per=20)
    graph = tmp_path / "d-graph.txt"
    if any("{graph}" in arg for arg in template) and not graph.exists():
        assert main(["build-graph", "--input", str(csv), "--output", str(graph)]) == 0
    return [arg.format(csv=csv, dir=tmp_path, graph=graph) for arg in template]


@pytest.mark.parametrize("template, message", SIZE_CONFLICTS)
def test_size_conflicts_exit_two(tmp_path, capsys, template, message):
    argv = _argv(tmp_path, template)
    capsys.readouterr()
    assert main(argv) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("template, message", SIZE_CONFLICTS)
def test_size_conflicts_are_found_before_any_computation(tmp_path, monkeypatch, template, message):
    import llrgraph.cli
    import llrgraph.runs

    argv = _argv(tmp_path, template)

    def computed(*args, **kwargs):
        raise RuntimeError("computation started")

    for name in ("llr_graph_family", "build_graph_by_method", "build_llr_coefficients", "build_llr_graph",
                 "heat_kernel_graph", "lle_graph", "pca_fit", "synth_union_of_subspaces"):
        monkeypatch.setattr(llrgraph.runs, name, computed)
    monkeypatch.setattr(llrgraph.cli, "pca_fit", computed)
    assert main(argv) == 2


@pytest.mark.parametrize(
    "template, config, message",
    [
        (["build-graph", "--input", "{csv}", "--method", "heat", "--lambda", "1.5", "--output", "{dir}/g.txt"],
         None, "lambda must lie in [0, 1), got 1.5"),
        (["build-graph", "--input", "{csv}", "--sigma", "0", "--output", "{dir}/g.txt"], None,
         "sigma must be positive, got 0.0"),
        (["build-graph", "--input", "{csv}", "--method", "lle", "--d-dict", "0", "--output", "{dir}/g.txt"], None,
         "d_dict must be >= 1, got 0"),
        (_EVAL + ["--methods", "heat", "--lambdas", "1.5"], None, "lambda must lie in [0, 1), got 1.5"),
        (_EVAL + ["--methods", "heat", "--k-values", "0"], None, "k_nn must be >= 1, got 0"),
        (["embed-classify", "--input", "{csv}", "--label-column", "label", "--embed-dim", "0"], None,
         "embed_dim must be >= 1, got 0"),
        (_EMBED + ["--pca-energy", "1.5"], None, "pca_energy must lie in (0, 1], got 1.5"),
        (_EMBED + ["--method", "lpp"], {"lambda": 1.5}, "lambda must lie in [0, 1), got 1.5"),
        # non-finite values
        (["synth", "--preset", "fig1", "--noise", "nan", "--output", "{dir}/s.csv"], None, "noise must be finite, got nan"),
        (["synth", "--ambient-dim", "3", "--dims", "1,2", "--noise", "inf", "--output", "{dir}/s.csv"], None,
         "noise must be finite, got inf"),
        (["build-graph", "--input", "{csv}", "--epsilon", "nan", "--output", "{dir}/g.txt"], None,
         "epsilon must be finite, got nan"),
        (["build-graph", "--input", "{csv}", "--method", "heat", "--epsilon", "inf", "--output", "{dir}/g.txt"], None,
         "epsilon must be finite, got inf"),
        (["build-graph", "--input", "{csv}", "--method", "heat", "--sigma", "inf", "--output", "{dir}/g.txt"], None,
         "sigma must be finite, got inf"),
        (["build-graph", "--input", "{csv}", "--method", "lle", "--sigma", "inf", "--output", "{dir}/g.txt"], None,
         "sigma must be finite, got inf"),
        (_EMBED + ["--epsilon", "inf"], None, "epsilon must be finite, got inf"),
        (_EMBED + ["--method", "lpp", "--sigma", "inf"], None, "sigma must be finite, got inf"),
        (_EMBED + ["--method", "lpp"], {"epsilon": float("nan")}, "epsilon must be finite, got nan"),
        (_EVAL + ["--methods", "llr", "--lambdas", "0.5", "--epsilon", "nan"], None, "epsilon must be finite, got nan"),
        (_EVAL + ["--methods", "heat", "--noise", "inf"], None, "noise must be finite, got inf"),
        # negative seeds
        (["synth", "--preset", "fig1", "--seed", "-1", "--output", "{dir}/s.csv"], None, "seed must be >= 0, got -1"),
        (["cluster", "--input", "{csv}", "--clusters", "3", "--seed", "-1", "--output", "{dir}/p.txt"], None,
         "seed must be >= 0, got -1"),
        (["cluster", "--graph", "{graph}", "--clusters", "3", "--seed", "-1", "--output", "{dir}/p.txt"], None,
         "seed must be >= 0, got -1"),
        (_EMBED + ["--seed", "-1", "--pred-out", "{dir}/pred.txt"], None, "seed must be >= 0, got -1"),
        (["eval", "--preset", "fig1", "--methods", "heat", "--k-values", "4", "--seeds", "0,-1"], None,
         "seed must be >= 0, got -1"),
        # config values of the mode that does not run
        (["cluster", "--graph", "{graph}", "--clusters", "3", "--output", "{dir}/p.txt"], {"lambda": 1.5},
         "lambda must lie in [0, 1), got 1.5"),
        (["cluster", "--graph", "{graph}", "--clusters", "3", "--output", "{dir}/p.txt"], {"pca_energy": 1.5},
         "pca_energy must lie in (0, 1], got 1.5"),
        (["eval", "--input", "{csv}", "--label-column", "label", "--clusters", "3", "--seeds", "0", "--methods", "heat",
          "--k-values", "4"], {"noise": -1}, "noise must be nonnegative, got -1.0"),
        (["synth", "--preset", "fig1", "--output", "{dir}/s.csv"], {"ambient_dim": 0}, "ambient_dim must be >= 1, got 0"),
        (["synth", "--preset", "fig1", "--output", "{dir}/s.csv"], {"dims": [1, 0]},
         "intrinsic_dim 0 must lie in [1, ambient_dim=1]"),
        # a repeated grid entry, which would run its cells again
        (["eval", "--preset", "fig1", "--seeds", "0,0", "--methods", "heat,heat", "--k-values", "4,4", "--restarts", "2",
          "--report", "{dir}/r.json"], None, "methods lists 'heat' more than once"),
    ],
)
def test_out_of_range_values_exit_two_whether_or_not_the_method_uses_them(tmp_path, capsys, template, config, message):
    argv = _argv(tmp_path, template)
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv += ["--config", str(cfg)]
    before = sorted(tmp_path.iterdir())
    capsys.readouterr()
    assert main(argv) == 2
    assert message in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == before  # nothing written


# -- the mode rule -----------------------------------------------------------

_GRAPH_KEYS = {"method", "lambda", "k_keep", "d_dict", "epsilon", "k_nn", "sigma"}
_EMBED_KEYS = {"input", "label_column", "method", "embed_dim", "train_fraction", "pca_energy", "seed",
               "projection_out", "pred_out"}
_SWEEP_KEYS = {"clusters", "methods", "lambdas", "k_values", "seeds", "d_dict", "epsilon", "sigma", "restarts"}
_OTHER = ["--input", "{csv}"]  # a second data source, for modes chosen by their source

# For each command and mode: a run in that mode, the keys its report records,
# and every flag of the command's other mode, each with a valid value and the
# error it must give. A flag that names the other mode's data source makes
# two sources; any other is rejected as having no effect.
MODES = [
    ("synth", "preset", ["synth", "--preset", "fig1", "--per-subspace", "5", "--output", "{dir}/s.csv"],
     {"preset", "per_subspace", "noise", "seed", "output"},
     [(["--ambient-dim", "3"], None), (["--dims", "1,2"], None)]),
    ("synth", "custom", ["synth", "--ambient-dim", "3", "--dims", "1,2", "--per-subspace", "5", "--output", "{dir}/s.csv"],
     {"ambient_dim", "dims", "per_subspace", "noise", "seed", "output"},
     [(["--preset", "fig1"], "--ambient-dim has no effect in synth preset mode")]),
    ("build-graph", "", ["build-graph", "--input", "{csv}", "--output", "{dir}/g.txt"],
     {"input", "label_column", "pca_energy", "output"} | _GRAPH_KEYS, []),
    ("cluster", "input", ["cluster", "--input", "{csv}", "--clusters", "3", "--restarts", "2", "--output", "{dir}/p.txt"],
     {"input", "label_column", "pca_energy", "clusters", "restarts", "seed", "output"} | _GRAPH_KEYS,
     [(["--graph", "{graph}"], "exactly one of --input and --graph is required"),
      (["--truth-labels", "{dir}/t.txt"], None)]),
    ("cluster", "graph", ["cluster", "--graph", "{graph}", "--clusters", "3", "--restarts", "2", "--output", "{dir}/p.txt"],
     {"graph", "truth_labels", "clusters", "restarts", "seed", "output"},
     [(_OTHER, "exactly one of --input and --graph is required"), (["--label-column", "label"], None),
      (["--pca-energy", "0.9"], None), (["--method", "heat"], None), (["--lambda", "0.3"], None),
      (["--k-keep", "4"], None), (["--d-dict", "10"], None), (["--epsilon", "1e-8"], None), (["--k-nn", "4"], None),
      (["--sigma", "1.0"], None)]),
    ("embed-classify", "npe", _EMBED + ["--method", "npe"],
     _EMBED_KEYS | {"lambda", "k_keep", "d_dict", "epsilon"},
     [(["--k-nn", "4"], None), (["--sigma", "1.0"], None)]),
    ("embed-classify", "lpp", _EMBED + ["--method", "lpp"],
     _EMBED_KEYS | {"k_nn", "sigma"},
     [(["--lambda", "0.3"], None), (["--k-keep", "4"], None), (["--d-dict", "10"], None), (["--epsilon", "1e-8"], None)]),
    ("eval", "input", ["eval", "--input", "{csv}", "--label-column", "label", "--clusters", "3", "--methods", "heat",
                       "--k-values", "4", "--seeds", "0", "--restarts", "2"],
     {"input", "label_column"} | _SWEEP_KEYS,
     [(["--preset", "fig1"], "exactly one of --input and --preset is required"), (["--per-subspace", "9"], None),
      (["--noise", "0.02"], None)]),
    ("eval", "preset", ["eval", "--preset", "fig1", "--per-subspace", "8", "--methods", "heat", "--k-values", "4",
                        "--seeds", "0", "--restarts", "2"],
     {"preset", "per_subspace", "noise"} | _SWEEP_KEYS,
     [(_OTHER, "exactly one of --input and --preset is required"), (["--label-column", "label"], None)]),
]
_MODE_IDS = [f"{command} {mode}".strip() for command, mode, *_ in MODES]


@pytest.mark.parametrize("command, mode, template, keys, others", MODES, ids=_MODE_IDS)
def test_report_records_exactly_the_keys_of_the_mode_that_ran(tmp_path, command, mode, template, keys, others):
    report = tmp_path / "r.json"
    assert main(_argv(tmp_path, template) + ["--report", str(report)]) == 0
    assert set(_load_report(report)["resolved_config"]) == keys


@pytest.mark.parametrize("command, mode, template, keys, others", MODES, ids=_MODE_IDS)
def test_every_flag_of_the_other_mode_exits_two(tmp_path, capsys, command, mode, template, keys, others):
    from llrgraph.cli import COMMANDS

    listed = {flag for extra, _ in others for flag in extra[::2]}
    declared = {p.flag for p in COMMANDS[command].params if p.modes and mode not in p.modes}
    assert listed == declared  # the table above names every one
    for extra, message in others:
        argv = _argv(tmp_path, template + extra)
        capsys.readouterr()
        assert main(argv) == 2, extra
        assert (message or f"{extra[0]} has no effect in {command} {mode} mode") in capsys.readouterr().err


# The stages --timings reports for each command and mode.
STAGES = {
    "synth preset": {"synth", "write"},
    "synth custom": {"synth", "write"},
    "build-graph": {"load", "pca", "graph", "write"},
    "cluster input": {"load", "pca", "graph", "cluster", "write"},
    "cluster graph": {"load", "cluster", "write"},
    "embed-classify npe": {"load", "run", "write"},
    "embed-classify lpp": {"load", "run", "write"},
    "eval input": {"load", "sweep"},
    "eval preset": {"sweep"},
}


@pytest.mark.parametrize("command, mode, template, keys, others", MODES, ids=_MODE_IDS)
def test_timings_name_the_stages_of_the_mode_that_ran(tmp_path, command, mode, template, keys, others):
    report = tmp_path / "r.json"
    assert main(_argv(tmp_path, template) + ["--timings", "--report", str(report)]) == 0
    timings = _load_report(report)["timings"]
    assert set(timings) == STAGES[f"{command} {mode}".strip()]
    assert all(t >= 0 for t in timings.values())


def test_config_values_of_the_other_mode_are_ignored_and_left_out(tmp_path):
    """An npe report replays as an lpp run: its npe keys are neither errors
    nor recorded."""
    npe, lpp = tmp_path / "npe.json", tmp_path / "lpp.json"
    assert main(_argv(tmp_path, _EMBED + ["--report", str(npe)])) == 0
    assert main(["embed-classify", "--config", str(npe), "--method", "lpp", "--report", str(lpp)]) == 0
    assert set(_load_report(lpp)["resolved_config"]) == _EMBED_KEYS | {"k_nn", "sigma"}


@pytest.mark.parametrize("name", ["synth", "build-graph", "cluster", "embed-classify", "eval"])
def test_subcommand_help_renders(name, capsys):
    assert main([name, "--help"]) == 0
    assert "--config" in capsys.readouterr().out


# -- fuzzed graph and label files ------------------------------------------

# Two 4-vertex components, clustered with k = 2.
_FUZZ_GRAPH = [
    "llr-graph v1 n=8 sym=1",
    "0 1 1.0", "0 2 0.5", "1 3 2.0", "2 3 1.0",
    "4 5 1.0", "4 6 0.25", "5 7 1.5", "6 7 1.0",
]
_FUZZ_LABELS = ["0", "0", "0", "0", "1", "1", "1", "1"]
_FUZZ_TOKENS = st.sampled_from([
    "0", "1", "3", "7", "8", "9", "-1", "2.5", "-0.5", "0.0", "1e-300", "5e-324", "1e308", "1.7976931348623157e308",
    "nan", "inf", "-inf", "x", "1_0", "0x1", "1e", "9223372036854775808", "-9223372036854775809", "10" * 12,
    "n=0", "n=1", "n=3", "n=8", "n=11", "sym=0", "v2", "\udcff",
])


@st.composite
def _mutated(draw, lines, vocabulary=_FUZZ_TOKENS, sep=None):
    """A file made from lines by a few deletions, duplications, swaps, token
    replacements, inserted lines, truncation or a changed line ending. Tokens
    are split at sep (None: whitespace) and drawn from vocabulary, whose
    "\udcff" is written, with surrogateescape, as the raw byte 0xff."""
    lines = list(lines)
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["delete", "duplicate", "swap", "token", "insert", "truncate"]))
        i = draw(st.integers(0, max(len(lines) - 1, 0)))
        if not lines and op != "insert":
            continue
        if op == "delete":
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        elif op == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif op == "token":
            tokens = lines[i].split(sep) or [""]
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(vocabulary)
            lines[i] = (sep or " ").join(tokens)
        elif op == "insert":
            lines.insert(i, (sep or " ").join(draw(st.lists(vocabulary, max_size=4))))
        else:
            lines[i] = lines[i][: draw(st.integers(0, len(lines[i])))]
    return draw(st.sampled_from(["", "\ufeff"])) + draw(st.sampled_from(["\n", "\r\n"])).join(lines) + "\n"


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(graph=_mutated(_FUZZ_GRAPH), labels=_mutated(_FUZZ_LABELS))
@example(graph="\n".join(_FUZZ_GRAPH).replace("0 2 0.5", "0 2 1e308").replace("0 1 1.0", "0 1 1e308"),
         labels="\n".join(_FUZZ_LABELS))
@example(graph="\n".join(_FUZZ_GRAPH).replace("n=8", "n=9"), labels="\n".join(_FUZZ_LABELS + ["1"]))
@example(graph="\n".join(_FUZZ_GRAPH), labels="\n".join(_FUZZ_LABELS[:5] + ["\udcff"] + _FUZZ_LABELS[6:]))
def test_cluster_on_fuzzed_files_exits_cleanly(graph, labels):
    """cluster --graph --truth-labels on mutated files exits 0, or 2 with an
    error naming a file and line. A well-formed graph that the spectral stage
    cannot embed (an isolated vertex, or degrees summing beyond the float
    range) fails there with exit 1 and says why; nothing else exits 1."""
    with tempfile.TemporaryDirectory() as tmp:
        graph_path, labels_path = Path(tmp) / "g.txt", Path(tmp) / "t.txt"
        graph_path.write_bytes(graph.encode("utf-8", "surrogateescape"))
        labels_path.write_bytes(labels.encode("utf-8", "surrogateescape"))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["cluster", "--graph", str(graph_path), "--truth-labels", str(labels_path),
                         "--clusters", "2", "--output", str(Path(tmp) / "pred.txt")])
        message = err.getvalue()
    if code == 2:
        assert re.search(rf"(g|t)\.txt:\d+", message), message
    elif code == 1:
        assert "isolated vertices" in message or "beyond the float range" in message, message
    else:
        assert code == 0, message


# -- fuzzed CSV and config files -------------------------------------------

# The numerical failures the README lists for exit 1.
_NUMERICAL = ("degenerate coefficient", "isolated vertices", "beyond the float range", "zero total variance",
              "exceeds available dimension", "numerical rank", "exceeds contract")

# Three classes of five points in R^3, on three lines through the origin.
_FUZZ_CSV = [
    "f0,f1,f2,label",
    "1.0,0.1,0.0,0", "-0.5,-0.1,0.1,0", "0.75,0.0,-0.1,0", "-1.25,0.1,0.0,0", "1.5,0.0,0.1,0",
    "0.1,1.0,0.0,1", "0.0,-0.75,0.1,1", "-0.1,1.25,0.0,1", "0.1,-1.5,-0.1,1", "0.0,0.5,0.1,1",
    "0.5,0.0,1.0,2", "-0.6,0.1,-1.25,2", "0.4,-0.1,0.75,2", "-0.75,0.0,-1.5,2", "0.25,0.1,0.5,2",
]
# Magnitudes stay at or below 1e100 because of the data's dynamic range, not
# its magnitude: one cell of 1e200 among cells near 1 makes the neighbour
# search's scaling by 2**-665 underflow every other squared difference, which
# the search reports as an underflow, exit 1; at 1e100 it reports none, so the
# message is not among _NUMERICAL (test_a_distance_the_data_scale_erases_*).
_CSV_TOKENS = st.sampled_from([
    "0", "1", "-1", "2.5", "-0.5", "0.0", "1e-300", "5e-324", "1e100", "-1e100", "1e400", "nan", "inf", "-inf",
    "", " ", "x", "a", "label", "f0", "0,1", "1 2", "0x1", "1_0", "\"1\"", "\"", "\ufeff1", "\udcff",
])
_CSV_RUNS = [
    ["cluster", "--clusters", "2", "--restarts", "2", "--k-keep", "4", "--output", "p.txt"],
    ["cluster", "--method", "heat", "--clusters", "2", "--restarts", "2", "--k-nn", "4", "--output", "p.txt"],
    ["embed-classify", "--embed-dim", "1", "--k-keep", "4", "--pred-out", "pred.txt"],
    ["embed-classify", "--method", "lpp", "--embed-dim", "1", "--k-nn", "4", "--pred-out", "pred.txt"],
]


@contextlib.contextmanager
def _in_directory(path):
    before = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(before)


def _exit_and_stderr(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, err.getvalue()


def _assert_clean_exit(code, message):
    if code == 1:
        assert any(reason in message for reason in _NUMERICAL), message
    else:
        assert code in (0, 2), message


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(csv=_mutated(_FUZZ_CSV, _CSV_TOKENS, ","), run=st.sampled_from(_CSV_RUNS))
@example(csv="\n".join(["f0,f1,f2,f3,label"] + _FUZZ_CSV[1:]), run=_CSV_RUNS[0])
@example(csv="\n".join(["f0,label"] + _FUZZ_CSV[1:]), run=_CSV_RUNS[2])
@example(csv="\n".join(_FUZZ_CSV).replace("0.75", "\udcff"), run=_CSV_RUNS[1])
def test_csv_commands_on_fuzzed_files_exit_cleanly(csv, run):
    """cluster --input and embed-classify on a mutated CSV exit 0 or 2, or
    exit 1 only for a numerical failure the README lists."""
    with tempfile.TemporaryDirectory() as tmp, _in_directory(tmp):
        Path("d.csv").write_bytes(csv.encode("utf-8", "surrogateescape"))
        code, message = _exit_and_stderr(run + ["--input", "d.csv", "--label-column", "label"])
    _assert_clean_exit(code, message)


_CONFIG_VALUES = st.sampled_from(
    [None, True, False, 0, 1, -1, 1.5, float("nan"), "auto", "none", "", "x", [], [1], [0.5, 2], {"x": 1}, 2**70]
)
# Flags that pick each command's data source and bound its run time; the
# config file sets any of the command's other parameters.
_CONFIG_RUNS = {
    "synth": ["synth", "--output", "s.csv"],
    "build-graph": ["build-graph", "--input", "d.csv", "--output", "g.txt"],
    "cluster": ["cluster", "--input", "d.csv", "--clusters", "2", "--restarts", "2", "--output", "p.txt"],
    "embed-classify": ["embed-classify", "--input", "d.csv", "--label-column", "label", "--embed-dim", "1"],
    "eval": ["eval", "--preset", "fig1", "--per-subspace", "5", "--methods", "heat", "--k-values", "2",
             "--seeds", "0", "--restarts", "2"],
}


@st.composite
def _configs(draw):
    from llrgraph.cli import COMMANDS

    name = draw(st.sampled_from(sorted(_CONFIG_RUNS)))
    keys = [p.key for p in COMMANDS[name].params if p.flag not in _CONFIG_RUNS[name][1::2]]
    return name, draw(st.dictionaries(st.sampled_from(keys), _CONFIG_VALUES, max_size=4))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(run=_configs())
@example(run=("cluster", {"seed": -1}))
@example(run=("synth", {"ambient_dim": 2**70, "dims": [1]}))
def test_commands_on_fuzzed_config_files_exit_cleanly(run):
    """Every command with a config file of odd values exits 0 or 2, or exit 1
    only for a numerical failure the README lists."""
    name, config = run
    with tempfile.TemporaryDirectory() as tmp, _in_directory(tmp):
        Path("d.csv").write_text("\n".join(_FUZZ_CSV) + "\n")
        Path("cfg.json").write_text(json.dumps(config))
        code, message = _exit_and_stderr(_CONFIG_RUNS[name] + ["--config", "cfg.json"])
    _assert_clean_exit(code, message)
