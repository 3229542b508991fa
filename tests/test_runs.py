import inspect
import multiprocessing
import os
import subprocess
import sys
import textwrap
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

from llrgraph import baselines, llr, runs
from llrgraph.cli import main
from llrgraph.data import InputError, LabeledDataset, SyntheticSpec, load_csv, save_csv, synth_union_of_subspaces
from llrgraph.graphio import read_labels, write_graph
from llrgraph.llr import HyperParams, build_llr_graph
from llrgraph.runs import (
    build_graph_by_method,
    graph_builder,
    classify_run,
    cluster_graph,
    evaluate_clustering,
    llr_graph_family,
    preset_spec,
    resolve_d_dict,
    sweep_run,
)
from llrgraph.spectral import KMeansConfig


def _rng(seed):
    return np.random.Generator(np.random.PCG64(seed))


def _fig1(seed=0, per=20):
    return synth_union_of_subspaces(preset_spec("fig1", per, 0.01, seed))


def test_resolve_d_dict():
    assert resolve_d_dict("auto", 50) == 49
    assert resolve_d_dict("auto", 5000) == 300
    assert resolve_d_dict(17, 5000) == 17
    assert resolve_d_dict("auto", None) == 300  # no sample count: the cap


def test_preset_spec_fig1():
    spec = preset_spec("fig1", 40, 0.05, 3)
    assert spec.ambient_dim == 3
    assert spec.subspaces == ((1, 40), (1, 40), (2, 40))
    assert spec.noise_sigma == 0.05
    assert spec.seed == 3
    with pytest.raises(ValueError, match="unknown preset"):
        preset_spec("fig2", 40, 0.05, 3)


def test_graph_family_matches_per_k_builds():
    """The shared-solve family path must equal independent per-k builds bit
    for bit, since sparsification happens after the coefficient solve."""
    ds = _fig1(seed=1)
    lam, eps = 0.4, 1e-9
    dd = resolve_d_dict("auto", ds.n)
    family = llr_graph_family(ds.X, lam, dd, eps, [3, 6, 10])
    for k in (3, 6, 10):
        single = build_llr_graph(ds.X, HyperParams(lam=lam, k_keep=k, d_dict=dd, epsilon=eps))
        assert np.array_equal(family[k].indptr, single.indptr), f"k={k}"
        assert np.array_equal(family[k].indices, single.indices), f"k={k}"
        assert np.array_equal(family[k].data, single.data), f"k={k}"


def test_graph_family_validates_k():
    ds = _fig1(seed=2, per=5)
    with pytest.raises(ValueError, match="k_keep"):
        llr_graph_family(ds.X, 0.5, 10, 1e-9, [3, 0])


def test_build_graph_by_method_dispatch():
    ds = _fig1(seed=3)
    W_llr = build_graph_by_method(ds.X, "llr", lam=0.3, k_keep=5)
    params = HyperParams(lam=0.3, k_keep=5, d_dict=resolve_d_dict("auto", ds.n))
    direct = build_llr_graph(ds.X, params)
    assert np.array_equal(W_llr.toarray(), direct.toarray())

    W_heat = build_graph_by_method(ds.X, "heat", k_nn=6)
    assert (abs(W_heat - W_heat.T) > 0).nnz == 0
    W_lle = build_graph_by_method(ds.X, "lle", k_nn=6)
    assert W_lle.shape == (ds.n, ds.n)
    with pytest.raises(ValueError, match="unknown graph method"):
        build_graph_by_method(ds.X, "cosine")


def test_graph_builder_checks_n_bounds_only_for_its_method():
    X = _rng(8).standard_normal((5, 2))
    # heat and lle ignore k_keep and d_dict, so the default k_keep = 8 above
    # n - 1 = 4 is no conflict for them
    for method in ("heat", "lle"):
        assert build_graph_by_method(X, method, k_nn=2).shape == (5, 5)
    with pytest.raises(InputError, match=r"k_keep \(8\) must not exceed d_dict \(4\)"):
        graph_builder("llr", 5)
    # each value's own range is checked whichever method is built
    with pytest.raises(InputError, match="lambda"):
        graph_builder("heat", 5, k_nn=2, lam=1.5)
    with pytest.raises(InputError, match="k_nn must be >= 1"):
        graph_builder("llr", 5, k_keep=2, k_nn=0)
    # with n None no sample count bounds any value, but each own range holds
    graph_builder("llr", None, k_keep=500)
    with pytest.raises(InputError, match="lambda"):
        graph_builder("heat", None, lam=1.5)
    with pytest.raises(InputError, match="unknown graph method"):
        graph_builder("cosine", None)


# -- the CLI's defaults are the library's ------------------------------------


@pytest.mark.parametrize("method", ["llr", "heat", "lle"])
def test_graph_commands_without_graph_flags_build_the_library_default_graph(tmp_path, method):
    save_csv(tmp_path / "d.csv", _fig1(seed=2, per=20))
    ds = load_csv(tmp_path / "d.csv", label_column="label")
    data = ["--input", str(tmp_path / "d.csv"), "--label-column", "label", "--method", method]
    assert main(["build-graph", *data, "--output", str(tmp_path / "cli.txt")]) == 0
    assert main(["cluster", *data, "--clusters", "3", "--output", str(tmp_path / "cli-pred.txt")]) == 0
    W = build_graph_by_method(ds.X, method)
    write_graph(tmp_path / "lib.txt", W)
    assert (tmp_path / "cli.txt").read_bytes() == (tmp_path / "lib.txt").read_bytes()
    pred = cluster_graph(W, 3, KMeansConfig.restarts, KMeansConfig.seed)
    assert np.array_equal(read_labels(tmp_path / "cli-pred.txt"), pred)


@pytest.mark.parametrize("method", ["npe", "lpp"])
def test_embed_classify_with_only_its_required_flags_predicts_the_library_default(tmp_path, method):
    save_csv(tmp_path / "c.csv", synth_union_of_subspaces(
        SyntheticSpec(ambient_dim=6, subspaces=[(2, 15), (3, 15)], noise_sigma=0.01, seed=0)))
    ds = load_csv(tmp_path / "c.csv", label_column="label")
    assert main(["embed-classify", "--input", str(tmp_path / "c.csv"), "--label-column", "label", "--method", method,
                 "--embed-dim", "3", "--pred-out", str(tmp_path / "pred.txt")]) == 0
    assert np.array_equal(read_labels(tmp_path / "pred.txt"), classify_run(ds, method=method, embed_dim=3)["pred"])


def test_every_cli_default_is_the_library_default():
    """Each command's default equals the library's for the same parameter: a
    pipeline keyword or a parameter object's field (lambda is lam, noise is noise_sigma)."""
    from llrgraph.cli import COMMANDS

    library = {"synth": [sweep_run], "build-graph": [graph_builder], "cluster": [graph_builder, KMeansConfig],
               "embed-classify": [classify_run], "eval": [sweep_run, KMeansConfig]}
    renamed = {"lambda": "lam", "noise": "noise_sigma"}
    compared = set()
    for name, targets in library.items():
        for p in COMMANDS[name].params:
            for target in targets:
                keyword = inspect.signature(target).parameters.get(renamed.get(p.key, p.key))
                if keyword is not None and keyword.default is not inspect.Parameter.empty:
                    assert p.default == keyword.default, (name, p.key)
                    compared.add(p.key)
    assert compared >= {"lambda", "k_keep", "d_dict", "epsilon", "k_nn", "sigma", "restarts", "per_subspace",
                        "noise", "train_fraction", "pca_energy"}


def test_cluster_and_evaluate_on_clean_blocks():
    import scipy.sparse as sp

    blocks = np.zeros((12, 12))
    for s in (slice(0, 4), slice(4, 8), slice(8, 12)):
        blocks[s, s] = 1.0
    np.fill_diagonal(blocks, 0.0)
    W = sp.csr_matrix(blocks)
    truth = np.repeat([0, 1, 2], 4)
    pred = cluster_graph(W, 3, restarts=5, seed=0)
    metrics = evaluate_clustering(pred, truth, W)
    assert metrics["ac"] == 1.0
    assert metrics["nmi"] == 1.0
    assert metrics["intra_class_edge_mass"] == 1.0
    no_graph = evaluate_clustering(pred, truth)
    assert "intra_class_edge_mass" not in no_graph


def test_classify_run_deterministic_and_sane():
    ds = _fig1(seed=4, per=30)
    out1 = classify_run(ds, method="npe", embed_dim=2, seed=0, pca_energy=None)
    out2 = classify_run(ds, method="npe", embed_dim=2, seed=0, pca_energy=None)
    assert out1["accuracy"] == out2["accuracy"]
    assert np.array_equal(out1["projection"], out2["projection"])
    assert out1["n_train"] + out1["n_test"] == ds.n
    assert out1["projection"].shape == (3, 2)
    assert 0.0 <= out1["accuracy"] <= 1.0

    lpp = classify_run(ds, method="lpp", embed_dim=2, seed=0, pca_energy=None)
    assert 0.0 <= lpp["accuracy"] <= 1.0


def test_classify_run_errors():
    ds = _fig1(seed=5, per=20)
    unlabeled = LabeledDataset(X=ds.X, labels=None)
    with pytest.raises(ValueError, match="requires labels"):
        classify_run(unlabeled, method="npe", embed_dim=2)
    with pytest.raises(ValueError, match="unknown embedding method"):
        classify_run(ds, method="pca", embed_dim=2)
    with pytest.raises(ValueError, match="exceeds available dimension"):
        classify_run(ds, method="npe", embed_dim=7, pca_energy=None)
    # parameters against the 30-point training split, before PCA
    with pytest.raises(InputError, match=r"d_dict \(500\) must not exceed n - 1 \(29\)"):
        classify_run(ds, method="npe", embed_dim=2, d_dict=500)
    with pytest.raises(InputError, match=r"k_keep \(40\) must not exceed d_dict \(29\)"):
        classify_run(ds, method="npe", embed_dim=2, k_keep=40)
    with pytest.raises(InputError, match=r"k_nn \(500\) must not exceed n - 1 \(29\)"):
        classify_run(ds, method="lpp", embed_dim=2, k_nn=500)
    with pytest.raises(InputError, match="embed_dim must be >= 1"):
        classify_run(ds, method="npe", embed_dim=0)
    with pytest.raises(InputError, match="lambda"):
        classify_run(ds, method="lpp", embed_dim=2, lam=1.5)


def test_sweep_run_cell_grid_and_summary():
    result = sweep_run(
        preset="fig1",
        per_subspace=15,
        noise_sigma=0.01,
        n_clusters=3,
        methods=["llr", "heat"],
        lambdas=[0.3, 0.7],
        k_values=[4],
        seeds=[0, 1],
        restarts=3,
    )
    cells = result["cells"]
    # per seed: llr 2 lambdas x 1 k, heat 1 k -> 3 cells, twice
    assert len(cells) == 6
    llr_cells = [c for c in cells if c["method"] == "llr"]
    assert {c["lambda"] for c in llr_cells} == {0.3, 0.7}
    assert all(c["lambda"] is None for c in cells if c["method"] == "heat")
    for c in cells:
        assert 0.0 <= c["ac"] <= 1.0
        assert 0.0 <= c["nmi"] <= 1.0
        assert 0.0 <= c["intra_class_edge_mass"] <= 1.0

    summary = result["summary"]
    assert set(summary) == {"llr", "heat"}
    for stats in summary.values():
        assert stats["max_ac"] >= stats["mean_ac"]
        assert set(stats["best_by_seed"]) == {"0", "1"}
        assert stats["best"]["ac"] == stats["max_ac"]


def test_preset_sweep_searches_neighbours_once_per_seed(monkeypatch):
    # Every llr, heat and lle graph of a seed reads the first columns of one
    # table as wide as the widest needs; the seeds run in-process, so that
    # every call is counted here.
    monkeypatch.setattr(runs, "_seed_workers", lambda n_seeds: 1)
    real, widths = llr.neighbour_table, []
    counting = lambda X, k, *args, **kwargs: widths.append(k) or real(X, k, *args, **kwargs)  # noqa: E731
    for module in (llr, baselines, runs):
        if getattr(module, "neighbour_table", None) is real:
            monkeypatch.setattr(module, "neighbour_table", counting)
    result = sweep_run(preset="fig1", per_subspace=10, n_clusters=3, methods=["heat", "llr", "lle"],
                       lambdas=[0.0, 0.5], k_values=[3, 5], seeds=[0, 1], d_dict=12, restarts=2)
    assert len(result["cells"]) == 2 * (2 * 2 + 2 + 2)
    assert widths == [12, 12]


def test_sweep_run_fixed_dataset_reuses_data(monkeypatch):
    ds = _fig1(seed=6, per=15)
    built = []
    real = runs.heat_kernel_graph
    monkeypatch.setattr(runs, "heat_kernel_graph",
                        lambda X, hk, table=None: built.append(hk.k_nn) or real(X, hk, table=table))
    result = sweep_run(
        dataset=ds,
        n_clusters=3,
        methods=["heat"],
        lambdas=[],
        k_values=[4, 6],
        seeds=[0, 1],
        restarts=3,
    )
    assert len(result["cells"]) == 4
    # same data, same graph: only the k-means seed varies per cell pair
    by_seed = {}
    for c in result["cells"]:
        by_seed.setdefault(c["k"], []).append(c["intra_class_edge_mass"])
    for k, masses in by_seed.items():
        assert masses[0] == masses[1], "graph statistic must not depend on seed"
    assert built == [4, 6], "each graph is built once, not once per seed"


def test_sweep_run_validation():
    ds = _fig1(seed=7, per=10)
    with pytest.raises(ValueError, match="exactly one of dataset or preset"):
        sweep_run(n_clusters=3, methods=["llr"], lambdas=[0.5], k_values=[4], seeds=[0])
    with pytest.raises(ValueError, match="exactly one of dataset or preset"):
        sweep_run(
            dataset=ds,
            preset="fig1",
            n_clusters=3,
            methods=["llr"],
            lambdas=[0.5],
            k_values=[4],
            seeds=[0],
        )
    with pytest.raises(ValueError, match="unknown graph method"):
        sweep_run(dataset=ds, n_clusters=3, methods=["llr", "dbscan"], lambdas=[0.5], k_values=[4], seeds=[0])
    with pytest.raises(ValueError, match="at least one lambda"):
        sweep_run(dataset=ds, n_clusters=3, methods=["llr"], lambdas=[], k_values=[4], seeds=[0])
    with pytest.raises(ValueError, match="at least one k value"):
        sweep_run(dataset=ds, n_clusters=3, methods=["heat"], lambdas=[], k_values=[], seeds=[0])
    with pytest.raises(ValueError, match="at least one seed"):
        sweep_run(dataset=ds, n_clusters=3, methods=["heat"], lambdas=[], k_values=[4], seeds=[])
    with pytest.raises(ValueError, match="at least one method"):
        sweep_run(dataset=ds, n_clusters=3, methods=[], lambdas=[], k_values=[4], seeds=[0])
    unlabeled = LabeledDataset(X=ds.X, labels=None)
    with pytest.raises(ValueError, match="require labels"):
        sweep_run(dataset=unlabeled, n_clusters=3, methods=["heat"], lambdas=[], k_values=[4], seeds=[0])
    # every grid cell against n = 30 before any data or graph
    with pytest.raises(InputError, match=r"k_nn \(30\) must not exceed n - 1 \(29\)"):
        sweep_run(dataset=ds, n_clusters=3, methods=["heat"], lambdas=[], k_values=[4, 30], seeds=[0])
    with pytest.raises(InputError, match=r"d_dict \(40\) must not exceed n - 1 \(29\)"):
        sweep_run(dataset=ds, n_clusters=3, methods=["llr"], lambdas=[0.5], k_values=[4], seeds=[0], d_dict=40)
    with pytest.raises(InputError, match=r"k_keep \(35\) must not exceed d_dict \(29\)"):
        sweep_run(dataset=ds, n_clusters=3, methods=["llr", "lle"], lambdas=[0.5], k_values=[4, 35], seeds=[0])
    with pytest.raises(InputError, match="lambda"):
        sweep_run(dataset=ds, n_clusters=3, methods=["heat"], lambdas=[0.5, 1.5], k_values=[4], seeds=[0])
    with pytest.raises(InputError, match="k=31 must not exceed the sample count n=30"):
        sweep_run(dataset=ds, n_clusters=31, methods=["heat"], lambdas=[], k_values=[4], seeds=[0])
    with pytest.raises(InputError, match=r"k=151 must not exceed the sample count n=150"):
        sweep_run(preset="fig1", n_clusters=151, methods=["heat"], lambdas=[], k_values=[4], seeds=[0])
    with pytest.raises(InputError, match="points_per_subspace"):
        sweep_run(preset="fig1", per_subspace=1, n_clusters=3, methods=["heat"], lambdas=[], k_values=[4], seeds=[0])


@pytest.mark.parametrize(
    "grid, message",
    [
        ({"methods": ["heat", "llr", "heat"]}, "methods lists 'heat' more than once"),
        ({"lambdas": [0.5, 0.2, 0.5]}, "lambdas lists 0.5 more than once"),
        ({"k_values": [4, 4]}, "k_values lists 4 more than once"),
        ({"seeds": [0, 1, 0]}, "seeds lists 0 more than once"),
    ],
    ids=["methods", "lambdas", "k_values", "seeds"],
)
def test_sweep_run_rejects_a_repeated_grid_entry_before_drawing_data(monkeypatch, grid, message):
    def drawn(*args, **kwargs):
        raise RuntimeError("data drawn")

    monkeypatch.setattr("llrgraph.runs.synth_union_of_subspaces", drawn)
    kwargs = {"methods": ["heat", "llr"], "lambdas": [0.5], "k_values": [4], "seeds": [0], **grid}
    with pytest.raises(InputError) as caught:
        sweep_run(preset="fig1", n_clusters=3, **kwargs)
    assert str(caught.value) == message


# -- seeds in forked workers ----------------------------------------------


def _workers(monkeypatch, n):
    monkeypatch.setattr(runs, "_seed_workers", lambda n_seeds: n)


def _eval_report(tmp_path, monkeypatch, capsys, workers, argv):
    _workers(monkeypatch, workers)
    report = tmp_path / f"report-{workers}.json"
    assert main(["eval", *argv, "--report", str(report)]) == 0
    return report.read_bytes(), capsys.readouterr().out


@pytest.mark.parametrize("mode", ["preset", "dataset"])
def test_sweep_in_workers_writes_the_in_process_report(tmp_path, monkeypatch, capsys, mode):
    if mode == "preset":
        argv = ["--preset", "fig1", "--per-subspace", "20"]
    else:
        save_csv(tmp_path / "d.csv", _fig1(seed=4, per=20))
        argv = ["--input", str(tmp_path / "d.csv"), "--label-column", "label", "--clusters", "3"]
    argv += ["--seeds", "0,1,2,3,4", "--lambdas", "0.2,0.6", "--k-values", "4,8", "--restarts", "3"]
    serial = _eval_report(tmp_path, monkeypatch, capsys, 1, argv)
    assert _eval_report(tmp_path, monkeypatch, capsys, 2, argv) == serial
    assert multiprocessing.active_children() == []


class SeedFailure(RuntimeError):
    pass


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_sweep_in_workers_raises_the_first_failing_seeds_exception(monkeypatch, workers):
    real = runs.cluster_graph

    def cluster_graph(W, k, restarts, seed):
        if seed in (3, 7):
            raise SeedFailure(f"cell failed at seed {seed}")
        return real(W, k, restarts, seed)

    monkeypatch.setattr(runs, "cluster_graph", cluster_graph)
    _workers(monkeypatch, workers)
    threads = threading.active_count()
    with pytest.raises(SeedFailure) as caught:
        sweep_run(preset="fig1", per_subspace=10, n_clusters=3, methods=["heat"], lambdas=[], k_values=[4],
                  seeds=list(range(10)), restarts=2)
    assert str(caught.value) == "cell failed at seed 3"
    assert multiprocessing.active_children() == []
    assert threading.active_count() == threads  # the pool's handler threads are gone


def test_a_seed_worker_that_dies_fails_the_sweep():
    """A worker that exits in the middle of a seed fails the sweep; the seed is
    not waited for. Run in a child process, which a hang would not outlive."""
    script = textwrap.dedent("""
        import os
        from llrgraph import runs

        runs._seed_workers = lambda n_seeds: 2
        real = runs.cluster_graph

        def cluster_graph(W, k, restarts, seed):
            if seed == 1:
                os._exit(3)
            return real(W, k, restarts, seed)

        runs.cluster_graph = cluster_graph
        runs.sweep_run(preset="fig1", per_subspace=10, n_clusters=3, methods=["heat"], lambdas=[], k_values=[4],
                       seeds=[0, 1, 2, 3], restarts=2)
    """)
    src = str(Path(runs.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "BrokenProcessPool" in done.stderr, done.stderr


def test_a_workers_warning_reaches_the_caller(monkeypatch):
    """At per_subspace 50, seed 3's heat graph at k = 4 embeds with zero rows."""
    _workers(monkeypatch, 2)
    with pytest.warns(RuntimeWarning, match="numerically zero rows"):
        sweep_run(preset="fig1", per_subspace=50, n_clusters=3, methods=["heat"], lambdas=[], k_values=[4],
                  seeds=[2, 3], restarts=2)


def test_workers_warnings_are_shown_once_per_text_as_in_process(monkeypatch):
    """On a fixed dataset every seed embeds the same graph and warns the same
    text; each worker sees it anew, but it is shown once, as in-process."""
    ds = _fig1(seed=3, per=50)
    shown = {}
    for workers in (1, 2):
        _workers(monkeypatch, workers)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("default")
            sweep_run(dataset=ds, n_clusters=3, methods=["heat"], lambdas=[], k_values=[4], seeds=[0, 1, 2, 3],
                      restarts=2)
        shown[workers] = [(str(w.message), w.category, w.filename, w.lineno) for w in caught]
    assert len(shown[1]) == 1
    assert shown[2] == shown[1]


def test_seed_workers_rule(monkeypatch):
    cpus = len(os.sched_getaffinity(0))
    monkeypatch.setattr(runs, "_BLAS_ONE_THREAD", True)
    assert runs._seed_workers(1) == 1
    assert runs._seed_workers(10) == min(10, cpus)
    stop = threading.Event()
    other = threading.Thread(target=stop.wait)
    other.start()
    try:
        assert runs._seed_workers(10) == 1  # fork would copy a lock the other thread may hold
    finally:
        stop.set()
        other.join(timeout=10)
    assert not other.is_alive()
    with monkeypatch.context() as daemonic:  # a pool's worker may not start processes of its own
        daemonic.setattr(multiprocessing.current_process(), "daemon", True)
        assert runs._seed_workers(10) == 1
    monkeypatch.setattr(runs, "_BLAS_ONE_THREAD", False)
    assert runs._seed_workers(10) == 1
