"""Pipelines composing data, graphs, clustering and embeddings.

These functions are the single implementation behind the command line
interface; tests drive them directly so CLI runs and library runs cannot
drift apart.
"""

from __future__ import annotations

import os
import sys
import threading
import warnings
from typing import Any, Callable

import numpy as np

from . import _BLAS_ONE_THREAD
from .baselines import HeatKernelParams, heat_kernel_graph, lle_graph
from .data import (
    InputError,
    LabeledDataset,
    SyntheticSpec,
    pca_fit,
    pca_transform,
    synth_union_of_subspaces,
    train_test_split,
)
from .embedding import lpp_embed, nn_classify, npe_from_graph, transform
from .graphio import CSR
from .llr import (
    HyperParams,
    build_llr_coefficients,
    build_llr_graph,
    coefficient_table,
    neighbour_table,
    sparsify,  # noqa: F401  (perfbench/spans.py times calls at runs.sparsify)
    sparsify_table,
    symmetrize,
)
from .metrics import classification_accuracy, clustering_accuracy, intra_class_edge_mass, nmi
from .spectral import KMeansConfig, spectral_cluster

DEFAULT_D_DICT_CAP = 300
DEFAULT_D_DICT = "auto"
DEFAULT_PER_SUBSPACE = 50
DEFAULT_NOISE = 0.01
DEFAULT_TRAIN_FRACTION = 0.5
DEFAULT_PCA_ENERGY = 0.98
GRAPH_METHODS = ("llr", "heat", "lle")
EMBED_METHODS = ("npe", "lpp")
PRESETS = ("fig1",)


def resolve_d_dict(requested: int | str, n: int | None) -> int:
    """Dictionary size to use for n samples; 'auto' selects min(cap, n - 1),
    and the cap itself when n is None, as 'auto' is in range for any n."""
    if requested == "auto":
        return DEFAULT_D_DICT_CAP if n is None else min(DEFAULT_D_DICT_CAP, n - 1)
    return requested


def preset_spec(name: str, per_subspace: int, noise_sigma: float, seed: int) -> SyntheticSpec:
    """Named synthetic configurations.

    "fig1" is three subspaces of dimensions 1, 1 and 2 in ambient dimension 3.
    """
    if name == "fig1":
        return SyntheticSpec(
            ambient_dim=3,
            subspaces=[(1, per_subspace), (1, per_subspace), (2, per_subspace)],
            noise_sigma=noise_sigma,
            seed=seed,
        )
    raise InputError(f"unknown preset {name!r}")


def graph_builder(
    method: str,
    n: int | None,
    *,
    lam: float = HyperParams.lam,
    k_keep: int = HyperParams.k_keep,
    d_dict: int | str = DEFAULT_D_DICT,
    epsilon: float = HyperParams.epsilon,
    k_nn: int = HeatKernelParams.k_nn,
    sigma: float | str = HeatKernelParams.sigma,
) -> tuple[Callable[[np.ndarray], CSR], dict[str, Any]]:
    """Validate one graph method's parameters for n samples, before any computation.

    Returns the builder, which maps an (n, m) data matrix (and by keyword a
    neighbour table of it, table=, as in coefficient_table) to the symmetric
    graph, and the parameter values resolved from n. Each parameter's own
    range is checked whether or not the method uses it, its bound against n
    (k_keep <= d_dict <= n - 1 for llr, k_nn <= n - 1 for heat and lle) only
    if the method uses it; both raise InputError here, and the builder raises
    only on numerical failure. With n None, as where no graph is built, only
    the own ranges are checked, and 'auto' resolves d_dict to the cap.
    """
    if method not in GRAPH_METHODS:
        raise InputError(f"unknown graph method {method!r}")
    hk = HeatKernelParams(k_nn=k_nn, sigma=sigma)
    if method != "llr" and n is not None:
        hk.validate(n)
    params = HyperParams(lam=lam, k_keep=k_keep, d_dict=resolve_d_dict(d_dict, n), epsilon=epsilon)
    if method == "llr" and n is not None:
        params.validate(n)
    if method == "llr":
        return lambda X, *, table=None: build_llr_graph(X, params, table=table), {"d_dict": params.d_dict}
    if method == "heat":
        return lambda X, *, table=None: heat_kernel_graph(X, hk, table=table), {}
    return lambda X, *, table=None: lle_graph(X, k_nn=k_nn, epsilon=epsilon, table=table), {}


def build_graph_by_method(X: np.ndarray, method: str, **params: Any) -> CSR:
    """Build a symmetric similarity graph; method and keywords as in graph_builder."""
    build, _ = graph_builder(method, X.shape[0], **params)
    return build(X)


def llr_graph_family(
    X: np.ndarray,
    lam: float,
    d_dict: int,
    epsilon: float,
    k_keeps: list[int],
    *, table: tuple[np.ndarray, np.ndarray] | None = None,
) -> dict[int, CSR]:
    """LLR graphs for several k_keep values sharing one pass of solves.

    The coefficient vectors depend on lam and the dictionary but not on
    k_keep, so sweeps over retention levels reuse the per-point solutions.
    Output is bit-identical to build_llr_graph per k_keep; table as in coefficient_table.
    """
    params = [HyperParams(lam=lam, k_keep=k, d_dict=d_dict, epsilon=epsilon) for k in k_keeps]
    for p in params:
        p.validate(X.shape[0])
    idx, coef = coefficient_table(X, params[0], table=table)  # the table does not depend on k_keep
    return {k: symmetrize(sparsify_table(idx, coef, k)) for k in k_keeps}


def cluster_graph(W: CSR, k: int, restarts: int, seed: int) -> np.ndarray:
    """Spectral clustering of a prebuilt similarity graph."""
    config = KMeansConfig(k=k, restarts=restarts, seed=seed)
    config.validate(W.shape[0])
    return spectral_cluster(W, config)


def evaluate_clustering(
    pred: np.ndarray, truth: np.ndarray, W: CSR | None = None
) -> dict[str, float]:
    """AC and NMI against ground truth, plus graph intra-class mass if given."""
    out = {
        "ac": clustering_accuracy(pred, truth),
        "nmi": nmi(pred, truth),
    }
    if W is not None:
        out["intra_class_edge_mass"] = intra_class_edge_mass(W, truth)
    return out


def classify_run(
    ds: LabeledDataset,
    *,
    method: str,
    embed_dim: int,
    train_fraction: float = DEFAULT_TRAIN_FRACTION,
    pca_energy: float | None = DEFAULT_PCA_ENERGY,
    seed: int = 0,
    lam: float = HyperParams.lam,
    k_keep: int = HyperParams.k_keep,
    d_dict: int | str = DEFAULT_D_DICT,
    epsilon: float = HyperParams.epsilon,
    k_nn: int = HeatKernelParams.k_nn,
    sigma: float | str = HeatKernelParams.sigma,
) -> dict[str, Any]:
    """Split, reduce, learn a linear embedding on train, classify test by 1-NN.

    Train data is optionally PCA-reduced (fit on train only); the projection
    is learned from the train graph and applied to both splits before nearest
    neighbour classification. Returns metrics plus the learned projection,
    and for npe the dictionary size it resolved (None for lpp).
    """
    if method not in EMBED_METHODS:
        raise InputError(f"unknown embedding method {method!r}")
    if embed_dim < 1:
        raise InputError(f"embed_dim must be >= 1, got {embed_dim}")
    train, test = train_test_split(ds, train_fraction, seed=seed)
    # npe learns from llr coefficients, lpp from a heat kernel graph
    build, derived = graph_builder("llr" if method == "npe" else "heat", train.n, lam=lam, k_keep=k_keep,
                                   d_dict=d_dict, epsilon=epsilon, k_nn=k_nn, sigma=sigma)

    if pca_energy is not None:
        model = pca_fit(train.X, energy=pca_energy)
        Xtr = pca_transform(model, train.X)
        Xte = pca_transform(model, test.X)
        pca_dim = model.d
    else:
        Xtr, Xte = train.X, test.X
        pca_dim = Xtr.shape[1]

    if embed_dim > pca_dim:
        raise ValueError(f"embed_dim {embed_dim} exceeds available dimension {pca_dim} after PCA")

    if method == "npe":
        params = HyperParams(lam=lam, k_keep=k_keep, d_dict=derived["d_dict"], epsilon=epsilon)
        C = build_llr_coefficients(Xtr, params)
        P = npe_from_graph(Xtr, C, embed_dim)
    else:
        P = lpp_embed(Xtr, build(Xtr), embed_dim)

    Ytr = transform(P, Xtr)
    Yte = transform(P, Xte)
    pred = nn_classify(Ytr, train.labels, Yte)

    return {
        "accuracy": classification_accuracy(pred, test.labels),
        "n_train": train.n,
        "n_test": test.n,
        "pca_dim": pca_dim,
        "embed_dim": embed_dim,
        "d_dict": derived.get("d_dict"),
        "projection": P,
        "pred": pred,
    }


def sweep_run(
    *,
    dataset: LabeledDataset | None = None,
    preset: str | None = None,
    per_subspace: int = DEFAULT_PER_SUBSPACE,
    noise_sigma: float = DEFAULT_NOISE,
    n_clusters: int,
    methods: list[str],
    lambdas: list[float],
    k_values: list[int],
    seeds: list[int],
    d_dict: int | str = DEFAULT_D_DICT,
    epsilon: float = HyperParams.epsilon,
    sigma: float | str = HeatKernelParams.sigma,
    restarts: int = KMeansConfig.restarts,
) -> dict[str, Any]:
    """Grid evaluation of graph methods under spectral clustering.

    For preset data each seed regenerates the dataset and seeds k-means;
    for a fixed input dataset the graphs are built once and the seed only
    drives k-means. Every graph of a dataset reads one neighbour table, as
    wide as the widest needs. The LLR grid is lambdas x k_values; heat and
    lle grids are k_values alone. Seeds may run in forked workers
    (_seed_workers), but cells are assembled in grid order, so reports are
    deterministic.
    """
    if (dataset is None) == (preset is None):
        raise InputError("exactly one of dataset or preset is required")
    if not methods:
        raise InputError("at least one method is required")
    if "llr" in methods and not lambdas:
        raise InputError("llr sweeps need at least one lambda")
    if not k_values:
        raise InputError("at least one k value is required")
    if not seeds:
        raise InputError("at least one seed is required")
    for name, values in (("methods", methods), ("lambdas", lambdas), ("k_values", k_values), ("seeds", seeds)):
        repeated = [v for i, v in enumerate(values) if v in values[:i]]
        if repeated:
            raise InputError(f"{name} lists {repeated[0]!r} more than once")
    if dataset is not None and dataset.labels is None:
        raise InputError("evaluation sweeps require labels")
    if preset is not None:
        spec = preset_spec(preset, per_subspace, noise_sigma, seed=0)  # n does not depend on the seed; seeds come last
        n = sum(count for _, count in spec.subspaces)
    else:
        # Unused without a preset, but range-checked all the same, against
        # the loosest spec: one line.
        SyntheticSpec(ambient_dim=1, subspaces=[(1, per_subspace)], noise_sigma=noise_sigma, seed=0)
        n = dataset.n
    # Every cell against n before the first seed's data: each lambda on its own
    # range, each (method, k) by graph_builder, whose builders build heat and lle.
    for lam in lambdas:
        HyperParams(lam=lam, d_dict=1)
    builders = {(method, k): graph_builder(method, n, k_keep=k, k_nn=k, d_dict=d_dict, epsilon=epsilon,
                                           sigma=sigma)[0] for method in methods for k in k_values}
    for seed in seeds:
        KMeansConfig(k=n_clusters, restarts=restarts, seed=seed).validate(n)
    dd = resolve_d_dict(d_dict, n)

    def graphs_of(X: np.ndarray):
        """(method, lam) and its graphs by k, in grid order, built as iterated."""
        table = neighbour_table(X, max(k_values + ([dd] if "llr" in methods else [])))
        for method in methods:
            if method == "llr":  # shares its solves across k through the family
                for lam in lambdas:
                    yield (method, lam), llr_graph_family(X, lam, dd, epsilon, k_values, table=table)
            else:  # no lambda, and one graph per k
                yield (method, None), {k: builders[method, k](X, table=table) for k in k_values}

    fixed_graphs = None if dataset is None else list(graphs_of(dataset.X))

    def seed_cells(seed: int) -> list[dict[str, Any]]:
        if preset is None:
            ds, grid = dataset, fixed_graphs
        else:
            ds = synth_union_of_subspaces(preset_spec(preset, per_subspace, noise_sigma, seed))
            grid = graphs_of(ds.X)
        cells = []
        for (method, lam), graphs in grid:
            for k in k_values:
                pred = cluster_graph(graphs[k], n_clusters, restarts, seed)
                m = evaluate_clustering(pred, ds.labels, graphs[k])
                cells.append({"method": method, "lambda": lam, "k": k, "seed": seed, **m})
        return cells

    cells = [cell for per_seed in _map_seeds(seed_cells, seeds) for cell in per_seed]

    summary: dict[str, Any] = {}
    for method in methods:
        rows = [c for c in cells if c["method"] == method]
        acs, nmis = np.array([c["ac"] for c in rows]), np.array([c["nmi"] for c in rows])
        summary[method] = {
            "mean_ac": float(acs.mean()),
            "max_ac": float(acs.max()),
            "mean_nmi": float(nmis.mean()),
            "max_nmi": float(nmis.max()),
            # max keeps the first of equally good cells in grid order, as argmax does
            "best": max(rows, key=lambda c: c["ac"]),
            "best_by_seed": {str(s): max((c for c in rows if c["seed"] == s), key=lambda c: c["ac"]) for s in seeds},
        }
    return {"cells": cells, "summary": summary}


_seed_task: Callable[[int], Any] | None = None  # set in forked workers only, by _init_worker


def _seed_workers(n_seeds: int) -> int:
    """Processes to run n_seeds independent seeds in; 1 means in-process.

    Forked workers are used only where they cannot oversubscribe the cores
    or inherit a lock held by another thread: OpenBLAS loaded with one thread
    (llrgraph/__init__.py), fork exists, this process runs no other Python
    thread and is no daemonic worker itself, and there are two seeds and two
    CPUs in this process's affinity mask. Fork, not spawn, because a spawned
    worker would pay the import again, about as long as a seed takes.
    """
    mp = sys.modules.get("multiprocessing")
    if not (_BLAS_ONE_THREAD and hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and threading.active_count() == 1 and not (mp and mp.current_process().daemon)):
        return 1
    return min(n_seeds, len(os.sched_getaffinity(0)))


def _init_worker(task: Callable[[int], Any]) -> None:
    global _seed_task
    _seed_task = task


def _run_seed(seed: int) -> tuple[Any, list[tuple], BaseException | None]:
    """One seed in a worker: the task's result, the warnings it raised, and
    its exception, which carries the worker's traceback as its cause."""
    from multiprocessing.pool import ExceptionWithTraceback

    with warnings.catch_warnings(record=True) as caught:
        try:
            result, error = _seed_task(seed), None
        except Exception as exc:  # returned, so the parent raises it after this seed's warnings
            result, error = None, ExceptionWithTraceback(exc, exc.__traceback__)
    return result, [(w.message, w.category, w.filename, w.lineno) for w in caught], error


def _map_seeds(task: Callable[[int], Any], seeds: list[int]) -> list[Any]:
    """[task(seed) for seed in seeds], in forked workers where _seed_workers allows.

    At most one seed per worker is in flight: the next starts when any
    finishes, and none after a failure. Results come in seed order. Each
    seed's warnings are re-emitted here, in order, under this process's
    filters and once-per-location registries, so stderr reads as in-process;
    the first failing seed's exception is raised.
    """
    workers = _seed_workers(len(seeds))
    if workers < 2:
        return [task(seed) for seed in seeds]
    import multiprocessing  # here only: importing llrgraph does not load it
    from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait

    modules = {getattr(m, "__file__", None): m for m in list(sys.modules.values())}
    futures, running = [], set()
    # A worker that dies breaks the executor, which then raises for its seed
    # where a multiprocessing Pool would wait forever. With fork it starts
    # every worker before a thread of its own, as _seed_workers requires.
    fork = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(workers, mp_context=fork, initializer=_init_worker, initargs=(task,)) as pool:
        for seed in seeds:
            if len(running) == workers:
                done, running = wait(running, return_when=FIRST_COMPLETED)
                if any(f.exception() is not None or f.result()[2] is not None for f in done):
                    break
            futures.append(pool.submit(_run_seed, seed))
            running.add(futures[-1])
    results = []
    for future in futures:
        result, caught, error = future.result()
        for message, category, filename, lineno in caught:
            module = modules.get(filename)
            where = {} if module is None else {
                "module": module.__name__,
                "registry": vars(module).setdefault("__warningregistry__", {}),
                "module_globals": vars(module),
            }
            warnings.warn_explicit(message, category, filename, lineno, **where)
        if error is not None:
            raise error
        results.append(result)
    return results
