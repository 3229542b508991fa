"""Command line driver.

Subcommands: synth, build-graph, cluster, embed-classify, eval. Every
command resolves its configuration from defaults, an optional flat JSON
config file, and flags (flags win), validates it before any computation,
and can emit a machine-readable JSON report embedding the resolved config
for exact replay. Exit codes: 0 success, 1 runtime or numerical error,
2 usage or validation error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np
from scipy.sparse import triu

from .baselines import heat_kernel_graph  # noqa: F401  (perfbench/spans.py times calls at this name)
from .data import (
    InputError,
    LabeledDataset,
    SyntheticSpec,
    load_csv,
    pca_fit,
    pca_transform,
    save_csv,
    synth_union_of_subspaces,
)
from .embedding import save_projection
from .graphio import _data_line, read_graph, read_labels, write_graph, write_labels
from .llr import build_llr_graph  # noqa: F401  (perfbench/spans.py times calls at this name)
from .metrics import intra_class_edge_mass
from .runs import GRAPH_METHODS, classify_run, cluster_graph, evaluate_clustering, graph_builder, preset_spec, resolve_d_dict, sweep_run
from .spectral import KMeansConfig

SCHEMA_VERSION = 1

EMBED_METHODS = ("npe", "lpp")
PRESETS = ("fig1",)


class UsageError(Exception):
    """Invalid flags, config files or paths; maps to exit code 2, as InputError does."""


# ---------------------------------------------------------------------------
# Parameter declarations


@dataclass(frozen=True)
class Param:
    key: str  # config/report key; flag is --key with dashes
    kind: str  # coercion rule
    default: Any = None
    required: bool = False
    choices: tuple[str, ...] | None = None
    help: str = ""

    @property
    def flag(self) -> str:
        return "--" + self.key.replace("_", "-")


def _graph_params() -> list[Param]:
    out = [
        Param("method", "choice", default="llr", choices=GRAPH_METHODS, help="graph construction method"),
        Param("lambda", "float", default=0.5, help="distance-regularization weight in [0, 1) (llr)"),
        Param("k_keep", "int", default=8, help="coefficients kept per point (llr)"),
        Param("d_dict", "ddict", default="auto", help="dictionary size, or 'auto' for min(300, n-1) (llr)"),
        Param("epsilon", "float", default=1e-9, help="ridge scale for the coefficient solve (llr, lle)"),
        Param("k_nn", "int", default=8, help="neighbors per point (heat, lle)"),
        Param("sigma", "sigma", default="auto", help="heat kernel bandwidth, or 'auto' for the median retained distance"),
    ]
    return out


_SYNTH_PARAMS = [
    Param("preset", "choice", choices=PRESETS, help="named configuration (fig1: ambient 3, subspace dims 1,1,2)"),
    Param("ambient_dim", "int", help="ambient dimension (custom mode)"),
    Param("dims", "intlist", help="comma-separated intrinsic dimensions, one per subspace (custom mode)"),
    Param("per_subspace", "int", default=50, help="points per subspace"),
    Param("noise", "float", default=0.01, help="isotropic noise standard deviation"),
    Param("seed", "int", default=0, help="generator seed"),
    Param("output", "path", required=True, help="output CSV path"),
]

_BUILD_GRAPH_PARAMS = [
    Param("input", "path", required=True, help="input CSV path"),
    Param("label_column", "labelcol", help="label column name or index (labels are carried, not used)"),
    Param("pca_energy", "energy", default=None, help="PCA energy fraction applied to all rows before the graph, or 'none'"),
    *_graph_params(),
    Param("output", "path", required=True, help="output graph path"),
]

_CLUSTER_PARAMS = [
    Param("input", "path", help="input CSV path (build the graph here)"),
    Param("graph", "path", help="prebuilt graph path (skip construction)"),
    Param("label_column", "labelcol", help="label column in the input CSV, enables AC/NMI"),
    Param("truth_labels", "path", help="label file with ground truth (graph mode), enables AC/NMI"),
    Param("pca_energy", "energy", default=None, help="PCA energy fraction applied to all rows before the graph, or 'none'"),
    *_graph_params(),
    Param("clusters", "int", required=True, help="number of clusters"),
    Param("restarts", "int", default=20, help="k-means restarts"),
    Param("seed", "int", default=0, help="k-means seed"),
    Param("output", "path", required=True, help="output label file"),
]

_EMBED_PARAMS = [
    Param("input", "path", required=True, help="input CSV path"),
    Param("label_column", "labelcol", required=True, help="label column name or index"),
    Param("method", "choice", default="npe", choices=EMBED_METHODS, help="embedding method"),
    Param("embed_dim", "int", required=True, help="embedding dimension"),
    Param("train_fraction", "float", default=0.5, help="fraction of each class used for training"),
    Param("stratified", "bool", default=True, help="split per class rather than globally"),
    Param("pca_energy", "energy", default=0.98, help="PCA energy fraction fit on the training split, or 'none'"),
    Param("seed", "int", default=0, help="split seed"),
    Param("lambda", "float", default=0.5, help="distance-regularization weight in [0, 1) (npe)"),
    Param("k_keep", "int", default=8, help="coefficients kept per point (npe)"),
    Param("d_dict", "ddict", default="auto", help="dictionary size, or 'auto' for min(300, n_train-1) (npe)"),
    Param("epsilon", "float", default=1e-9, help="ridge scale for the coefficient solve (npe)"),
    Param("npe_weights", "choice", default="coefficients", choices=("coefficients", "symmetrized"),
          help="reconstruction weights from raw coefficient rows or the symmetrized graph (npe)"),
    Param("k_nn", "int", default=8, help="neighbors per point (lpp)"),
    Param("sigma", "sigma", default="auto", help="heat kernel bandwidth or 'auto' (lpp)"),
    Param("projection_out", "path", help="optional CSV path for the learned projection"),
    Param("pred_out", "path", help="optional label file for test predictions"),
]

_EVAL_PARAMS = [
    Param("input", "path", help="input CSV path (fixed dataset mode)"),
    Param("label_column", "labelcol", help="label column name or index (fixed dataset mode)"),
    Param("preset", "choice", choices=PRESETS, help="synthetic preset regenerated per seed"),
    Param("per_subspace", "int", default=50, help="points per subspace (preset mode)"),
    Param("noise", "float", default=0.01, help="noise standard deviation (preset mode)"),
    Param("clusters", "int", help="number of clusters (default: subspace count of the preset)"),
    Param("methods", "strlist", default=["llr", "heat", "lle"], choices=GRAPH_METHODS,
          help="comma-separated graph methods to compare"),
    Param("lambdas", "floatlist", default=[0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9],
          help="comma-separated lambda grid (llr)"),
    Param("k_values", "intlist", default=[4, 8], help="comma-separated k grid (k_keep for llr, k_nn otherwise)"),
    Param("seeds", "intlist", default=list(range(10)), help="comma-separated seeds"),
    Param("d_dict", "ddict", default="auto", help="dictionary size, or 'auto' for min(300, n-1)"),
    Param("epsilon", "float", default=1e-9, help="ridge scale for the coefficient solve"),
    Param("sigma", "sigma", default="auto", help="heat kernel bandwidth or 'auto'"),
    Param("restarts", "int", default=20, help="k-means restarts"),
]


# ---------------------------------------------------------------------------
# Coercion


def _fail(p: Param, raw: Any, expected: str) -> UsageError:
    return UsageError(f"{p.flag}: expected {expected}, got {raw!r}")


def _as_int(p: Param, raw: Any) -> int:
    if isinstance(raw, bool):
        raise _fail(p, raw, "an integer")
    if isinstance(raw, int):
        return raw
    try:
        return int(str(raw), 10)
    except ValueError:
        raise _fail(p, raw, "an integer") from None


def _as_float(p: Param, raw: Any) -> float:
    if isinstance(raw, bool):
        raise _fail(p, raw, "a number")
    if isinstance(raw, (int, float)):
        return float(raw)
    try:
        return float(str(raw))
    except ValueError:
        raise _fail(p, raw, "a number") from None


def _split_list(p: Param, raw: Any) -> list[Any]:
    if isinstance(raw, (list, tuple)):
        return list(raw)
    if isinstance(raw, str):
        parts = [part.strip() for part in raw.split(",")]
        if any(not part for part in parts):
            raise _fail(p, raw, "a comma-separated list")
        return parts
    raise _fail(p, raw, "a comma-separated list")


def _coerce(p: Param, raw: Any) -> Any:
    if p.kind == "int":
        return _as_int(p, raw)
    if p.kind == "float":
        return _as_float(p, raw)
    if p.kind == "path":
        if not isinstance(raw, str) or not raw:
            raise _fail(p, raw, "a path")
        return raw
    if p.kind == "choice":
        if raw not in p.choices:
            raise _fail(p, raw, f"one of {', '.join(p.choices)}")
        return raw
    if p.kind == "bool":
        if isinstance(raw, bool):
            return raw
        raise _fail(p, raw, "true or false")
    if p.kind == "sigma":
        if raw == "auto":
            return "auto"
        return _as_float(p, raw)
    if p.kind == "ddict":
        if raw == "auto":
            return "auto"
        return _as_int(p, raw)
    if p.kind == "energy":
        if raw is None or raw == "none":
            return None
        return _as_float(p, raw)
    if p.kind == "labelcol":
        if isinstance(raw, bool):
            raise _fail(p, raw, "a column name or index")
        if isinstance(raw, int):
            return raw
        if isinstance(raw, str) and raw:
            return int(raw) if raw.lstrip("-").isdigit() else raw
        raise _fail(p, raw, "a column name or index")
    if p.kind == "intlist":
        return [_as_int(p, part) for part in _split_list(p, raw)]
    if p.kind == "floatlist":
        return [_as_float(p, part) for part in _split_list(p, raw)]
    if p.kind == "strlist":
        items = [str(part) for part in _split_list(p, raw)]
        for item in items:
            if p.choices and item not in p.choices:
                raise _fail(p, item, f"one of {', '.join(p.choices)}")
        return items
    raise AssertionError(f"unknown param kind {p.kind}")


# ---------------------------------------------------------------------------
# Config resolution


def _load_config(path: str, command: str) -> dict[str, Any]:
    p = Path(path)
    if not p.is_file():
        raise UsageError(f"config file not found: {path}")
    try:
        doc = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise UsageError(f"config file {path} is not valid JSON: {exc}") from None
    if isinstance(doc, dict) and "resolved_config" in doc:
        # replaying a report: take its embedded config
        if doc.get("command") != command:
            raise UsageError(
                f"config file {path} is a report for command {doc.get('command')!r}, not {command!r}"
            )
        doc = doc["resolved_config"]
    if not isinstance(doc, dict):
        raise UsageError(f"config file {path} must hold a JSON object")
    return doc


def _resolve(params: list[Param], args: argparse.Namespace, command: str) -> tuple[dict[str, Any], set[str]]:
    """Merge defaults, config file, and flags; flags win. Returns the resolved
    mapping and the set of keys given explicitly on the command line."""
    config_data: dict[str, Any] = {}
    if args.config is not None:
        config_data = _load_config(args.config, command)
        known = {p.key for p in params}
        unknown = sorted(set(config_data) - known)
        if unknown:
            raise UsageError(f"unknown config keys for {command}: {', '.join(unknown)}")

    resolved: dict[str, Any] = {}
    explicit: set[str] = set()
    for p in params:
        raw = getattr(args, p.key)
        if raw is not None:
            explicit.add(p.key)
        elif p.key in config_data:
            raw = config_data[p.key]
        if raw is None:
            if p.required:
                raise UsageError(f"{p.flag} is required")
            resolved[p.key] = p.default
        else:
            resolved[p.key] = _coerce(p, raw)
    return resolved, explicit


def _check_output_dir(p: Param, path: str) -> None:
    parent = Path(path).parent
    if not parent.is_dir():
        raise UsageError(f"{p.flag}: directory does not exist: {parent}")


def _require_file(flag: str, path: str) -> None:
    if not Path(path).is_file():
        raise UsageError(f"{flag}: file not found: {path}")


def _reject_explicit(explicit: set[str], keys: list[str], why: str) -> None:
    bad = [k for k in keys if k in explicit]
    if bad:
        flag = "--" + bad[0].replace("_", "-")
        raise UsageError(f"{flag} has no effect {why}")


def _auto(value: Any) -> Any:
    return None if value == "auto" else value


# ---------------------------------------------------------------------------
# Stage timing


class Stages:
    """Wall-clock per stage; disabled unless --timings so that reports stay
    byte-identical across reruns by default."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.seconds: dict[str, float] = {}

    @contextmanager
    def stage(self, name: str):
        if not self.enabled:
            yield
            return
        start = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[name] = time.perf_counter() - start

    def report(self) -> dict[str, float] | None:
        return dict(self.seconds) if self.enabled else None


@dataclass
class CommandResult:
    resolved: dict[str, Any]
    metrics: dict[str, Any]
    artifacts: dict[str, str] = field(default_factory=dict)
    derived: dict[str, Any] = field(default_factory=dict)
    seed: Any = None
    lines: list[str] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Command implementations


def _cmd_synth(resolved: dict[str, Any], explicit: set[str], stages: Stages) -> CommandResult:
    if resolved["preset"] is not None:
        _reject_explicit(explicit, ["ambient_dim", "dims"], "together with --preset")
        spec = preset_spec(resolved["preset"], resolved["per_subspace"], resolved["noise"], resolved["seed"])
        resolved = {k: v for k, v in resolved.items() if k not in ("ambient_dim", "dims")}
    else:
        if resolved["ambient_dim"] is None or resolved["dims"] is None:
            raise UsageError("either --preset or both --ambient-dim and --dims are required")
        spec = SyntheticSpec(
            ambient_dim=resolved["ambient_dim"],
            subspaces=[(d, resolved["per_subspace"]) for d in resolved["dims"]],
            noise_sigma=resolved["noise"],
            seed=resolved["seed"],
        )
        resolved = {k: v for k, v in resolved.items() if k != "preset"}
    _check_output_dir(Param("output", "path"), resolved["output"])

    with stages.stage("synth"):
        ds = synth_union_of_subspaces(spec)
    with stages.stage("write"):
        save_csv(resolved["output"], ds)

    return CommandResult(
        resolved=resolved,
        metrics={"n": ds.n, "m": ds.m, "n_classes": ds.n_classes},
        artifacts={"dataset": resolved["output"]},
        seed=resolved["seed"],
        lines=[f"wrote {resolved['output']} (n={ds.n}, m={ds.m}, classes={ds.n_classes})"],
    )


def _graph_from_csv(
    resolved: dict[str, Any], stages: Stages, kmeans: KMeansConfig | None = None
) -> tuple[LabeledDataset, Any, dict[str, Any]]:
    """Load --input, validate the graph parameters (and the optional k-means
    configuration) against its size, then apply the optional PCA and build
    the graph with --method."""
    with stages.stage("load"):
        ds = load_csv(resolved["input"], label_column=resolved["label_column"])
    build, derived = graph_builder(
        resolved["method"], ds.n, lam=resolved["lambda"], d_dict=_auto(resolved["d_dict"]),
        **{key: resolved[key] for key in ("k_keep", "epsilon", "k_nn", "sigma")},
    )
    if kmeans is not None:
        kmeans.validate(ds.n)
    X = ds.X
    with stages.stage("pca"):
        if resolved["pca_energy"] is not None:
            model = pca_fit(X, energy=resolved["pca_energy"])
            X = pca_transform(model, X)
            derived["pca_dim"] = model.d
    with stages.stage("graph"):
        W = build(X)
    return ds, W, derived


def _cmd_build_graph(resolved: dict[str, Any], explicit: set[str], stages: Stages) -> CommandResult:
    _require_file("--input", resolved["input"])
    _check_output_dir(Param("output", "path"), resolved["output"])
    ds, W, derived = _graph_from_csv(resolved, stages)
    with stages.stage("write"):
        write_graph(resolved["output"], W)

    metrics: dict[str, Any] = {"n": ds.n, "m": ds.m, "nnz": int(W.nnz)}
    if ds.labels is not None:
        metrics["intra_class_edge_mass"] = intra_class_edge_mass(W, ds.labels)
    lines = [f"wrote {resolved['output']} (n={ds.n}, nnz={int(W.nnz)})"]
    if "intra_class_edge_mass" in metrics:
        lines.append(f"intra_class_edge_mass={metrics['intra_class_edge_mass']!r}")
    return CommandResult(
        resolved=resolved, metrics=metrics, artifacts={"graph": resolved["output"]},
        derived=derived, seed=None, lines=lines,
    )


_GRAPH_ONLY_KEYS = ["method", "lambda", "k_keep", "d_dict", "epsilon", "k_nn", "sigma", "pca_energy", "label_column", "input"]


def _cmd_cluster(resolved: dict[str, Any], explicit: set[str], stages: Stages) -> CommandResult:
    have_input = resolved["input"] is not None
    have_graph = resolved["graph"] is not None
    if have_input == have_graph:
        raise UsageError("exactly one of --input and --graph is required")
    _check_output_dir(Param("output", "path"), resolved["output"])

    derived: dict[str, Any] = {}
    if have_input:
        _reject_explicit(explicit, ["truth_labels"], "with --input (labels come from --label-column)")
        resolved = {k: v for k, v in resolved.items() if k not in ("graph", "truth_labels")}
        _require_file("--input", resolved["input"])
        kmeans = KMeansConfig(k=resolved["clusters"], restarts=resolved["restarts"], seed=resolved["seed"])
        ds, W, derived = _graph_from_csv(resolved, stages, kmeans)
        truth = ds.labels
    else:
        _reject_explicit(explicit, _GRAPH_ONLY_KEYS, "with --graph (the graph is already built)")
        resolved = {k: v for k, v in resolved.items() if k not in _GRAPH_ONLY_KEYS}
        _require_file("--graph", resolved["graph"])
        graph = resolved["graph"]
        with stages.stage("load"):
            W = read_graph(graph)
            n = W.shape[0]
            if W.nnz and W.data.min() < 0:
                # Stored upper-triangle entries are the file's edge lines, in order.
                upper = triu(W, k=1, format="coo")
                e = int(np.argmax(upper.data < 0))
                raise UsageError(f"{graph}: edge ({upper.row[e]}, {upper.col[e]}) has negative weight "
                                 f"{float(upper.data[e])!r} ({graph}:{_data_line(graph, e, first=2)}); "
                                 "similarity weights must be nonnegative")
            if resolved["clusters"] > n:
                raise UsageError(f"{graph}:1: the graph has n={n} nodes, fewer than --clusters {resolved['clusters']}")
            truth = None
            if resolved["truth_labels"] is not None:
                _require_file("--truth-labels", resolved["truth_labels"])
                truth = read_labels(resolved["truth_labels"])
                if truth.shape[0] != n:
                    line = _data_line(resolved["truth_labels"], n)
                    raise UsageError(
                        f"{resolved['truth_labels']}:{line}: got {truth.shape[0]} labels for a graph on {n} nodes"
                    )

    k = resolved["clusters"]
    with stages.stage("cluster"):
        pred = cluster_graph(W, k, resolved["restarts"], resolved["seed"])
    with stages.stage("write"):
        write_labels(resolved["output"], pred)

    metrics: dict[str, Any] = {"n": int(W.shape[0]), "clusters": k}
    lines = [f"wrote {resolved['output']} (n={W.shape[0]}, clusters={k})"]
    if truth is not None:
        scores = evaluate_clustering(pred, truth, W)
        metrics.update(scores)
        lines.append(" ".join(f"{name}={scores[name]!r}" for name in ("ac", "nmi", "intra_class_edge_mass")))
    return CommandResult(
        resolved=resolved, metrics=metrics, artifacts={"labels": resolved["output"]},
        derived=derived, seed=resolved["seed"], lines=lines,
    )


_NPE_KEYS = ["lambda", "k_keep", "d_dict", "epsilon", "npe_weights"]
_LPP_KEYS = ["k_nn", "sigma"]


def _cmd_embed_classify(resolved: dict[str, Any], explicit: set[str], stages: Stages) -> CommandResult:
    method = resolved["method"]
    ignored = _LPP_KEYS if method == "npe" else _NPE_KEYS
    _reject_explicit(explicit, ignored, f"with --method {method}")
    _require_file("--input", resolved["input"])
    for key in ("projection_out", "pred_out"):
        if resolved[key] is not None:
            _check_output_dir(Param(key, "path"), resolved[key])

    with stages.stage("load"):
        ds = load_csv(resolved["input"], label_column=resolved["label_column"])

    with stages.stage("run"):
        result = classify_run(
            ds,
            method=method,
            embed_dim=resolved["embed_dim"],
            train_fraction=resolved["train_fraction"],
            pca_energy=resolved["pca_energy"],
            seed=resolved["seed"],
            stratified=resolved["stratified"],
            lam=resolved["lambda"],
            d_dict=_auto(resolved["d_dict"]),
            **{key: resolved[key] for key in ("k_keep", "epsilon", "k_nn", "sigma", "npe_weights")},
        )

    artifacts: dict[str, str] = {}
    with stages.stage("write"):
        if resolved["projection_out"] is not None:
            save_projection(resolved["projection_out"], result["projection"])
            artifacts["projection"] = resolved["projection_out"]
        if resolved["pred_out"] is not None:
            write_labels(resolved["pred_out"], result["pred"])
            artifacts["predictions"] = resolved["pred_out"]

    derived: dict[str, Any] = {"pca_dim": result["pca_dim"]}
    if method == "npe":
        derived["d_dict"] = resolve_d_dict(_auto(resolved["d_dict"]), result["n_train"])
    resolved = {k: v for k, v in resolved.items() if k not in ignored}
    metrics = {
        "accuracy": result["accuracy"],
        "n_train": result["n_train"],
        "n_test": result["n_test"],
        "pca_dim": result["pca_dim"],
        "embed_dim": result["embed_dim"],
    }
    lines = [
        f"accuracy={result['accuracy']!r} "
        f"(method={method}, n_train={result['n_train']}, n_test={result['n_test']}, "
        f"pca_dim={result['pca_dim']}, embed_dim={result['embed_dim']})"
    ]
    return CommandResult(
        resolved=resolved, metrics=metrics, artifacts=artifacts,
        derived=derived, seed=resolved["seed"], lines=lines,
    )


def _format_cell(cell: dict[str, Any]) -> str:
    parts = []
    if cell["lambda"] is not None:
        parts.append(f"lambda={cell['lambda']:g}")
    parts.append(f"k={cell['k']}")
    parts.append(f"seed={cell['seed']}")
    parts.append(f"ac={cell['ac']:.4f}")
    parts.append(f"nmi={cell['nmi']:.4f}")
    return " ".join(parts)


def _cmd_eval(resolved: dict[str, Any], explicit: set[str], stages: Stages) -> CommandResult:
    have_input = resolved["input"] is not None
    have_preset = resolved["preset"] is not None
    if have_input == have_preset:
        raise UsageError("exactly one of --input and --preset is required")

    dataset = None
    if have_input:
        ignored = ["preset", "per_subspace", "noise"]
        _reject_explicit(explicit, ignored, "with --input")
        if resolved["clusters"] is None:
            raise UsageError("--clusters is required with --input")
        _require_file("--input", resolved["input"])
        if resolved["label_column"] is None:
            raise UsageError("--label-column is required with --input: sweeps score against ground truth")
        with stages.stage("load"):
            dataset = load_csv(resolved["input"], label_column=resolved["label_column"])
    else:
        ignored = ["input", "label_column"]
        _reject_explicit(explicit, ignored, "with --preset")
        if resolved["clusters"] is None:
            preset = preset_spec(resolved["preset"], resolved["per_subspace"], resolved["noise"], seed=0)
            resolved["clusters"] = len(preset.subspaces)

    with stages.stage("sweep"):
        out = sweep_run(
            dataset=dataset,
            preset=resolved["preset"],
            per_subspace=resolved["per_subspace"],
            noise_sigma=resolved["noise"],
            n_clusters=resolved["clusters"],
            methods=resolved["methods"],
            lambdas=resolved["lambdas"],
            k_values=resolved["k_values"],
            seeds=resolved["seeds"],
            d_dict=_auto(resolved["d_dict"]),
            epsilon=resolved["epsilon"],
            sigma=resolved["sigma"],
            restarts=resolved["restarts"],
        )
    resolved = {k: v for k, v in resolved.items() if k not in ignored}

    header = f"{'method':<8}{'mean_ac':>9}{'max_ac':>9}{'mean_nmi':>10}{'max_nmi':>10}  best"
    lines = [header]
    for method in resolved["methods"]:
        s = out["summary"][method]
        lines.append(
            f"{method:<8}{s['mean_ac']:>9.4f}{s['max_ac']:>9.4f}"
            f"{s['mean_nmi']:>10.4f}{s['max_nmi']:>10.4f}  {_format_cell(s['best'])}"
        )
    return CommandResult(
        resolved=resolved,
        metrics={"cells": out["cells"], "summary": out["summary"]},
        seed=resolved["seeds"],
        lines=lines,
    )


# ---------------------------------------------------------------------------
# Wiring


@dataclass(frozen=True)
class Command:
    name: str
    params: list[Param]
    run: Callable[[dict[str, Any], set[str], Stages], CommandResult]
    help: str


COMMANDS = {
    "synth": Command("synth", _SYNTH_PARAMS, _cmd_synth, "generate a labeled union-of-subspaces CSV"),
    "build-graph": Command("build-graph", _BUILD_GRAPH_PARAMS, _cmd_build_graph, "build a similarity graph from a CSV"),
    "cluster": Command("cluster", _CLUSTER_PARAMS, _cmd_cluster, "spectral clustering of a dataset or prebuilt graph"),
    "embed-classify": Command("embed-classify", _EMBED_PARAMS, _cmd_embed_classify,
                              "learn a linear embedding on a train split and score 1-NN on the test split"),
    "eval": Command("eval", _EVAL_PARAMS, _cmd_eval, "grid comparison of graph methods under spectral clustering"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="llrgraph", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="command")
    for cmd in COMMANDS.values():
        sp = sub.add_parser(cmd.name, help=cmd.help)
        for p in cmd.params:
            if p.kind == "bool":
                sp.add_argument(p.flag, action=argparse.BooleanOptionalAction, default=None, help=p.help)
            else:
                sp.add_argument(p.flag, default=None, metavar=p.kind.upper(), help=p.help)
        sp.add_argument("--config", default=None, metavar="PATH",
                        help="flat JSON config file (or a prior report); flags override it")
        sp.add_argument("--report", default=None, metavar="PATH", help="write a JSON run report here")
        sp.add_argument("--timings", action="store_true", default=False,
                        help="include wall-clock per stage in the report (reports then vary across runs)")
    return parser


def _jsonable(value: Any) -> Any:
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        return value.item()
    return value


def _write_report(path: str, command: str, result: CommandResult, stages: Stages) -> None:
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "resolved_config": _jsonable(result.resolved),
        "derived": _jsonable(result.derived),
        "metrics": _jsonable(result.metrics),
        "artifacts": _jsonable(result.artifacts),
        "seed": _jsonable(result.seed),
        "timings": stages.report(),
    }
    Path(path).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if exc.code is not None else 0
        return 0 if code == 0 else 2
    if args.command is None:
        parser.print_help(sys.stderr)
        return 2

    cmd = COMMANDS[args.command]
    stages = Stages(enabled=args.timings)
    try:
        resolved, explicit = _resolve(cmd.params, args, cmd.name)
        if args.report is not None:
            _check_output_dir(Param("report", "path"), args.report)
        result = cmd.run(resolved, explicit, stages)
    except (UsageError, InputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # numerical/runtime failures map to exit 1
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1

    for line in result.lines:
        print(line)
    if args.report is not None:
        _write_report(args.report, cmd.name, result, stages)
    return 0


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
