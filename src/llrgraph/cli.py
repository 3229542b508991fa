"""Command line driver.

Subcommands: synth, build-graph, cluster, embed-classify, eval. Every
command resolves its configuration from defaults, an optional flat JSON
config file, and flags (flags win), validates it before any computation,
and can emit a machine-readable JSON report embedding the resolved config
for exact replay. A command with two modes (cluster, embed-classify, eval,
synth) rejects a flag of the other mode, and its report records only the
keys of the mode that ran. Exit codes: 0 success, 1 runtime or numerical error,
2 usage or validation error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable

from .baselines import HeatKernelParams, heat_kernel_graph  # noqa: F401  (perfbench/spans.py times calls at this name)
from .data import (
    InputError,
    LabeledDataset,
    SyntheticSpec,
    check_pca_energy,
    load_csv,
    pca_fit,
    pca_transform,
    read_text,
    save_csv,
    synth_union_of_subspaces,
)
from .embedding import save_projection
from .graphio import read_graph, read_labels, write_graph, write_labels
from .llr import HyperParams, build_llr_graph  # noqa: F401  (perfbench/spans.py times calls at this name)
from .metrics import intra_class_edge_mass
from .runs import (
    DEFAULT_D_DICT, DEFAULT_D_DICT_CAP, DEFAULT_NOISE, DEFAULT_PCA_ENERGY, DEFAULT_PER_SUBSPACE, DEFAULT_TRAIN_FRACTION,
    EMBED_METHODS,
    GRAPH_METHODS,
    PRESETS,
    classify_run,
    cluster_graph,
    evaluate_clustering,
    graph_builder,
    preset_spec,
    sweep_run,
)
from .spectral import KMeansConfig

SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# Parameter declarations


@dataclass(frozen=True)
class Param:
    key: str  # config/report key; flag is --key with dashes
    kind: str  # coercion rule; an infile must exist, an outfile's directory must
    default: Any = None
    required: bool = False  # in the modes it applies in
    choices: tuple[str, ...] | None = None
    help: str = ""
    modes: tuple[str, ...] = ()  # the command modes it applies in; () is every mode

    @property
    def flag(self) -> str:
        return "--" + self.key.replace("_", "-")


def _graph_params(llr: tuple[str, ...], heat: tuple[str, ...]) -> list[Param]:
    """The graph parameters: llr's four apply in the modes llr, the heat kernel's two in the modes heat."""
    return [
        Param("lambda", "float", default=HyperParams.lam, modes=llr, help="distance-regularization weight in [0, 1) (llr)"),
        Param("k_keep", "int", default=HyperParams.k_keep, modes=llr, help="coefficients kept per point (llr)"),
        Param("d_dict", "ddict", default=DEFAULT_D_DICT, modes=llr,
              help=f"dictionary size, or 'auto' for min({DEFAULT_D_DICT_CAP}, n-1) (llr)"),
        Param("epsilon", "float", default=HyperParams.epsilon, modes=llr, help="ridge scale for the coefficient solve (llr, lle)"),
        Param("k_nn", "int", default=HeatKernelParams.k_nn, modes=heat, help="neighbors per point (heat, lle)"),
        Param("sigma", "sigma", default=HeatKernelParams.sigma, modes=heat,
              help="heat kernel bandwidth, or 'auto' for the median retained distance"),
    ]


_METHOD = Param("method", "choice", default="llr", choices=GRAPH_METHODS, help="graph construction method")


_SYNTH_PARAMS = [
    Param("preset", "choice", choices=PRESETS, modes=("preset",),
          help="named configuration (fig1: ambient 3, subspace dims 1,1,2)"),
    Param("ambient_dim", "int", required=True, modes=("custom",), help="ambient dimension"),
    Param("dims", "intlist", required=True, modes=("custom",),
          help="comma-separated intrinsic dimensions, one per subspace"),
    Param("per_subspace", "int", default=DEFAULT_PER_SUBSPACE, help="points per subspace"),
    Param("noise", "float", default=DEFAULT_NOISE, help="isotropic noise standard deviation"),
    Param("seed", "int", default=0, help="generator seed"),
    Param("output", "outfile", required=True, help="output CSV path"),
]

_BUILD_GRAPH_PARAMS = [
    Param("input", "infile", required=True, help="input CSV path"),
    Param("label_column", "labelcol", help="label column name or index (labels are carried, not used)"),
    Param("pca_energy", "energy", default=None, help="PCA energy fraction applied to all rows before the graph, or 'none'"),
    _METHOD,
    *_graph_params((), ()),
    Param("output", "outfile", required=True, help="output graph path"),
]

_CLUSTER_PARAMS = [
    Param("input", "infile", modes=("input",), help="input CSV path (build the graph here)"),
    Param("graph", "infile", modes=("graph",), help="prebuilt graph path (skip construction)"),
    Param("label_column", "labelcol", modes=("input",), help="label column in the input CSV, enables AC/NMI"),
    Param("truth_labels", "infile", modes=("graph",), help="label file with ground truth, enables AC/NMI"),
    Param("pca_energy", "energy", default=None, modes=("input",),
          help="PCA energy fraction applied to all rows before the graph, or 'none'"),
    replace(_METHOD, modes=("input",)),
    *_graph_params(("input",), ("input",)),
    Param("clusters", "int", required=True, help="number of clusters"),
    Param("restarts", "int", default=KMeansConfig.restarts, help="k-means restarts"),
    Param("seed", "int", default=0, help="k-means seed"),
    Param("output", "outfile", required=True, help="output label file"),
]

_EMBED_PARAMS = [
    Param("input", "infile", required=True, help="input CSV path"),
    Param("label_column", "labelcol", required=True, help="label column name or index"),
    Param("method", "choice", default="npe", choices=EMBED_METHODS, help="embedding method"),
    Param("embed_dim", "int", required=True, help="embedding dimension"),
    Param("train_fraction", "float", default=DEFAULT_TRAIN_FRACTION, help="fraction of each class used for training"),
    Param("pca_energy", "energy", default=DEFAULT_PCA_ENERGY, help="PCA energy fraction fit on the training split, or 'none'"),
    Param("seed", "int", default=0, help="split seed"),
    *_graph_params(("npe",), ("lpp",)),
    Param("projection_out", "outfile", help="optional CSV path for the learned projection"),
    Param("pred_out", "outfile", help="optional label file for test predictions"),
]

_EVAL_PARAMS = [
    Param("input", "infile", modes=("input",), help="input CSV path (a fixed dataset)"),
    Param("label_column", "labelcol", required=True, modes=("input",),
          help="label column name or index; sweeps score against ground truth"),
    Param("preset", "choice", choices=PRESETS, modes=("preset",), help="synthetic preset regenerated per seed"),
    Param("per_subspace", "int", default=DEFAULT_PER_SUBSPACE, modes=("preset",), help="points per subspace"),
    Param("noise", "float", default=DEFAULT_NOISE, modes=("preset",), help="noise standard deviation"),
    Param("clusters", "int", help="number of clusters (default: subspace count of the preset)"),
    Param("methods", "strlist", default=["llr", "heat", "lle"], choices=GRAPH_METHODS,
          help="comma-separated graph methods to compare"),
    Param("lambdas", "floatlist", default=[0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9],
          help="comma-separated lambda grid (llr)"),
    Param("k_values", "intlist", default=[4, 8], help="comma-separated k grid (k_keep for llr, k_nn otherwise)"),
    Param("seeds", "intlist", default=list(range(10)), help="comma-separated seeds"),
    # The lambdas and k_values grids stand in for the other three graph flags.
    *(p for p in _graph_params((), ()) if p.key in ("d_dict", "epsilon", "sigma")),
    Param("restarts", "int", default=KMeansConfig.restarts, help="k-means restarts"),
]


# ---------------------------------------------------------------------------
# Coercion


def _fail(p: Param, raw: Any, expected: str) -> InputError:
    return InputError(f"{p.flag}: expected {expected}, got {raw!r}")


def _split_list(p: Param, raw: Any) -> list[Any]:
    if isinstance(raw, (list, tuple)):
        return list(raw)
    parts = [part.strip() for part in raw.split(",")] if isinstance(raw, str) else [""]
    if not all(parts):
        raise _fail(p, raw, "a comma-separated list")
    return parts


# Kinds that follow a base kind's rule: each word kind also takes one word,
# which stands for a value, and each list kind is a comma list of items.
_WORDS = {"sigma": ("float", "auto", "auto"), "ddict": ("int", "auto", "auto"), "energy": ("float", "none", None)}
_LISTS = {"intlist": "int", "floatlist": "float", "strlist": "choice"}


def _coerce(p: Param, raw: Any) -> Any:
    if p.kind in _WORDS:
        base, word, value = _WORDS[p.kind]
        return value if raw == word else _coerce(replace(p, kind=base), raw)
    if p.kind in _LISTS:
        item = replace(p, kind=_LISTS[p.kind])
        # Choice items are matched, and named in errors, as text.
        return [_coerce(item, str(part) if item.kind == "choice" else part) for part in _split_list(p, raw)]
    if p.kind in ("int", "float"):
        number, expected = (int, "an integer") if p.kind == "int" else (float, "a number")
        if isinstance(raw, (int, number)) and not isinstance(raw, bool):  # a JSON number of the kind
            return number(raw)
        try:
            return number(str(raw))
        except ValueError:
            raise _fail(p, raw, expected) from None
    if p.kind in ("infile", "outfile"):
        if not isinstance(raw, str) or not raw:
            raise _fail(p, raw, "a path")
        return raw
    if p.kind == "choice":
        if raw not in p.choices:
            raise _fail(p, raw, f"one of {', '.join(p.choices)}")
        return raw
    if p.kind == "labelcol":
        if isinstance(raw, bool):
            raise _fail(p, raw, "a column name or index")
        if isinstance(raw, int):
            return raw
        if isinstance(raw, str) and raw:
            return int(raw) if raw.lstrip("-").isdigit() else raw
        raise _fail(p, raw, "a column name or index")
    raise AssertionError(f"unknown param kind {p.kind}")


# ---------------------------------------------------------------------------
# Config resolution


def _load_config(path: str, command: str) -> dict[str, Any]:
    p = Path(path)
    if not p.is_file():
        raise InputError(f"config file not found: {path}")
    try:
        doc = json.loads(read_text(p))
    except json.JSONDecodeError as exc:
        raise InputError(f"config file {path} is not valid JSON: {exc}") from None
    if isinstance(doc, dict) and "resolved_config" in doc:
        # replaying a report: take its embedded config
        if doc.get("command") != command:
            raise InputError(
                f"config file {path} is a report for command {doc.get('command')!r}, not {command!r}"
            )
        doc = doc["resolved_config"]
    if not isinstance(doc, dict):
        raise InputError(f"config file {path} must hold a JSON object")
    return doc


def _one_of(a: str, b: str) -> Callable[[dict[str, Any]], str]:
    """A mode rule: the mode is named after whichever of keys a and b is set."""
    def mode(resolved: dict[str, Any]) -> str:
        if (resolved[a] is None) == (resolved[b] is None):
            raise InputError(f"exactly one of --{a} and --{b} is required")
        return a if resolved[a] is not None else b
    return mode


def _check_path(p: Param, path: str) -> None:
    if p.kind == "infile" and not Path(path).is_file():
        raise InputError(f"{p.flag}: file not found: {path}")
    if p.kind == "outfile" and not Path(path).parent.is_dir():
        raise InputError(f"{p.flag}: directory does not exist: {Path(path).parent}")


_REPORT = Param("report", "outfile", help="write a JSON run report here")


def _resolve(cmd: Command, args: argparse.Namespace) -> tuple[dict[str, Any], list[str]]:
    """Merge defaults, config file, and flags; flags win. Then pick the
    command's mode and, for each parameter, reject a flag of another mode,
    require the required ones of this mode and check this mode's files.

    Returns every resolved value, config values of another mode included
    (they change nothing, but the command receives them), and the keys of
    this mode, which the report records."""
    config_data: dict[str, Any] = {}
    if args.config is not None:
        config_data = _load_config(args.config, cmd.name)
        unknown = sorted(set(config_data) - {p.key for p in cmd.params})
        if unknown:
            raise InputError(f"unknown config keys for {cmd.name}: {', '.join(unknown)}")

    resolved: dict[str, Any] = {}
    for p in cmd.params:
        raw = getattr(args, p.key)
        if raw is None:
            raw = config_data.get(p.key)
            if raw is None and p.kind == "energy" and p.key in config_data:
                raw = "none"  # a report records 'none' as null
        resolved[p.key] = p.default if raw is None else _coerce(p, raw)

    mode = cmd.mode(resolved)
    keys: list[str] = []
    for p in cmd.params:
        if p.modes and mode not in p.modes:
            if getattr(args, p.key) is not None:
                raise InputError(f"{p.flag} has no effect in {cmd.name} {mode} mode")
            continue
        if resolved[p.key] is None:
            if p.required:
                raise InputError(f"{p.flag} is required" + (f" in {cmd.name} {mode} mode" if p.modes else ""))
        else:
            _check_path(p, resolved[p.key])
        keys.append(p.key)
    if args.report is not None:
        _check_path(_REPORT, args.report)
    return resolved, keys


def _graph_kwargs(resolved: dict[str, Any]) -> dict[str, Any]:
    """The graph parameters as the library's graph functions take them."""
    return {"lam": resolved["lambda"],
            **{key: resolved[key] for key in ("k_keep", "d_dict", "epsilon", "k_nn", "sigma")}}


# ---------------------------------------------------------------------------
# Stage timing


Timings = dict[str, float] | None  # seconds per stage; None without --timings


@contextmanager
def _stage(timings: Timings, name: str):
    """Record the block's wall-clock seconds as timings[name]; with timings
    None, record nothing, so that default reports stay byte-identical across reruns."""
    if timings is None:
        yield
        return
    start = time.perf_counter()
    try:
        yield
    finally:
        timings[name] = time.perf_counter() - start


@dataclass
class CommandResult:
    metrics: dict[str, Any]
    artifacts: dict[str, str] = field(default_factory=dict)
    derived: dict[str, Any] = field(default_factory=dict)
    seed: Any = None
    lines: list[str] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Command implementations


def _cmd_synth(resolved: dict[str, Any], timings: Timings) -> CommandResult:
    # In preset mode the custom values come only from a config file: unused,
    # but range-checked all the same, with the loosest stand-in for one unset.
    dims = [1] if resolved["dims"] is None else resolved["dims"]
    spec = SyntheticSpec(
        ambient_dim=max([1, *dims]) if resolved["ambient_dim"] is None else resolved["ambient_dim"],
        subspaces=[(d, resolved["per_subspace"]) for d in dims],
        noise_sigma=resolved["noise"],
        seed=resolved["seed"],
    )
    if resolved["preset"] is not None:
        spec = preset_spec(resolved["preset"], resolved["per_subspace"], resolved["noise"], resolved["seed"])

    with _stage(timings, "synth"):
        ds = synth_union_of_subspaces(spec)
    with _stage(timings, "write"):
        save_csv(resolved["output"], ds)

    return CommandResult(
        metrics={"n": ds.n, "m": ds.m, "n_classes": ds.n_classes},
        artifacts={"dataset": resolved["output"]},
        seed=resolved["seed"],
        lines=[f"wrote {resolved['output']} (n={ds.n}, m={ds.m}, classes={ds.n_classes})"],
    )


def _graph_from_csv(
    resolved: dict[str, Any], timings: Timings, clusters: bool = False
) -> tuple[LabeledDataset, Any, dict[str, Any]]:
    """Load --input, validate the graph parameters (and, with clusters, the
    k-means parameters) against its size, then apply the optional PCA and
    build the graph with --method."""
    with _stage(timings, "load"):
        ds = load_csv(resolved["input"], label_column=resolved["label_column"])
    build, derived = graph_builder(resolved["method"], ds.n, **_graph_kwargs(resolved))
    if clusters:
        KMeansConfig(k=resolved["clusters"], restarts=resolved["restarts"], seed=resolved["seed"]).validate(ds.n)
    X = ds.X
    with _stage(timings, "pca"):
        if resolved["pca_energy"] is not None:
            model = pca_fit(X, energy=resolved["pca_energy"])
            X = pca_transform(model, X)
            derived["pca_dim"] = model.d
    with _stage(timings, "graph"):
        W = build(X)
    return ds, W, derived


def _cmd_build_graph(resolved: dict[str, Any], timings: Timings) -> CommandResult:
    ds, W, derived = _graph_from_csv(resolved, timings)
    metrics: dict[str, Any] = {"n": ds.n, "m": ds.m, "nnz": int(W.nnz)}
    # Both checks come before the write, so that a graph they reject leaves no file.
    if not W.data.sum() > 0:
        raise ValueError("graph has no edge mass")
    if ds.labels is not None:
        metrics["intra_class_edge_mass"] = intra_class_edge_mass(W, ds.labels)
    with _stage(timings, "write"):
        write_graph(resolved["output"], W)

    lines = [f"wrote {resolved['output']} (n={ds.n}, nnz={int(W.nnz)})"]
    if "intra_class_edge_mass" in metrics:
        lines.append(f"intra_class_edge_mass={metrics['intra_class_edge_mass']!r}")
    return CommandResult(
        metrics=metrics, artifacts={"graph": resolved["output"]}, derived=derived, seed=None, lines=lines,
    )


def _cmd_cluster(resolved: dict[str, Any], timings: Timings) -> CommandResult:
    derived: dict[str, Any] = {}
    if resolved["input"] is not None:
        ds, W, derived = _graph_from_csv(resolved, timings, clusters=True)
        truth = ds.labels
    else:
        # Input-mode values from a config file build nothing here, but are
        # range-checked as in input mode.
        graph_builder(resolved["method"], None, **_graph_kwargs(resolved))
        if resolved["pca_energy"] is not None:
            check_pca_energy(resolved["pca_energy"])
        graph = resolved["graph"]
        with _stage(timings, "load"):
            W = read_graph(graph)
            n = W.shape[0]
            if resolved["clusters"] > n:
                raise InputError(f"{graph}:1: the graph has n={n} nodes, fewer than --clusters {resolved['clusters']}")
            truth = None if resolved["truth_labels"] is None else read_labels(resolved["truth_labels"], n)

    k = resolved["clusters"]
    with _stage(timings, "cluster"):
        pred = cluster_graph(W, k, resolved["restarts"], resolved["seed"])
    with _stage(timings, "write"):
        write_labels(resolved["output"], pred)

    metrics: dict[str, Any] = {"n": int(W.shape[0]), "clusters": k}
    lines = [f"wrote {resolved['output']} (n={W.shape[0]}, clusters={k})"]
    if truth is not None:
        scores = evaluate_clustering(pred, truth, W)
        metrics.update(scores)
        lines.append(" ".join(f"{name}={scores[name]!r}" for name in ("ac", "nmi", "intra_class_edge_mass")))
    return CommandResult(
        metrics=metrics, artifacts={"labels": resolved["output"]}, derived=derived, seed=resolved["seed"], lines=lines,
    )


def _cmd_embed_classify(resolved: dict[str, Any], timings: Timings) -> CommandResult:
    method = resolved["method"]
    with _stage(timings, "load"):
        ds = load_csv(resolved["input"], label_column=resolved["label_column"])

    with _stage(timings, "run"):
        result = classify_run(
            ds,
            method=method,
            embed_dim=resolved["embed_dim"],
            train_fraction=resolved["train_fraction"],
            pca_energy=resolved["pca_energy"],
            seed=resolved["seed"],
            **_graph_kwargs(resolved),
        )

    artifacts: dict[str, str] = {}
    with _stage(timings, "write"):
        if resolved["projection_out"] is not None:
            save_projection(resolved["projection_out"], result["projection"])
            artifacts["projection"] = resolved["projection_out"]
        if resolved["pred_out"] is not None:
            write_labels(resolved["pred_out"], result["pred"])
            artifacts["predictions"] = resolved["pred_out"]

    derived: dict[str, Any] = {"pca_dim": result["pca_dim"]}
    if method == "npe":
        derived["d_dict"] = result["d_dict"]
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
        metrics=metrics, artifacts=artifacts, derived=derived, seed=resolved["seed"], lines=lines,
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


def _cmd_eval(resolved: dict[str, Any], timings: Timings) -> CommandResult:
    dataset = None
    if resolved["input"] is not None:
        if resolved["clusters"] is None:
            raise InputError("--clusters is required with --input")
        with _stage(timings, "load"):
            dataset = load_csv(resolved["input"], label_column=resolved["label_column"])
    elif resolved["clusters"] is None:
        # recorded in the report, so a replay runs the same sweep
        preset = preset_spec(resolved["preset"], resolved["per_subspace"], resolved["noise"], seed=0)
        resolved["clusters"] = len(preset.subspaces)

    with _stage(timings, "sweep"):
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
            d_dict=resolved["d_dict"],
            epsilon=resolved["epsilon"],
            sigma=resolved["sigma"],
            restarts=resolved["restarts"],
        )

    header = f"{'method':<8}{'mean_ac':>9}{'max_ac':>9}{'mean_nmi':>10}{'max_nmi':>10}  best"
    lines = [header]
    for method in resolved["methods"]:
        s = out["summary"][method]
        lines.append(
            f"{method:<8}{s['mean_ac']:>9.4f}{s['max_ac']:>9.4f}"
            f"{s['mean_nmi']:>10.4f}{s['max_nmi']:>10.4f}  {_format_cell(s['best'])}"
        )
    return CommandResult(
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
    run: Callable[[dict[str, Any], Timings], CommandResult]
    help: str
    mode: Callable[[dict[str, Any]], str] = lambda resolved: ""  # names the mode from the resolved values


COMMANDS = {
    "synth": Command("synth", _SYNTH_PARAMS, _cmd_synth, "generate a labeled union-of-subspaces CSV",
                     lambda resolved: "custom" if resolved["preset"] is None else "preset"),
    "build-graph": Command("build-graph", _BUILD_GRAPH_PARAMS, _cmd_build_graph, "build a similarity graph from a CSV"),
    "cluster": Command("cluster", _CLUSTER_PARAMS, _cmd_cluster, "spectral clustering of a dataset or prebuilt graph",
                       _one_of("input", "graph")),
    "embed-classify": Command("embed-classify", _EMBED_PARAMS, _cmd_embed_classify,
                              "learn a linear embedding on a train split and score 1-NN on the test split",
                              lambda resolved: resolved["method"]),
    "eval": Command("eval", _EVAL_PARAMS, _cmd_eval, "grid comparison of graph methods under spectral clustering",
                    _one_of("input", "preset")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="llrgraph", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="command")
    for cmd in COMMANDS.values():
        sp = sub.add_parser(cmd.name, help=cmd.help)
        for p in cmd.params:
            text = f"{p.help} ({', '.join(p.modes)} mode)" if p.modes else p.help
            sp.add_argument(p.flag, default=None, metavar=p.kind.upper(), help=text)
        sp.add_argument("--config", default=None, metavar="PATH",
                        help="flat JSON config file (or a prior report); flags override it")
        sp.add_argument(_REPORT.flag, default=None, metavar=_REPORT.kind.upper(), help=_REPORT.help)
        sp.add_argument("--timings", action="store_true", default=False,
                        help="include wall-clock per stage in the report (reports then vary across runs)")
    return parser


def _write_report(path: str, command: str, config: dict[str, Any], result: CommandResult, timings: Timings) -> None:
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "resolved_config": config,
        "derived": result.derived,
        "metrics": result.metrics,
        "artifacts": result.artifacts,
        "seed": result.seed,
        "timings": timings,
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
    timings: Timings = {} if args.timings else None
    try:
        resolved, keys = _resolve(cmd, args)
        result = cmd.run(resolved, timings)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # numerical/runtime failures map to exit 1
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1

    for line in result.lines:
        print(line)
    if args.report is not None:
        _write_report(args.report, cmd.name, {key: resolved[key] for key in keys}, result, timings)
    return 0


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
