"""The benchmark's workloads.

Each workload makes its inputs from the workload seed, names the llrgraph
command lines run at set-up and in each timed pass, and checks what those
commands wrote against the reference computations in ``checks``. Command
lines use paths relative to the directory they run in.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

import checks

FIG1_LAMBDAS = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
FIG1_K = [4, 8]
FIG1_SEEDS = 10

#: Five 4-dim subspaces in R^50, as in the paper's larger synthetic sets.
SUBSPACES = 5
SUBSPACE_DIM = 4
AMBIENT_DIM = 50
NOISE = 0.01

#: 1-NN accuracy the embeddings must reach; chance is 1/5.
ACCURACY_FLOOR = 0.9


def _load(path: Path) -> dict:
    return json.loads(path.read_text())


def _union(kind: int, seed: int, per_subspace: int) -> tuple[np.ndarray, np.ndarray]:
    # The entropy pair keeps the two workloads' data independent for one seed.
    return checks.union_of_subspaces([kind, seed], AMBIENT_DIM, [(SUBSPACE_DIM, per_subspace)] * SUBSPACES, NOISE)


class SweepFig1:
    """``eval --preset fig1`` with the default grids over ten consecutive seeds.

    220 cells at n = 150: llr at 9 lambdas x 2 k, heat and lle at 2 k, per seed.
    Seed 0 gives the default seeds 0..9. It exercises the per-point
    coefficient solves, 220 small eigensolves and 4400 k-means restarts, and
    reads and writes almost nothing.
    """

    name = "sweep-fig1"
    capture = ("llrgraph.runs.llr_graph_family",)
    # Thousands of tiny two-thread BLAS calls make single passes vary by about
    # 10% from machine noise alone, so the median is taken over two.
    min_passes = 2

    def seeds(self, seed: int) -> list[int]:
        return list(range(seed, seed + FIG1_SEEDS))

    def make_inputs(self, seed: int, dest: Path) -> None:
        pass

    def setup_ops(self, seed: int) -> list[list[str]]:
        return []

    def ops(self, seed: int) -> list[list[str]]:
        return [["eval", "--preset", "fig1", "--seeds", ",".join(map(str, self.seeds(seed))), "--report", "sweep.json"]]

    def memory_ops(self, seed: int) -> list[list[str]]:
        # Every seed's cells have the same sizes, so one seed shows the peaks.
        return [["eval", "--preset", "fig1", "--seeds", str(seed), "--report", "sweep.json"]]

    def check(self, seed: int, out: Path, captured: dict) -> list[str]:
        seeds = self.seeds(seed)
        report = _load(out / "sweep.json")
        problems = checks.check_sweep_summary(report, seeds, FIG1_LAMBDAS, FIG1_K)
        if problems:
            return problems
        cells = {(c["method"], c["lambda"], c["k"], c["seed"]): c for c in report["metrics"]["cells"]}
        # Every heat cell; llr and lle cells of three seeds drawn from the workload seed.
        rng = np.random.Generator(np.random.PCG64([3, seed]))
        sampled = set(rng.choice(seeds, size=3, replace=False).tolist())
        for s in seeds:
            X, labels = checks.fig1_points(s)
            n = X.shape[0]
            for k in FIG1_K:
                problems += checks.check_cell_mass(cells[("heat", None, k, s)], checks.heat_graph_ref(X, k), labels)
            if s not in sampled:
                continue
            lam = FIG1_LAMBDAS[int(rng.integers(len(FIG1_LAMBDAS)))]
            llr = checks.llr_coefficients_ref(X, lam, n - 1, 1e-9)
            for k in FIG1_K:
                lle = checks.llr_coefficients_ref(X, 0.0, k, 1e-9)
                problems += checks.check_cell_mass(cells[("llr", lam, k, s)], checks.llr_graph_ref(llr, n, k), labels)
                problems += checks.check_cell_mass(cells[("lle", None, k, s)], checks.llr_graph_ref(lle, n, k), labels)
        if "llrgraph.runs.llr_graph_family" in captured:
            (X, lam, d_dict, epsilon, k_keeps), _, graphs = captured["llrgraph.runs.llr_graph_family"]
            coefficients = checks.llr_coefficients_ref(X, lam, d_dict, epsilon)
            for k in k_keeps:
                ref = checks.llr_graph_ref(coefficients, X.shape[0], k)
                problems += checks.check_graph_equal(graphs[k], ref, f"llr graph lambda={lam} k={k}", checks.COEF_TOL)
        return problems


class ClusterGraph:
    """``cluster --graph`` on a 4000-vertex heat graph with one component per class.

    Set-up writes 800 points on each of five 4-dim subspaces of R^50 and runs
    ``build-graph --method heat --k-nn 8``. The timed command reads the graph
    and runs the dense spectral embedding and k-means; it never touches llr.
    """

    name = "cluster-graph"
    capture = ()
    min_passes = 1
    per_subspace = 800

    def make_inputs(self, seed: int, dest: Path) -> None:
        X, labels = _union(1, seed, self.per_subspace)
        checks.write_csv(dest / "data.csv", X, labels)
        checks.write_labels(dest / "truth.txt", labels)

    def setup_ops(self, seed: int) -> list[list[str]]:
        return [[
            "build-graph", "--input", "data.csv", "--label-column", "label", "--method", "heat",
            "--k-nn", "8", "--output", "graph.txt", "--report", "build.json",
        ]]

    def ops(self, seed: int) -> list[list[str]]:
        return [[
            "cluster", "--graph", "graph.txt", "--truth-labels", "truth.txt", "--clusters", str(SUBSPACES),
            "--output", "pred.txt", "--report", "cluster.json",
        ]]

    memory_ops = ops

    def check(self, seed: int, out: Path, captured: dict) -> list[str]:
        X, labels = _union(1, seed, self.per_subspace)
        W = checks.read_graph_file(out / "graph.txt")
        problems = checks.check_graph_equal(W, checks.heat_graph_ref(X, 8), "heat graph")
        problems += checks.check_components_are_classes(W, labels)
        pred = checks.read_label_file(out / "pred.txt")
        return problems + checks.check_cluster_scores(pred, labels, _load(out / "cluster.json"))


class EmbedR50:
    """``embed-classify`` with NPE, then LPP, at embed dim 10 on 3000 points.

    600 points on each of five 4-dim subspaces of R^50, split half and half
    per class. NPE solves 1500 coefficient systems at the d_dict = 300 cap
    after PCA to about 19 dims; LPP builds a heat graph. No spectral call.
    """

    name = "embed-r50"
    capture = ("llrgraph.runs.build_llr_coefficients",)
    min_passes = 1
    per_subspace = 600

    def make_inputs(self, seed: int, dest: Path) -> None:
        X, labels = _union(2, seed, self.per_subspace)
        checks.write_csv(dest / "data.csv", X, labels)

    def setup_ops(self, seed: int) -> list[list[str]]:
        return []

    def ops(self, seed: int) -> list[list[str]]:
        return [
            ["embed-classify", "--input", "data.csv", "--label-column", "label", "--method", method,
             "--embed-dim", "10", "--pred-out", f"{method}-pred.txt", "--report", f"{method}.json"]
            for method in ("npe", "lpp")
        ]

    memory_ops = ops

    def check(self, seed: int, out: Path, captured: dict) -> list[str]:
        _, labels = _union(2, seed, self.per_subspace)
        _, test = checks.stratified_split(labels, 0.5, seed=0)
        problems = []
        for method in ("npe", "lpp"):
            pred = checks.read_label_file(out / f"{method}-pred.txt")
            report = _load(out / f"{method}.json")
            problems += [f"{method}: {p}" for p in checks.check_classification(pred, labels[test], report, ACCURACY_FLOOR)]
        if "llrgraph.runs.build_llr_coefficients" in captured:
            (X, params), _, C = captured["llrgraph.runs.build_llr_coefficients"]
            rows = np.random.Generator(np.random.PCG64([4, seed])).choice(X.shape[0], size=20, replace=False)
            problems += checks.check_coefficient_rows(
                C, X, params.lam, params.d_dict, params.k_keep, params.epsilon, rows.tolist()
            )
        return problems


WORKLOADS = {w.name: w for w in (SweepFig1(), ClusterGraph(), EmbedR50())}
