"""Acceptance gate: the nine shipping criteria, one test per criterion.

Run `pytest tests/test_acceptance.py -s` to see one status line per
criterion, of the form

    [criterion N] PASS in 1.23s: <what was checked>

Each test enforces the substantive condition and the stated wall-clock
budget; exceeding the budget fails the criterion even if the numbers are
right.
"""

import contextlib
import io
import time

import numpy as np
import pytest
import scipy.sparse as sp

from llrgraph.baselines import lle_graph
from llrgraph.cli import main as cli_main
from llrgraph.data import SyntheticSpec, synth_union_of_subspaces
from llrgraph.embedding import generalized_sym_eig
from llrgraph.llr import (
    HyperParams,
    build_dictionary,
    build_llr_graph,
    distance_diagonal,
    solve_coefficients,
)
from llrgraph.metrics import clustering_accuracy, hungarian, nmi
from llrgraph.runs import classify_run, cluster_graph, evaluate_clustering, sweep_run
from llrgraph.spectral import sym_eig

from oracles import best_assignment, nullspace_coefficients


def _rng(seed):
    return np.random.Generator(np.random.PCG64(seed))


def _report(num: int, ok: bool, elapsed: float, desc: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {status} in {elapsed:.2f}s: {desc}")
    assert ok, f"criterion {num}: {desc}"


def test_criterion_1_solver_oracle_equivalence():
    """100 seeded instances (m <= 5, d_dict <= 8, lambda in {0, 0.3, 0.7,
    0.99}): the closed-form solver matches an independent null-space
    least-squares oracle within 1e-6 per coefficient. Budget 5 s."""
    start = time.perf_counter()
    lams = [0.0, 0.3, 0.7, 0.99]
    worst = 0.0
    for trial in range(100):
        rng = _rng(1000 + trial)
        m = int(rng.integers(1, 6))
        d = int(rng.integers(1, 9))
        lam = lams[trial % 4]
        X = rng.standard_normal((d + 1, m))
        dic = build_dictionary(X, 0, d)
        s = distance_diagonal(X, dic)
        c = solve_coefficients(X, dic, s, lam, epsilon=1e-9)
        ref = nullspace_coefficients(X[0], dic.atoms, s, lam, epsilon=1e-9)
        worst = max(worst, float(np.abs(c - ref).max()))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 5.0
    _report(1, ok, elapsed, f"100 instances vs null-space oracle, worst gap {worst:.2e} (tol 1e-6, budget 5s)")


def test_criterion_2_constraint_and_invariance():
    """50 trials each: coefficients sum to one within 1e-10; invariant to
    uniform data scaling (alpha in {0.01, 1, 100, 1e155}) and to random orthogonal
    feature rotation within 1e-8. Budget 10 s."""
    start = time.perf_counter()
    worst_sum = 0.0
    worst_scale = 0.0
    worst_rot = 0.0
    for trial in range(50):
        rng = _rng(2000 + trial)
        m = int(rng.integers(2, 7))
        d = int(rng.integers(2, 10))
        lam = float(rng.uniform(0.0, 0.99))
        X = rng.standard_normal((d + 1, m))
        dic = build_dictionary(X, 0, d)
        s = distance_diagonal(X, dic)
        c = solve_coefficients(X, dic, s, lam)
        worst_sum = max(worst_sum, abs(float(c.sum()) - 1.0))

        for alpha in (0.01, 1.0, 100.0, 1e155):
            Xa = alpha * X
            dic_a = build_dictionary(Xa, 0, d)
            c_a = solve_coefficients(Xa, dic_a, distance_diagonal(Xa, dic_a), lam)
            worst_scale = max(worst_scale, float(np.abs(c_a - c).max()))

        Q = np.linalg.qr(rng.standard_normal((m, m)))[0]
        Xq = X @ Q.T
        dic_q = build_dictionary(Xq, 0, d)
        c_q = solve_coefficients(Xq, dic_q, distance_diagonal(Xq, dic_q), lam)
        worst_rot = max(worst_rot, float(np.abs(c_q - c).max()))
    elapsed = time.perf_counter() - start
    ok = worst_sum <= 1e-10 and worst_scale <= 1e-8 and worst_rot <= 1e-8 and elapsed < 10.0
    _report(
        2, ok, elapsed,
        f"sum-to-one gap {worst_sum:.2e} (tol 1e-10), scale gap {worst_scale:.2e}, "
        f"rotation gap {worst_rot:.2e} (tol 1e-8), 50 trials each (budget 10s)",
    )


def test_criterion_3_lle_reduction():
    """lle_graph is bit-identical to build_llr_graph at lambda = 0 with
    matched k on 20 seeded datasets. Budget 10 s."""
    start = time.perf_counter()
    identical = 0
    for trial in range(20):
        rng = _rng(3000 + trial)
        n = int(rng.integers(10, 41))
        m = int(rng.integers(2, 7))
        k = int(rng.integers(2, 7))
        X = rng.standard_normal((n, m))
        a = lle_graph(X, k_nn=k, epsilon=1e-9)
        b = build_llr_graph(X, HyperParams(lam=0.0, k_keep=k, d_dict=k, epsilon=1e-9))
        same = (
            np.array_equal(a.indptr, b.indptr)
            and np.array_equal(a.indices, b.indices)
            and np.array_equal(a.data, b.data)
        )
        identical += int(same)
    elapsed = time.perf_counter() - start
    ok = identical == 20 and elapsed < 10.0
    _report(3, ok, elapsed, f"lle == llr(lambda=0) bit-identical on {identical}/20 datasets (budget 10s)")


@pytest.mark.filterwarnings("ignore:spectral embedding has numerically zero rows")
def test_criterion_4_fig1_qualitative_reproduction():
    """fig1 preset (ambient 3, dims 1,1,2, 50 points each, noise 0.01),
    lambda swept over {0.1..0.9}, k_keep in {4, 8}, seeds 0..9:

      (a) best LLR intra-subspace edge mass over the sweep >= 0.9,
      (b) best LLR spectral AC over the sweep >= 0.9,
      (c) per-seed best LLR AC >= per-seed best heat AC and best LLE AC
          in at least 8 of 10 seeds.

    (a) and (b) read the best cell of the whole sweep: the claim is about
    the tuned method, and the 1-d subspaces in this preset split into two
    antipodal segments (points are scaled away from the origin), so some
    seeds give graphs with more than 3 connected components where a k=3
    spectral embedding cannot represent every component. Measured values
    with this seeded pipeline: (a) 1.0, (b) 1.0, (c) 8/10 wins (seeds 6
    and 7 lose), all deterministic. Budget 120 s."""
    start = time.perf_counter()
    out = sweep_run(
        preset="fig1",
        per_subspace=50,
        noise_sigma=0.01,
        n_clusters=3,
        methods=["llr", "heat", "lle"],
        lambdas=[0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9],
        k_values=[4, 8],
        seeds=list(range(10)),
        restarts=20,
    )
    llr_cells = [c for c in out["cells"] if c["method"] == "llr"]
    best_mass = max(c["intra_class_edge_mass"] for c in llr_cells)
    best_ac = out["summary"]["llr"]["max_ac"]
    wins = 0
    for seed in range(10):
        key = str(seed)
        llr_best = out["summary"]["llr"]["best_by_seed"][key]["ac"]
        heat_best = out["summary"]["heat"]["best_by_seed"][key]["ac"]
        lle_best = out["summary"]["lle"]["best_by_seed"][key]["ac"]
        if llr_best >= heat_best and llr_best >= lle_best:
            wins += 1
    elapsed = time.perf_counter() - start
    ok = best_mass >= 0.9 and best_ac >= 0.9 and wins >= 8 and elapsed < 120.0
    _report(
        4, ok, elapsed,
        f"intra mass {best_mass:.3f} (>=0.9), best AC {best_ac:.3f} (>=0.9), "
        f"LLR >= both baselines in {wins}/10 seeds (>=8) (budget 120s)",
    )


def test_criterion_5_spectral_ideal_case():
    """Exactly block-diagonal W with 3 blocks clusters perfectly. Budget 1 s."""
    start = time.perf_counter()
    sizes = [7, 9, 11]
    n = sum(sizes)
    W = np.zeros((n, n))
    s0 = 0
    for size in sizes:
        W[s0 : s0 + size, s0 : s0 + size] = 1.0
        s0 += size
    np.fill_diagonal(W, 0.0)
    truth = np.repeat([0, 1, 2], sizes)
    pred = cluster_graph(sp.csr_matrix(W), 3, restarts=10, seed=0)
    scores = evaluate_clustering(pred, truth)
    elapsed = time.perf_counter() - start
    ok = scores["ac"] == 1.0 and scores["nmi"] == 1.0 and elapsed < 1.0
    _report(5, ok, elapsed, f"3-block ideal graph: AC {scores['ac']}, NMI {scores['nmi']} (budget 1s)")


def test_criterion_6_metric_oracles():
    """hungarian equals exhaustive search for k <= 6 (50 trials); AC is
    invariant under label permutation; NMI(identical) = 1 and
    NMI(independent 2x2) = 0 within 1e-12. Budget 10 s."""
    start = time.perf_counter()
    hung_ok = True
    for trial in range(50):
        rng = _rng(6000 + trial)
        k = int(rng.integers(2, 7))
        cost = rng.random((k, k))
        got = hungarian(cost)
        got_cost = sum(cost[r, c] for r, c in enumerate(got))
        if abs(got_cost - best_assignment(cost)) > 1e-12:
            hung_ok = False

    rng = _rng(6999)
    pred = rng.integers(0, 4, size=40)
    truth = rng.integers(0, 4, size=40)
    perm = np.array([3, 0, 2, 1])
    ac_ok = abs(clustering_accuracy(pred, truth) - clustering_accuracy(perm[pred], truth)) <= 1e-12

    labels = np.array([0, 0, 1, 1, 2, 2])
    nmi_one = abs(nmi(labels, labels) - 1.0)
    indep_pred = np.array([0, 0, 1, 1])
    indep_truth = np.array([0, 1, 0, 1])
    nmi_zero = abs(nmi(indep_pred, indep_truth))
    elapsed = time.perf_counter() - start
    ok = hung_ok and ac_ok and nmi_one <= 1e-12 and nmi_zero <= 1e-12 and elapsed < 10.0
    _report(
        6, ok, elapsed,
        f"hungarian == exhaustive on 50 trials: {hung_ok}; AC permutation-invariant: {ac_ok}; "
        f"NMI gaps {nmi_one:.1e}/{nmi_zero:.1e} (tol 1e-12) (budget 10s)",
    )


def test_criterion_7_eigen_contracts():
    """sym_eig and generalized_sym_eig on 50 random pencils up to 20x20:
    residuals <= 1e-6 * (1 + ||A||) and B-orthonormality within 1e-6.
    Budget 10 s."""
    start = time.perf_counter()
    worst_sym = 0.0
    worst_gen = 0.0
    worst_orth = 0.0
    for trial in range(50):
        rng = _rng(7000 + trial)
        m = int(rng.integers(2, 21))
        A = rng.standard_normal((m, m))
        A = (A + A.T) / 2
        scale = 1.0 + float(np.abs(A).max())

        evals, evecs = sym_eig(A)
        worst_sym = max(worst_sym, float(np.abs(A @ evecs - evecs * evals).max()) / scale)

        F = rng.standard_normal((m, m + 5))
        B = F @ F.T / (m + 5)
        gvals, gvecs = generalized_sym_eig(A, B)
        resid = float(np.abs(A @ gvecs - (B @ gvecs) * gvals).max()) / scale
        worst_gen = max(worst_gen, resid)
        worst_orth = max(worst_orth, float(np.abs(gvecs.T @ B @ gvecs - np.eye(m)).max()))
    elapsed = time.perf_counter() - start
    ok = worst_sym <= 1e-6 and worst_gen <= 1e-6 and worst_orth <= 1e-6 and elapsed < 10.0
    _report(
        7, ok, elapsed,
        f"50 pencils <=20x20: sym residual {worst_sym:.1e}, generalized residual {worst_gen:.1e}, "
        f"B-orthonormality gap {worst_orth:.1e} (all <= 1e-6) (budget 10s)",
    )


def test_criterion_8_embedding_pipeline():
    """Union of 5 subspaces (ambient 50, intrinsic 3, 40 points each, noise
    0.01), stratified half/half split, PCA 0.98, coefficient-driven
    projection at d = 10, scored by 1-NN: accuracy >= 0.95 and >= the
    locality-preserving baseline, jointly in at least 8 of 10 seeds.

    Hyperparameters are pinned here as lambda = 0.2 and k_keep = 6 for the
    coefficient graph (dictionary size auto = n_train - 1 = 99); the
    baseline uses k_nn = 8 with the automatic bandwidth. Dataset seed and
    split seed are both s for s in 0..9. Measured: the joint condition
    holds in 9/10 seeds (seed 6 reaches 0.94 < 0.95) and the projection
    beats the baseline in 10/10; all deterministic. Budget 60 s."""
    start = time.perf_counter()
    wins = 0
    accs = []
    for s in range(10):
        ds = synth_union_of_subspaces(
            SyntheticSpec(ambient_dim=50, subspaces=[(3, 40)] * 5, noise_sigma=0.01, seed=s)
        )
        npe = classify_run(
            ds, method="npe", embed_dim=10, train_fraction=0.5, pca_energy=0.98,
            seed=s, lam=0.2, k_keep=6, d_dict="auto", epsilon=1e-9,
        )
        lpp = classify_run(
            ds, method="lpp", embed_dim=10, train_fraction=0.5, pca_energy=0.98,
            seed=s, k_nn=8, sigma="auto",
        )
        accs.append((npe["accuracy"], lpp["accuracy"]))
        if npe["accuracy"] >= 0.95 and npe["accuracy"] >= lpp["accuracy"]:
            wins += 1
    elapsed = time.perf_counter() - start
    mean_npe = float(np.mean([a for a, _ in accs]))
    mean_lpp = float(np.mean([b for _, b in accs]))
    ok = wins >= 8 and elapsed < 60.0
    _report(
        8, ok, elapsed,
        f"joint (acc>=0.95 and >= baseline) in {wins}/10 seeds (>=8); "
        f"mean acc {mean_npe:.3f} vs baseline {mean_lpp:.3f} (budget 60s)",
    )


def test_criterion_9_cli_determinism(tmp_path):
    """Every CLI command, run twice with identical resolved configs, writes
    byte-identical reports and artifact files. Budget 60 s."""
    start = time.perf_counter()
    work = tmp_path
    shared = work / "data.csv"
    sink = io.StringIO()  # keep the commands' human output off the test log
    with contextlib.redirect_stdout(sink):
        assert cli_main([
            "synth", "--preset", "fig1", "--per-subspace", "12", "--seed", "3",
            "--output", str(shared),
        ]) == 0

    commands = {
        "synth": [
            "synth", "--preset", "fig1", "--per-subspace", "12", "--seed", "3",
            "--output", str(work / "s.csv"), "--report", str(work / "s.json"),
        ],
        "build-graph": [
            "build-graph", "--input", str(shared), "--label-column", "label",
            "--lambda", "0.4", "--k-keep", "5",
            "--output", str(work / "g.txt"), "--report", str(work / "g.json"),
        ],
        "cluster": [
            "cluster", "--input", str(shared), "--label-column", "label",
            "--clusters", "3", "--restarts", "5", "--seed", "0",
            "--output", str(work / "c.txt"), "--report", str(work / "c.json"),
        ],
        "embed-classify": [
            "embed-classify", "--input", str(shared), "--label-column", "label",
            "--embed-dim", "2", "--pca-energy", "none", "--seed", "0",
            "--projection-out", str(work / "P.csv"), "--pred-out", str(work / "p.txt"),
            "--report", str(work / "e.json"),
        ],
        "eval": [
            "eval", "--preset", "fig1", "--per-subspace", "8",
            "--methods", "llr,heat,lle", "--lambdas", "0.2,0.5", "--k-values", "4",
            "--seeds", "0,1", "--restarts", "3", "--report", str(work / "v.json"),
        ],
    }
    outputs = {
        "synth": ["s.csv", "s.json"],
        "build-graph": ["g.txt", "g.json"],
        "cluster": ["c.txt", "c.json"],
        "embed-classify": ["P.csv", "p.txt", "e.json"],
        "eval": ["v.json"],
    }

    stable = True
    detail = []
    for name, argv in commands.items():
        with contextlib.redirect_stdout(sink):
            assert cli_main(argv) == 0, f"{name}: first run failed"
            first = {f: (work / f).read_bytes() for f in outputs[name]}
            assert cli_main(argv) == 0, f"{name}: second run failed"
            second = {f: (work / f).read_bytes() for f in outputs[name]}
        same = first == second
        stable = stable and same
        detail.append(f"{name}:{'ok' if same else 'DIFFERS'}")
    elapsed = time.perf_counter() - start
    ok = stable and elapsed < 60.0
    _report(9, ok, elapsed, f"double-run byte identity per command: {', '.join(detail)} (budget 60s)")
