"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from kmsa import (
    GraphRecipe,
    KernelSpec,
    KmsaConfig,
    MultiviewDataset,
    fit,
    generate_synthetic,
    knn_classify,
    load_model,
    retrieval_metrics,
    save_model,
    transform,
)
from kmsa.cli import main, split_indices
from kmsa.eigsolver import generalized_eigh
from kmsa.optimizer import closed_form_weights, view_state

from conftest import random_dataset
from oracles import gen_eig_oracle, kpca_oracle, simplex_oracle, weight_objective

SLACK = 1e-8


@contextmanager
def report(num, label):
    try:
        yield
    except AssertionError:
        print(f"\nACCEPTANCE {num} ({label}): FAIL")
        raise
    print(f"\nACCEPTANCE {num} ({label}): PASS")


def monotone_violation(trace):
    worst = 0.0
    for prev, curr in zip(trace[:-1], trace[1:]):
        worst = max(worst, curr - prev - SLACK * (1.0 + abs(prev)))
    return worst


def test_01_monotone_descent():
    """Every objective trace non-increasing (within 1e-8 relative slack) over
    72 randomized instances at the reported defaults; under 60 s total."""
    start = time.monotonic()
    rng = np.random.default_rng(20240301)
    count = 0
    with report(1, "monotone descent"):
        for recipe in ("pca", "lpp", "lda"):
            for m in (2, 3):
                for n in (10, 30):
                    for d in (2, 5):
                        for _ in range(3):
                            data = random_dataset(
                                rng, m=m, n=n, classes=2
                            )
                            cfg = KmsaConfig(
                                d=d,
                                r=3.0,
                                kappa=0.1,
                                eta=-1.0,
                                graph=GraphRecipe(kind=recipe, k=min(5, n - 1)),
                            )
                            model = fit(data, cfg)
                            count += 1
                            worst = monotone_violation(model.objective_trace)
                            assert worst <= 0.0, (
                                f"{recipe} m={m} N={n} d={d}: "
                                f"trace rose by {worst:.3e} beyond slack"
                            )
        assert count >= 50
        elapsed = time.monotonic() - start
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_02_convergence_speed():
    """Standard fixture: relative objective change below 1e-6 within 20 sweeps."""
    with report(2, "convergence speed"):
        data = generate_synthetic(
            classes=3, per_class=20, informative_views=3, noise_views=0, seed=0
        )
        cfg = KmsaConfig(d=5, max_iters=20, tol=1e-6, graph=GraphRecipe(kind="pca"))
        model = fit(data, cfg)
        trace = model.objective_trace
        sweeps = len(trace) - 1
        assert sweeps <= 20
        final_change = abs(trace[-1] - trace[-2]) / (1.0 + abs(trace[-2]))
        assert final_change < 1e-6, f"still changing by {final_change:.2e} at sweep {sweeps}"


def test_03_weight_update_optimality():
    """Closed-form weights beat a 1e-3 simplex grid on 20 positive-trace
    instances (reduced objective, tolerance 1e-6)."""
    rng = np.random.default_rng(7)
    with report(3, "weight-update optimality"):
        for _ in range(20):
            m = int(rng.integers(2, 4))
            traces = rng.uniform(0.2, 8.0, size=m)
            assert (traces > 0).all()
            alpha, clamped = closed_form_weights(traces, r=3.0)
            assert not clamped.any()
            mine = float(weight_objective(alpha, traces, 3.0))
            _, grid_best = simplex_oracle(traces, r=3.0, step=1e-3)
            assert mine <= grid_best + 1e-6


def test_04_weight_limits():
    """r=100 pushes weights to uniform within 1e-2; r=1.01 concentrates more
    than 0.99 of the mass on the smallest-trace view."""
    rng = np.random.default_rng(11)
    with report(4, "weight limits"):
        for _ in range(10):
            m = int(rng.integers(2, 5))
            traces = np.sort(rng.uniform(0.5, 4.0, size=m))
            traces += np.arange(m) * 0.05  # keep them distinct
            alpha_big, _ = closed_form_weights(traces, r=100.0)
            assert np.abs(alpha_big - 1.0 / m).max() < 1e-2
            alpha_small, _ = closed_form_weights(traces, r=1.01)
            assert alpha_small[np.argmin(traces)] > 0.99


def test_05_kernel_pca_reduction():
    """Single view + pca recipe + centered linear kernel reproduces the
    kernel-PCA subspace projector within 1e-6 in Frobenius norm."""
    rng = np.random.default_rng(3)
    with report(5, "kernel-PCA reduction"):
        X = rng.standard_normal((6, 40))
        data = MultiviewDataset(views=[X])
        cfg = KmsaConfig(
            d=3,
            kernel=KernelSpec(kind="linear"),
            center_kernel=True,
            graph=GraphRecipe(kind="pca"),
        )
        model = fit(data, cfg)
        assert np.allclose(model.alpha, [1.0])
        from kmsa.graphs import build_graph, constraint_matrix
        from kmsa.kernels import build_kernel

        K_centered = build_kernel(X, KernelSpec(kind="linear"), center=True)
        M = constraint_matrix(K_centered, build_graph(X, None, cfg.graph).B, cfg.ridge)
        U = model.coefficients[0]
        projector = U @ U.T @ M
        _, Q = kpca_oracle(K_centered, 3)
        assert np.linalg.norm(projector - Q @ Q.T, "fro") < 1e-6


def _demotion_counts(recipe, cfg_kw, seeds=20):
    ties, strict = 0, 0
    for seed in range(seeds):
        data = generate_synthetic(
            classes=3, per_class=20, informative_views=3, noise_views=1, seed=seed
        )
        cfg = KmsaConfig(graph=GraphRecipe(kind=recipe), **cfg_kw)
        model = fit(data, cfg)
        alpha = model.alpha
        noise = 3  # the generator appends noise views after informative ones
        if alpha[noise] <= alpha.min() + 1e-12:
            ties += 1
        if alpha[noise] < alpha[:noise].min() - 1e-12:
            strict += 1
    return ties, strict


def test_06_noise_view_demotion():
    """The pure-noise view always carries the minimum weight for the pca and
    lda recipes at the reported defaults (for these recipes the trace terms
    are negative, every view is clamped, and the minimum is shared by all
    views); the lpp recipe, whose Laplacian traces are genuinely positive,
    demotes the noise view strictly."""
    with report(6, "noise-view demotion"):
        results = {}
        for recipe in ("pca", "lda"):
            ties, strict = _demotion_counts(recipe, dict(d=3, ridge=1e-2))
            results[recipe] = (ties, strict)
            assert ties >= 18, f"{recipe}: noise view at the minimum in only {ties}/20"
        lpp_ties, lpp_strict = _demotion_counts(
            "lpp", dict(d=3, kappa=0.5, eta=-5.0, ridge=0.1)
        )
        results["lpp"] = (lpp_ties, lpp_strict)
        assert lpp_strict >= 18, f"lpp strict demotion only {lpp_strict}/20"
        print(
            "\n  noise-view at minimum (ties incl.) / strictly below all others, per recipe:",
            {k: f"{t}/20 ties, {s}/20 strict" for k, (t, s) in results.items()},
        )


def _split_accuracy(model, train, test):
    test_embedded = transform(model, test.views, train)
    best = 0.0
    for v in range(train.n_views):
        acc = knn_classify(
            model.embeddings[v], train.labels, test_embedded[v], test.labels
        )
        best = max(best, acc)
    return best


def test_07_self_weighting_ablation():
    """Learned weights beat fixed 1/m weights on mean best-view 1NN accuracy
    (50% split, 20 repeats) in the regime where the weights are live."""
    with report(7, "self-weighting ablation"):
        cfg = KmsaConfig(
            d=4, kappa=0.5, eta=-3.0, ridge=0.1, graph=GraphRecipe(kind="lpp")
        )
        learned, fixed = [], []
        for rep in range(20):
            data = generate_synthetic(
                classes=3, per_class=20, informative_views=3, noise_views=1,
                noise_scale=1.5, seed=rep,
            )
            rng = np.random.default_rng(1000 + rep)
            train_idx, test_idx = split_indices(data.n_samples, 0.5, rng)
            train, test = data.subset(train_idx), data.subset(test_idx)
            model_l = fit(train, cfg, learn_weights=True)
            model_f = fit(train, cfg, learn_weights=False)
            learned.append(_split_accuracy(model_l, train, test))
            fixed.append(_split_accuracy(model_f, train, test))
        mean_learned, mean_fixed = float(np.mean(learned)), float(np.mean(fixed))
        print(f"\n  learned={mean_learned:.4f} fixed={mean_fixed:.4f}")
        assert mean_learned >= mean_fixed - 0.01
        assert mean_learned > mean_fixed


def test_08_eigensolver_against_oracle():
    """100 random symmetric-definite pencils (N <= 12) match the independent
    congruence oracle: eigenvalues 1e-8, projectors 1e-6, orthonormality 1e-8.
    Both solvers are checked: generalized_eigh (?sygvx) and view_state, the
    ?sygvd and probe checks through which every fit diagonalizes, on its d
    smallest pairs."""
    rng = np.random.default_rng(1234)
    with report(8, "eigensolver correctness"):
        for _ in range(100):
            n = int(rng.integers(2, 13))
            d = int(rng.integers(1, n + 1))
            A = rng.standard_normal((n, n))
            H = 0.5 * (A + A.T)
            B = rng.standard_normal((n, n))
            M = B @ B.T + n * np.eye(n)
            vs = view_state(H.copy(), M.copy())  # the solve consumes both
            w_ref, V_ref = gen_eig_oracle(H, M, d)
            gap_ok = d == n or (w_ref[d - 1] + 1e-6 < gen_eig_oracle(H, M, d + 1)[0][d]
                                if d < n else True)
            for w, V in (generalized_eigh(H, M, d), (vs.lam[:d], vs.B[:, :d])):
                assert np.abs(w - w_ref).max() < 1e-8
                assert np.abs(V.T @ M @ V - np.eye(d)).max() < 1e-8
                if gap_ok:  # projector comparison is only meaningful across a gap
                    P_mine = V @ V.T @ M
                    P_ref = V_ref @ V_ref.T @ M
                    assert np.abs(P_mine - P_ref).max() < 1e-6


def test_09_metric_correctness():
    """Hand-worked retrieval/AP examples hold exactly; recall is monotone and
    reaches 1 at a full gallery scan on 50 random label configurations."""
    rng = np.random.default_rng(99)
    with report(9, "metric correctness"):
        queries = np.array([[0.0]])
        gallery = np.array([[1.0, 2.0, 3.0, 4.0]])
        rec = retrieval_metrics(queries, gallery, [7], [7, 0, 7, 0], top_n=[1, 2, 4])
        assert rec["map"] == pytest.approx(5.0 / 6.0)
        assert rec["precision"][0] == 1.0 and rec["recall"][0] == pytest.approx(0.5)

        srec = retrieval_metrics(np.array([[0.0]]), np.array([[0.5]]), [0], [0], [1])
        assert (srec["precision"], srec["recall"], srec["f1"], srec["map"]) == (
            [1.0], [1.0], [1.0], 1.0,
        )

        for _ in range(50):
            n_g = int(rng.integers(3, 15))
            n_q = int(rng.integers(1, 6))
            classes = int(rng.integers(2, 4))
            g_labels = rng.integers(0, classes, size=n_g)
            q_labels = g_labels[rng.integers(0, n_g, size=n_q)]
            Q = rng.standard_normal((3, n_q))
            G = rng.standard_normal((3, n_g))
            cutoffs = sorted(set(int(c) for c in rng.integers(1, n_g + 1, size=3)) | {n_g})
            rec = retrieval_metrics(Q, G, q_labels, g_labels, cutoffs)
            recalls = rec["recall"]
            assert all(b >= a - 1e-12 for a, b in zip(recalls, recalls[1:]))
            assert recalls[-1] == pytest.approx(1.0)
            assert 0.0 <= rec["map"] <= 1.0


def test_10_round_trip_and_determinism(tmp_path, capsys):
    """Bit-level alpha round-trip; two identically seeded CLI pipelines write
    byte-identical outputs."""
    with report(10, "round-trip and determinism"):
        data = generate_synthetic(classes=2, per_class=8, seed=4)
        model = fit(data, KmsaConfig(d=2, max_iters=4, ridge=1e-2))
        save_model(model, tmp_path / "m")
        again = load_model(tmp_path / "m")
        assert np.array_equal(model.alpha, again.alpha)

        digests = []
        for run_dir in ("a", "b"):
            base = tmp_path / run_dir
            data_dir = base / "data"
            fit_dir = base / "fit"
            eval_path = base / "eval.json"
            cfg_path = base / "cfg.json"
            base.mkdir()
            cfg_path.write_text('{"d": 2, "ridge": 0.01, "max_iters": 6}')
            assert main(["synth", "--out", str(data_dir), "--per-class", "8",
                         "--seed", "5"]) == 0
            assert main(["fit", "--data", str(data_dir), "--out", str(fit_dir),
                         "--config", str(cfg_path)]) == 0
            assert main(["eval", "--task", "classify", "--data", str(data_dir),
                         "--config", str(cfg_path), "--out", str(eval_path),
                         "--repeats", "2", "--train-frac", "0.5", "--seed", "2"]) == 0
            capsys.readouterr()
            blob = {}
            for p in sorted(base.rglob("*")):
                if p.is_file():
                    blob[str(p.relative_to(base))] = p.read_bytes()
            digests.append(blob)
        assert digests[0].keys() == digests[1].keys()
        for key in digests[0]:
            assert digests[0][key] == digests[1][key], f"{key} differs between runs"
