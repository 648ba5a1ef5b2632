import sys
import tracemalloc
import warnings
from dataclasses import replace
from functools import cached_property

import numpy as np
import pytest
import scipy.linalg
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from kmsa import (
    ConfigError,
    ConvergenceWarning,
    DimensionError,
    GraphRecipe,
    KernelSpec,
    KmsaConfig,
    MultiviewDataset,
    NumericError,
    WeightDomainWarning,
    fit,
    generate_synthetic,
    transform,
)
from kmsa import eigsolver, graphs, kernels, optimizer
from kmsa.eigsolver import fix_signs, generalized_eigh
from kmsa.graphs import (
    build_graph,
    constraint_matrix,
    laplacian,
    lpp_graph,
    lasso_codes,
    pca_graph,
    spp_graph,
)
from kmsa.kernels import Distances, build_kernel, cross_kernel
from kmsa.types import MEDIAN
from kmsa.optimizer import (
    MONOTONE_SLACK,
    closed_form_weights,
    gram_divergence,
    objective,
    objective_terms,
    pair_sums,
    update_view,
    view_state,
    view_trace_terms,
)

from conftest import random_dataset
from oracles import (
    build_h,
    cholesky_factor,
    dense_objective_terms,
    dense_trace_terms,
    kpca_oracle,
    simplex_oracle,
    weight_objective,
    whiten,
)


def sym(A):
    return 0.5 * (A + A.T)


def pca_p(n):
    return laplacian(pca_graph(n).S)


def pca_kpk(K):
    return sym(K @ pca_p(K.shape[0]) @ K)


def hand_state(K, P, M):
    """A view's optimizer constants from a kernel, graph quadratic and
    constraint, diagonalized as fit does; the solve consumes M."""
    return view_state(sym(K @ P @ K), M)


def make_state(rng, m=2, n=6, d=2):
    """Hand-assembled optimizer state over random Gaussian-kernel views with
    the pca graph quadratic P = pca_p(n); returns (views, Us, alpha, Ks) with
    the kernels Ks, which the view states do not keep."""
    views, Us, Ks = [], [], []
    for v in range(m):
        X = rng.standard_normal((3, n))
        K = build_kernel(X, KernelSpec())
        M = constraint_matrix(K, pca_graph(n).B, ridge=1e-6)
        Us.append(rng.standard_normal((n, d)))
        views.append(view_state(pca_kpk(K), M))
        Ks.append(K)
    return views, Us, np.full(m, 1.0 / m), Ks


def parts(kpks, Us):
    """(g, p) for any coefficients: each view's tr(U_v^T K P K U_v) from its
    dense K P K, and the pair sums."""
    g = np.array([float(np.sum(U * (kpk @ U))) for kpk, U in zip(kpks, Us)])
    return g, pair_sums(Us)


def objective_and_scale(kpks, Us, alpha, cfg):
    """G through objective(), each g_v from its dense K P K, and the scale its
    rounding is relative to, alpha^r . (sum |U_v| (|K P K_v| |U_v|) + kappa
    + |p_v / (2 eta)|) (see oracles.dense_trace_terms)."""
    g, p = parts(kpks, Us)
    rough = np.array([np.sum(np.abs(U) * (np.abs(kpk) @ np.abs(U))) for kpk, U in zip(kpks, Us)])
    scale = alpha ** cfg.r @ (rough + cfg.kappa + np.abs(p / (2.0 * cfg.eta)))
    return objective(g, p, alpha, cfg), scale


def fitted_view(data, model, v):
    """View v's kernel and graph, recomputed from the data and the model's
    resolved kernel spec exactly as fit builds them."""
    cfg = model.config
    X, recipe = data.views[v], cfg.graphs_for(data.n_views)[v]
    K = build_kernel(X, model.kernels[v], center=cfg.center_kernel)
    codes = None
    if recipe.kind == "spp":
        codes = lasso_codes([(X, recipe.lasso_lambda, recipe.lasso_max_iters)])[0][0]
    return K, build_graph(Distances(X), data.labels, recipe, codes)


def fitted_constraint(data, model, v):
    """View v's ridged constraint M, as fit builds it."""
    K, graph = fitted_view(data, model, v)
    return constraint_matrix(K, graph.B, model.config.ridge)


def fitted_kpk(data, model, v):
    """View v's symmetrized K P K, as fit builds it."""
    K, graph = fitted_view(data, model, v)
    return sym(K @ laplacian(graph.S) @ K)


class TestObjective:
    def test_single_view_reduces_to_trace_plus_kappa(self, rng):
        _, Us, _, Ks = make_state(rng, m=1)
        alpha = np.array([1.0])
        cfg = KmsaConfig(d=2)
        K, U = Ks[0], Us[0]
        expected = np.trace(U.T @ K @ pca_p(6) @ K @ U) + cfg.kappa
        assert objective(*parts([pca_kpk(K)], Us), alpha, cfg) == pytest.approx(
            expected, rel=1e-12
        )

    def test_zero_coefficients_leave_only_regularizer(self, rng):
        m = 3
        _, Us, alpha, Ks = make_state(rng, m=m)
        Us = [np.zeros_like(U) for U in Us]
        cfg = KmsaConfig(d=2)
        kpks = [pca_kpk(K) for K in Ks]
        assert objective(*parts(kpks, Us), alpha, cfg) == pytest.approx(
            cfg.kappa * m * (1.0 / m) ** cfg.r, rel=1e-12
        )

    def test_two_view_scalar_expansion(self):
        # N=3, d=1: expand every term by hand
        K1 = np.array([[1.0, 0.5, 0.2], [0.5, 1.0, 0.4], [0.2, 0.4, 1.0]])
        K2 = np.array([[1.0, 0.1, 0.3], [0.1, 1.0, 0.6], [0.3, 0.6, 1.0]])
        P1 = laplacian(pca_graph(3).S)
        P2 = laplacian(pca_graph(3).S)
        u1 = np.array([[1.0], [2.0], [-1.0]])
        u2 = np.array([[0.5], [-1.0], [1.5]])
        alpha = np.array([0.6, 0.4])
        r, kappa, eta = 3.0, 0.1, -1.0
        kpks = [sym(K1 @ P1 @ K1), sym(K2 @ P2 @ K2)]
        embed = (
            alpha[0] ** r * (u1.T @ K1 @ P1 @ K1 @ u1).item()
            + alpha[1] ** r * (u2.T @ K2 @ P2 @ K2 @ u2).item()
        )
        reg = kappa * (alpha[0] ** r + alpha[1] ** r)
        # one unordered pair; d=1 makes the alignment trace a squared dot
        align = (alpha[0] ** r + alpha[1] ** r) / (2 * eta) * (u2.T @ u1).item() ** 2
        cfg = KmsaConfig(d=1, r=r, kappa=kappa, eta=eta)
        assert objective(*parts(kpks, [u1, u2]), alpha, cfg) == pytest.approx(
            embed + reg + align, rel=1e-12
        )

    def test_decomposes_into_three_terms(self, rng):
        _, Us, _, Ks = make_state(rng, m=3, d=2)
        alpha = np.array([0.5, 0.3, 0.2])
        cfg = KmsaConfig(d=2)
        gp = parts([pca_kpk(K) for K in Ks], Us)
        terms = objective_terms(*gp, alpha, cfg)
        total = terms["embedding"] + terms["weight_regularizer"] + terms["alignment"]
        assert objective(*gp, alpha, cfg) == pytest.approx(total, abs=1e-10)


@st.composite
def trace_problems(draw):
    """Random m-view coefficients (m in 1..4) with signed graph quadratics,
    plus a config and simplex weights; returns (kpks, Us, alpha, cfg, Ks, Ps)
    with each view's symmetrized K P K."""
    m = draw(st.integers(1, 4))
    n = draw(st.integers(2, 12))
    d = draw(st.integers(1, n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cfg = KmsaConfig(
        d=d,
        r=draw(st.floats(1.1, 5.0)),
        kappa=draw(st.floats(0.0, 2.0)),
        eta=draw(st.floats(-5.0, -0.1)),
    )
    Ks, Ps, Us = [], [], []
    for _ in range(m):
        Ks.append(build_kernel(rng.standard_normal((3, n)), KernelSpec()))
        Ps.append(laplacian(sym(rng.standard_normal((n, n)))))
        Us.append(rng.standard_normal((n, d)))
    kpks = [sym(K @ P @ K) for K, P in zip(Ks, Ps)]
    alpha = rng.dirichlet(np.ones(m))
    return kpks, Us, alpha, cfg, Ks, Ps


class TestDenseReferences:
    """The optimizer's trace and objective terms against references that form
    the dense K P K and J_v matrices; relative errors are taken against each
    value's rounding scale (see oracles.dense_trace_terms)."""

    @settings(max_examples=60, deadline=None)
    @given(trace_problems())
    def test_view_trace_terms_match_dense_j(self, problem):
        kpks, Us, alpha, cfg, Ks, Ps = problem
        want, scale = dense_trace_terms(Ks, Ps, Us, cfg.r, cfg.kappa, cfg.eta)
        got = view_trace_terms(*parts(kpks, Us), Us, cfg)
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(np.abs(want), scale))

    @settings(max_examples=60, deadline=None)
    @given(trace_problems())
    def test_objective_terms_match_explicit_kpk(self, problem):
        kpks, Us, alpha, cfg, Ks, Ps = problem
        want, scale = dense_objective_terms(
            Ks, Ps, Us, alpha, cfg.r, cfg.kappa, cfg.eta
        )
        got = objective_terms(*parts(kpks, Us), alpha, cfg)
        assert abs(got["embedding"] - want["embedding"]) <= 1e-12 * max(
            abs(want["embedding"]), scale
        )
        for key in ("weight_regularizer", "alignment"):
            assert got[key] == pytest.approx(want[key], rel=1e-12, abs=1e-300)


class TestSharedTerms:
    """The recorded objective and the weight step's traces are built from one
    per-view (g, p); they differ in the weight-regularizer term alone."""

    @settings(max_examples=60, deadline=None)
    @given(trace_problems())
    def test_objective_and_traces_read_the_same_terms(self, problem):
        kpks, Us, alpha, cfg, _, _ = problem
        g, p = parts(kpks, Us)
        a_r = alpha ** cfg.r
        per_view = g + cfg.kappa + p / (2.0 * cfg.eta)
        scale = np.abs(g) + cfg.kappa + np.abs(p / (2.0 * cfg.eta))
        assert abs(objective(g, p, alpha, cfg) - a_r @ per_view) <= 1e-12 * (a_r @ scale)
        # G's kappa against t_v's norm term: the gap of ROADMAP direction 1
        n = Us[0].shape[0]
        norms = (cfg.r * cfg.kappa / n) * np.array([np.sum(U * U) for U in Us])
        gap = view_trace_terms(g, p, Us, cfg) - per_view
        assert np.all(np.abs(gap - (norms - cfg.kappa)) <= 1e-12 * (scale + norms))


class TestBuildH:
    """The dense reference quadratic that TestUpdateView compares against."""

    def test_single_view_is_bare_quadratic(self, rng):
        views, Us, _, Ks = make_state(rng, m=1)
        K = Ks[0]
        kpk = K @ pca_p(6) @ K
        H = build_h(kpk, Us, np.array([1.0]), 0, 3.0, -1.0)
        assert np.allclose(H, sym(kpk))

    def test_uniform_weights_coefficient(self, rng):
        views, Us, alpha, Ks = make_state(rng, m=2)
        K = Ks[0]
        kpk = sym(K @ pca_p(6) @ K)
        H = build_h(kpk, Us, alpha, 0, 3.0, -1.0)
        coupling = H - kpk
        # (1 + 1) / (2 eta) = 1/eta = -1
        assert np.allclose(coupling, -Us[1] @ Us[1].T, atol=1e-12)

    def test_skewed_weights_coefficient(self, rng):
        views, Us, _, Ks = make_state(rng, m=2)
        K = Ks[0]
        kpk = sym(K @ pca_p(6) @ K)
        H = build_h(kpk, Us, np.array([0.8, 0.2]), 0, 3.0, -1.0)
        coupling = H - kpk
        coeff = (1.0 + (0.2 / 0.8) ** 3) / (2.0 * -1.0)
        assert coeff == pytest.approx(-0.5078125)
        assert np.allclose(coupling, coeff * Us[1] @ Us[1].T, atol=1e-12)


class TestUpdateView:
    def test_diagonal_quadratic_picks_smallest_entries(self):
        H = np.diag([5.0, -1.0, 2.0, 0.0])
        views = [hand_state(np.eye(4), H, np.eye(4))]
        cfg = KmsaConfig(d=2)
        U, _ = update_view(views, [np.zeros((4, 2))], np.array([1.0]), 0, cfg)
        # smallest diagonal entries are -1 then 0
        assert np.allclose(np.abs(U), np.array(
            [[0, 0], [1, 0], [0, 0], [0, 1]], dtype=float), atol=1e-12)

    def test_repeated_call_is_identical(self, rng):
        views, Us, alpha, _ = make_state(rng, m=2, d=2)
        cfg = KmsaConfig(d=2)
        U1, g1 = update_view(views, Us, alpha, 0, cfg)
        U2, g2 = update_view(views, Us, alpha, 0, cfg)
        assert np.array_equal(U1, U2) and g1 == g2

    def test_result_is_constraint_orthonormal(self, rng):
        views, Us, alpha, Ks = make_state(rng, m=2, d=3, n=8)
        cfg = KmsaConfig(d=3)
        U, _ = update_view(views, Us, alpha, 1, cfg)
        M = constraint_matrix(Ks[1], pca_graph(8).B, ridge=1e-6)  # as make_state
        assert np.abs(U.T @ M @ U - np.eye(3)).max() < 1e-8


@st.composite
def update_problems(draw):
    """A random m-view state (m in 1..4, N in 3..30, d in 1..N) with signed
    graph quadratics, constraints K or K K plus a log-uniform ridge in
    [1e-8, 1], simplex weights and a view to update, built as fit builds it;
    returns (views, Us, alpha, cfg, v, kpks, Ms) with the dense K P K and M of
    each view."""
    m = draw(st.integers(1, 4))
    n = draw(st.integers(3, 30))
    cfg = KmsaConfig(
        d=draw(st.integers(1, n)),
        r=draw(st.floats(1.1, 5.0)),
        eta=draw(st.floats(-5.0, -0.1)),
        ridge=10.0 ** draw(st.floats(-8.0, 0.0)),
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    views, Us, kpks, Ms = [], [], [], []
    for _ in range(m):
        K = build_kernel(rng.standard_normal((3, n)), KernelSpec())
        S = sym(rng.standard_normal((n, n)))
        B = np.eye(n) if draw(st.booleans()) else None
        kpk = sym(K @ laplacian(S) @ K)
        M = constraint_matrix(K, B, cfg.ridge)
        views.append(view_state(kpk.copy(), M.copy()))  # the solve consumes both
        Us.append(rng.standard_normal((n, cfg.d)))
        kpks.append(kpk)
        Ms.append(M)
    alpha = rng.dirichlet(np.ones(m))
    return views, Us, alpha, cfg, draw(st.integers(0, m - 1)), kpks, Ms


def eigh_calls(monkeypatch):
    """Record every scipy.linalg.eigh call as "subset" or "full"."""
    calls = []
    real_eigh = scipy.linalg.eigh

    def counting_eigh(*args, **kwargs):
        calls.append("subset" if "subset_by_index" in kwargs else "full")
        return real_eigh(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigh", counting_eigh)
    return calls


def corrupting(fault):
    """The pencil_eigh that view_state calls, with fault applied to the basis
    it returns."""
    real = optimizer.pencil_eigh

    def solve(*args, **kwargs):
        lam, B = real(*args, **kwargs)
        return lam, fault(B)

    return solve


def fit_both_routes(data, cfg, monkeypatch):
    """(model, its eigh calls, model with every update solved densely) for one
    fit of at least NEWTON_MIN_N samples."""
    assert data.n_samples >= eigsolver.NEWTON_MIN_N
    calls = eigh_calls(monkeypatch)
    newton = fit(data, cfg)
    newton_calls = list(calls)
    monkeypatch.setattr(eigsolver, "NEWTON_MIN_N", float("inf"))
    return newton, newton_calls, fit(data, cfg)


def assert_routes_agree(a, b):
    """Same sweep count, traces to 1e-12 relative at every sweep, weights to
    1e-12 and embeddings to 1e-7 relative."""
    assert len(a.objective_trace) == len(b.objective_trace)
    for x, y in zip(a.objective_trace, b.objective_trace):
        assert x == pytest.approx(y, rel=1e-12)
    assert np.abs(a.alpha - b.alpha).max() <= 1e-12
    for Ya, Yb in zip(a.embeddings, b.embeddings):
        assert np.abs(Ya - Yb).max() <= 1e-7 * np.abs(Yb).max()


class TestCachedUpdate:
    """update_view solves in the view's cached eigenbasis; these tests hold it
    to the one-shot solve of the dense pencil (H_v, M_v), for both of
    secular_smallest's choices."""

    @settings(
        max_examples=100,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(update_problems())
    def test_matches_dense_generalized_solve(self, secular_choice, problem):
        views, Us, alpha, cfg, v, kpks, Ms = problem
        M, d = Ms[v], cfg.d
        n = M.shape[0]
        H = build_h(kpks[v], Us, alpha, v, cfg.r, cfg.eta)
        U, g = update_view(views, Us, alpha, v, cfg)
        # g is lam . X^2 in the eigenbasis: the dense trace to within its
        # rounding scale (see oracles.dense_trace_terms)
        dense = np.sum(U * (kpks[v] @ U))
        assert abs(g - dense) <= 1e-12 * np.sum(np.abs(U) * (np.abs(kpks[v]) @ np.abs(U)))
        lam, V = generalized_eigh(H, M, n)
        # Backward-stable solves move eigenvalues by O(eps) times the largest
        # one, and the Cholesky factor represents M to O(n eps cond(M)); both
        # hold for either choice, so the tolerances are taken relative to them.
        # U's Rayleigh quotients are taken in whitened coordinates, where they
        # do not cancel.
        scale = 1.0 + np.abs(lam).max()
        L = cholesky_factor(M)
        Y = L.T @ U
        w = np.sum(Y * (whiten(L, H) @ Y), axis=0) / np.sum(Y * Y, axis=0)
        assert np.abs(w - lam[:d]).max() <= 1e-8 * scale
        orth = np.abs(U.T @ M @ U - np.eye(d)).max()
        assert orth <= 1e-8 + n * np.finfo(float).eps * np.linalg.cond(M)
        if d == n or lam[d] - lam[d - 1] > 1e-6 * scale:
            ref = V[:, :d] @ V[:, :d].T @ M
            assert np.abs(U @ U.T @ M - ref).max() <= 1e-6
        assert np.array_equal(fix_signs(U), U)

    def test_residual_check_rejects_a_pencil_other_than_the_cached_one(
        self, monkeypatch, secular_choice
    ):
        # a coupled update whose eigensolvers are each handed their matrix plus
        # 1e-3 I: the pairs solve a shifted pencil, which the check must catch
        H = np.diag([5.0, -1.0, 2.0, 0.0])
        views = [hand_state(np.eye(4), H, np.eye(4))] * 2
        # strong enough that both wanted eigenvalues lie below min(lam) = -1
        Us = [np.zeros((4, 2)), np.array([[3.0, 0.0], [1.5, 3.0], [0.0, 1.5], [3.0, 3.0]])]
        alpha, cfg = np.full(2, 0.5), KmsaConfig(d=2)
        update_view(views, Us, alpha, 0, cfg)  # unshifted, the pairs pass

        def shifted(real_eigh):
            def eigh(a, *args, **kwargs):
                return real_eigh(a + 1e-3 * np.eye(a.shape[0]), *args, **kwargs)

            return eigh

        monkeypatch.setattr(scipy.linalg, "eigh", shifted(scipy.linalg.eigh))
        monkeypatch.setattr(np.linalg, "eigh", shifted(np.linalg.eigh))
        with pytest.raises(NumericError, match="backward-error bound"):
            update_view(views, Us, alpha, 0, cfg)

    @pytest.mark.parametrize("corrupt", [
        pytest.param(lambda B: (1.0 + 1e-3) * B, id="B-scaled"),
        pytest.param(lambda B: B[:, ::-1], id="B-reversed"),
    ])
    def test_residual_check_rejects_a_corrupt_eigenbasis(
        self, rng, monkeypatch, secular_choice, corrupt
    ):
        # the set-up check reads the pencil through probe products taken
        # before the solve, so a basis altered after LAPACK returns it fails
        # the fit before any update, centered or not
        data = random_dataset(rng, m=2, n=8)
        for center in (False, True):
            cfg = KmsaConfig(d=2, center_kernel=center, max_iters=2)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", WeightDomainWarning)
                fit(data, cfg)  # LAPACK's own basis passes
            with monkeypatch.context() as patch:
                patch.setattr(optimizer, "pencil_eigh", corrupting(corrupt))
                with pytest.raises(NumericError, match="misses its"):
                    fit(data, cfg)

    def test_degenerate_kernel_at_zero_ridge_asks_for_a_ridge(self, rng):
        # a linear kernel over identical samples is the all-ones matrix
        data = MultiviewDataset(views=[np.ones((1, 8)), rng.standard_normal((3, 8))])
        cfg = KmsaConfig(d=2, kernel=KernelSpec(kind="linear"), ridge=0.0)
        with pytest.raises(NumericError, match="raise the ridge"):
            fit(data, cfg)

    def test_each_view_is_factored_once_per_fit(self, rng, monkeypatch):
        # the constraint is factored inside the one generalized eigh call that
        # diagonalizes each view's pencil
        calls = []
        real_eigh = scipy.linalg.eigh

        def counting_eigh(a, b=None, *args, **kwargs):
            calls.append(b is not None)
            return real_eigh(a, b, *args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "eigh", counting_eigh)
        data = random_dataset(rng, m=3, n=15)
        cfg = KmsaConfig(d=2, graph=GraphRecipe(kind="lpp", k=4), max_iters=5, tol=1e-300)
        model = fit(data, cfg)
        assert len(model.objective_trace) == 6
        assert calls.count(True) == 3

    @pytest.mark.parametrize("n", [15, 150])
    def test_each_view_is_diagonalized_once_per_fit_at_every_n(self, rng, monkeypatch, n):
        calls = eigh_calls(monkeypatch)
        data = random_dataset(rng, m=3, n=n)
        recipe = GraphRecipe(kind="lpp", k=4)
        fit(data, KmsaConfig(d=2, graph=recipe, max_iters=0))
        # the first, uncoupled updates call no eigensolver
        assert calls == ["full"] * 3
        model = fit(data, KmsaConfig(d=2, graph=recipe, max_iters=5, tol=1e-300))
        assert len(model.objective_trace) == 6
        assert calls[3:].count("full") == 3

    def test_lpp_fit_above_the_threshold_matches_the_dense_route(self, monkeypatch):
        data = generate_synthetic(
            classes=3, per_class=50, informative_views=3, noise_views=1, seed=0
        )
        cfg = KmsaConfig(d=4, graph=GraphRecipe(kind="lpp"), max_iters=5)
        newton, calls, dense = fit_both_routes(data, cfg, monkeypatch)
        # one diagonalization per view, and no coupled update fell back
        assert calls == ["full"] * 4
        assert_routes_agree(newton, dense)

    def test_weak_coupling_falls_back_and_matches_the_dense_route(self, monkeypatch):
        # at eta=-1e9 the coupling barely moves A's spectrum, so some updates
        # have fewer than d eigenvalues below min(lam) and take the dense solve
        data = generate_synthetic(
            classes=3, per_class=50, informative_views=2, noise_views=1, seed=0
        )
        cfg = KmsaConfig(d=3, eta=-1e9, ridge=0.1, max_iters=3)
        newton, calls, dense = fit_both_routes(data, cfg, monkeypatch)
        assert calls.count("full") == 3
        assert calls.count("subset") > 0
        assert_routes_agree(newton, dense)


@st.composite
def pencils(draw):
    """A random view pencil as fit builds it: a Gaussian kernel over N in
    4..40 points, centered or not, a signed graph quadratic and the
    constraint K or K K plus a log-uniform ridge in [1e-8, 1e-1]; returns
    (kpk, M)."""
    n = draw(st.integers(4, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    K = build_kernel(rng.standard_normal((3, n)), KernelSpec(), center=draw(st.booleans()))
    kpk = sym(K @ laplacian(sym(rng.standard_normal((n, n)))) @ K)
    B = np.eye(n) if draw(st.booleans()) else None
    return kpk, constraint_matrix(K, B, 10.0 ** draw(st.floats(-8.0, -1.0)))


class TestUpdateMinimizesG:
    """update_view(v) minimizes G over U_v: every M_v-orthonormal alternative
    U_v = B X' in the view's eigenbasis B (X'^T X' = I) scores a G no lower,
    within G's rounding scale (objective_and_scale), for both of
    secular_smallest's choices."""

    @settings(
        max_examples=100,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(update_problems(), st.integers(0, 2**32 - 1))
    def test_no_sampled_alternative_scores_lower(self, secular_choice, problem, seed):
        views, Us, alpha, cfg, v, kpks, Ms = problem
        B = views[v].B
        U, _ = update_view(views, Us, alpha, v, cfg)
        # the returned coordinates (B^T M B = I), orthonormalized again: B^T M U
        # rounds with M's conditioning, and an X' off orthonormal is no alternative
        X = np.linalg.qr(B.T @ (Ms[v] @ U))[0]
        n, d = X.shape
        rng = np.random.default_rng(seed)
        alternatives = [np.linalg.qr(rng.standard_normal((n, d)))[0] for _ in range(3)]
        A = rng.standard_normal((n, n))
        A -= A.T
        A /= np.linalg.norm(A, 2)  # expm(theta A) turns by at most theta
        alternatives += [scipy.linalg.expm(theta * A) @ X for theta in (1e-2, 1e-4, 1e-6)]
        G_new, scale_new = objective_and_scale(kpks, Us[:v] + [U] + Us[v + 1 :], alpha, cfg)
        for X_alt in alternatives:
            alt = Us[:v] + [B @ X_alt] + Us[v + 1 :]
            G_alt, scale_alt = objective_and_scale(kpks, alt, alpha, cfg)
            assert G_new - G_alt <= 1e-12 * max(scale_new, scale_alt)


class TestSetupCheck:
    """view_state checks its one diagonalization against the real pencil, by
    probe products taken before the solve: LAPACK's basis passes, and one
    scaled column, two swapped columns or the reversed order fail."""

    @settings(max_examples=100, deadline=None)
    @given(pencils(), st.data())
    def test_accepts_lapack_and_rejects_a_corrupted_basis(self, pencil, data):
        kpk, M = pencil
        n = kpk.shape[0]
        lam, B = scipy.linalg.eigh(kpk, M, driver="gvd")
        vs = view_state(kpk.copy(), M.copy())
        assert np.array_equal(vs.lam, lam) and np.array_equal(vs.B, B)
        j = data.draw(st.integers(0, n - 1))
        i, k = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        # swapping the columns of one eigenvalue leaves an eigenbasis
        assume(abs(lam[k] - lam[i]) > 1e-6 * np.abs(lam).max())
        swap = np.arange(n)
        swap[[i, k]] = k, i
        for fault in (
            lambda B: B * np.where(np.arange(n) == j, 1.0 + 1e-3, 1.0),
            lambda B: B[:, swap],
            lambda B: B[:, ::-1],
        ):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(optimizer, "pencil_eigh", corrupting(fault))
                with pytest.raises(NumericError, match="misses its"):
                    view_state(kpk.copy(), M.copy())


class TestWeights:
    def test_equal_traces_give_uniform(self):
        alpha, clamped = closed_form_weights(np.array([2.0, 2.0, 2.0]), r=3.0)
        assert np.allclose(alpha, 1.0 / 3.0)
        assert not clamped.any()

    def test_known_traces(self):
        # traces (1, 2, 4), r=3: alpha proportional to (1, 2^-1/2, 4^-1/2)
        alpha, _ = closed_form_weights(np.array([1.0, 2.0, 4.0]), r=3.0)
        raw = np.array([1.0, 2.0 ** -0.5, 4.0 ** -0.5])
        assert np.allclose(alpha, raw / raw.sum(), atol=1e-12)
        assert np.allclose(alpha, [0.453082, 0.320377, 0.226541], atol=5e-7)

    def test_beats_simplex_grid_oracle(self, rng):
        for _ in range(8):
            m = int(rng.integers(2, 4))
            traces = rng.uniform(0.5, 5.0, size=m)
            alpha, _ = closed_form_weights(traces, r=3.0)
            _, best_grid = simplex_oracle(traces, r=3.0, step=1e-3)
            mine = float(weight_objective(alpha, traces, 3.0))
            assert mine <= best_grid + 1e-6

    def test_large_r_is_nearly_uniform(self):
        alpha, _ = closed_form_weights(np.array([1.0, 2.0, 4.0]), r=100.0)
        assert np.abs(alpha - 1.0 / 3.0).max() < 1e-2

    def test_r_near_one_is_nearly_one_hot(self):
        traces = np.array([3.0, 1.0, 2.0])
        alpha, _ = closed_form_weights(traces, r=1.01)
        assert alpha[1] > 0.99

    def test_scale_invariance_bitwise_for_pow2(self):
        traces = np.array([1.3, 2.7, 0.9])
        base, _ = closed_form_weights(traces, r=3.0)
        for c in (2.0, 0.5, 4.0):
            scaled, _ = closed_form_weights(c * traces, r=3.0)
            assert np.array_equal(base, scaled)

    def test_scale_invariance_general(self):
        traces = np.array([1.3, 2.7, 0.9])
        base, _ = closed_form_weights(traces, r=3.0)
        scaled, _ = closed_form_weights(3.0 * traces, r=3.0)
        assert np.allclose(base, scaled, rtol=1e-14)

    def test_non_positive_traces_clamped(self):
        alpha, clamped = closed_form_weights(np.array([-1.0, 2.0]), r=3.0)
        assert clamped.tolist() == [True, False]
        # the clamped trace is tiny, so its view absorbs nearly all weight
        assert alpha[0] > 0.99
        assert alpha.sum() == pytest.approx(1.0)

    def test_all_zero_traces_fall_back_to_uniform(self):
        alpha, clamped = closed_form_weights(np.zeros(4), r=3.0)
        assert np.allclose(alpha, 0.25)
        assert clamped.all()

    def test_fit_warns_once_and_logs_each_clamp(self, rng):
        # the default pca recipe has negative trace terms, so every sweep clamps
        data = random_dataset(rng, m=3, n=15)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            model = fit(data, KmsaConfig(d=2, max_iters=5))
        assert [w.category for w in caught].count(WeightDomainWarning) == 1
        sweeps = len(model.objective_trace) - 1
        assert sweeps >= 1
        clamps = [line.split(":")[0] for line in model.log if "clamped" in line]
        assert clamps == [f"sweep {k}" for k in range(1, sweeps + 1)]
        assert np.allclose(model.alpha, 1.0 / 3.0)


class TestFit:
    def test_single_view_matches_kernel_pca(self, rng):
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
        U, M = model.coefficients[0], fitted_constraint(data, model, 0)
        projector = U @ U.T @ M
        K_centered = build_kernel(X, KernelSpec(kind="linear"), center=True)
        _, Q = kpca_oracle(K_centered, 3)
        assert np.abs(projector - Q @ Q.T).max() < 1e-6

    def test_zero_sweeps_returns_initialization(self, rng):
        data = random_dataset(rng, m=3, n=12)
        cfg = KmsaConfig(d=2, max_iters=0)
        model = fit(data, cfg)
        assert len(model.objective_trace) == 1
        assert np.allclose(model.alpha, 1.0 / 3.0)

    def test_embeddings_are_coefficient_kernel_products(self, rng):
        data = random_dataset(rng, m=2, n=10)
        model = fit(data, KmsaConfig(d=2, max_iters=3))
        for X, spec, U, Y in zip(data.views, model.kernels, model.coefficients, model.embeddings):
            assert Y.shape == (2, 10)
            assert np.array_equal(Y, U.T @ build_kernel(X, spec))

    def test_constraint_orthonormality_invariant(self, rng):
        data = random_dataset(rng, m=2, n=12)
        model = fit(data, KmsaConfig(d=3, max_iters=5))
        for v, U in enumerate(model.coefficients):
            M = fitted_constraint(data, model, v)
            assert np.abs(U.T @ M @ U - np.eye(3)).max() < 1e-6

    def test_alpha_on_simplex(self, rng):
        data = random_dataset(rng, m=3, n=15)
        model = fit(data, KmsaConfig(d=2, max_iters=5))
        assert model.alpha.sum() == pytest.approx(1.0, abs=1e-10)
        assert (model.alpha > 0).all()

    @pytest.mark.parametrize("recipe", ["pca", "lpp", "lda"])
    def test_monotone_descent_at_reported_defaults(self, recipe):
        rng = np.random.default_rng(7)
        for m, n, d in [(2, 10, 2), (3, 30, 5), (2, 30, 2), (3, 10, 2)]:
            data = random_dataset(rng, m=m, n=n)
            cfg = KmsaConfig(
                d=d, graph=GraphRecipe(kind=recipe, k=min(5, n - 1)), max_iters=10
            )
            model = fit(data, cfg)
            trace = model.objective_trace
            for prev, curr in zip(trace[:-1], trace[1:]):
                assert curr <= prev + 1e-8 * (1.0 + abs(prev))

    def test_spp_fit_end_to_end(self):
        data = generate_synthetic(
            classes=3, per_class=7, informative_views=3, noise_views=1, seed=0
        )
        cfg = KmsaConfig(d=4, graph=GraphRecipe(kind="spp"), max_iters=30)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ConvergenceWarning)
            model = fit(data, cfg)  # every lasso path reaches lasso_lambda
        trace = model.objective_trace
        for prev, curr in zip(trace[:-1], trace[1:]):
            assert curr <= prev + MONOTONE_SLACK * (1.0 + abs(prev))
        assert model.alpha.sum() == pytest.approx(1.0, abs=1e-12)
        assert (model.alpha >= 0).all()
        for Y, Z in zip(model.embeddings, transform(model, data.views, data)):
            assert np.abs(Y - Z).max() <= 1e-10
        assert not any(line.startswith("lasso column") for line in model.log)

    def test_mixed_recipe_fit_codes_each_spp_view_as_if_alone(self, monkeypatch):
        # two spp views with their own lasso weights and step caps share one
        # lasso queue, lpp views between them: each graph is the one its
        # recipe builds alone, and the capped-path notes and warnings come
        # view by view
        data = generate_synthetic(
            classes=3, per_class=7, informative_views=3, noise_views=1, seed=0
        )
        recipes = (
            GraphRecipe(kind="spp", lasso_lambda=0.05, lasso_max_iters=3),
            GraphRecipe(kind="lpp", k=4),
            GraphRecipe(kind="spp", lasso_lambda=0.3, lasso_max_iters=2),
            GraphRecipe(kind="lpp", k=4),
        )
        seen, real = [], optimizer.laplacian

        def recording(S):
            seen.append(S.copy())
            return real(S)

        monkeypatch.setattr(optimizer, "laplacian", recording)
        with pytest.warns(ConvergenceWarning) as record, warnings.catch_warnings():
            warnings.simplefilter("ignore", WeightDomainWarning)
            model = fit(data, KmsaConfig(d=2, graph=recipes, max_iters=3))
        warned, notes = [], []
        for v in (0, 2):
            X, recipe = data.views[v], recipes[v]
            lam, cap = recipe.lasso_lambda, recipe.lasso_max_iters
            M, finished = lasso_codes([(X, lam, cap)])[0]
            S = spp_graph(M).S
            assert np.abs(seen[v] - S).max() <= 1e-9 * np.abs(S).max()
            capped = np.flatnonzero(~finished)
            warned.append(f"{capped.size} sparse-coding path(s) hit the homotopy step cap")
            notes += [
                f"lasso column {i} hit the {cap}-step homotopy cap before lasso_lambda"
                for i in capped
            ]
        assert [str(w.message) for w in record if w.category is ConvergenceWarning] == warned
        assert [line for line in model.log if line.startswith("lasso column")] == notes
        for v in (1, 3):
            assert np.array_equal(seen[v], lpp_graph(Distances(data.views[v]), 4, MEDIAN).S)

    def test_a_fit_runs_every_spp_view_in_one_lasso_queue(self, monkeypatch):
        calls, real = [], graphs.lasso_codes

        def counting(problems):
            calls.append(len(problems))
            return real(problems)

        monkeypatch.setattr(graphs, "lasso_codes", counting)
        monkeypatch.setattr(optimizer, "lasso_codes", counting)
        data = generate_synthetic(
            classes=3, per_class=7, informative_views=3, noise_views=1, seed=0
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", WeightDomainWarning)
            fit(data, KmsaConfig(d=4, graph=GraphRecipe(kind="spp"), max_iters=2))
        assert calls == [4]

    def test_objective_reads_no_eigenbasis(self, rng, monkeypatch):
        # every read of a view's eigenbasis happens inside an update, which
        # returns its g_v: the objective and the weight step read none
        depth, reads, updates = [], [], []
        real_state, real_update = optimizer.view_state, optimizer.update_view

        class Watched:
            def __init__(self, vs):
                self.vs = vs

            def __getattr__(self, name):
                reads.append(len(depth))
                return getattr(self.vs, name)

        def update(*args):
            updates.append(args[3])
            depth.append(None)
            try:
                return real_update(*args)
            finally:
                depth.pop()

        monkeypatch.setattr(optimizer, "view_state", lambda *a: Watched(real_state(*a)))
        monkeypatch.setattr(optimizer, "update_view", update)
        data = random_dataset(rng, m=3, n=15)
        cfg = KmsaConfig(d=2, graph=GraphRecipe(kind="lpp", k=4), max_iters=4, tol=1e-300)
        model = fit(data, cfg)
        assert len(updates) == 3 * len(model.objective_trace) == 15
        assert reads and set(reads) == {1}

    @pytest.mark.parametrize("center", [False, True])
    @pytest.mark.parametrize("learn", [True, False])
    @pytest.mark.parametrize("recipe", ["pca", "lpp", "lda", "spp"])
    def test_recorded_objective_is_g_of_the_returned_model(self, recipe, learn, center):
        # the last trace value is G of the returned coefficients and weights,
        # with each g_v from the dense K P K that fit built
        data = generate_synthetic(
            classes=3, per_class=7, informative_views=3, noise_views=1, seed=0
        )
        cfg = KmsaConfig(
            d=4, graph=GraphRecipe(kind=recipe), max_iters=5, center_kernel=center,
            ridge=1e-2 if center else 1e-8,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", WeightDomainWarning)
            model = fit(data, cfg, learn_weights=learn)
        kpks = [fitted_kpk(data, model, v) for v in range(data.n_views)]
        G, scale = objective_and_scale(kpks, list(model.coefficients), model.alpha, cfg)
        assert abs(model.objective_trace[-1] - G) <= 1e-12 * scale

    def test_determinism(self, rng):
        data = random_dataset(rng, m=2, n=10)
        cfg = KmsaConfig(d=2, max_iters=4)
        a = fit(data, cfg)
        b = fit(data, cfg)
        assert np.array_equal(a.alpha, b.alpha)
        assert a.objective_trace == b.objective_trace
        for ua, ub in zip(a.coefficients, b.coefficients):
            assert np.array_equal(ua, ub)

    def test_lda_class_ids_are_names(self):
        # ids 3, 7, 8 for classes 0, 1, 2 give the same fit to the bit
        data = generate_synthetic(classes=3, per_class=7, informative_views=2, noise_views=1)
        renamed = MultiviewDataset(data.views, np.array([3, 7, 8])[data.labels])
        cfg = KmsaConfig(d=2, graph=GraphRecipe(kind="lda"), ridge=1e-2, max_iters=3)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", WeightDomainWarning)
            a, b = fit(data, cfg), fit(renamed, cfg)
        assert a.objective_trace == b.objective_trace and np.array_equal(a.alpha, b.alpha)
        for ya, yb in zip(a.coefficients + a.embeddings, b.coefficients + b.embeddings):
            assert np.array_equal(ya, yb)


class TestTransform:
    def test_training_points_reproduce_embeddings(self, rng):
        data = random_dataset(rng, m=2, n=10)
        model = fit(data, KmsaConfig(d=2, max_iters=2))
        out = transform(model, data.views, data)
        for Y, Z in zip(model.embeddings, out):
            assert np.array_equal(Y, Z)

    def test_empty_input(self, rng):
        data = random_dataset(rng, m=2, n=10)
        model = fit(data, KmsaConfig(d=2, max_iters=1))
        out = transform(model, [v[:, :0] for v in data.views], data)
        for Z in out:
            assert Z.shape == (2, 0)

    def test_duplicated_training_sample(self, rng):
        data = random_dataset(rng, m=2, n=10)
        model = fit(data, KmsaConfig(d=2, max_iters=2))
        j = 4
        out = transform(model, [v[:, j : j + 1] for v in data.views], data)
        for Y, Z in zip(model.embeddings, out):
            assert np.abs(Z[:, 0] - Y[:, j]).max() < 1e-10

    def test_dimension_mismatches_raise(self, rng):
        data = random_dataset(rng, m=2, n=10)
        model = fit(data, KmsaConfig(d=2, max_iters=1))
        with pytest.raises(DimensionError):
            transform(model, [data.views[0]], data)
        bad = [np.vstack([v, v]) for v in data.views]
        with pytest.raises(DimensionError):
            transform(model, bad, data)
        with pytest.raises(DimensionError, match="training dataset has 3 views"):
            transform(model, data.views, random_dataset(rng, m=3, n=10))
        with pytest.raises(DimensionError, match="8 samples, model was fitted on 10"):
            transform(model, data.views, data.subset(range(8)))

    def test_new_views_are_one_dataset(self, rng):
        # each new point is a sample of every view
        data = random_dataset(rng, m=2, n=10)
        model = fit(data, KmsaConfig(d=2, max_iters=0))
        with pytest.raises(ConfigError) as exc:
            transform(model, [data.views[0][:, :4], data.views[1][:, :3]], data)
        assert exc.value.code == "mismatched_samples"

    def test_unknown_kernel_kind_raises(self, rng):
        # a model's kernels are specs, and a spec of an unknown kind cannot be
        # built, so transform never meets one
        data = random_dataset(rng, m=2, n=10)
        model = fit(data, KmsaConfig(d=2, max_iters=0))
        with pytest.raises(ConfigError, match="unknown kernel 'rbf'") as exc:
            replace(model.kernels[0], kind="rbf")
        assert exc.value.code == "unknown_kernel"

    @pytest.mark.parametrize("center", [False, True])
    @pytest.mark.parametrize("kind", ["gaussian", "linear", "polynomial"])
    def test_model_roundtrip(self, rng, kind, center):
        # fit embeds its training set by transform's rule, so the two agree
        # to the bit, centered or not, for the training views or copies of
        # them: at these N numpy's X^T X of one buffer rounds apart from
        # X^T X.copy(), so both must take one route
        cfg = KmsaConfig(d=2, max_iters=2, kernel=KernelSpec(kind=kind), center_kernel=center)
        for n in (12, 60):
            data = random_dataset(rng, m=2, n=n)
            model = fit(data, cfg)
            for views in (data.views, [X.copy() for X in data.views]):
                out = transform(model, views, data)
                for Y, Z in zip(model.embeddings, out):
                    assert np.array_equal(Y, Z)

    @pytest.mark.parametrize("kind", ["gaussian", "linear", "polynomial"])
    def test_centered_transform_of_new_points_reads_stored_means(self, rng, monkeypatch, kind):
        # a centered model stores each view's raw training-kernel row means;
        # new points are centered with them, and no training x training
        # kernel entry is evaluated
        data = random_dataset(rng, m=2, n=12)
        new = [rng.standard_normal((X.shape[0], 5)) for X in data.views]
        cfg = KmsaConfig(d=2, max_iters=2, kernel=KernelSpec(kind=kind), center_kernel=True)
        model = fit(data, cfg)
        seen, real_raw = [], kernels._raw_kernel

        def recording_raw(dists, spec, Y=None):
            seen.append(Y)
            return real_raw(dists, spec, Y)

        monkeypatch.setattr(kernels, "_raw_kernel", recording_raw)
        out = transform(model, new, data)
        # the new points themselves, by value: cross_kernel hands on a copy
        assert len(seen) == 2 and all(np.array_equal(B, Y) for B, Y in zip(seen, new))
        for X, Y, spec, U, mu, Z in zip(
            data.views, new, model.kernels, model.coefficients, model.kernel_means, out
        ):
            assert np.array_equal(mu, real_raw(Distances(X), spec).mean(axis=1))
            cols = real_raw(Distances(X), spec, Y) - mu[:, None]
            assert np.array_equal(Z, U.T @ (cols - cols.mean(axis=0, keepdims=True)))


class TestWorkingSet:
    """A fit holds each view's eigenbasis (B, one N x N matrix) and builds
    one view's pencil at a time; the kernels come back one at a time for the
    embeddings, once the eigenbases are gone."""

    # peaks measured at 7.12 N^2 (lpp, pca), 8.11 (lda) and 10.64 (spp)
    PEAK = {"lpp": 7.5, "pca": 7.5, "lda": 8.5, "spp": 11.5}

    @pytest.mark.parametrize("recipe", ["lpp", "pca", "lda", "spp"])
    def test_peak_of_one_fit_in_n_squared_doubles(self, recipe):
        # three earlier views keep 3 N^2; the last view's pencil, solved in
        # place, and the ?sygvd workspace (2 N^2) bring the peak near 7 N^2.
        # lda's constraint K H K is formed from its graph's dense N x N H, one
        # N^2 more. spp codes every view before any eigenbasis exists, in one
        # lasso queue that sets its peak, and each view's codes go once its
        # graph is built
        data = generate_synthetic(per_class=100, seed=3)
        n = data.n_samples
        cfg = KmsaConfig(d=4, graph=GraphRecipe(kind=recipe), max_iters=2)
        tracemalloc.start()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", WeightDomainWarning)
                fit(data, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / (8.0 * n * n) <= self.PEAK[recipe]

    def test_each_view_computes_its_distances_and_median_once(self, monkeypatch):
        # the median bandwidth, the kernel, lpp's median heat and its
        # neighbors share one distance matrix; the final kernel rebuild
        # computes it again. The median is counted where it is computed
        calls = {"pairwise_sq_dists": 0, "median": 0}
        real_median, real_sq = kernels.Distances.median.func, kernels.pairwise_sq_dists

        def counting_median(dists):
            calls["median"] += 1
            return real_median(dists)

        def counting_sq(*args, **kwargs):
            calls["pairwise_sq_dists"] += 1
            return real_sq(*args, **kwargs)

        median = cached_property(counting_median)
        median.__set_name__(kernels.Distances, "median")
        monkeypatch.setattr(kernels.Distances, "median", median)
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("kmsa") and (
                getattr(module, "pairwise_sq_dists", None) is real_sq
            ):
                monkeypatch.setattr(module, "pairwise_sq_dists", counting_sq)
        data = generate_synthetic(per_class=6, seed=1)
        cfg = KmsaConfig(d=2, graph=GraphRecipe(kind="lpp"), max_iters=2)
        assert cfg.kernel.bandwidth == MEDIAN and cfg.graph.heat == MEDIAN
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", WeightDomainWarning)
            fit(data, cfg)
        m = data.n_views
        assert calls["median"] <= m
        assert calls["pairwise_sq_dists"] <= 2 * m

    @pytest.mark.parametrize("center", [False, True])
    @pytest.mark.parametrize("recipe", ["pca", "lpp", "lda", "spp"])
    def test_embeddings_are_the_rebuilt_kernels_projections(self, recipe, center):
        # centered, the stored row means are those the pencil's kernel was
        # centered with, and the kernel columns are centered with them, as
        # transform centers new points
        data = generate_synthetic(per_class=5, seed=2)
        cfg = KmsaConfig(
            d=2, graph=GraphRecipe(kind=recipe), max_iters=3, center_kernel=center
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            model = fit(data, cfg)
        out = transform(model, data.views, data)
        assert (model.kernel_means is not None) == center
        means = model.kernel_means or (None,) * data.n_views
        for X, spec, U, mu, Y, Z in zip(
            data.views, model.kernels, model.coefficients, means, model.embeddings, out
        ):
            if center:
                assert np.array_equal(mu, build_kernel(X, spec).mean(axis=1))
            assert np.array_equal(Y, U.T @ cross_kernel(X, X, spec, mu))
            assert np.array_equal(Y, Z)


def test_gram_divergence_properties(rng):
    U = rng.standard_normal((8, 3))
    V = rng.standard_normal((8, 3))
    assert gram_divergence(U, U) == pytest.approx(0.0, abs=1e-15)
    assert gram_divergence(U, V) == pytest.approx(gram_divergence(V, U), rel=1e-12)
    assert gram_divergence(U, V) >= 0
    assert gram_divergence(np.zeros((8, 3)), np.zeros((8, 3))) == 0.0
