"""Alternating minimization: per-view coefficient updates by generalized
eigendecomposition, closed-form view weights, objective tracing.

Each view's pencil (K P K_v, M_v) is diagonalized once per fit, in place,
and checked against the pencil then (view_state). An update lowers it by a
rank-(m-1)d coupling, solved in that eigenbasis by secular_smallest and
checked there; the first, uncoupled updates read their pairs off the spectrum.

Objective. With the graph terms g_v = tr(U_v^T K_v P_v K_v U_v) and the pair
sums p_v = sum_{w != v} ||U_w^T U_v||_F^2, a fit records

    G = sum_v alpha_v^r (g_v + kappa + p_v / (2 eta)),

its per-view bracket stated by _view_terms. Since eta < 0, lowering G aligns
the coefficient subspaces of every pair. An update is the exact minimizer of
G over one U_v, so with fixed weights (or every view clamped, which keeps
1/m) the trace is non-increasing. The weight step minimizes sum_v alpha_v^r t_v
(view_trace_terms), not G, so with learned weights a sweep can raise G; it
clamps non-positive t_v to a tiny floor and logs it (failing hard would make
hyperparameter sweeps brittle). An update returns its g_v; a sweep's p_v
serve both steps.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .eigsolver import check_pairs, fix_signs, pencil_eigh, secular_smallest
from .errors import (
    ConvergenceWarning,
    DimensionError,
    NonMonotoneWarning,
    NumericError,
    WeightDomainWarning,
)
from .graphs import build_graph, constraint_matrix, laplacian, lasso_codes
from .kernels import Distances, build_kernel, cross_kernel, resolve_kernel_spec, symmetrize
from .types import KmsaConfig, KmsaModel, MultiviewDataset, validate_config

MONOTONE_SLACK = 1e-8
TRACE_FLOOR = 1e-12


@dataclass(frozen=True)
class ViewState:
    """Per-view constants of a fit (view_state): the eigenvalues lam of the
    pencil (K P K, M), M the ridged constraint, and its eigenvectors B
    (B^T M B = I, B^T K P K B = diag(lam)), the one N x N matrix a view keeps."""

    lam: np.ndarray
    B: np.ndarray


def view_state(KPK, M) -> ViewState:
    """A view's constants from its pencil, the symmetric graph quadratic KPK
    and the ridged constraint M, by one ?sygvd that overwrites both: pass
    copies of any you still need. The basis is checked against products with
    a fixed probe p, p_k = sin(k^2), taken before the solve (not the ones
    vector, which a centered kernel maps to zero). Each column b must meet
    |p^T KPK b - lam p^T M b| <= 1e-14 ((||KPK||_F + |lam| ||M||_F) ||b||
    + max|lam| ||M||_F^(1/2)) ||p||, which permuted columns miss: the last term
    is the Cholesky factor of M times the reduced solve's rounding, which scales
    with the largest |lam| and not b's own. The basis ||B B^T M p - p|| <= 1e-15
    max ||b||^2 ||M||_F ||p||, which scaled ones miss; that scale grows with
    M's conditioning. NumericError otherwise."""
    p = np.sin(np.arange(1.0, KPK.shape[0] + 1) ** 2)
    Kp, Mp = KPK @ p, M @ p
    k_norm, m_norm, p_norm = np.linalg.norm(KPK), np.linalg.norm(M), np.linalg.norm(p)
    # LAPACK works in place on Fortran-ordered matrices; the transposes are
    # ones, and the same matrices since both are symmetric
    lam, B = pencil_eigh(KPK.T, M.T, driver="gvd", overwrite_a=True, overwrite_b=True)
    b_norms = np.linalg.norm(B, axis=0)
    resid = np.abs(Kp @ B - lam * (Mp @ B))
    bound = (k_norm + np.abs(lam) * m_norm) * b_norms + np.abs(lam).max() * np.sqrt(m_norm)
    bad = np.flatnonzero(~(resid <= 1e-14 * bound * p_norm))
    if bad.size:
        raise NumericError(f"eigenpair {bad[0]} misses its pencil by {resid[bad[0]]:.3e}")
    drift = np.linalg.norm(B @ (B.T @ Mp) - p)
    if not drift <= 1e-15 * b_norms.max() ** 2 * m_norm * p_norm:
        raise NumericError(f"eigenbasis misses its normalization by {drift:.3e}")
    return ViewState(lam, B)


def pair_sums(Us) -> np.ndarray:
    """Per-view p_v = sum_{w != v} ||U_w^T U_v||_F^2, as the row sums of the
    symmetric matrix of pair norms (zero diagonal)."""
    m = len(Us)
    cross = np.zeros((m, m))
    for v in range(m):
        for w in range(v + 1, m):
            C = Us[w].T @ Us[v]
            cross[v, w] = cross[w, v] = float(np.sum(C * C))
    return cross.sum(axis=1)


def _view_terms(g, p, cfg: KmsaConfig) -> dict:
    """G's per-view bracket by part: graph g, regularizer kappa, pair p / (2 eta)."""
    return {"embedding": g, "weight_regularizer": cfg.kappa, "alignment": p / (2.0 * cfg.eta)}


def objective_terms(g, p, alpha: np.ndarray, cfg: KmsaConfig) -> dict:
    """G's three components, each the alpha^r-weighted sum of its part."""
    a_r = alpha ** cfg.r
    return {name: float(np.sum(a_r * part)) for name, part in _view_terms(g, p, cfg).items()}


def objective(g, p, alpha: np.ndarray, cfg: KmsaConfig) -> float:
    return sum(objective_terms(g, p, alpha, cfg).values())


def gram_divergence(U_i: np.ndarray, U_j: np.ndarray) -> float:
    """Diagnostic divergence between two coefficient Grams, each normalized by
    its squared Frobenius norm. Zero Grams are treated as already normalized."""

    def normalized(U):
        L = U.T @ U
        nsq = float(np.sum(L * L))
        return L / nsq if nsq > 0 else L

    diff = normalized(U_i) - normalized(U_j)
    return float(np.sum(diff * diff))


def _coupling(alpha: np.ndarray, v: int, cfg: KmsaConfig) -> np.ndarray:
    """Coefficients c_w of H_v = K P K_v + sum_w c_w U_w U_w^T, c_v = 0: G's pair
    weight (alpha_v^r + alpha_w^r) / (2 eta) over alpha_v^r, in the ratio form
    (alpha_w / alpha_v)^r, which stays finite where alpha_v^r underflows."""
    if alpha[v] <= 0.0:
        raise NumericError(f"view weight alpha[{v}] underflowed to {alpha[v]}")
    c = (1.0 + (alpha / alpha[v]) ** cfg.r) / (2.0 * cfg.eta)
    c[v] = 0.0
    return c


def update_view(views, Us, alpha: np.ndarray, v: int, cfg: KmsaConfig) -> tuple:
    """New coefficient matrix V for view v and its graph term g_v, as (V, g_v):
    the minimizer of G over U_v, the d smallest generalized eigenvectors of
    (H_v, M_v) (_coupling). In the view's eigenbasis the pencil is
    T = diag(lam) - Z Z^T with Z = B^T W |C|^{1/2}, W the other views'
    coefficients and C < 0 their coupling weights; secular_smallest solves it
    for (w, X), and V = B X. Each pair is checked there, on T X = X diag(w),
    with ||T||_F^2 = lam.lam - 2 lam.rowsq(Z) + ||Z^T Z||_F^2, so the check
    takes no N x N product. g_v is lam . X^2, since B^T K P K B = diag(lam)."""
    vs = views[v]
    c = np.repeat(_coupling(alpha, v, cfg), cfg.d)
    coupled = c < 0  # every view but v, since eta < 0
    W, c = np.hstack(Us)[:, coupled], c[coupled]
    Z = vs.B.T @ (W * np.sqrt(-c))
    w, X = secular_smallest(vs.lam, Z, cfg.d)
    G = Z.T @ Z
    t_sq = vs.lam @ vs.lam - 2.0 * vs.lam @ np.sum(Z * Z, axis=1) + np.sum(G * G)
    check_pairs(w, vs.lam[:, None] * X - Z @ (Z.T @ X), X, np.sqrt(max(t_sq, 0.0)))
    return fix_signs(vs.B @ X), float(np.sum(vs.lam @ (X * X)))


def view_trace_terms(g, p, Us, cfg: KmsaConfig) -> np.ndarray:
    """The weight step's per-view traces t_v, read off G's bracket."""
    terms = _view_terms(g, p, cfg)
    norms = np.array([float(np.sum(U * U)) for U in Us])
    # ROADMAP direction 1's defect: (r kappa / N) ||U_v||_F^2 where G has kappa
    return terms["embedding"] + (cfg.r * cfg.kappa / Us[0].shape[0]) * norms + terms["alignment"]


def closed_form_weights(traces: np.ndarray, r: float):
    """Simplex weights alpha_v proportional to (1/trace_v)^(1/(r-1)).

    Computed in ratio form (min positive trace over each trace) so a common
    positive scaling of the traces leaves the result unchanged and large
    1/(r-1) exponents cannot overflow. Non-positive traces are clamped to
    1e-12 * max |trace|; returns (alpha, clamped_mask).
    """
    traces = np.asarray(traces, dtype=float).copy()
    m = len(traces)
    scale = float(np.max(np.abs(traces)))
    clamped = traces <= 0.0
    if scale == 0.0:
        return np.full(m, 1.0 / m), clamped
    traces[clamped] = TRACE_FLOOR * scale
    base = traces.min()
    raw = (base / traces) ** (1.0 / (r - 1.0))
    return raw / raw.sum(), clamped


def _prepare_views(data: MultiviewDataset, cfg: KmsaConfig):
    """Resolved kernel specs and diagonalized kernel pencils for every view.
    The lasso codes of every spp view come first, from one lasso_codes queue,
    before any eigenbasis exists. The pencils follow one view at a time: a
    view's N x N temporaries, its codes included, are gone before the next
    view's are built. Each spp view's capped paths are reported in its turn,
    by a ConvergenceWarning and a log line per capped column."""
    m = data.n_views
    recipes = cfg.graphs_for(m)
    spp = [v for v, recipe in enumerate(recipes) if recipe.kind == "spp"]
    problems = [
        (data.views[v], recipes[v].lasso_lambda, recipes[v].lasso_max_iters) for v in spp
    ]
    codes = dict(zip(spp, lasso_codes(problems)))  # v -> (M, finished)
    specs, views, log = [], [], []
    for v, (X, spec, recipe) in enumerate(zip(data.views, cfg.kernels_for(m), recipes)):
        if v in codes:
            cap, capped = recipe.lasso_max_iters, np.flatnonzero(~codes[v][1])
            if capped.size:
                message = f"{capped.size} sparse-coding path(s) hit the homotopy step cap"
                warnings.warn(message, ConvergenceWarning, stacklevel=3)
            log += [f"lasso column {i} hit the {cap}-step homotopy cap before lasso_lambda"
                    for i in capped]
        # the codes are handed on, not held here: _view_pencil frees them
        spec, KPK, M = _view_pencil(X, data.labels, spec, recipe, cfg, codes.pop(v, (None,))[0])
        specs.append(spec)
        views.append(view_state(KPK, M))
        del KPK, M
    return views, tuple(specs), log


def _view_pencil(X, labels, spec, recipe, cfg: KmsaConfig, codes):
    """A view's resolved kernel spec, symmetrized K P K and ridged constraint
    M; codes are an spp view's lasso codes M, else None. The graph, the median
    bandwidth and the kernel read one Distances, computed when the first of
    them needs it, so a graph that reads no distances runs before any exist.
    The codes, the distances, the graph and K go out of scope here, before
    view_state diagonalizes, each as soon as its last reader is done."""
    dists = Distances(X)
    pair = build_graph(dists, labels, recipe, codes)
    del codes
    spec = resolve_kernel_spec(dists, spec)
    K = build_kernel(X, spec, center=cfg.center_kernel, dists=dists)
    del dists
    S, B = pair.S, pair.B
    del pair
    KPK = K @ laplacian(S) @ K
    del S
    return spec, symmetrize(KPK), constraint_matrix(K, B, cfg.ridge)


def fit(
    data: MultiviewDataset, cfg: KmsaConfig, learn_weights: bool = True
) -> KmsaModel:
    """Alternating optimization over coefficient matrices and view weights.

    Initializes each U_v from its co-regularizer-free eigenproblem and alpha
    uniformly, then sweeps views in order (each update sees the freshest
    neighbors), refreshes the weights, and records the objective once per
    sweep. Stops when the relative objective change drops to cfg.tol or after
    cfg.max_iters sweeps. learn_weights=False keeps alpha fixed at 1/m, which
    is the ablation baseline.
    """
    validate_config(cfg, data)
    views, specs, log = _prepare_views(data, cfg)
    m = data.n_views

    alpha = np.full(m, 1.0 / m)
    zeros = [np.zeros((data.n_samples, cfg.d))] * m  # no coupling in the first updates
    Us, g = map(list, zip(*(update_view(views, zeros, alpha, v, cfg) for v in range(m))))
    g = np.array(g)
    trace = [objective(g, pair_sums(Us), alpha, cfg)]

    warned_clamp = False
    for sweep in range(1, cfg.max_iters + 1):
        for v in range(m):
            Us[v], g[v] = update_view(views, Us, alpha, v, cfg)
        # independent of alpha: serves the weight step and the objective
        p = pair_sums(Us)
        if learn_weights:
            traces = view_trace_terms(g, p, Us, cfg)
            alpha, clamped = closed_form_weights(traces, cfg.r)
            if clamped.any():
                which = np.nonzero(clamped)[0].tolist()
                log.append(f"sweep {sweep}: clamped non-positive traces for views {which}")
                if not warned_clamp:
                    warned_clamp = True
                    warnings.warn(
                        f"sweep {sweep}: clamped non-positive trace terms for views "
                        f"{which} (weights of clamped views coincide)",
                        WeightDomainWarning,
                        stacklevel=2,
                    )

        prev = trace[-1]
        value = objective(g, p, alpha, cfg)
        trace.append(value)
        if value > prev + MONOTONE_SLACK * (1.0 + abs(prev)):
            log.append(f"sweep {sweep}: objective rose from {prev!r} to {value!r}")
            warnings.warn(
                f"sweep {sweep}: objective increased beyond slack "
                f"({prev:.6e} -> {value:.6e})",
                NonMonotoneWarning,
                stacklevel=2,
            )
        if abs(value - prev) <= cfg.tol * (1.0 + abs(prev)):
            break

    # the eigenbases go before the kernels come back, one view at a time; the
    # uncentered build_kernel is the raw kernel, exactly symmetric, so each
    # mean is the one the pencil's build_kernel centered with
    del views
    means = None
    if cfg.center_kernel:
        means = tuple(build_kernel(X, spec).mean(axis=1) for X, spec in zip(data.views, specs))
    return KmsaModel(
        coefficients=tuple(Us),
        alpha=alpha,
        objective_trace=tuple(trace),
        embeddings=_embed(Us, specs, means, data.views, data.views),
        config=cfg,
        kernels=specs,
        log=tuple(log),
        kernel_means=means,
    )


def _embed(Us, specs, means, train_views, new_views) -> tuple:
    """Per view, U^T of the new points' kernel columns against the training
    samples, centered with the training kernel's row means when means is
    given: the one rule for the training set and for new points."""
    means = (None,) * len(Us) if means is None else means
    return tuple(
        U.T @ cross_kernel(X_train, X_new, spec, mu)
        for U, spec, mu, X_train, X_new in zip(Us, specs, means, train_views, new_views)
    )


def transform(model: KmsaModel, new_views, data: MultiviewDataset):
    """Embed out-of-sample points: per view, U^T k_new with kernel columns of
    the new points against the training samples of data, under the model's
    resolved kernel spec and, for a centered model, centered with its stored
    kernel_means. fit embeds the training set by the same rule, so
    transform(model, data.views, data) is model.embeddings to the bit."""
    m = len(model.coefficients)
    if len(new_views) != m:
        raise DimensionError(f"expected {m} views, got {len(new_views)}")
    if data.n_views != m:
        raise DimensionError(f"training dataset has {data.n_views} views, model has {m}")
    new_views = MultiviewDataset(new_views).views  # ConfigError for malformed views
    for v, (X_train, X_new, U) in enumerate(zip(data.views, new_views, model.coefficients)):
        if X_new.shape[0] != X_train.shape[0]:
            raise DimensionError(
                f"view {v}: new points have {X_new.shape[0]} features, "
                f"training data has {X_train.shape[0]}"
            )
        if X_train.shape[1] != U.shape[0]:
            raise DimensionError(
                f"view {v}: training dataset has {X_train.shape[1]} samples, "
                f"model was fitted on {U.shape[0]}"
            )
    return list(
        _embed(model.coefficients, model.kernels, model.kernel_means, data.views, new_views)
    )
