"""Graph constructions (S, B) per recipe, the Laplacian-like quadratic P,
and the ridged constraint matrix.

Every recipe keeps S's diagonal at zero (self-similarity never contributes to
the pairwise objective) and yields symmetric S, so P = E - S with
E = diag(row sums) has rows summing to zero.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceWarning, GraphError
from .kernels import median_heuristic_bandwidth, pairwise_sq_dists
from .types import MEDIAN, GraphRecipe


@dataclass(frozen=True)
class GraphPair:
    """Similarity S and constraint factor B: the kernelized constraint is
    K B K, or K itself when B is None. notes carries non-fatal construction
    diagnostics (e.g. lasso paths that hit the step cap)."""

    S: np.ndarray
    B: np.ndarray | None
    notes: tuple = ()


def pca_graph(n: int) -> GraphPair:
    """Dense -1/n off-diagonal similarity; constraint is K itself."""
    if n < 2:
        raise GraphError(f"need at least 2 samples, got {n}")
    S = np.full((n, n), -1.0 / n)
    np.fill_diagonal(S, 0.0)
    return GraphPair(S=S, B=None)


def lpp_graph(X: np.ndarray, k: int, heat) -> GraphPair:
    """Heat-kernel weights exp(-||x_i - x_j||^2 / t) on the symmetric kNN
    graph (edge when i is among j's k nearest or vice versa); B is the degree
    matrix of S."""
    X = np.asarray(X, dtype=float)
    n = X.shape[1]
    if not 1 <= k < n:
        raise GraphError(f"neighbor count must satisfy 1 <= k < N, got k={k}, N={n}")
    t = float(median_heuristic_bandwidth(X) ** 2 if heat == MEDIAN else heat)
    if t <= 0:
        raise GraphError("heat parameter must be positive")
    sq = pairwise_sq_dists(X)
    away = sq.copy()
    np.fill_diagonal(away, np.inf)  # self sorts last; ties keep their order
    order = np.argsort(away, axis=0, kind="stable")
    adj = np.zeros((n, n), dtype=bool)
    adj[order[:k], np.arange(n)] = True
    adj |= adj.T  # the OR rule keeps the graph symmetric
    S = np.where(adj, np.exp(-sq / t), 0.0)
    np.fill_diagonal(S, 0.0)
    return GraphPair(S=S, B=np.diag(S.sum(axis=1)))


def lda_graph(labels) -> GraphPair:
    """Within-class +1/n_c, between-class -1/n_c weights, symmetrized as
    (S + S^T)/2 since unequal class sizes make the raw entries asymmetric;
    B is the centering matrix I - (1/N) ones."""
    labels = np.asarray(labels, dtype=int)
    n = len(labels)
    if n < 2:
        raise GraphError(f"need at least 2 samples, got {n}")
    if labels.min() < 0:
        raise GraphError("class ids must be >= 0")
    counts = np.bincount(labels)
    missing = np.nonzero(counts == 0)[0]
    if missing.size:
        raise GraphError(
            f"class ids {missing.tolist()} have no members after 0..C-1 compaction"
        )
    same = labels[:, None] == labels[None, :]
    delta = np.where(same, 1.0, -1.0)
    S = delta / counts[labels][:, None]
    S = 0.5 * (S + S.T)
    np.fill_diagonal(S, 0.0)
    B = np.eye(n) - np.full((n, n), 1.0 / n)
    return GraphPair(S=S, B=B)


SIDES = np.array([[1.0], [-1.0]])  # the two boundaries, +level and -level


def _lasso_path(A: np.ndarray, y: np.ndarray, lam: float, max_steps: int):
    """min_c 0.5 ||y - A c||^2 + lam ||c||_1 by the LARS-lasso homotopy (Efron et
    al., 2004): from c = 0 at level = max |A^T y| down to lam, active coefficients
    move along G^{-1} sign (G their Gram), holding their correlations on the
    boundary; a step ends where a correlation reaches it or a coefficient reaches 0."""
    p = A.shape[1]
    # boundaries +-level * w_j with w_j - 1 <= 1e-11: ties between correlations
    # become distinct events, so zero-length joins and drops cannot cycle
    w = 1.0 + 1e-11 * np.arange(p) / p
    c, sign, blocked, in_span = np.zeros(p), np.zeros(p), np.zeros(p), np.zeros(p, bool)
    active, joined = np.zeros(0, dtype=int), False
    corr = A.T @ y
    level = (np.abs(corr) / w).max(initial=0.0)
    for _ in range(max_steps):
        A_act = A[:, active]
        gram = A_act.T @ A_act
        d = np.linalg.solve(gram, w[active] * sign[active])
        if joined:
            joined, j = False, active[-1]
            # refuse a join that moves j's coefficient against its sign, as re-joining
            # where it just dropped would; j stays off that side till the set changes
            if sign[j] * d[-1] <= 0.0:
                active, blocked[j], sign[j] = active[:-1], sign[j], 0.0
                continue
            blocked[:] = 0.0
        rate = w - SIDES * (A.T @ (A_act @ d))  # how fast level * w -+ corr closes
        free = (rate > 0.0) & (blocked != SIDES) & ~in_span & (sign == 0.0)
        gap = np.maximum(level * w - SIDES * corr, 0.0)
        t_join = np.divide(gap, rate, out=np.full((2, p), np.inf), where=free)
        t_drop, shrink = np.full(p, np.inf), sign[active] * d < 0.0
        t_drop[active[shrink]] = -c[active[shrink]] / d[shrink]
        t = min(level - lam, t_join.min(initial=np.inf), t_drop.min(initial=np.inf))
        # an active coefficient never crosses 0, not even by rounding
        c[active] = sign[active] * np.maximum(sign[active] * (c[active] + t * d), 0.0)
        if t == level - lam:
            return c, True
        level -= t
        if t == t_drop.min(initial=np.inf):
            k = np.argmin(t_drop)
            active, in_span[:], blocked[:] = active[active != k], False, 0.0
            c[k] = sign[k] = 0.0
        else:
            side, j = divmod(np.argmin(t_join), p)
            resid = A[:, j] - A_act @ np.linalg.solve(gram, A_act.T @ A[:, j])
            if resid @ resid <= 1e-18 * (A[:, j] @ A[:, j]):  # A[:, j] is in the span
                in_span[j] = True  # until a drop shrinks the span
            else:
                active, sign[j], joined = np.append(active, j), SIDES[side, 0], True
        corr = A.T @ (y - A @ c)
    return c, False


def sparse_codes(X: np.ndarray, lam: float, max_steps: int):
    """Column i of M minimizes 0.5 ||x_i - X c||^2 + lam ||c||_1 with c_i = 0, exactly,
    by its own homotopy path. Returns (M, finished); finished[i] is False when
    that path hit max_steps events before reaching lam."""
    X = np.asarray(X, dtype=float)
    n = X.shape[1]
    M, finished = np.zeros((n, n)), np.zeros(n, dtype=bool)
    for i in range(n):
        others = np.arange(n) != i
        M[others, i], finished[i] = _lasso_path(X[:, others], X[:, i], lam, max_steps)
    return M, finished


def spp_graph(X: np.ndarray, lam: float, max_iters: int) -> GraphPair:
    """Sparse-coding similarity (Qiao, Chen & Tan, 2010): column i of M is the
    exact lasso code of x_i by the other samples (self-coefficient fixed at 0,
    at most max_iters homotopy steps), then S = M + M^T + M^T M with the
    diagonal zeroed; constraint is K."""
    X = np.asarray(X, dtype=float)
    n = X.shape[1]
    if n < 2:
        raise GraphError(f"need at least 2 samples, got {n}")
    if lam <= 0:
        raise GraphError("lasso weight must be positive")
    M, finished = sparse_codes(X, lam, max_iters)
    notes = tuple(
        f"lasso column {i} hit the {max_iters}-step homotopy cap before lasso_lambda"
        for i in np.flatnonzero(~finished)
    )
    if notes:
        message = f"{len(notes)} sparse-coding path(s) hit the homotopy step cap"
        warnings.warn(message, ConvergenceWarning, stacklevel=2)
    S = M + M.T + M.T @ M
    np.fill_diagonal(S, 0.0)
    return GraphPair(S=S, B=None, notes=notes)


def laplacian(S: np.ndarray) -> np.ndarray:
    """P = E - S with E = diag(row sums of S); rows of P sum to zero."""
    S = np.asarray(S, dtype=float)
    return np.diag(S.sum(axis=1)) - S


def constraint_matrix(K: np.ndarray, B, ridge: float) -> np.ndarray:
    """Ridged constraint M = (K B K, or K when B is None), symmetrized, plus
    ridge * (trace/N) * I.

    The trace-scaled ridge keeps the generalized eigenproblem definite without
    distorting well-conditioned cases. M is not checked here: its Cholesky
    factorization (eigsolver.cholesky_factor) is the definiteness check.
    """
    K = np.asarray(K, dtype=float)
    n = K.shape[0]
    M = K if B is None else K @ B @ K
    M = 0.5 * (M + M.T)
    return M + ridge * (np.trace(M) / n) * np.eye(n)


def build_graph(X: np.ndarray, labels, recipe: GraphRecipe) -> GraphPair:
    """Dispatch a recipe to its construction."""
    n = np.asarray(X).shape[1]
    if recipe.kind == "pca":
        return pca_graph(n)
    if recipe.kind == "lpp":
        return lpp_graph(X, recipe.k, recipe.heat)
    if recipe.kind == "lda":
        if labels is None:
            raise GraphError("lda graph recipe requires labels")
        return lda_graph(labels)
    if recipe.kind == "spp":
        return spp_graph(X, recipe.lasso_lambda, recipe.lasso_max_iters)
    raise GraphError(f"unknown graph recipe {recipe.kind!r}")
