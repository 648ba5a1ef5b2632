"""Graph constructions (S, B) per recipe, the Laplacian-like quadratic P,
and the ridged constraint matrix.

Every recipe keeps S's diagonal at zero (self-similarity never contributes to
the pairwise objective) and yields symmetric S, so P = E - S with
E = diag(row sums) has rows summing to zero. The spp recipe's lasso codes
follow one homotopy path per column; the paths of a block of columns run in
lockstep, one event per path per pass.
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
    np.fill_diagonal(away, np.inf)  # self is never its own neighbor
    # column j's k nearest: every row closer than its k-th distance, then the
    # rows at that distance, lowest index first, as a stable sort orders them
    kth = np.partition(away, k - 1, axis=0)[k - 1]
    near, tie = away < kth, away == kth
    adj = near | (tie & (np.cumsum(tie, axis=0) <= k - near.sum(axis=0)))
    adj |= adj.T  # the OR rule keeps the graph symmetric
    S = np.zeros((n, n))
    S[adj] = np.exp(-sq[adj] / t)
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


SIDES = np.array([1.0, -1.0])[:, None, None]  # the two boundaries, +level and -level
_BLOCK = 64  # paths run together, so a pass's temporaries stay O(N * _BLOCK)


def _lasso_block(X: np.ndarray, G: np.ndarray, cols: np.ndarray, lam: float, max_steps: int):
    """Lasso codes of the columns cols of X (G = X^T X) and their finished flags,
    by homotopy paths run in lockstep: every pass takes one event on each path
    still running.

    Path i minimizes 0.5 ||x_i - X c||^2 + lam ||c||_1 with c_i = 0 by the
    LARS-lasso homotopy (Efron et al., 2004): from c = 0 at level = max_j |x_j^T x_i|
    down to lam, active coefficients move along G_A^{-1} (w_A sign_A), holding
    their correlations on the boundary; a step ends where a correlation reaches
    it or a coefficient reaches 0. Arrays hold one path per column."""
    n, rows = X.shape[1], np.arange(X.shape[1])[:, None]
    own = rows == cols  # c_i stays 0: row i is never free to join path i
    # boundaries +-level * w_j with w_j - 1 <= 1e-11 by j's position among the
    # other columns: ties between correlations become distinct events, so
    # zero-length joins and drops cannot cycle
    w = 1.0 + 1e-11 * (rows - (rows > cols)) / max(n - 1, 1)
    Y, c, sign, blocked = X[:, cols], *np.zeros((3, n, cols.size))
    corr, in_span = X.T @ Y, own.copy()
    level = np.where(own, 0.0, np.abs(corr) / w).max(axis=0, initial=0.0)
    joined, finished = np.zeros((2, cols.size), dtype=bool)
    newest, live, codes = np.zeros(cols.size, dtype=int), np.arange(cols.size), np.zeros(c.shape)
    for _ in range(max_steps):
        if not live.size:
            break
        # each path's active rows idx[p, :size[p]], padded with row 0; the
        # padding's identity block in the Gram solves to 0
        active = sign != 0.0
        size = active.sum(axis=0)
        path, row = np.nonzero(active.T)
        slot = np.arange(row.size) - np.repeat(np.cumsum(size) - size, size)
        idx = np.zeros((live.size, size.max(initial=0)), dtype=int)
        idx[path, slot] = row
        pad = np.arange(idx.shape[1]) >= size[:, None]
        gram = G[idx[:, :, None], idx[:, None, :]]
        gram = np.where(pad[:, :, None] | pad[:, None, :], np.eye(idx.shape[1]), gram)
        at = (idx, np.arange(live.size)[:, None])
        rhs = np.where(pad, 0.0, w[at] * sign[at])
        step = np.zeros((n, live.size))
        step[row, path] = np.linalg.solve(gram, rhs[..., None])[path, slot, 0]
        moving = np.ones(live.size, dtype=bool)
        if joined.any():
            p = np.flatnonzero(joined)
            j = newest[p]
            # refuse a join that moves j's coefficient against its sign, as
            # re-joining where it just dropped would; j stays off that side
            # till the set changes, and the path's pass ends here
            refused = sign[j, p] * step[j, p] <= 0.0
            blocked[:, p[~refused]] = 0.0
            p, j = p[refused], j[refused]
            blocked[j, p], sign[j, p], step[:, p], moving[p] = sign[j, p], 0.0, 0.0, False
            joined[:] = False
        rate = w - SIDES * (X.T @ (X @ step))  # how fast level * w -+ corr closes
        free = (rate > 0.0) & (blocked != SIDES) & ~in_span & (sign == 0.0)
        gap = np.maximum(level * w - SIDES * corr, 0.0)
        t_join = np.where(free, gap, np.inf) / np.where(free, rate, 1.0)
        shrink = sign * step < 0.0
        t_drop = np.where(shrink, -c, np.inf) / np.where(shrink, step, 1.0)
        join_min, drop_min = t_join.min(axis=(0, 1)), t_drop.min(axis=0)
        t = np.where(moving, np.minimum(level - lam, np.minimum(join_min, drop_min)), 0.0)
        # an active coefficient never crosses 0, not even by rounding
        c = sign * np.maximum(sign * (c + t * step), 0.0)
        ended = moving & (t == level - lam)
        level = level - t
        drop = moving & ~ended & (t == drop_min)
        if drop.any():
            p = np.flatnonzero(drop)
            k = t_drop[:, p].argmin(axis=0)
            c[k, p] = sign[k, p] = blocked[:, p] = 0.0
            in_span[:, p] = own[:, p]
        join = moving & ~ended & ~drop
        if join.any():
            p = np.flatnonzero(join)
            side, j = np.divmod(t_join[:, :, p].reshape(2 * n, p.size).argmin(axis=0), n)
            z = np.linalg.solve(gram[p], np.where(pad[p], 0.0, G[idx[p], j[:, None]])[..., None])
            resid = X[:, j] - np.einsum("dpk,pk->dp", X[:, idx[p]], z[..., 0])
            norms = np.einsum("dp,dp->p", resid, resid), np.einsum("dp,dp->p", X[:, j], X[:, j])
            spanned = norms[0] <= 1e-18 * norms[1]  # x_j is in the span of the active x
            in_span[j[spanned], p[spanned]] = True  # until a drop shrinks the span
            p, j, side = p[~spanned], j[~spanned], side[~spanned]
            sign[j, p], joined[p], newest[p] = SIDES[side, 0, 0], True, j
        if ended.any():
            codes[:, live[ended]], finished[live[ended]] = c[:, ended], True
            state = live, own, w, Y, c, sign, blocked, in_span, level, joined, newest
            live, own, w, Y, c, sign, blocked, in_span, level, joined, newest = (
                a[..., ~ended] for a in state
            )
        corr = X.T @ (Y - X @ c)
    codes[:, live] = c
    return codes, finished


def sparse_codes(X: np.ndarray, lam: float, max_steps: int):
    """Column i of M minimizes 0.5 ||x_i - X c||^2 + lam ||c||_1 with c_i = 0, exactly,
    by its own homotopy path; the paths of up to _BLOCK columns run in lockstep.
    Returns (M, finished); finished[i] is False when that path hit max_steps
    events before reaching lam."""
    X = np.asarray(X, dtype=float)
    n = X.shape[1]
    G = X.T @ X
    M, finished = np.zeros((n, n)), np.zeros(n, dtype=bool)
    for start in range(0, n, _BLOCK):
        cols = np.arange(start, min(start + _BLOCK, n))
        M[:, cols], finished[cols] = _lasso_block(X, G, cols, lam, max_steps)
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
