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

from .eigsolver import cholesky_factor
from .errors import ConvergenceWarning, GraphError
from .kernels import median_heuristic_bandwidth, pairwise_sq_dists
from .types import MEDIAN, GraphRecipe


@dataclass(frozen=True)
class GraphPair:
    """Similarity S, constraint factor B, and whether the kernelized
    constraint is K B K (uses_kbk) or K itself. notes carries non-fatal
    construction diagnostics (e.g. lasso columns that hit the iteration cap)."""

    S: np.ndarray
    B: np.ndarray
    uses_kbk: bool
    notes: tuple = ()


def pca_graph(n: int) -> GraphPair:
    """Dense -1/n off-diagonal similarity; constraint is K itself."""
    if n < 2:
        raise GraphError(f"need at least 2 samples, got {n}")
    S = np.full((n, n), -1.0 / n)
    np.fill_diagonal(S, 0.0)
    return GraphPair(S=S, B=np.eye(n), uses_kbk=False)


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
    return GraphPair(S=S, B=np.diag(S.sum(axis=1)), uses_kbk=True)


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
    return GraphPair(S=S, B=B, uses_kbk=True)


def sparse_codes(X: np.ndarray, lam: float, max_iters: int, tol: float = 1e-6):
    """Code every column of X by the others: column i of M minimizes
    0.5 ||x_i - X c||^2 + lam ||c||_1 with c_i held at 0.

    One cyclic coordinate descent runs on all N problems together: coordinate
    j updates row j of M for every running column at once, through the
    residuals R = X - X M. A column stops after the first sweep whose largest
    coefficient change is <= tol. Returns (M, converged); converged[i] is
    False when column i ran max_iters sweeps without meeting tol.
    """
    X = np.asarray(X, dtype=float)
    n = X.shape[1]
    col_sq = np.sum(X * X, axis=0)
    M = np.zeros((n, n))
    converged = np.zeros(n, dtype=bool)
    cols = np.arange(n)  # the running columns, their codes and residuals
    C = np.zeros((n, n))
    R = X.copy()
    nonzero = np.flatnonzero(col_sq).tolist()  # a zero x_j keeps its row at 0
    coords = [(j, X[:, j], X[:, j, None], col_sq[j]) for j in nonzero]
    for _ in range(max_iters):
        slot = dict(zip(cols.tolist(), range(cols.size)))
        start = C.copy()
        for j, x, x_col, sq in coords:
            R += x_col * C[j]
            rho = np.dot(x, R)
            # soft threshold: rho - clip(rho, -lam, lam) is rho -/+ lam or 0
            new = (rho - np.minimum(np.maximum(rho, -lam), lam)) / sq
            if j in slot:
                new[slot[j]] = 0.0  # x_j never codes itself
            R -= x_col * new
            C[j] = new
        # every coordinate moves once per sweep, so this is each column's
        # largest coefficient change
        done = np.abs(C - start).max(axis=0, initial=0.0) <= tol
        M[:, cols[done]] = C[:, done]
        converged[cols[done]] = True
        cols, C, R = cols[~done], C[:, ~done], R[:, ~done]
        if not cols.size:
            break
    M[:, cols] = C
    return M, converged


def spp_graph(X: np.ndarray, lam: float, max_iters: int) -> GraphPair:
    """Sparse-coding similarity: column i of M reconstructs x_i from the other
    samples under an l1 penalty (self-coefficient fixed at 0), then
    S = M + M^T + M^T M with the diagonal zeroed; constraint is K."""
    X = np.asarray(X, dtype=float)
    n = X.shape[1]
    if n < 2:
        raise GraphError(f"need at least 2 samples, got {n}")
    if lam <= 0:
        raise GraphError("lasso weight must be positive")
    M, converged = sparse_codes(X, lam, max_iters)
    notes = tuple(
        f"lasso column {i} hit max_iters={max_iters} before tol"
        for i in np.flatnonzero(~converged)
    )
    if notes:
        warnings.warn(
            f"{len(notes)} sparse-coding column(s) hit the iteration cap",
            ConvergenceWarning,
            stacklevel=2,
        )
    S = M + M.T + M.T @ M
    np.fill_diagonal(S, 0.0)
    return GraphPair(S=S, B=np.eye(n), uses_kbk=False, notes=notes)


def laplacian(S: np.ndarray) -> np.ndarray:
    """P = E - S with E = diag(row sums of S); rows of P sum to zero."""
    S = np.asarray(S, dtype=float)
    return np.diag(S.sum(axis=1)) - S


def constraint_matrix(K: np.ndarray, pair: GraphPair, ridge: float):
    """Ridged constraint M = (K B K or K) + ridge * (trace/N) * I, symmetrized,
    and its lower Cholesky factor L (M = L L^T); returns (M, L).

    The trace-scaled ridge keeps the generalized eigenproblem definite without
    distorting well-conditioned cases. The factorization doubles as the
    definiteness check: raises NumericError if it fails (degenerate kernel;
    raise the ridge).
    """
    K = np.asarray(K, dtype=float)
    n = K.shape[0]
    M = K @ pair.B @ K if pair.uses_kbk else K
    M = 0.5 * (M + M.T)
    M_ridge = M + ridge * (np.trace(M) / n) * np.eye(n)
    M_ridge = 0.5 * (M_ridge + M_ridge.T)
    return M_ridge, cholesky_factor(M_ridge)


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
