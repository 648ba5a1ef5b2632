"""Graph constructions (S, B) per recipe, the Laplacian-like quadratic P,
and the ridged constraint matrix.

Every recipe keeps S's diagonal at zero (self-similarity never contributes to
the pairwise objective) and yields symmetric S, so P = E - S with
E = diag(row sums) has rows summing to zero. The spp recipe's lasso codes
follow one homotopy path per column; the paths of every spp view of a fit
share one queue, and a block of them runs in lockstep, one event per path per
pass, each ended path's slot refilled from the queue.

The builders check no rule that GraphRecipe or types.validate_config judges.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GraphError
from .kernels import Distances, symmetrize
from .types import MEDIAN, GraphRecipe


@dataclass(frozen=True)
class GraphPair:
    """Similarity S and constraint factor B: the kernelized constraint is
    K B K (K diag(B) K for a vector B), or K itself when B is None."""

    S: np.ndarray
    B: np.ndarray | None


def pca_graph(n: int) -> GraphPair:
    """Dense -1/n off-diagonal similarity; constraint is K itself."""
    S = np.full((n, n), -1.0 / n)
    np.fill_diagonal(S, 0.0)
    return GraphPair(S=S, B=None)


def lpp_graph(dists: Distances, k: int, heat) -> GraphPair:
    """Heat-kernel weights exp(-||x_i - x_j||^2 / t) on the symmetric kNN
    graph of the view whose Distances are dists (edge when i is among j's k
    nearest or vice versa); B is the degree vector of S, its row sums. dists
    give the squared distances and the median heat; their diagonal is marked
    while the neighbors are picked and then restored."""
    t = float(dists.median ** 2 if heat == MEDIAN else heat)
    if t <= 0:  # GraphRecipe judges a configured heat, not the median's square
        raise GraphError(f"lpp median heat {dists.median!r}**2 underflows to 0")
    sq = dists.sq
    own = sq.diagonal().copy()
    np.fill_diagonal(sq, np.inf)  # self is never its own neighbor
    # column j's k nearest: every row closer than its k-th distance, then the
    # rows at that distance, lowest index first, as a stable sort orders them
    kth = np.partition(sq, k - 1, axis=0)[k - 1].copy()  # frees the partitioned copy
    near, tie = sq < kth, sq == kth
    adj = near | (tie & (np.cumsum(tie, axis=0, dtype=np.int32) <= k - near.sum(axis=0)))
    np.fill_diagonal(sq, own)
    adj |= adj.T  # the OR rule keeps the graph symmetric
    S = np.zeros_like(sq)
    with np.errstate(over="ignore"):  # a subnormal t: the weights underflow to 0
        S[adj] = np.exp(-sq[adj] / t)
    return GraphPair(S=S, B=S.sum(axis=1))


def lda_graph(labels) -> GraphPair:
    """Within-class +1/n_c, between-class -1/n_c weights, symmetrized as
    (S + S^T)/2 since unequal class sizes make the raw entries asymmetric;
    B is the centering matrix I - (1/N) ones. Class ids are names, compacted
    to 0..C-1 in sorted order, so they need not be contiguous."""
    _, labels = np.unique(labels, return_inverse=True)
    n = labels.size
    counts = np.bincount(labels)
    S = np.where(labels[:, None] == labels[None, :], 1.0, -1.0)
    S /= counts[labels][:, None]
    np.fill_diagonal(symmetrize(S), 0.0)
    B = np.full((n, n), -1.0 / n)
    B.flat[:: n + 1] += 1.0
    return GraphPair(S=S, B=B)


SIDES = np.array([1.0, -1.0])[:, None, None]  # the two boundaries, +level and -level
# a pass's (N, paths) temporaries hold at most _BLOCK entries each: 64 paths at N = 400
_BLOCK = 25_600


def _next_events(w, corr, moved, level, free, c, sign, step):
    """Each path's next join and next drop: the least time at which a
    correlation free to join reaches its boundary +-level * w, and its
    side * N + row; the least time at which an active coefficient, moving
    along step, reaches 0, and its row. The (2, N, paths) temporaries end
    here."""
    t_join = SIDES * moved
    rate = np.subtract(w, t_join, out=t_join)  # how fast level * w -+ corr closes
    free = free & (rate > 0.0)
    t_join = SIDES * corr
    np.subtract(level * w, t_join, out=t_join)
    np.maximum(t_join, 0.0, out=t_join)  # the gap, then the time it takes to close
    np.copyto(t_join, np.inf, where=~free)
    np.divide(t_join, rate, out=t_join, where=free)
    t_join = t_join.reshape(2 * len(w), -1)
    shrink = sign * step < 0.0
    t_drop = np.where(shrink, -c, np.inf) / np.where(shrink, step, 1.0)
    join_at, drop_at = t_join.argmin(axis=0), t_drop.argmin(axis=0)
    paths = np.arange(c.shape[1])
    return t_join[join_at, paths], join_at, t_drop[drop_at, paths], drop_at


def lasso_codes(problems) -> list:
    """The exact lasso codes of several views of the same N samples, one
    (X, lam, max_steps) problem per view, max_steps >= 1 (GraphRecipe's
    rule): [(M, finished)] in problem order.
    Column i of M codes x_i by the other columns of X; finished[i] is False
    when its path hit max_steps events before reaching lam.

    Every column's homotopy path joins one queue, view by view. Up to
    _BLOCK // N paths run in lockstep, every pass taking one event on each,
    and a path that ends hands its slot to the next pending column, so each
    pass stays full until the queue drains. The running paths stay grouped by
    view: a pass multiplies by each view's X once for all of that view's
    paths, and reads that view's Gram, which is kept only while the view has
    paths running.

    Path i of a view minimizes 0.5 ||x_i - X c||^2 + lam ||c||_1 with c_i = 0
    by the LARS-lasso homotopy (Efron et al., 2004): from c = 0 at
    level = max_j |x_j^T x_i| down to lam, active coefficients move along
    G_A^{-1} (w_A sign_A), holding their correlations on the boundary; a step
    ends where a correlation reaches it or a coefficient reaches 0. Arrays hold
    one running path per column."""
    if not problems:
        return []
    Xs = [np.asarray(X, dtype=float) for X, _, _ in problems]
    n = Xs[0].shape[1]
    lams = np.array([lam for _, lam, _ in problems], dtype=float)
    caps = np.array([cap for _, _, cap in problems], dtype=int)
    codes, finished = np.zeros((len(Xs), n, n)), np.zeros((len(Xs), n), dtype=bool)
    pending, head = (np.repeat(np.arange(len(Xs)), n), np.tile(np.arange(n), len(Xs))), 0
    rows, width = np.arange(n)[:, None], max(1, _BLOCK // max(n, 1))
    # every view's rows, bordered by a zero row and, at the padding index n, a
    # zero column; rows_of[v] lists view v's rows, padded with the zero row
    stacked = np.pad(np.vstack(Xs), ((0, 1), (0, 1)))
    dims = np.array([X.shape[0] for X in Xs])
    depth = np.arange(dims.max())
    offset = np.cumsum(dims) - dims
    rows_of = np.where(depth < dims[:, None], offset[:, None] + depth, dims.sum())
    grams = {}
    # per path: view, column, steps taken, the row it joined last pass (or -1);
    # c, sign, blocked side, tie weights w; in_span; level
    state = (np.zeros(0, dtype=int),) * 4 + (np.zeros((n, 0)),) * 4
    state += np.zeros((n, 0), dtype=bool), np.zeros(0)
    keep = np.zeros(0, dtype=bool)
    while True:
        new = min(width - np.count_nonzero(keep), pending[0].size - head)
        changed = new or not keep.all()
        if not keep.all():  # ended paths leave
            state = tuple(a[..., keep] for a in state)
        if new:  # pending columns take the free slots
            state = tuple(
                np.concatenate([a, np.zeros(a.shape[:-1] + (new,), a.dtype)], axis=-1)
                for a in state
            )
        view, col, steps, newest, c, sign, blocked, w, in_span, level = state
        if new:
            view[-new:], col[-new:] = (q[head : head + new] for q in pending)
            head += new
            fresh = col[-new:]
            newest[-new:] = -1
            in_span[:, -new:] = rows == fresh  # c_i stays 0: row i never joins path i
            # boundaries +-level * w_j with w_j - 1 <= 1e-11 by j's position among
            # the other columns: ties between correlations become distinct
            # events, so zero-length joins and drops cannot cycle
            w[:, -new:] = 1.0 + 1e-11 * (rows - (rows > fresh)) / max(n - 1, 1)
        if not view.size:
            break
        if changed:  # (v, slice of its paths) for each view v present
            ends = np.cumsum(np.bincount(view, minlength=len(Xs))).tolist()
            groups = [(v, slice(a, b)) for v, (a, b) in enumerate(zip([0, *ends], ends)) if b > a]
            # the Gram of each view present, bordered by a zero row and column
            # at the padding index n
            grams = {
                v: grams[v] if v in grams else np.pad(Xs[v].T @ Xs[v], (0, 1)) for v, _ in groups
            }
        # each path's active rows idx[p, :size[p]], padded with index n; the
        # padding's identity block in the Gram solves to 0
        active = sign != 0.0
        size = active.sum(axis=0)
        path, row = np.nonzero(active.T)
        slot = np.arange(row.size) - np.repeat(np.cumsum(size) - size, size)
        idx = np.full((view.size, size.max(initial=0)), n)
        idx[path, slot] = row
        gram = np.empty(idx.shape + idx.shape[1:])
        for v, s in groups:
            gram[s] = grams[v][idx[s, :, None], idx[s, None, :]]
        gram.reshape(view.size, -1)[:, :: idx.shape[1] + 1] += idx == n
        rhs = np.zeros(idx.shape + (1,))
        rhs[path, slot, 0] = w[row, path] * sign[row, path]
        step = np.zeros((n, view.size))
        step[row, path] = np.linalg.solve(gram, rhs)[path, slot, 0]
        moving = np.ones(view.size, dtype=bool)
        p = np.flatnonzero(newest >= 0)
        if p.size:
            j = newest[p]
            # refuse a join that moves j's coefficient against its sign, as
            # re-joining where it just dropped would; j stays off that side
            # till the set changes, and the path's pass ends here
            refused = sign[j, p] * step[j, p] <= 0.0
            blocked[:, p[~refused]] = 0.0
            p, j = p[refused], j[refused]
            blocked[j, p], sign[j, p], step[:, p], moving[p] = sign[j, p], 0.0, 0.0, False
            newest[:] = -1
        corr, moved = np.empty((2, n, view.size))
        for v, s in groups:
            X = Xs[v]
            corr[:, s] = X.T @ (X[:, col[s]] - X @ c[:, s])
            moved[:, s] = X.T @ (X @ step[:, s])
        if new:
            start = np.where(rows == fresh, 0.0, np.abs(corr[:, -new:]) / w[:, -new:])
            level[-new:] = start.max(axis=0, initial=0.0)
        free = (blocked != SIDES) & ~in_span & (sign == 0.0)
        join_min, join_at, drop_min, drop_at = _next_events(
            w, corr, moved, level, free, c, sign, step
        )
        del corr, moved
        lam = lams[view]
        t = np.where(moving, np.minimum(level - lam, np.minimum(join_min, drop_min)), 0.0)
        # an active coefficient never crosses 0, not even by rounding
        c = sign * np.maximum(sign * (c + t * step), 0.0)
        ended = moving & (t == level - lam)
        level = level - t
        drop = moving & ~ended & (t == drop_min)
        if drop.any():
            p = np.flatnonzero(drop)
            k = drop_at[p]
            c[k, p] = sign[k, p] = blocked[:, p] = 0.0
            in_span[:, p] = rows == col[p]
        join = moving & ~ended & ~drop
        if join.any():
            p = np.flatnonzero(join)
            side, j = np.divmod(join_at[p], n)
            # x_j and the active x of each path, from its view's rows; the
            # padding index reads the zero column
            r = rows_of[view[p]]
            xa, xj = stacked[r[:, :, None], idx[p, None, :]], stacked[r, j[:, None]]
            z = np.linalg.solve(gram[p], np.einsum("pdk,pd->pk", xa, xj)[..., None])
            resid = xj - np.einsum("pdk,pk->pd", xa, z[..., 0])
            norms = np.einsum("pd,pd->p", resid, resid), np.einsum("pd,pd->p", xj, xj)
            spanned = norms[0] <= 1e-18 * norms[1]  # x_j is in the span of the active x
            in_span[j[spanned], p[spanned]] = True  # until a drop shrinks the span
            p, j, side = p[~spanned], j[~spanned], side[~spanned]
            sign[j, p], newest[p] = SIDES[side, 0, 0], j
        steps += 1
        state = view, col, steps, newest, c, sign, blocked, w, in_span, level
        keep = ~ended & (steps < caps[view])  # a path leaves at lam or at its cap
        if not keep.all():
            done = ~keep
            codes[view[done], :, col[done]] = c[:, done].T
            finished[view[done], col[done]] = ended[done]
    del grams  # before each view's codes are copied out of the stack
    return [(M.copy(), f) for M, f in zip(codes, finished)]


def spp_graph(M: np.ndarray) -> GraphPair:
    """Sparse-coding similarity (Qiao, Chen & Tan, 2010) from a view's lasso
    codes M, column i coding x_i by the other samples (lasso_codes):
    S = M + M^T + M^T M with the diagonal zeroed; constraint is K."""
    S = M + M.T + M.T @ M
    np.fill_diagonal(S, 0.0)
    return GraphPair(S=S, B=None)


def laplacian(S: np.ndarray) -> np.ndarray:
    """P = E - S with E = diag(row sums of S), computed in place: S is
    negated and the row sums are added to its diagonal, so the caller's float
    S becomes P. Rows of P sum to zero."""
    S = np.asarray(S, dtype=float)
    rows = S.sum(axis=1)
    np.subtract(0.0, S, out=S)  # 0 - s, not -s: a zero stays +0
    S.flat[:: S.shape[0] + 1] += rows
    return S


def constraint_matrix(K: np.ndarray, B, ridge: float) -> np.ndarray:
    """Ridged constraint M = (K B K, or K when B is None), symmetrized, plus
    ridge * (trace/N) * I.

    M is a new matrix, built in place: the product (or a copy of K) is
    symmetrized (kernels.symmetrize), and the ridge is added to its diagonal.
    The trace-scaled ridge keeps the generalized eigenproblem definite without
    distorting well-conditioned cases. M is not checked here: the Cholesky
    factorization inside its pencil's solve (eigsolver.pencil_eigh) is the
    definiteness check. A vector B stands for diag(B): it scales K's columns,
    the same bits as a gemm against diag(B), which only adds exact zeros."""
    K = np.asarray(K, dtype=float)
    n = K.shape[0]
    M = symmetrize(K.copy() if B is None else (K * B if B.ndim == 1 else K @ B) @ K)
    M.flat[:: n + 1] += ridge * (np.trace(M) / n)
    return M


def build_graph(dists: Distances, labels, recipe: GraphRecipe, codes) -> GraphPair:
    """Dispatch a recipe to its construction for the view whose Distances are
    dists; codes, an spp view's lasso codes, reach the spp graph."""
    if recipe.kind == "pca":
        return pca_graph(dists.X.shape[1])
    if recipe.kind == "lpp":
        return lpp_graph(dists, recipe.k, recipe.heat)
    if recipe.kind == "lda":
        return lda_graph(labels)
    return spp_graph(codes)
