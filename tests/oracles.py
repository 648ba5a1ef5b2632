"""Independent reference implementations used only by tests.

Each oracle deliberately takes a different computational route than the
package code it checks: the generalized eigensolver oracle reduces through a
spectral inverse square root instead of a Cholesky factor, the kernel PCA
oracle is a plain eigendecomposition of the centered Gram matrix, the lasso
oracle is a refining grid search, the lasso reference solves one column at a
time with scalar coordinate updates, the lasso path reference follows one
column's homotopy at a time where the package runs a block of columns in
lockstep, the simplex oracle is an exhaustive grid scan, the quadratic, trace
and objective references form the dense N x N matrices H_v, K P K and J_v
that the optimizer avoids, and the retrieval reference ranks and scores one
query at a time.
"""

import numpy as np

from kmsa import EvalError


def gen_eig_oracle(H, M, d):
    """Smallest d eigenpairs of H u = w M u via M^{-1/2} H M^{-1/2}."""
    vals_m, vecs_m = np.linalg.eigh(M)
    if vals_m.min() <= 0:
        raise ValueError("oracle needs positive definite M")
    inv_sqrt = vecs_m @ np.diag(1.0 / np.sqrt(vals_m)) @ vecs_m.T
    A = inv_sqrt @ H @ inv_sqrt
    A = 0.5 * (A + A.T)
    w, Y = np.linalg.eigh(A)
    V = inv_sqrt @ Y[:, :d]
    return w[:d], V


def kpca_oracle(K_centered, d):
    """Top-d orthonormal eigenvectors of an already centered Gram matrix."""
    w, Q = np.linalg.eigh(K_centered)
    return w[::-1][:d], Q[:, ::-1][:, :d]


def lasso_objective(A, y, c, lam):
    r = y - A @ c
    return 0.5 * float(r @ r) + lam * float(np.sum(np.abs(c)))


def soft_threshold(z: float, gamma: float) -> float:
    if z > gamma:
        return z - gamma
    if z < -gamma:
        return z + gamma
    return 0.0


def lasso_cd_reference(A, y, lam, max_iters, tol=1e-6):
    """Minimize 0.5 ||y - A c||^2 + lam ||c||_1 by cyclic coordinate descent.

    Returns (c, converged); converged is False when max_iters full sweeps pass
    without the largest coefficient change dropping to tol. One problem at a
    time with scalar updates, an independent route to the codes that
    graphs.sparse_codes finds by homotopy.
    """
    A = np.asarray(A, dtype=float)
    y = np.asarray(y, dtype=float)
    p = A.shape[1]
    col_sq = np.sum(A * A, axis=0)
    c = np.zeros(p)
    resid = y.copy()
    for _ in range(max_iters):
        max_delta = 0.0
        for j in range(p):
            if col_sq[j] == 0.0:
                continue
            old = c[j]
            resid += A[:, j] * old
            rho = float(A[:, j] @ resid)
            new = soft_threshold(rho, lam) / col_sq[j]
            resid -= A[:, j] * new
            c[j] = new
            max_delta = max(max_delta, abs(new - old))
        if max_delta <= tol:
            return c, True
    return c, False


SIDES = np.array([[1.0], [-1.0]])  # the two boundaries, +level and -level


def lasso_path_reference(A: np.ndarray, y: np.ndarray, lam: float, max_steps: int):
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


def lasso_grid_oracle(A, y, lam, radius=2.0, levels=4, points=13):
    """Refining grid search for min_c 0.5||y - Ac||^2 + lam ||c||_1.

    Scans a cube of the given radius around the current center, then shrinks
    the cube around the best grid point; the objective is convex so the
    refinement homes in on the global minimum.
    """
    p = A.shape[1]
    center = np.zeros(p)
    half = radius
    best = center.copy()
    for _ in range(levels):
        axes = [np.linspace(center[j] - half, center[j] + half, points) for j in range(p)]
        grids = np.meshgrid(*axes, indexing="ij")
        flat = np.stack([g.ravel() for g in grids], axis=1)
        resid = y[None, :] - flat @ A.T
        vals = 0.5 * np.sum(resid * resid, axis=1) + lam * np.sum(np.abs(flat), axis=1)
        best = flat[int(np.argmin(vals))]
        center = best
        half = 2.0 * half / (points - 1)  # one coarse cell, re-gridded finer
    return best


def simplex_grid(m, step):
    """All weight vectors on the m-simplex with coordinates in multiples of step."""
    ticks = int(round(1.0 / step))
    if m == 1:
        return np.ones((1, 1))
    if m == 2:
        a = np.arange(ticks + 1) / ticks
        return np.stack([a, 1.0 - a], axis=1)
    if m == 3:
        out = []
        for i in range(ticks + 1):
            j = np.arange(ticks - i + 1)
            block = np.empty((len(j), 3))
            block[:, 0] = i / ticks
            block[:, 1] = j / ticks
            block[:, 2] = 1.0 - block[:, 0] - block[:, 1]
            out.append(block)
        return np.vstack(out)
    raise ValueError("simplex grid oracle supports m <= 3")


def weight_objective(alpha, traces, r):
    """Reduced view-weight objective: sum_v alpha_v^r * trace_v."""
    return np.sum(np.power(alpha, r) * np.asarray(traces), axis=-1)


def simplex_oracle(traces, r, step=1e-3):
    """Grid minimizer of the reduced weight objective over the simplex."""
    traces = np.asarray(traces, dtype=float)
    grid = simplex_grid(len(traces), step)
    vals = weight_objective(grid, traces, r)
    idx = int(np.argmin(vals))
    return grid[idx], float(vals[idx])


def build_h(kpk, Us, alpha, v, r, eta):
    """View v's dense update quadratic H_v = K P K_v + sum_{w != v}
    ((1 + (alpha_w / alpha_v)^r) / (2 eta)) U_w U_w^T, symmetrized; kpk is
    view v's K P K and Us holds every view's coefficients."""
    H = kpk
    for w, U in enumerate(Us):
        if w != v:
            H = H + (1.0 + (alpha[w] / alpha[v]) ** r) / (2.0 * eta) * (U @ U.T)
    return 0.5 * (H + H.T)


def dense_trace_terms(Ks, Ps, Us, r, kappa, eta):
    """Weight-update traces tr(U_v^T J_v U_v) through an explicit N x N
    J_v = K P K + (r kappa / N) I + sum_{w != v} U_w U_w^T / (2 eta).

    Also returns each trace's rounding scale sum(|U_v| * (|J_v| |U_v|)), the
    magnitude a floating-point evaluation of the trace is accurate relative to.
    """
    n = Ks[0].shape[0]
    traces, scales = [], []
    for v in range(len(Ks)):
        J = Ks[v] @ Ps[v] @ Ks[v] + (r * kappa / n) * np.eye(n)
        for w in range(len(Ks)):
            if w != v:
                J = J + (Us[w] @ Us[w].T) / (2.0 * eta)
        traces.append(np.trace(Us[v].T @ J @ Us[v]))
        scales.append(np.sum(np.abs(Us[v]) * (np.abs(J) @ np.abs(Us[v]))))
    return np.array(traces), np.array(scales)


def dense_objective_terms(Ks, Ps, Us, alpha, r, kappa, eta):
    """Objective terms with explicit K P K products and cross-Gram traces
    tr(U_v^T U_w U_w^T U_v). Also returns the embedding term's rounding scale
    (see dense_trace_terms); the other two terms carry no cancellation."""
    a_r = np.asarray(alpha) ** r
    embed, scale = 0.0, 0.0
    for v in range(len(Ks)):
        KPK = Ks[v] @ Ps[v] @ Ks[v]
        embed += a_r[v] * np.trace(Us[v].T @ KPK @ Us[v])
        scale += a_r[v] * np.sum(np.abs(Us[v]) * (np.abs(KPK) @ np.abs(Us[v])))
    align = 0.0
    for v in range(len(Ks)):
        for w in range(v + 1, len(Ks)):
            gram = Us[v].T @ Us[w] @ Us[w].T @ Us[v]
            align += (a_r[v] + a_r[w]) / (2.0 * eta) * np.trace(gram)
    terms = {
        "embedding": embed,
        "weight_regularizer": kappa * np.sum(a_r),
        "alignment": align,
    }
    return terms, scale


def average_precision(relevant_mask: np.ndarray) -> float:
    """AP of one ranked relevance mask: mean of precision at each relevant rank."""
    relevant_mask = np.asarray(relevant_mask, dtype=bool)
    total = int(relevant_mask.sum())
    if total == 0:
        return 0.0
    ranks = np.nonzero(relevant_mask)[0] + 1
    hits = np.arange(1, total + 1)
    return float(np.mean(hits / ranks))


def retrieval_reference(queries, gallery, query_labels, gallery_labels, top_n) -> dict:
    """retrieval_metrics one query at a time: rank the gallery by l1 distance
    (stable sort, ties to the lowest gallery index), then accumulate each
    query's Precision@n, Recall@n, F1@n and AP."""
    queries = np.asarray(queries, dtype=float)
    gallery = np.asarray(gallery, dtype=float)
    query_labels = np.asarray(query_labels)
    gallery_labels = np.asarray(gallery_labels)
    n_q = queries.shape[1]
    cutoffs = [int(n) for n in top_n]

    precision = np.zeros(len(cutoffs))
    recall = np.zeros(len(cutoffs))
    f1 = np.zeros(len(cutoffs))
    ap_values = np.zeros(n_q)
    for qi in range(n_q):
        total_relevant = int(np.sum(gallery_labels == query_labels[qi]))
        if total_relevant == 0:
            raise EvalError(
                f"query {qi} (class {query_labels[qi]}) has no gallery members"
            )
        dist = np.sum(np.abs(gallery - queries[:, qi : qi + 1]), axis=0)
        order = np.argsort(dist, kind="stable")
        relevant = gallery_labels[order] == query_labels[qi]
        hits = np.cumsum(relevant)
        ap_values[qi] = average_precision(relevant)
        for ci, n in enumerate(cutoffs):
            p = hits[n - 1] / n
            rec = hits[n - 1] / total_relevant
            precision[ci] += p
            recall[ci] += rec
            f1[ci] += 2.0 * p * rec / (p + rec) if p + rec > 0 else 0.0
    precision /= n_q
    recall /= n_q
    f1 /= n_q
    return {
        "cutoffs": cutoffs,
        "precision": precision.tolist(),
        "recall": recall.tolist(),
        "f1": f1.tolist(),
        "map": float(np.mean(ap_values)),
    }
