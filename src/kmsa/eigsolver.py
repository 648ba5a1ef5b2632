"""Symmetric-definite generalized eigensolver.

Solves H u = xi M u for the d algebraically smallest eigenpairs by the
Cholesky-Wilkinson congruence: factor M = L L^T once, whiten H to
A = L^{-1} H L^{-T} with two triangular solves, compute only the d wanted
pairs of A with LAPACK's MRRR driver (?syevr), and back-transform with one
triangular solve L^T u = q. The optimizer keeps each view's L and whitened
quadratic for the whole fit. From optimizer.SPECTRAL_MIN_N samples on it
diagonalizes that quadratic once and solves each coupled update, a rank-k
lowering of it, from a k x k secular equation (secular_smallest). Both
routes share one back-transform and check. Ordering (ascending eigenvalues)
and the sign convention (largest-magnitude entry of each vector positive,
ties to the lowest index) are part of the contract so downstream embeddings
and golden files are reproducible. Bases of repeated eigenvalues are not
unique; compare subspace projectors, not raw vectors.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla

from .errors import NumericError

# Newton iterations a secular root may take before the update is solved densely
SECULAR_MAX_ITERS = 50


def fix_signs(V: np.ndarray) -> np.ndarray:
    """Flip columns so each one's largest-magnitude entry is positive."""
    # argmax takes the lowest index on ties
    peak = V[np.argmax(np.abs(V), axis=0), np.arange(V.shape[1])]
    return np.where(peak < 0, -V, V)


def cholesky_factor(M: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor L of M = L L^T; NumericError unless M is definite."""
    try:
        return sla.cholesky(M, lower=True)
    except sla.LinAlgError as exc:
        raise NumericError(
            "constraint matrix is not positive definite even after the ridge; "
            "raise the ridge or center/rescale the data"
        ) from exc


def whiten(L: np.ndarray, S: np.ndarray) -> np.ndarray:
    """L^{-1} S L^{-T} for symmetric S, symmetrized, by two triangular solves."""
    X = sla.solve_triangular(L, S, lower=True)
    A = sla.solve_triangular(L, X.T, lower=True)
    return 0.5 * (A + A.T)


def solve_whitened(A, L, d: int, apply_h, h_norm: float):
    """d smallest eigenpairs of the pencil (H, L L^T), given its whitened
    matrix A = L^{-1} H L^{-T}; apply_h and h_norm as for back_transform.
    Raises NumericError if d is out of range."""
    n = A.shape[0]
    if not (1 <= d <= n):
        raise NumericError(f"requested {d} eigenpairs from an order-{n} pencil")
    w, Q = sla.eigh(A, subset_by_index=[0, d - 1], driver="evr")
    return back_transform(w, Q, L, apply_h, h_norm)


def back_transform(w, Q, L, apply_h, h_norm: float):
    """Pencil pairs (w, V) of the whitened pairs (w, Q): V = L^{-T} Q with
    V^T L L^T V = I, sign-fixed. apply_h(V) must return H V and h_norm must be
    ||H||_F: every pair is checked against H itself, not its whitened matrix.
    Raises NumericError if a pair violates its backward-error bound
    ||H v - w M v|| <= (1 + |w|) 1e-6 ||H||_F / sqrt(N)."""
    n = L.shape[0]
    V = fix_signs(sla.solve_triangular(L, Q, lower=True, trans="T"))

    resid = np.linalg.norm(apply_h(V) - (L @ (L.T @ V)) * w, axis=0)
    bound = (1.0 + np.abs(w)) * (1e-6 * h_norm / np.sqrt(n))
    bad = np.flatnonzero(~(resid <= bound))  # a NaN residual fails too
    if bad.size:
        i = bad[0]
        raise NumericError(
            f"eigenpair {i} residual {resid[i]:.3e} exceeds its backward-error bound"
        )
    return w, V


def secular_smallest(lam, Z, d: int):
    """d smallest eigenpairs (w, X) of diag(lam) - Z Z^T, values ascending.

    Below min(lam), x is an eigenvalue where G(x) = Z^T (diag(lam) - x)^{-1} Z - I
    is singular: the j-th smallest is where G's j-th largest eigenvalue crosses
    zero, and G(x) has one positive eigenvalue per eigenvalue below x
    (Haynsworth). Newton finds each root from its Ritz value on span(Z), an
    upper bound; the vectors (diag(lam) - x)^{-1} Z y, y in G's null space,
    get one d x d Rayleigh-Ritz step. Unless d eigenvalues lie clearly below
    min(lam) and Newton settles, a dense ?syevr subset solve is used instead.
    """
    k = Z.shape[1]
    idx, col = np.arange(d), k - 1 - np.arange(d)

    def gram(x):  # G's eigenpairs at each point of x
        D = 1.0 / (lam - x[:, None])
        return D, *np.linalg.eigh((Z.T * D[:, None, :]) @ Z - np.eye(k))

    def dense():
        return sla.eigh(np.diag(lam) - Z @ Z.T, subset_by_index=[0, d - 1], driver="evr")

    if k < d:
        return dense()
    lmin = lam.min()
    Qz, R = np.linalg.qr(Z)
    ritz = np.linalg.eigvalsh(Qz.T @ (lam[:, None] * Qz) - R @ R.T)[:d]
    spread = np.linalg.norm(R, 2) ** 2
    x0 = lmin - 1e-8 * max(np.abs(lam).max(), spread)
    if not ritz[-1] < x0 and not (x0 < lmin and np.sum(gram(np.array([x0]))[1] > 0) >= d):
        return dense()

    x = hi = np.minimum(ritz, x0)
    lo, active = np.full(d, lmin - spread), np.ones(d, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(SECULAR_MAX_ITERS):
            D, mu, Y = gram(x)
            g, y = mu[idx, col], Y[idx, :, col]
            hi, lo = np.where(g > 0, x, hi), np.where(g < 0, x, lo)
            step = g / np.sum((D * (y @ Z.T)) ** 2, axis=1)
            tol = 8.0 * np.finfo(float).eps * np.abs(x)
            active &= (np.abs(step) > tol) & (hi - lo > tol)
            new = x - step
            x = np.where(active, np.where((lo < new) & (new < hi), new, 0.5 * (lo + hi)), x)
            if not active.any():
                break
        else:
            return dense()

    # roots within 1e-8 relative share one G, whose null vectors there are orthogonal
    apart = np.r_[True, np.diff(x) > 1e-8 * np.abs(x[1:])]
    lead = np.maximum.accumulate(np.where(apart, idx, 0))
    D, _, Y = gram(x[lead])
    X, _ = np.linalg.qr(D.T * (Z @ Y[idx, :, col].T))
    XZ = X.T @ Z
    w, S = np.linalg.eigh(X.T @ (lam[:, None] * X) - XZ @ XZ.T)
    return w, X @ S


def generalized_eigh(H: np.ndarray, M_ridge: np.ndarray, d: int):
    """d smallest eigenpairs of the pencil (H, M_ridge).

    Returns (values, vectors): values ascending, vectors N x d with
    V^T M_ridge V = I. Raises NumericError if M_ridge is not positive
    definite or a computed pair violates its backward-error bound.
    """
    H = np.asarray(H, dtype=float)
    L = cholesky_factor(np.asarray(M_ridge, dtype=float))
    return solve_whitened(
        whiten(L, H), L, d, lambda V: H @ V, float(np.linalg.norm(H, "fro"))
    )
