"""Symmetric-definite generalized eigensolvers.

A pencil (H, M) is solved by one LAPACK call (pencil_eigh): ?sygv* factors
M = L L^T, reduces H to L^{-1} H L^{-T}, solves that and back-substitutes, so
the vectors come out M-orthonormal. A fit diagonalizes each view's pencil
(K P K, M) in full that way, in place (?sygvd, divide and conquer), and
checks the basis once against the pencil. Each update lowers the pencil by a
rank-k coupling, so in the resulting eigenbasis it is diag(lam) - Z Z^T,
whose d smallest pairs secular_smallest finds from a k x k secular equation
or, below NEWTON_MIN_N rows, by a dense subset solve whose vectors are
checked for orthonormality. Those pairs are checked there (check_pairs).
generalized_eigh solves one pencil directly, with a subset solve (?sygvx).
scipy.linalg, which costs a process more start-up time and memory than numpy,
is imported by the two functions that call LAPACK, at a fit's first pencil, so
importing kmsa, transforming and generating data never load it.
Ordering (ascending eigenvalues) and the sign convention (largest-magnitude
entry of each vector positive, ties to the lowest index) are part of the
contract so downstream embeddings and golden files are reproducible. Bases of
repeated eigenvalues are not unique; compare subspace projectors, not raw
vectors.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericError

# Newton iterations a secular root may take before the update is solved densely
SECULAR_MAX_ITERS = 50
# below this order a dense subset solve costs less than Newton's fixed cost
NEWTON_MIN_N = 150
# a dense subset solve's vectors are kept while max |X^T X - I| stays below this
ORTHO_TOL = 1e-12


def fix_signs(V: np.ndarray) -> np.ndarray:
    """Flip columns so each one's largest-magnitude entry is positive."""
    # argmax takes the lowest index on ties
    peak = V[np.argmax(np.abs(V), axis=0), np.arange(V.shape[1])]
    return np.where(peak < 0, -V, V)


def pencil_eigh(H: np.ndarray, M: np.ndarray, **options):
    """scipy.linalg.eigh(H, M, **options) for symmetric H and M, one ?sygv*
    call. NumericError when M is not positive definite; any other LinAlgError
    (a convergence failure) is raised unchanged."""
    import scipy.linalg as sla
    try:
        return sla.eigh(H, M, **options)
    except sla.LinAlgError as exc:
        if "not positive definite" not in str(exc):
            raise
        raise NumericError(
            "constraint matrix is not positive definite even after the ridge; "
            "raise the ridge or center/rescale the data"
        ) from exc


def check_pairs(w, HV, MV, h_norm: float) -> None:
    """Check pencil pairs (w, V) of (H, M), given H V and M V, against the
    backward-error bound ||H v - w M v|| <= (1 + |w|) 1e-6 ||H||_F / sqrt(N);
    h_norm must be ||H||_F. Raises NumericError on the first pair that
    violates it (a NaN residual does too)."""
    resid = np.linalg.norm(HV - MV * w, axis=0)
    bound = (1.0 + np.abs(w)) * (1e-6 * h_norm / np.sqrt(HV.shape[0]))
    bad = np.flatnonzero(~(resid <= bound))
    if bad.size:
        i = bad[0]
        msg = f"eigenpair {i} residual {resid[i]:.3e} exceeds its backward-error bound"
        raise NumericError(msg)


def secular_smallest(lam, Z, d: int):
    """d smallest eigenpairs (w, X) of diag(lam) - Z Z^T, values ascending.

    Below min(lam), x is an eigenvalue where G(x) = Z^T (diag(lam) - x)^{-1} Z - I
    is singular: the j-th smallest is where G's j-th largest eigenvalue crosses
    zero, and G(x) has one positive eigenvalue per eigenvalue below x
    (Haynsworth). Newton finds each root from its Ritz value on span(Z), an
    upper bound; the vectors (diag(lam) - x)^{-1} Z y, y in G's null space,
    get one d x d Rayleigh-Ritz step. Below NEWTON_MIN_N rows, or unless d
    eigenvalues lie clearly below min(lam) and Newton settles, a dense ?syevr
    subset solve is used instead. Its inverse iteration can lose orthogonality
    inside a cluster of eigenvalues, so its vectors are checked (O(N d^2)) and,
    only when X^T X strays from I by more than ORTHO_TOL, the matrix is solved
    in full by ?syevd. Z == 0 needs neither: the pairs are lam's d smallest
    entries (ties to the lower index) and unit vectors.
    """
    n, k = Z.shape
    if not Z.any():
        pick = np.argsort(lam, kind="stable")[:d]
        X = np.zeros((n, d))
        X[pick, np.arange(d)] = 1.0
        return lam[pick], X
    idx, col = np.arange(d), k - 1 - np.arange(d)

    def gram(x):  # G's eigenpairs at each point of x
        D = 1.0 / (lam - x[:, None])
        return D, *np.linalg.eigh((Z.T * D[:, None, :]) @ Z - np.eye(k))

    def dense():
        import scipy.linalg as sla
        T = np.diag(lam) - Z @ Z.T
        w, X = sla.eigh(T, subset_by_index=[0, d - 1], driver="evr")
        if np.abs(X.T @ X - np.eye(d)).max() > ORTHO_TOL:
            w, X = sla.eigh(T, driver="evd")
            w, X = w[:d], X[:, :d]
        return w, X

    if n < NEWTON_MIN_N or k < d:
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

    # roots within 1e-8 relative share one G, whose null vectors there are
    # orthogonal; with every root apart, that G is the last one Newton evaluated
    apart = np.r_[True, np.diff(x) > 1e-8 * np.abs(x[1:])]
    if not apart.all():
        D, _, Y = gram(x[np.maximum.accumulate(np.where(apart, idx, 0))])
    X, _ = np.linalg.qr(D.T * (Z @ Y[idx, :, col].T))
    XZ = X.T @ Z
    w, S = np.linalg.eigh(X.T @ (lam[:, None] * X) - XZ @ XZ.T)
    return w, X @ S


def generalized_eigh(H: np.ndarray, M_ridge: np.ndarray, d: int):
    """d smallest eigenpairs of the pencil (H, M_ridge).

    Returns (values, vectors): values ascending, vectors N x d with
    V^T M_ridge V = I. Raises NumericError if d is out of range, M_ridge is
    not positive definite or a computed pair violates its backward-error bound.
    """
    H, M = np.asarray(H, dtype=float), np.asarray(M_ridge, dtype=float)
    if not (1 <= d <= H.shape[0]):
        raise NumericError(f"requested {d} eigenpairs from an order-{H.shape[0]} pencil")
    w, V = pencil_eigh(H, M, subset_by_index=[0, d - 1], driver="gvx")
    V = fix_signs(V)
    check_pairs(w, H @ V, M @ V, float(np.linalg.norm(H, "fro")))
    return w, V
