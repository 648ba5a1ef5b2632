"""Symmetric-definite generalized eigensolver.

Solves H u = xi M u for the d algebraically smallest eigenpairs by the
Cholesky-Wilkinson congruence: factor M = L L^T once, whiten H to
A = L^{-1} H L^{-T} with two triangular solves, compute only the d wanted
pairs of A with LAPACK's MRRR driver (?syevr), and back-transform with one
triangular solve L^T u = q. The optimizer keeps each view's L and whitened
quadratic for the whole fit and hands every update to the same solve and
check. Ordering (ascending eigenvalues) and the sign convention
(largest-magnitude entry of each vector positive, ties to the lowest index)
are part of the contract so downstream embeddings and golden files are
reproducible. Bases of repeated eigenvalues are not unique; compare subspace
projectors, not raw vectors.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla

from .errors import NumericError


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
    matrix A = L^{-1} H L^{-T}.

    apply_h(V) must return H V and h_norm must be ||H||_F: every returned
    pair is checked against H itself, not against A. Returns (values,
    vectors) with values ascending and V^T L L^T V = I; raises NumericError
    if d is out of range or a pair violates its backward-error bound
    ||H v - w M v|| <= (1 + |w|) 1e-6 ||H||_F / sqrt(N).
    """
    n = A.shape[0]
    if not (1 <= d <= n):
        raise NumericError(f"requested {d} eigenpairs from an order-{n} pencil")
    w, Q = sla.eigh(A, subset_by_index=[0, d - 1], driver="evr")
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
