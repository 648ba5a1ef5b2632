"""Kernel matrix construction for single views.

The Gaussian kernel uses k(x, y) = exp(-||x - y||^2 / (2 sigma^2)); the
bandwidth defaults to the median of pairwise distances so synthetic
experiments are scale-free. Centering applies H K H with H = I - (1/N) 11^T
on both sides and is off by default.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .errors import NumericError
from .types import MEDIAN, KernelSpec


def pairwise_sq_dists(X: np.ndarray, Y: np.ndarray | None = None) -> np.ndarray:
    """Squared Euclidean distances between columns of X (D x N) and Y (D x Q)."""
    X = np.asarray(X, dtype=float)
    Y = X if Y is None else np.asarray(Y, dtype=float)
    # (x - y)^2 summed over features; clip tiny negatives from cancellation
    xx = np.sum(X * X, axis=0)
    yy = np.sum(Y * Y, axis=0)
    sq = xx[:, None] + yy[None, :] - 2.0 * (X.T @ Y)
    return np.maximum(sq, 0.0)


def median_heuristic_bandwidth(X: np.ndarray) -> float:
    """Median of the N(N-1)/2 pairwise distances; 1.0 when all points coincide."""
    X = np.asarray(X, dtype=float)
    n = X.shape[1]
    if n < 2:
        raise NumericError("median heuristic needs at least 2 samples")
    sq = pairwise_sq_dists(X)
    iu = np.triu_indices(n, k=1)
    med = float(np.median(np.sqrt(sq[iu])))
    return med if med > 0.0 else 1.0


def resolve_kernel_spec(X: np.ndarray, spec: KernelSpec) -> KernelSpec:
    """Make the spec concrete: replace a median-heuristic bandwidth with its value."""
    if spec.kind == "gaussian" and spec.bandwidth == MEDIAN:
        return replace(spec, bandwidth=median_heuristic_bandwidth(X))
    return spec


def _raw_kernel(X: np.ndarray, Y: np.ndarray, spec: KernelSpec) -> np.ndarray:
    # overflow surfaces as non-finite entries and is reported by the callers
    with np.errstate(over="ignore", invalid="ignore"):
        if spec.kind == "gaussian":
            sigma = spec.bandwidth
            if sigma == MEDIAN:
                sigma = median_heuristic_bandwidth(X)
            return np.exp(-pairwise_sq_dists(X, Y) / (2.0 * float(sigma) ** 2))
        if spec.kind == "linear":
            return X.T @ Y
        if spec.kind == "polynomial":
            return (X.T @ Y + spec.offset) ** spec.degree
    raise NumericError(f"unknown kernel kind {spec.kind!r}")


def center_kernel(K: np.ndarray) -> np.ndarray:
    """Double-center a square kernel: H K H, H = I - (1/N) ones."""
    row = K.mean(axis=0, keepdims=True)
    col = K.mean(axis=1, keepdims=True)
    return K - row - col + K.mean()


def build_kernel(X: np.ndarray, spec: KernelSpec, center: bool = False) -> np.ndarray:
    """N x N kernel matrix of the view's columns, exactly symmetrized.

    Raises NumericError if any entry is non-finite (polynomial overflow,
    non-finite inputs).
    """
    X = np.asarray(X, dtype=float)
    K = _raw_kernel(X, X, spec)
    if not np.isfinite(K).all():
        raise NumericError(f"{spec.kind} kernel produced non-finite entries")
    K = 0.5 * (K + K.T)
    if center:
        K = center_kernel(K)
        K = 0.5 * (K + K.T)
    return K


def cross_kernel(
    X_train: np.ndarray,
    X_new: np.ndarray,
    spec: KernelSpec,
    center: bool = False,
) -> np.ndarray:
    """N x Q kernel columns of new points against the training samples.

    With center=True the columns are centered consistently with the training
    kernel: H (k_new - (1/N) K_raw 1), so a duplicated training sample
    reproduces its column of H K H exactly.
    """
    X_train = np.asarray(X_train, dtype=float)
    X_new = np.asarray(X_new, dtype=float)
    Kc = _raw_kernel(X_train, X_new, spec)
    if not np.isfinite(Kc).all():
        raise NumericError(f"{spec.kind} kernel produced non-finite entries")
    if center:
        shifted = Kc - _raw_kernel(X_train, X_train, spec).mean(axis=1, keepdims=True)
        Kc = shifted - shifted.mean(axis=0, keepdims=True)
    return Kc
