"""Kernel matrix construction for single views.

The Gaussian kernel uses k(x, y) = exp(-||x - y||^2 / (2 sigma^2)); the
bandwidth defaults to the median of pairwise distances so synthetic
experiments are scale-free. A fit's kernel is cross_kernel of the training
set against itself, symmetrized, so fit and transform share one path;
centering, off by default, makes it H K H with H = I - (1/N) 11^T.
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
    """k(x, y) for every column pair of X and Y, a median bandwidth resolved on
    X. Raises NumericError if any entry is non-finite (overflow, bad input)."""
    X, Y = np.asarray(X, dtype=float), np.asarray(Y, dtype=float)
    spec = resolve_kernel_spec(X, spec)
    # overflow surfaces as non-finite entries, reported below
    with np.errstate(over="ignore", invalid="ignore"):
        if spec.kind == "gaussian":
            K = np.exp(-pairwise_sq_dists(X, Y) / (2.0 * float(spec.bandwidth) ** 2))
        elif spec.kind == "linear":
            K = X.T @ Y
        elif spec.kind == "polynomial":
            K = (X.T @ Y + spec.offset) ** spec.degree
        else:
            raise NumericError(f"unknown kernel kind {spec.kind!r}")
    if not np.isfinite(K).all():
        raise NumericError(f"{spec.kind} kernel produced non-finite entries")
    return K


def build_kernel(X: np.ndarray, spec: KernelSpec, center: bool = False) -> np.ndarray:
    """N x N kernel matrix of the view's columns: its cross_kernel columns
    against itself, exactly symmetrized."""
    K = cross_kernel(X, X, spec, center)
    return 0.5 * (K + K.T)


def cross_kernel(
    X_train: np.ndarray, X_new: np.ndarray, spec: KernelSpec, center: bool = False
) -> np.ndarray:
    """N x Q kernel columns of new points against the training samples.

    With center=True the columns are centered consistently with the training
    kernel: H (k_new - (1/N) K_raw 1), which on the training samples
    themselves is H K H.
    """
    Kc = _raw_kernel(X_train, X_new, spec)
    if center:
        K_raw = Kc if X_new is X_train else _raw_kernel(X_train, X_train, spec)
        shifted = Kc - K_raw.mean(axis=1, keepdims=True)
        Kc = shifted - shifted.mean(axis=0, keepdims=True)
    return Kc
