"""Kernel matrix construction for single views.

The Gaussian kernel uses k(x, y) = exp(-||x - y||^2 / (2 sigma^2)); the
bandwidth defaults to the median of pairwise distances so synthetic
experiments are scale-free. A fit's kernel is the training set's raw kernel
columns against itself, symmetrized; centering, off by default, makes it
H K H with H = I - (1/N) 11^T. Training and new points embed through one
rule, cross_kernel: their raw columns against the training samples, centered
with the training kernel's row means, which a centered fit stores (the
test-point centering of kernel PCA). A fit reads each view's squared
distances from one Distances, shared with the median bandwidth and the lpp
graph.
"""

from __future__ import annotations

from dataclasses import replace
from functools import cached_property

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


class Distances:
    """Squared Euclidean distances between the columns of one view and their
    median distance, each computed on first use. A fit hands one to the
    view's kernel, its median bandwidth and its graph, so they all read one
    N x N matrix and at most one median."""

    def __init__(self, X: np.ndarray):
        self.X = np.asarray(X, dtype=float)

    @cached_property
    def sq(self) -> np.ndarray:
        return pairwise_sq_dists(self.X)

    @cached_property
    def median(self) -> float:
        return median_heuristic_bandwidth(self.X, self.sq)


def median_heuristic_bandwidth(X: np.ndarray, sq: np.ndarray | None = None) -> float:
    """Median of the N(N-1)/2 pairwise distances; 1.0 when all points coincide.
    sq, X's pairwise_sq_dists when the caller has them, spares recomputing them."""
    X = np.asarray(X, dtype=float)
    n = X.shape[1]
    if n < 2:
        raise NumericError("median heuristic needs at least 2 samples")
    sq = pairwise_sq_dists(X) if sq is None else sq
    # a mask, not index arrays, and in place from the gather on: about N^2 / 2
    # doubles besides sq
    dist = sq[np.triu(np.ones((n, n), dtype=bool), k=1)]
    np.sqrt(dist, out=dist)
    med = float(np.median(dist, overwrite_input=True))
    return med if med > 0.0 else 1.0


def resolve_kernel_spec(
    X: np.ndarray, spec: KernelSpec, dists: Distances | None = None
) -> KernelSpec:
    """Make the spec concrete: replace a median-heuristic bandwidth with its
    value, taken from dists (X's Distances) when given."""
    if spec.kind == "gaussian" and spec.bandwidth == MEDIAN:
        med = median_heuristic_bandwidth(X) if dists is None else dists.median
        return replace(spec, bandwidth=med)
    return spec


def _raw_kernel(
    X: np.ndarray, Y: np.ndarray, spec: KernelSpec, dists: Distances | None = None
) -> np.ndarray:
    """k(x, y) for every column pair of X and Y, a median bandwidth resolved on
    X; dists, X's Distances when Y is X, supply the squared distances. Raises
    NumericError if any entry is non-finite (overflow, bad input)."""
    X, Y = np.asarray(X, dtype=float), np.asarray(Y, dtype=float)
    spec = resolve_kernel_spec(X, spec, dists)
    # overflow and a 2 sigma^2 that underflows to 0 surface as non-finite entries
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        if spec.kind == "gaussian":
            K = -(pairwise_sq_dists(X, Y) if dists is None else dists.sq)
            K /= 2.0 * float(spec.bandwidth) ** 2
            np.exp(K, out=K)
        elif spec.kind == "linear":
            K = X.T @ Y
        else:  # polynomial
            K = (X.T @ Y + spec.offset) ** spec.degree
    if not np.isfinite(K).all():
        raise NumericError(f"{spec.kind} kernel produced non-finite entries")
    return K


def build_kernel(
    X: np.ndarray, spec: KernelSpec, center: bool = False, dists: Distances | None = None
) -> np.ndarray:
    """N x N kernel matrix of the view's columns: their raw kernel columns
    against themselves, centered with their own row means when center is set,
    exactly symmetrized. dists, X's Distances, supply the squared distances a
    Gaussian kernel reads."""
    K = _raw_kernel(X, X, spec, dists)
    if center:
        _center(K, K.mean(axis=1))
    K += K.T  # in place: numpy buffers the overlapping operand
    K *= 0.5
    return K


def cross_kernel(
    X_train: np.ndarray, X_new: np.ndarray, spec: KernelSpec, means: np.ndarray | None = None
) -> np.ndarray:
    """N x Q kernel columns of new points against the training samples.

    Given means, the training kernel's row means k(X_train, X_train).mean(axis=1),
    the columns are centered as kernel PCA centers a test point:
    H (k_new - means). No training x training entry is evaluated. X_new is
    copied: numpy's X^T X of one buffer can round apart from X^T X.copy(), and
    training and new points must take one route.
    """
    K = _raw_kernel(X_train, np.array(X_new, dtype=float), spec)
    if means is not None:
        _center(K, means)
    return K


def _center(K: np.ndarray, means: np.ndarray) -> None:
    """Center kernel columns in place: subtract the training row means, then
    each column's mean."""
    K -= means[:, None]
    K -= K.mean(axis=0, keepdims=True)
