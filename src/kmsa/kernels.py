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
        """Median of the N(N-1)/2 pairwise distances; 1.0 when all coincide."""
        n = self.X.shape[1]
        if n < 2:
            raise NumericError("median heuristic needs at least 2 samples")
        # a mask, not index arrays, and in place from the gather on: about
        # N^2 / 2 doubles besides sq
        dist = self.sq[np.triu(np.ones((n, n), dtype=bool), k=1)]
        np.sqrt(dist, out=dist)
        med = float(np.median(dist, overwrite_input=True))
        return med if med > 0.0 else 1.0


def median_heuristic_bandwidth(X: np.ndarray) -> float:
    """The median pairwise distance of X's columns (Distances.median)."""
    return Distances(X).median


def symmetrize(A: np.ndarray) -> np.ndarray:
    """A made exactly symmetric in place, as (A + A^T) / 2, and returned."""
    A += A.T  # in place: numpy buffers the overlapping operand
    A *= 0.5
    return A


def resolve_kernel_spec(dists: Distances, spec: KernelSpec) -> KernelSpec:
    """Make the spec concrete: replace a median-heuristic bandwidth with the
    median of dists, the view's Distances."""
    if spec.kind == "gaussian" and spec.bandwidth == MEDIAN:
        return replace(spec, bandwidth=dists.median)
    return spec


def _raw_kernel(dists: Distances, spec: KernelSpec, Y: np.ndarray | None = None) -> np.ndarray:
    """k(x, y) for every column pair of dists.X and Y, or of dists.X with
    itself when Y is None, whose squared distances are then dists.sq; a median
    bandwidth is resolved on dists.X. Raises NumericError if any entry is
    non-finite (overflow, bad input)."""
    X = dists.X
    spec = resolve_kernel_spec(dists, spec)
    # overflow and a 2 sigma^2 that underflows to 0 surface as non-finite entries
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        if spec.kind == "gaussian":
            K = -(dists.sq if Y is None else pairwise_sq_dists(X, Y))
            K /= 2.0 * float(spec.bandwidth) ** 2
            np.exp(K, out=K)
        else:
            XY = X.T @ (X if Y is None else Y)
            K = XY if spec.kind == "linear" else (XY + spec.offset) ** spec.degree
    if not np.isfinite(K).all():
        raise NumericError(f"{spec.kind} kernel produced non-finite entries")
    return K


def build_kernel(
    X: np.ndarray, spec: KernelSpec, center: bool = False, dists: Distances | None = None
) -> np.ndarray:
    """N x N kernel matrix of the view's columns: their raw kernel columns
    against themselves, centered with their own row means when center is set,
    exactly symmetrized. dists, X's Distances when the caller holds them,
    supply the squared distances and the median a Gaussian kernel reads."""
    K = _raw_kernel(Distances(X) if dists is None else dists, spec)
    if center:
        _center(K, K.mean(axis=1))
    return symmetrize(K)


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
    K = _raw_kernel(Distances(X_train), spec, np.array(X_new, dtype=float))
    if means is not None:
        _center(K, means)
    return K


def _center(K: np.ndarray, means: np.ndarray) -> None:
    """Center kernel columns in place: subtract the training row means, then
    each column's mean."""
    K -= means[:, None]
    K -= K.mean(axis=0, keepdims=True)
