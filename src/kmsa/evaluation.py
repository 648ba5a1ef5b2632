"""Classification and retrieval metrics over embeddings.

1NN classification uses Euclidean distance (ties to the lowest training
index); retrieval ranks the gallery by l1 distance (ties to the lowest
gallery index). Average precision is the interpolation-free form: the mean of
precision-at-rank over each query's relevant ranks in the full gallery scan.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, EvalError
from .kernels import pairwise_sq_dists


def _check_inputs(A, a_labels, B, b_labels):
    """Both embeddings as float matrices of one dimension, with one label per
    column; raises DimensionError naming both shapes otherwise."""
    A, B = np.asarray(A, dtype=float), np.asarray(B, dtype=float)
    a_labels, b_labels = np.asarray(a_labels), np.asarray(b_labels)
    same_dim = A.ndim == B.ndim == 2 and A.shape[0] == B.shape[0]
    if not same_dim or (A.shape[1], B.shape[1]) != (len(a_labels), len(b_labels)):
        raise DimensionError(
            f"embeddings {A.shape} and {B.shape} need one dimension and one label "
            f"per column, got {len(a_labels)} and {len(b_labels)} labels"
        )
    return A, a_labels, B, b_labels


def knn_classify(
    train: np.ndarray,
    train_labels,
    test: np.ndarray,
    test_labels,
) -> float:
    """Fraction of test columns whose nearest training column shares their label."""
    train, train_labels, test, test_labels = _check_inputs(
        train, train_labels, test, test_labels
    )
    if test.shape[1] == 0:
        return 0.0
    nearest = np.argmin(pairwise_sq_dists(train, test), axis=0)  # ties: lowest index
    predicted = train_labels[nearest]
    return float(np.mean(predicted == test_labels))


def retrieval_metrics(
    queries: np.ndarray,
    gallery: np.ndarray,
    query_labels,
    gallery_labels,
    top_n,
) -> dict:
    """Rank the gallery per query by l1 distance and average Precision@n,
    Recall@n, F1@n over queries at each cutoff, plus mAP.

    Returns {"cutoffs", "precision", "recall", "f1", "map"}, one list entry
    per cutoff. Raises EvalError when some query's class has no gallery
    members (its recall would be undefined).
    """
    queries, query_labels, gallery, gallery_labels = _check_inputs(
        queries, query_labels, gallery, gallery_labels
    )
    n_q = queries.shape[1]
    n_g = gallery.shape[1]
    cutoffs = [int(n) for n in top_n]
    if any(n < 1 or n > n_g for n in cutoffs):
        raise EvalError(f"cutoffs must lie in [1, {n_g}], got {cutoffs}")

    same_class = query_labels[:, None] == gallery_labels[None, :]
    total_relevant = same_class.sum(axis=1)
    missing = np.flatnonzero(total_relevant == 0)
    if missing.size:
        qi = missing[0]
        raise EvalError(f"query {qi} (class {query_labels[qi]}) has no gallery members")
    # Q x G l1 distances, one embedding row at a time to stay O(Q G) in memory
    dist = np.zeros((n_q, n_g))
    for q_row, g_row in zip(queries, gallery):
        dist += np.abs(g_row[None, :] - q_row[:, None])
    order = np.argsort(dist, axis=1, kind="stable")
    relevant = np.take_along_axis(same_class, order, axis=1)
    hits = np.cumsum(relevant, axis=1)

    cut = np.asarray(cutoffs)
    precision = hits[:, cut - 1] / cut
    recall = hits[:, cut - 1] / total_relevant[:, None]
    both = precision + recall
    f1 = np.divide(2.0 * precision * recall, both, out=np.zeros_like(both), where=both > 0)
    # each query's AP: the mean precision at its relevant ranks
    precision_at_rank = hits / np.arange(1, n_g + 1)
    ap = np.where(relevant, precision_at_rank, 0.0).sum(axis=1) / total_relevant
    return {
        "cutoffs": cutoffs,
        "precision": precision.mean(axis=0).tolist(),
        "recall": recall.mean(axis=0).tolist(),
        "f1": f1.mean(axis=0).tolist(),
        "map": float(np.mean(ap)),
    }
