"""Classification and retrieval metrics over embeddings.

1NN classification uses Euclidean distance (ties to the lowest training
index); retrieval ranks the gallery by l1 distance (ties to the lowest
gallery index). Average precision is the interpolation-free form: the mean of
precision-at-rank over each query's relevant ranks in the full gallery scan.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, EvalError


def knn_classify(
    train: np.ndarray,
    train_labels,
    test: np.ndarray,
    test_labels,
) -> float:
    """Fraction of test columns whose nearest training column shares their label."""
    train = np.asarray(train, dtype=float)
    test = np.asarray(test, dtype=float)
    train_labels = np.asarray(train_labels)
    test_labels = np.asarray(test_labels)
    if train.ndim != 2 or test.ndim != 2 or train.shape[0] != test.shape[0]:
        raise DimensionError(
            f"embedding dimensions differ: train {train.shape}, test {test.shape}"
        )
    if train.shape[1] != len(train_labels) or test.shape[1] != len(test_labels):
        raise DimensionError("label counts do not match sample counts")
    if test.shape[1] == 0:
        return 0.0
    sq = (
        np.sum(train * train, axis=0)[:, None]
        + np.sum(test * test, axis=0)[None, :]
        - 2.0 * (train.T @ test)
    )
    nearest = np.argmin(sq, axis=0)  # argmin keeps the lowest index on ties
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
    queries = np.asarray(queries, dtype=float)
    gallery = np.asarray(gallery, dtype=float)
    query_labels = np.asarray(query_labels)
    gallery_labels = np.asarray(gallery_labels)
    if queries.ndim != 2 or gallery.ndim != 2 or queries.shape[0] != gallery.shape[0]:
        raise DimensionError(
            f"embedding dimensions differ: queries {queries.shape}, gallery {gallery.shape}"
        )
    n_q = queries.shape[1]
    n_g = gallery.shape[1]
    if n_q != len(query_labels) or n_g != len(gallery_labels):
        raise DimensionError("label counts do not match sample counts")
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
