"""Classification and retrieval metrics over embeddings.

1NN classification uses Euclidean distance (ties to the lowest training
index); retrieval ranks the gallery by l1 distance (ties to the lowest
gallery index). Average precision is the interpolation-free form: the mean of
precision-at-rank over each query's relevant ranks in the full gallery scan.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, EvalError


@dataclass(frozen=True)
class EvalReport:
    """task is "classification" or "retrieval"; per_view holds one metric
    record per evaluated view; best_view is the index with the highest
    headline metric."""

    task: str
    per_view: tuple
    best_view: int


def knn_classify(
    train: np.ndarray,
    train_labels,
    test: np.ndarray,
    test_labels,
    k: int = 1,
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
    if k == 1:
        nearest = np.argmin(sq, axis=0)  # argmin keeps the lowest index on ties
        predicted = train_labels[nearest]
    else:
        order = np.argsort(sq, axis=0, kind="stable")[:k]
        predicted = np.empty(test.shape[1], dtype=train_labels.dtype)
        for j in range(test.shape[1]):
            votes = np.bincount(train_labels[order[:, j]])
            predicted[j] = int(np.argmax(votes))
    return float(np.mean(predicted == test_labels))


def average_precision(relevant_mask: np.ndarray) -> float:
    """AP of one ranked relevance mask: mean of precision at each relevant rank."""
    relevant_mask = np.asarray(relevant_mask, dtype=bool)
    total = int(relevant_mask.sum())
    if total == 0:
        return 0.0
    ranks = np.nonzero(relevant_mask)[0] + 1
    hits = np.arange(1, total + 1)
    return float(np.mean(hits / ranks))


def retrieval_metrics(
    queries: np.ndarray,
    gallery: np.ndarray,
    query_labels,
    gallery_labels,
    top_n,
) -> EvalReport:
    """Rank the gallery per query by l1 distance and average Precision@n,
    Recall@n, F1@n over queries at each cutoff, plus mAP.

    Raises EvalError when some query's class has no gallery members (its
    recall would be undefined).
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
    record = {
        "cutoffs": cutoffs,
        "precision": precision.tolist(),
        "recall": recall.tolist(),
        "f1": f1.tolist(),
        "map": float(np.mean(ap_values)),
    }
    return EvalReport(task="retrieval", per_view=(record,), best_view=0)


def headline_metric(task: str, record: dict) -> float:
    """The scalar used to pick the best view: accuracy or mAP."""
    return record["accuracy"] if task == "classification" else record["map"]


def build_report(task: str, per_view) -> EvalReport:
    """Assemble a multiview report; best_view maximizes the headline metric
    (ties to the lowest view index)."""
    scores = [headline_metric(task, rec) for rec in per_view]
    best = int(np.argmax(scores)) if scores else 0
    return EvalReport(task=task, per_view=tuple(per_view), best_view=best)
