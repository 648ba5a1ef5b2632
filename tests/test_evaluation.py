import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kmsa import DimensionError, EvalError, knn_classify, retrieval_metrics

from oracles import average_precision, retrieval_reference


class TestKnn:
    def test_train_as_test_is_perfect(self, rng):
        X = rng.standard_normal((3, 12))
        labels = rng.integers(0, 3, size=12)
        assert knn_classify(X, labels, X, labels) == 1.0

    def test_separated_clusters(self, rng):
        a = rng.standard_normal((2, 10)) + np.array([[100.0], [0.0]])
        b = rng.standard_normal((2, 10)) - np.array([[100.0], [0.0]])
        train = np.hstack([a[:, :5], b[:, :5]])
        test = np.hstack([a[:, 5:], b[:, 5:]])
        labels_tr = np.array([0] * 5 + [1] * 5)
        labels_te = np.array([0] * 5 + [1] * 5)
        assert knn_classify(train, labels_tr, test, labels_te) == 1.0

    def test_line_example(self):
        # train at 0,1,10,11 labeled A,A,B,B; a test point at 2 labeled B
        # is nearest the point at 1 (label A), so it is misclassified
        train = np.array([[0.0, 1.0, 10.0, 11.0]])
        test = np.array([[2.0]])
        acc = knn_classify(train, [0, 0, 1, 1], test, [1])
        assert acc == 0.0

    def test_tie_goes_to_lowest_index(self):
        train = np.array([[-1.0, 1.0]])
        test = np.array([[0.0]])
        assert knn_classify(train, [0, 1], test, [0]) == 1.0
        assert knn_classify(train, [1, 0], test, [0]) == 0.0

    def test_no_test_columns_score_zero(self, rng):
        assert knn_classify(rng.standard_normal((3, 4)), [0, 1, 0, 1],
                            np.empty((3, 0)), []) == 0.0

    def test_dimension_mismatch(self, rng):
        with pytest.raises(DimensionError):
            knn_classify(rng.standard_normal((3, 4)), [0] * 4,
                         rng.standard_normal((2, 4)), [0] * 4)
        with pytest.raises(DimensionError):
            knn_classify(rng.standard_normal((3, 4)), [0] * 3,
                         rng.standard_normal((3, 4)), [0] * 4)


class TestAveragePrecision:
    def test_hand_worked(self):
        # relevant at ranks 1 and 3 of 4: AP = (1/1 + 2/3) / 2
        assert average_precision([1, 0, 1, 0]) == pytest.approx(5.0 / 6.0)

    def test_no_relevant(self):
        assert average_precision([0, 0, 0]) == 0.0

    def test_all_relevant(self):
        assert average_precision([1, 1, 1]) == 1.0


class TestRetrieval:
    def test_single_relevant_item(self):
        queries = np.array([[0.0]])
        gallery = np.array([[0.1]])
        rec = retrieval_metrics(queries, gallery, [0], [0], top_n=[1])
        assert rec["precision"] == [1.0]
        assert rec["recall"] == [1.0]
        assert rec["f1"] == [1.0]
        assert rec["map"] == 1.0

    def test_nothing_relevant_in_top_n(self):
        # the only same-class item sits at the far end of the ranking
        queries = np.array([[0.0]])
        gallery = np.array([[0.1, 0.2, 9.0]])
        rec = retrieval_metrics(queries, gallery, [5], [1, 2, 5], top_n=[1, 2])
        assert rec["precision"] == [0.0, 0.0]
        assert rec["recall"] == [0.0, 0.0]
        assert rec["f1"] == [0.0, 0.0]

    def test_ap_hand_example_through_ranking(self):
        # gallery at distances 1,2,3,4; relevant at ranks 1 and 3
        queries = np.array([[0.0]])
        gallery = np.array([[1.0, 2.0, 3.0, 4.0]])
        rec = retrieval_metrics(queries, gallery, [7], [7, 0, 7, 0], top_n=[4])
        assert rec["map"] == pytest.approx(5.0 / 6.0)

    def test_full_scan_recall_is_one(self, rng):
        for _ in range(20):
            n_g = int(rng.integers(3, 12))
            n_q = int(rng.integers(1, 5))
            classes = int(rng.integers(1, 3)) + 1
            g_labels = rng.integers(0, classes, size=n_g)
            q_labels = g_labels[rng.integers(0, n_g, size=n_q)]  # classes exist
            queries = rng.standard_normal((2, n_q))
            gallery = rng.standard_normal((2, n_g))
            cutoffs = sorted(set([1, max(1, n_g // 2), n_g]))
            rec = retrieval_metrics(queries, gallery, q_labels, g_labels, cutoffs)
            assert rec["recall"][-1] == pytest.approx(1.0)
            assert all(b >= a - 1e-12 for a, b in zip(rec["recall"], rec["recall"][1:]))
            assert 0.0 <= rec["map"] <= 1.0

    def test_gallery_permutation_invariance(self, rng):
        queries = rng.standard_normal((2, 3))
        gallery = rng.standard_normal((2, 8))  # distinct distances almost surely
        g_labels = rng.integers(0, 2, size=8)
        q_labels = np.array([0, 1, 0])
        g_labels[:2] = [0, 1]
        rep = retrieval_metrics(queries, gallery, q_labels, g_labels, [1, 4, 8])
        perm = rng.permutation(8)
        rep_p = retrieval_metrics(
            queries, gallery[:, perm], q_labels, g_labels[perm], [1, 4, 8]
        )
        assert np.allclose(rep["precision"], rep_p["precision"])
        assert rep["map"] == pytest.approx(rep_p["map"])

    def test_missing_class_raises(self):
        queries = np.array([[0.0]])
        gallery = np.array([[1.0, 2.0]])
        with pytest.raises(EvalError):
            retrieval_metrics(queries, gallery, [3], [0, 1], top_n=[1])

    def test_bad_cutoff_raises(self):
        queries = np.array([[0.0]])
        gallery = np.array([[1.0]])
        with pytest.raises(EvalError):
            retrieval_metrics(queries, gallery, [0], [0], top_n=[2])

    def test_l1_ranking_with_index_ties(self):
        # two gallery items at the same l1 distance: the lower index ranks first
        queries = np.array([[0.0], [0.0]])
        gallery = np.array([[1.0, -1.0], [0.0, 0.0]])
        rec = retrieval_metrics(queries, gallery, [1], [0, 1], top_n=[1])
        assert rec["precision"] == [0.0]  # index 0 (class 0) wins the tie


@st.composite
def retrieval_problems(draw):
    """(queries, gallery, query labels, gallery labels, cutoffs). Integer-valued
    embeddings put many gallery items at the same l1 distance; when absent is
    drawn, one query's class has no gallery members."""
    d = draw(st.integers(1, 5))
    n_q = draw(st.integers(1, 10))
    n_g = draw(st.integers(1, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        queries = rng.integers(-2, 3, size=(d, n_q)).astype(float)
        gallery = rng.integers(-2, 3, size=(d, n_g)).astype(float)
    else:
        queries = rng.standard_normal((d, n_q))
        gallery = rng.standard_normal((d, n_g))
    g_labels = rng.integers(0, draw(st.integers(1, 3)), size=n_g)
    q_labels = g_labels[rng.integers(0, n_g, size=n_q)]
    if draw(st.booleans()):
        q_labels[rng.integers(n_q)] = g_labels.max() + 1
    cutoffs = sorted(set(draw(st.lists(st.integers(1, n_g), min_size=1, max_size=4))))
    return queries, gallery, q_labels, g_labels, cutoffs


@settings(max_examples=300, deadline=None)
@given(retrieval_problems())
@example((np.array([[0.0]]), np.array([[1.0]]), np.array([0]), np.array([0]), [1]))
@example((np.array([[1.0, 0.0]]), np.array([[0.0]]), np.array([1, 1]), np.array([1]), [1]))
@example(
    (np.zeros((2, 1)), np.zeros((2, 6)), np.array([1]), np.array([0, 1, 0, 1, 1, 0]), [1, 3, 6])
)
def test_ranking_matches_per_query_reference(problem):
    try:
        want = retrieval_reference(*problem)
    except EvalError as exc:
        with pytest.raises(EvalError, match=re.escape(str(exc))):
            retrieval_metrics(*problem)
        return
    got = retrieval_metrics(*problem)
    assert got["cutoffs"] == want["cutoffs"]
    for key in ("precision", "recall", "f1", "map"):
        assert np.allclose(got[key], want[key], rtol=0.0, atol=1e-12), key
