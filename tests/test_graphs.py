import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kmsa import GraphError, KernelSpec, NumericError, build_kernel, graphs
from kmsa.eigsolver import pencil_eigh
from kmsa.graphs import (
    constraint_matrix,
    laplacian,
    lasso_codes,
    lda_graph,
    lpp_graph,
    pca_graph,
    spp_graph,
)
from kmsa.kernels import Distances, pairwise_sq_dists

from oracles import (
    lasso_cd_reference,
    lasso_grid_oracle,
    lasso_objective,
    lasso_path_reference,
)


def lasso(A, y, lam, max_iters):
    """min 0.5 ||y - A c||^2 + lam ||c||_1 as the last column of the codes of
    [A | y]: that column is coded by A alone."""
    M, converged = lasso_codes([(np.column_stack([A, y]), lam, max_iters)])[0]
    return M[:-1, -1], converged[-1]


@st.composite
def coding_problems(draw, samples=st.integers(2, 12)):
    """Random D x N data (D in 2..6, N drawn from samples), sometimes with a
    repeated or an all-zero column, plus a lasso weight and a sweep cap."""
    dim = draw(st.integers(2, 6))
    n = draw(samples)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.standard_normal((dim, n)) * draw(st.sampled_from([0.1, 1.0, 10.0]))
    if draw(st.booleans()):
        X[:, draw(st.integers(0, n - 1))] = X[:, draw(st.integers(0, n - 1))]
    if draw(st.booleans()):
        X[:, draw(st.integers(0, n - 1))] = 0.0
    lam = 10 ** draw(st.floats(-5.0, 0.0)) * float(np.abs(X.T @ X).max(initial=1.0))
    return X, lam, draw(st.integers(1, 200))


def has_repeated_column(X) -> bool:
    nonzero = [tuple(col) for col in X.T if col.any()]
    return len(set(nonzero)) < len(nonzero)


@st.composite
def coding_queues(draw):
    """1-4 coding problems on the same N samples, each with its own D, lam and
    step cap (1-5 or 500), as (X, lam, cap). A copy of an active column never
    joins in exact arithmetic, but its join time is level * (w_j - w_a) /
    (w_j - w_a), a ratio of 1e-11 differences; rounding may put it before the
    path's next event on either route, so a capped path can end one event
    apart: a view with two equal nonzero columns runs to lam (cap 500)."""
    n = draw(st.integers(2, 12))
    queue = []
    for _ in range(draw(st.integers(1, 4))):
        X, lam, _ = draw(coding_problems(st.just(n)))
        cap = 500 if has_repeated_column(X) else draw(st.integers(1, 5) | st.just(500))
        queue.append((X, lam, cap))
    return queue


class TestPcaGraph:
    def test_off_diagonal_value(self):
        S = pca_graph(3).S
        off = S[~np.eye(3, dtype=bool)]
        assert np.allclose(off, -1.0 / 3.0)
        assert np.allclose(np.diag(S), 0.0)

    def test_two_samples(self):
        S = pca_graph(2).S
        assert np.allclose(S, [[0.0, -0.5], [-0.5, 0.0]])

    def test_laplacian_rows_sum_to_zero(self):
        P = laplacian(pca_graph(4).S)
        assert np.abs(P.sum(axis=1)).max() < 1e-12

    def test_laplacian_is_negated_centering(self):
        P = laplacian(pca_graph(3).S)
        H = np.eye(3) - np.full((3, 3), 1.0 / 3.0)
        assert np.allclose(P, -H, atol=1e-12)
        # negative semidefinite: minimizing with smallest eigenvalues is
        # variance maximization
        assert np.linalg.eigvalsh(P).max() <= 1e-12

    def test_constraint_is_kernel_itself(self, rng):
        X = rng.standard_normal((3, 6))
        K = build_kernel(X, KernelSpec())
        M = constraint_matrix(K, pca_graph(6).B, ridge=0.0)
        assert np.allclose(M, K)


class TestLppGraph:
    def test_identical_neighbors_weight_one(self):
        X = np.array([[0.0, 0.0, 5.0]])
        pair = lpp_graph(X, k=1, heat=1.0)
        assert pair.S[0, 1] == 1.0

    def test_full_neighborhood_is_dense(self, rng):
        X = rng.standard_normal((2, 6))
        pair = lpp_graph(X, k=5, heat=1.0)
        off = pair.S[~np.eye(6, dtype=bool)]
        assert (off > 0).all()

    def test_three_collinear_points(self):
        # nearest neighbors: 2 is 1's nearest, 1 is 2's nearest, 2 is 3's
        X = np.array([[0.0, 1.0, 3.0]])
        S = lpp_graph(X, k=1, heat=1.0).S
        assert S[0, 1] == pytest.approx(np.exp(-1.0))
        assert S[1, 2] == pytest.approx(np.exp(-4.0))
        assert S[0, 2] == 0.0

    def test_degree_matrix(self, rng):
        # B is the degree matrix's diagonal, and K diag(B) K is formed from
        # it to the bit, without the dense diagonal matrix
        X = rng.standard_normal((3, 8))
        pair = lpp_graph(X, k=2, heat="median")
        assert pair.B.shape == (8,)
        assert np.array_equal(pair.B, pair.S.sum(axis=1))
        K = build_kernel(X, KernelSpec())
        want = constraint_matrix(K, np.diag(pair.B), ridge=1e-8)
        assert np.array_equal(constraint_matrix(K, pair.B, ridge=1e-8), want)

    def test_laplacian_positive_semidefinite(self, rng):
        X = rng.standard_normal((3, 10))
        P = laplacian(lpp_graph(X, k=3, heat="median").S)
        assert np.linalg.eigvalsh(P).min() >= -1e-8

    def test_underflowing_median_heat(self, rng):
        # no config rule sees the median heat: a median distance below
        # 1.5e-162 squares to 0, and the graph refuses it
        X = rng.standard_normal((2, 5))
        dists = Distances(X)
        dists.median = 1e-170
        with pytest.raises(GraphError, match="underflows to 0"):
            lpp_graph(X, k=2, heat="median", dists=dists)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 120),  # past 16, where NumPy's unstable sorts change method
        k_frac=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_per_column_neighbor_loop_under_ties(self, n, k_frac, seed):
        # coordinates from {0, 1, 2} and repeated columns tie many distances;
        # the adjacency must match dropping self from each stable order
        rng = np.random.default_rng(seed)
        X = rng.integers(0, 3, size=(2, n)).astype(float)
        X[:, rng.integers(0, n, size=n // 2)] = X[:, rng.integers(0, n, size=n // 2)]
        k = 1 + int(k_frac * (n - 2))
        sq = pairwise_sq_dists(X)
        order = np.argsort(sq, axis=0, kind="stable")
        adj = np.zeros((n, n), dtype=bool)
        for j in range(n):
            adj[[i for i in order[:, j] if i != j][:k], j] = True
        adj |= adj.T
        S = np.where(adj, np.exp(-sq), 0.0)
        np.fill_diagonal(S, 0.0)
        assert np.array_equal(lpp_graph(X, k=k, heat=1.0).S, S)


class TestLdaGraph:
    def test_single_class(self):
        S = lda_graph([0, 0, 0, 0]).S
        off = S[~np.eye(4, dtype=bool)]
        assert np.allclose(off, 0.25)

    def test_balanced_classes(self):
        S = lda_graph([0, 0, 1, 1]).S
        assert S[0, 1] == pytest.approx(0.5)
        assert S[0, 2] == pytest.approx(-0.5)

    def test_unbalanced_symmetrization(self):
        # classes of sizes 2 and 3: raw -1/2 and -1/3 average to -5/12
        S = lda_graph([0, 0, 1, 1, 1]).S
        assert S[0, 2] == pytest.approx(-5.0 / 12.0)
        assert np.array_equal(S, S.T)

    def test_centering_constraint_factor(self):
        pair = lda_graph([0, 1])
        assert pair.B is not None
        assert np.allclose(pair.B, np.eye(2) - np.full((2, 2), 0.5))

    def test_missing_class_id(self):
        # class ids are names: any ids give the graph of their compacted ones
        got, want = lda_graph([3, 7, 7]), lda_graph([0, 1, 1])
        assert np.array_equal(got.S, want.S) and np.array_equal(got.B, want.B)


class TestLasso:
    def test_large_lambda_kills_all_coefficients(self, rng):
        A = rng.standard_normal((3, 4))
        y = rng.standard_normal(3)
        lam = float(np.abs(A.T @ y).max()) + 1.0
        c, converged = lasso(A, y, lam, max_iters=100)
        assert converged
        assert np.allclose(c, 0.0)

    def test_matches_grid_oracle(self, rng):
        for _ in range(6):
            n = int(rng.integers(3, 7))
            dim = int(rng.integers(2, 4))
            A = rng.standard_normal((dim, n - 1))
            y = rng.standard_normal(dim)
            lam = 0.2
            c, _ = lasso(A, y, lam, max_iters=2000)
            c_ref = lasso_grid_oracle(A, y, lam, radius=2.0, levels=6)
            assert np.abs(c - c_ref).max() < 1e-3
            assert lasso_objective(A, y, c, lam) <= lasso_objective(A, y, c_ref, lam) + 1e-9


# Integer data full of exact ties, each a path that goes wrong without one of
# the homotopy's rules: a join must move the new coefficient toward its sign,
# else a just-dropped column re-joins at once on the side it left and the path
# cycles to the step cap (first); a column refused for lying in the active span
# is reconsidered after a drop shrinks the span, else its correlation ends past
# lam (second); tied correlations meet distinct boundaries, else zero-length
# joins and drops cycle (third); a column whose join was refused is free to
# join on that side again once another column joins, else the last column's
# path, which re-joins it with no drop in between, ends with its correlation
# past lam (fourth).
EDGE_CASES = [
    (np.array([[0, 1, -1, -1, -1, 0, -1, 1, 0], [0, 1, -1, -1, 1, -1, 0, 1, -1],
               [0, 1, 0, 0, 0, 1, 1, 0, 0], [-1, 0, 1, 0, -1, 0, -1, 0, -1]], dtype=float),
     0.003, 200),
    (np.array([[-2, -1, -2, -1, 0], [1, -1, -2, 0, -2]], dtype=float), 8e-5, 200),
    (np.array([[0, 1, 0, 1, 0, -1, 0, -1, 0, 1, 1, 0], [0, 0, 1, -1, 1, 0, 0, -1, 1, -1, 0, 1],
               [0, 0, 0, 0, -1, 1, -1, 0, 1, 0, -1, -1], [0, -1, 1, 0, 1, 0, -1, 1, -1, 0, -1, 1],
               [-1, 1, 1, -1, -1, -1, -1, 0, -1, -1, -1, 0], [1, 1, -1, 0, 1, 1, 1, 1, -1, -1, 0, 0]],
              dtype=float),
     0.5, 200),
    (np.array([[1, 0, 0, 1, 1, 0, -1, 0, -1, -1, 1, 0, 1, 0],
               [1, 1, 0, 1, -1, 0, 1, -1, -1, 0, 1, -1, 1, 1],
               [-1, -1, 0, 0, -1, 1, -1, 0, 1, 0, 0, 0, 1, 0],
               [1, -1, -1, 1, 1, 1, -1, 1, -1, 1, 0, 1, -1, 0],
               [-1, 1, 0, 0, -1, -1, 1, -1, 0, -1, 0, 0, 0, 1],
               [1, 1, -1, -1, -1, 1, 0, -1, 0, -1, 1, 1, -1, -1],
               [-1, 1, 0, 1, 0, -1, 0, 1, 0, 0, 0, 0, 0, 0]], dtype=float),
     0.01, 200),
]


# Integer data whose lasso codes are not unique, so a path that keeps a
# refused column blocked after a drop still ends at a lasso solution, but at
# another one than the per-column reference path.
DROP_CASE = (
    np.array([[-2, 1, -2, 1, -2, -1], [-1, -1, 1, -2, 2, 1], [-2, 0, 1, 0, 1, 0],
              [-2, 1, 1, 2, -1, 0]], dtype=float),
    0.003, 200,
)


# a Gaussian view of as many samples as EDGE_CASES[2], no two columns equal
GAUSSIAN_12 = np.random.default_rng(0).standard_normal((3, 12))

# Gaussian data with lam at the level where a coefficient of column 1's path
# reaches 0: the pass that ends the path also zeroes that coefficient, and
# rounding can carry it a few ulps past 0, where, still active and against
# its correlation's sign, it breaks the optimality conditions by 2 lam
DROP_AT_LAM = np.random.default_rng(21).standard_normal((3, 6)), 0.029527661988444462, 200


def relative_gap(A, y, c, lam):
    """Lasso duality gap of c at the dual point mu r (r = y - A c, mu scaled so
    that ||A^T mu r||_inf <= lam), written so that no term is a difference of
    two values near ||y||^2, over the objective's rounding scale
    0.5 || |y| + |A| |c| ||^2 (that is 0.5 ||y||^2 when c = 0)."""
    r = y - A @ c
    g = A.T @ r
    mu = min(1.0, lam / np.abs(g).max(initial=lam))
    gap = 0.5 * (1.0 - mu) ** 2 * (r @ r) + lam * np.abs(c).sum() - mu * (c @ g)
    scale = 0.5 * np.sum((np.abs(y) + np.abs(A) @ np.abs(c)) ** 2)
    return gap / scale if scale > 0.0 else gap


class TestSparseCodes:
    @settings(max_examples=100, deadline=None)
    @given(coding_problems())
    @example(EDGE_CASES[0])
    @example(EDGE_CASES[1])
    @example(EDGE_CASES[2])
    @example(EDGE_CASES[3])
    def test_every_column_is_a_lasso_solution(self, problem):
        X, lam, sweeps = problem
        n = X.shape[1]
        M, finished = lasso_codes([(X, lam, 500)])[0]
        assert finished.all()
        assert np.all(np.diag(M) == 0.0)
        for i in range(n):
            keep = np.arange(n) != i
            A, y, c = X[:, keep], X[:, i], M[keep, i]
            # not relative to 0.5 ||y||^2: at lam near its floor a code can
            # cancel (||c||_1 in the thousands), and then even the exact code
            # rounded to doubles has a gap near 1e-9 * 0.5 ||y||^2
            assert relative_gap(A, y, c, lam) <= 1e-10
            c_ref, _ = lasso_cd_reference(A, y, lam, sweeps)
            want = lasso_objective(A, y, c_ref, lam)
            assert lasso_objective(A, y, c, lam) <= want * (1.0 + 1e-12)

    @settings(max_examples=100, deadline=None)
    @given(coding_problems())
    @example(EDGE_CASES[0])
    @example(EDGE_CASES[1])
    @example(EDGE_CASES[2])
    @example(EDGE_CASES[3])
    @example(DROP_AT_LAM)
    def test_converged_columns_satisfy_kkt(self, problem):
        # exact codes meet the optimality conditions up to rounding, on the
        # scale |x_j|^T (|x_i| + |X| |c_i|) of x_j^T r_i, and the path's tie
        # breaking, which moves each boundary by at most 1e-11 lam
        X, lam, _ = problem
        M, converged = lasso_codes([(X, lam, 500)])[0]
        absX = np.abs(X)
        for i in np.flatnonzero(converged):
            grad = X.T @ (X[:, i] - X @ M[:, i])
            others = np.arange(X.shape[1]) != i
            eps = 1e-10 * (absX.T @ (absX[:, i] + absX @ np.abs(M[:, i])))
            assert np.all(np.abs(grad[others]) <= lam + eps[others])
            active = M[:, i] != 0.0
            assert np.all(np.abs(grad - lam * np.sign(M[:, i]))[active] <= eps[active])

    @settings(max_examples=150, deadline=None)
    @given(coding_queues(), st.integers(1, 13))
    @example([EDGE_CASES[0][:2] + (500,)], 64)
    @example([EDGE_CASES[1][:2] + (500,)], 64)
    @example([EDGE_CASES[2][:2] + (500,)], 64)
    @example([EDGE_CASES[2][:2] + (3,)], 5)
    @example([DROP_CASE[:2] + (500,)], 64)
    @example([EDGE_CASES[2][:2] + (500,), (GAUSSIAN_12, 0.1, 4)], 5)
    def test_lockstep_paths_match_per_column_reference(self, queue, block):
        # the paths of every view share one queue, block paths at a time, and
        # an ended path's slot goes to the next pending column; each must end
        # where its own path run alone on its own view ends, capped or not,
        # whatever block and neighbours it runs with. Codes agree to 1e-9 of
        # max|M|, or of 1 (a code that rebuilds x_i from a column of its size)
        # when all are smaller: at lam == max|x_j^T x_i| the exact codes are
        # 0, and one route may round them to 1e-16
        n = queue[0][0].shape[1]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graphs, "_BLOCK", block * n)
            got = graphs.lasso_codes(queue)
        for (X, lam, cap), (M, finished) in zip(queue, got, strict=True):
            want, want_finished = np.zeros((n, n)), np.zeros(n, dtype=bool)
            for i in range(n):
                others = np.arange(n) != i
                want[others, i], want_finished[i] = lasso_path_reference(
                    X[:, others], X[:, i], lam, cap
                )
            assert np.array_equal(finished, want_finished)
            assert np.abs(M - want).max() <= 1e-9 * max(np.abs(want).max(), 1.0)


class TestSppGraph:
    def test_duplicate_column_is_recovered(self):
        # x4 duplicates x1; with everything else far away its lasso code
        # should load almost entirely on the duplicate
        X = np.array(
            [[1.0, 10.0, -9.0, 1.0], [1.0, -10.0, 9.0, 1.0]]
        )
        pair = spp_graph(X, lam=0.05, max_iters=2000)
        M, converged = lasso_codes([(X, 0.05, 2000)])[0]
        S = M + M.T + M.T @ M
        np.fill_diagonal(S, 0.0)
        assert np.array_equal(pair.S, S)  # the codes spp_graph builds on
        c = M[:3, 3]
        assert converged[3]
        assert c[0] == pytest.approx(1.0, abs=0.05)
        assert np.abs(c[1:]).max() < 0.05
        c_ref = lasso_grid_oracle(X[:, :3], X[:, 3], 0.05, radius=2.0, levels=6)
        assert np.abs(c - c_ref).max() < 1e-3

    def test_huge_lambda_gives_zero_graph(self, rng):
        X = rng.standard_normal((2, 5))
        lam = float(np.abs(X.T @ X).max()) + 1.0
        pair = spp_graph(X, lam=lam, max_iters=100)
        assert np.allclose(pair.S, 0.0)
        assert np.allclose(laplacian(pair.S), 0.0)

    def test_constraint_is_kernel(self, rng):
        X = rng.standard_normal((2, 5))
        pair = spp_graph(X, lam=1.0, max_iters=50)
        assert pair.B is None

    def test_iteration_cap_noted(self, rng):
        from kmsa import ConvergenceWarning

        X = rng.standard_normal((4, 12))
        with pytest.warns(ConvergenceWarning):
            pair = spp_graph(X, lam=1e-6, max_iters=1)
        assert pair.notes  # at least one column cannot finish in one sweep
        _, converged = lasso_codes([(X, 1e-6, 1)])[0]
        assert pair.notes == tuple(
            f"lasso column {i} hit the 1-step homotopy cap before lasso_lambda"
            for i in np.flatnonzero(~converged)
        )


class TestLaplacianAndConstraint:
    def test_zero_similarity(self):
        assert np.allclose(laplacian(np.zeros((4, 4))), 0.0)

    def test_every_recipe_yields_symmetric_zero_row_sum_p(self, rng):
        X = rng.standard_normal((3, 8))
        labels = [0, 0, 0, 1, 1, 1, 2, 2]
        pairs = [
            pca_graph(8),
            lpp_graph(X, k=3, heat="median"),
            lda_graph(labels),
            spp_graph(X, lam=0.2, max_iters=200),
        ]
        for pair in pairs:
            P = laplacian(pair.S)
            assert np.array_equal(P, P.T)
            assert np.abs(P.sum(axis=1)).max() < 1e-10

    def test_rows_sum_to_zero_for_any_symmetric_s(self, rng):
        A = rng.standard_normal((6, 6))
        S = 0.5 * (A + A.T)
        np.fill_diagonal(S, 0.0)
        P = laplacian(S)
        assert np.abs(P.sum(axis=1)).max() < 1e-10
        assert np.array_equal(P, P.T)

    def test_kbk_with_identity_b_squares_kernel(self, rng):
        X = rng.standard_normal((3, 5))
        K = build_kernel(X, KernelSpec())
        M = constraint_matrix(K, np.eye(5), ridge=0.0)
        assert np.allclose(M, K @ K, atol=1e-12)

    def test_zero_ridge_keeps_pd_kernel(self, rng):
        X = rng.standard_normal((3, 5))
        K = build_kernel(X, KernelSpec())
        M = constraint_matrix(K, pca_graph(5).B, ridge=0.0)
        assert np.array_equal(M, 0.5 * (K + K.T))

    def test_scaled_identity(self):
        K = np.eye(4)
        ridge = 0.5
        M = constraint_matrix(K, 2.0 * np.eye(4), ridge=ridge)
        assert np.allclose(M, (2.0 + 2.0 * ridge) * np.eye(4))

    def test_degenerate_kernel_rejected(self):
        K = np.zeros((3, 3))
        with pytest.raises(NumericError, match="raise the ridge"):
            pencil_eigh(K, constraint_matrix(K, pca_graph(3).B, ridge=1e-8))
