import numpy as np
import pytest
import scipy.linalg
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kmsa import NumericError, eigsolver
from kmsa.eigsolver import fix_signs, generalized_eigh, secular_smallest

from oracles import gen_eig_oracle


def random_pencil(rng, n):
    A = rng.standard_normal((n, n))
    H = 0.5 * (A + A.T)
    B = rng.standard_normal((n, n))
    M = B @ B.T + n * np.eye(n)  # comfortably positive definite
    return H, 0.5 * (M + M.T)


def test_diagonal_case():
    H = np.diag([3.0, 1.0, 2.0])
    w, V = generalized_eigh(H, np.eye(3), 2)
    assert np.allclose(w, [1.0, 2.0])
    assert np.allclose(V[:, 0], [0.0, 1.0, 0.0])
    assert np.allclose(V[:, 1], [0.0, 0.0, 1.0])


def test_h_equal_m_gives_unit_eigenvalue(rng):
    B = rng.standard_normal((5, 5))
    M = B @ B.T + 5 * np.eye(5)
    w, V = generalized_eigh(M, M, 1)
    assert w[0] == pytest.approx(1.0, abs=1e-10)
    resid = np.linalg.norm(M @ V[:, 0] - w[0] * (M @ V[:, 0]))
    assert resid < 1e-8


def test_matches_independent_reduction(rng):
    H, M = random_pencil(rng, 6)
    w, V = generalized_eigh(H, M, 3)
    w_ref, V_ref = gen_eig_oracle(H, M, 3)
    assert np.allclose(w, w_ref, atol=1e-8)
    P = V @ V.T @ M
    P_ref = V_ref @ V_ref.T @ M
    assert np.abs(P - P_ref).max() < 1e-6


def test_many_random_pencils_against_oracle(rng):
    for _ in range(25):
        n = int(rng.integers(3, 13))
        d = int(rng.integers(1, n + 1))
        H, M = random_pencil(rng, n)
        w, V = generalized_eigh(H, M, d)
        w_ref, _ = gen_eig_oracle(H, M, d)
        assert np.allclose(w, w_ref, atol=1e-8)
        assert np.abs(V.T @ M @ V - np.eye(d)).max() < 1e-8
        assert np.all(np.diff(w) >= -1e-12)


def test_shift_equivariance(rng):
    H, M = random_pencil(rng, 7)
    w, V = generalized_eigh(H, M, 3)
    for c in (-1.0, 5.0):
        w_shift, V_shift = generalized_eigh(H + c * M, M, 3)
        assert np.allclose(w_shift, w + c, atol=1e-8)
        P = V @ V.T @ M
        P_shift = V_shift @ V_shift.T @ M
        assert np.abs(P - P_shift).max() < 1e-6


def test_determinism(rng):
    H, M = random_pencil(rng, 8)
    w1, V1 = generalized_eigh(H, M, 4)
    w2, V2 = generalized_eigh(H, M, 4)
    assert np.array_equal(w1, w2)
    assert np.array_equal(V1, V2)


def test_sign_convention(rng):
    for _ in range(10):
        H, M = random_pencil(rng, 6)
        _, V = generalized_eigh(H, M, 3)
        for i in range(3):
            j = np.argmax(np.abs(V[:, i]))
            assert V[j, i] > 0


def test_sign_ties_go_to_lowest_index():
    V = np.array([[-1.0, 1.0, 0.0], [1.0, -1.0, 0.0], [0.5, 0.5, 0.0]])
    want = np.array([[1.0, 1.0, 0.0], [-1.0, -1.0, 0.0], [-0.5, 0.5, 0.0]])
    assert np.array_equal(fix_signs(V), want)


def test_indefinite_constraint_rejected():
    H = np.eye(3)
    with pytest.raises(NumericError):
        generalized_eigh(H, -np.eye(3), 1)
    with pytest.raises(NumericError):
        generalized_eigh(H, np.zeros((3, 3)), 1)


def test_bad_d_rejected():
    with pytest.raises(NumericError):
        generalized_eigh(np.eye(3), np.eye(3), 4)


def record_eigh_calls(mp):
    """Record the subset_by_index of every scipy.linalg.eigh call (None for a
    full decomposition)."""
    calls = []
    real_eigh = scipy.linalg.eigh

    def recording_eigh(*args, **kwargs):
        calls.append(kwargs.get("subset_by_index"))
        return real_eigh(*args, **kwargs)

    mp.setattr(scipy.linalg, "eigh", recording_eigh)
    return calls


@st.composite
def secular_problems(draw):
    """(lam, Z, d) for diag(lam) - Z Z^T: lam often has repeated (integer)
    entries, Z's column scales span weak to strong coupling, Z may have a
    duplicated column (rank deficiency), and the problem may be the direct sum
    of two copies of itself, which doubles every eigenvalue (coincident
    wanted roots)."""
    n = draw(st.integers(1, 12))
    k = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        lam = rng.integers(-3, 4, size=n).astype(float)
    else:
        lam = rng.standard_normal(n)
    Z = rng.standard_normal((n, k)) * 10.0 ** rng.uniform(-3.0, 2.0, size=k)
    if k > 1 and draw(st.booleans()):
        Z[:, -1] = Z[:, 0]
    if draw(st.booleans()):
        lam, Z = np.r_[lam, lam], scipy.linalg.block_diag(Z, Z)
    return lam, Z, draw(st.integers(1, lam.size))


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(secular_problems())
def test_secular_smallest_matches_dense_eigh(secular_choice, problem):
    lam, Z, d = problem
    T = np.diag(lam) - Z @ Z.T
    ref, V = np.linalg.eigh(T)
    with pytest.MonkeyPatch.context() as mp:
        dense_calls = record_eigh_calls(mp)
        w, X = secular_smallest(lam, Z, d)

    scale = np.abs(lam).max() + np.abs(ref).max()
    assert np.all(np.diff(w) >= 0)
    assert np.abs(w - ref[:d]).max() <= 1e-13 * scale
    assert np.abs(X.T @ X - np.eye(d)).max() <= 1e-12
    assert np.linalg.norm(T @ X - X * w, axis=0).max() <= 1e-13 * scale
    if d == lam.size or ref[d] - ref[d - 1] > 1e-6 * scale:
        P = V[:, :d] @ V[:, :d].T
        assert np.abs(X @ X.T - P).max() <= 1e-8
    # Newton finds only roots below min(lam); clear of it, it needs no dense
    # solve
    if secular_choice == "dense" or ref[d - 1] >= lam.min():
        assert dense_calls == [[0, d - 1]]
    elif ref[d - 1] < lam.min() - 1e-6 * scale:
        assert dense_calls == []


def test_secular_smallest_solves_densely_when_newton_hits_its_cap(monkeypatch):
    rng = np.random.default_rng(0)
    lam, Z = rng.standard_normal(10), 3.0 * rng.standard_normal((10, 4))
    ref = np.linalg.eigvalsh(np.diag(lam) - Z @ Z.T)
    assert ref[1] < lam.min() - 1.0  # well inside the secular route
    calls = record_eigh_calls(monkeypatch)
    monkeypatch.setattr(eigsolver, "NEWTON_MIN_N", 0)
    monkeypatch.setattr(eigsolver, "SECULAR_MAX_ITERS", 0)
    w, _ = secular_smallest(lam, Z, 2)
    assert calls == [[0, 1]]
    assert np.allclose(w, ref[:2], rtol=1e-13, atol=0)


def test_secular_smallest_evaluates_g_once_per_point(monkeypatch):
    # with the roots apart, the Ritz step takes G's null vectors from Newton's
    # last evaluation instead of evaluating G there again
    rng = np.random.default_rng(0)
    lam, Z = rng.standard_normal(10), 3.0 * rng.standard_normal((10, 4))
    points, real_eigh = [], np.linalg.eigh

    def recording_eigh(a, *args, **kwargs):
        if a.ndim == 3:  # G at a batch of points
            points.append(a.copy())
        return real_eigh(a, *args, **kwargs)

    monkeypatch.setattr(eigsolver, "NEWTON_MIN_N", 0)
    monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
    w, X = secular_smallest(lam, Z, 2)
    assert points
    assert not any(np.array_equal(a, b) for a, b in zip(points, points[1:]))
    ref = np.linalg.eigvalsh(np.diag(lam) - Z @ Z.T)
    assert ref[1] - ref[0] > 1e-3 * np.abs(ref).max()  # the roots are apart
    assert np.allclose(w, ref[:2], rtol=1e-13, atol=0)


def test_secular_smallest_solves_below_the_crossover_densely(monkeypatch):
    rng = np.random.default_rng(1)
    lam, Z = rng.standard_normal(10), 3.0 * rng.standard_normal((10, 4))
    calls = record_eigh_calls(monkeypatch)
    monkeypatch.setattr(eigsolver, "NEWTON_MIN_N", 11)
    secular_smallest(lam, Z, 2)
    monkeypatch.setattr(eigsolver, "NEWTON_MIN_N", 10)
    secular_smallest(lam, Z, 2)
    assert calls == [[0, 1]]


@pytest.mark.parametrize("k", [0, 3])
def test_zero_coupling_is_read_off_the_spectrum(monkeypatch, k):
    # the uncoupled update: lam's smallest entries, ties to the lower index,
    # and unit vectors, without a LAPACK call
    def no_lapack(*args, **kwargs):
        raise AssertionError("secular_smallest called LAPACK for Z == 0")

    for mod, name in [(scipy.linalg, "eigh"), (np.linalg, "eigh"),
                      (np.linalg, "eigvalsh"), (np.linalg, "qr")]:
        monkeypatch.setattr(mod, name, no_lapack)
    lam = np.array([2.0, -1.0, 0.5, -1.0, 3.0])
    w, X = secular_smallest(lam, np.zeros((5, k)), 3)
    assert w.tolist() == [-1.0, -1.0, 0.5]
    assert np.array_equal(X, np.eye(5)[:, [1, 3, 2]])
