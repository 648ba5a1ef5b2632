import numpy as np
import pytest

from kmsa import NumericError
from kmsa.eigsolver import fix_signs, generalized_eigh

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
