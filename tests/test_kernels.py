import tracemalloc

import numpy as np
import pytest

from kmsa import KernelSpec, NumericError, build_kernel, kernels, median_heuristic_bandwidth
from kmsa.kernels import cross_kernel, resolve_kernel_spec


def test_gaussian_identical_columns_give_one():
    X = np.array([[1.0, 1.0], [2.0, 2.0]])
    K = build_kernel(X, KernelSpec(bandwidth=1.0))
    assert K[0, 1] == 1.0


def test_linear_orthogonal_columns_give_zero():
    X = np.array([[1.0, 0.0], [0.0, 1.0]])
    K = build_kernel(X, KernelSpec(kind="linear"))
    assert K[0, 1] == 0.0


def test_gaussian_unit_bandwidth_value():
    # ||x1 - x2||^2 = 2 and the convention is exp(-||.||^2 / (2 sigma^2)),
    # so the off-diagonal is exp(-1)
    X = np.array([[0.0, 1.0], [0.0, 1.0]])
    K = build_kernel(X, KernelSpec(bandwidth=1.0))
    assert K[0, 1] == pytest.approx(np.exp(-1.0), abs=1e-12)


def test_median_bandwidth_single_pair():
    X = np.array([[0.0, 3.0]])
    assert median_heuristic_bandwidth(X) == pytest.approx(3.0)


def test_median_bandwidth_degenerate_fallback():
    X = np.ones((2, 5))
    assert median_heuristic_bandwidth(X) == 1.0


def test_median_bandwidth_line():
    # points at 0,1,2,3: pairwise distances {1,1,1,2,2,3}, median 1.5
    X = np.array([[0.0, 1.0, 2.0, 3.0]])
    assert median_heuristic_bandwidth(X) == pytest.approx(1.5)


def test_median_bandwidth_of_one_sample_raises():
    with pytest.raises(NumericError, match="at least 2 samples"):
        median_heuristic_bandwidth(np.ones((3, 1)))


def test_exact_symmetry(rng):
    X = rng.standard_normal((4, 15))
    for spec in [
        KernelSpec(),
        KernelSpec(kind="linear"),
        KernelSpec(kind="polynomial", degree=3, offset=0.5),
    ]:
        K = build_kernel(X, spec)
        assert np.array_equal(K, K.T)


def test_gaussian_range_and_psd(rng):
    for trial in range(10):
        n = int(rng.integers(5, 51))
        X = rng.standard_normal((int(rng.integers(2, 6)), n))
        K = build_kernel(X, KernelSpec())
        assert np.allclose(np.diag(K), 1.0)
        off = K[~np.eye(n, dtype=bool)]
        assert (off > 0).all() and (off <= 1).all()
        assert np.linalg.eigvalsh(K).min() >= -1e-8


def test_centering_zeroes_row_and_column_sums(rng):
    X = rng.standard_normal((3, 12))
    K = build_kernel(X, KernelSpec(), center=True)
    assert np.abs(K.sum(axis=0)).max() < 1e-8
    assert np.abs(K.sum(axis=1)).max() < 1e-8


def test_column_permutation_permutes_kernel(rng):
    X = rng.standard_normal((3, 9))
    perm = rng.permutation(9)
    K = build_kernel(X, KernelSpec(bandwidth=1.3))
    K_perm = build_kernel(X[:, perm], KernelSpec(bandwidth=1.3))
    assert np.allclose(K_perm, K[np.ix_(perm, perm)], atol=1e-14)


def test_polynomial_overflow_raises():
    X = np.array([[1e200, -1e200]])
    with pytest.raises(NumericError):
        build_kernel(X, KernelSpec(kind="polynomial", degree=3, offset=0.0))


def test_underflowing_bandwidth_raises():
    # 2 sigma^2 rounds to 0: the kernel's non-finite check reports it, and no
    # divide-by-zero RuntimeWarning escapes first
    X = np.array([[0.0, 1.0, 3.0]])
    with pytest.raises(NumericError, match="non-finite"):
        build_kernel(X, KernelSpec(bandwidth=1e-170))


def test_non_finite_input_raises():
    X = np.array([[np.nan, 0.0]])
    with pytest.raises(NumericError):
        build_kernel(X, KernelSpec(kind="linear"))


def test_resolve_median_spec(rng):
    X = rng.standard_normal((3, 8))
    spec = resolve_kernel_spec(X, KernelSpec())
    assert spec.bandwidth == pytest.approx(median_heuristic_bandwidth(X))
    fixed = KernelSpec(bandwidth=2.0)
    assert resolve_kernel_spec(X, fixed) == fixed


@pytest.mark.parametrize("spec", [
    KernelSpec(bandwidth=1.1),
    KernelSpec(kind="linear"),
    KernelSpec(kind="polynomial", degree=3, offset=0.5),
], ids=["gaussian", "linear", "polynomial"])
def test_cross_kernel_reproduces_training_columns(rng, spec):
    # the raw training kernel is exactly symmetric, so the uncentered
    # build_kernel is it to the bit and has the row means a centered pencil
    # is centered with; cross_kernel takes training columns by the route of
    # new points, whether or not they share X's buffer (at N=12 the routes
    # round apart)
    X = rng.standard_normal((4, 12))
    raw = kernels._raw_kernel(X, X, spec)
    assert np.array_equal(raw, raw.T)
    assert np.array_equal(build_kernel(X, spec), raw)
    cols = cross_kernel(X, X, spec)
    assert np.array_equal(cols, cross_kernel(X, X.copy(), spec))
    assert np.allclose(cols, raw, atol=1e-12)


def test_cross_kernel_centered_matches_centered_gram(rng):
    X = rng.standard_normal((4, 10))
    spec = KernelSpec(kind="linear")
    K_centered = build_kernel(X, spec, center=True)
    cols = cross_kernel(X, X, spec, means=cross_kernel(X, X, spec).mean(axis=1))
    assert np.allclose(cols, K_centered, atol=1e-12)


@pytest.mark.parametrize("kind", ["gaussian", "linear", "polynomial"])
def test_centered_cross_kernel_of_new_points_builds_no_training_kernel(rng, monkeypatch, kind):
    # given the training kernel's row means, centering reads the new columns
    # only: no training x training entry is evaluated
    X, Y = rng.standard_normal((4, 400)), rng.standard_normal((4, 10))
    spec = resolve_kernel_spec(X, KernelSpec(kind=kind))
    means = kernels._raw_kernel(X, X, spec).mean(axis=1)
    seen, real_raw = [], kernels._raw_kernel

    def recording_raw(A, B, *args, **kwargs):
        seen.append(B)
        return real_raw(A, B, *args, **kwargs)

    monkeypatch.setattr(kernels, "_raw_kernel", recording_raw)
    tracemalloc.start()
    try:
        cols = cross_kernel(X, Y, spec, means)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.75 * 8.0 * 400 * 400
    # the new points themselves, by value: cross_kernel hands on a copy
    assert len(seen) == 1 and np.array_equal(seen[0], Y)
    want = real_raw(X, Y, spec) - means[:, None]
    want -= want.mean(axis=0, keepdims=True)
    assert np.array_equal(cols, want)


@pytest.mark.parametrize("kind", ["gaussian", "linear"])
def test_centered_build_kernel_computes_the_raw_kernel_once(rng, monkeypatch, kind):
    calls = []
    real_raw = kernels._raw_kernel

    def counting_raw(*args, **kwargs):
        calls.append(1)
        return real_raw(*args, **kwargs)

    monkeypatch.setattr(kernels, "_raw_kernel", counting_raw)
    X = rng.standard_normal((3, 9))
    K = build_kernel(X, KernelSpec(kind=kind), center=True)
    assert len(calls) == 1
    H = np.eye(9) - np.full((9, 9), 1.0 / 9)
    raw = real_raw(X, X, KernelSpec(kind=kind))
    assert np.allclose(K, H @ raw @ H, atol=1e-12)


def test_center_kernel_matches_projection_form(rng):
    X = rng.standard_normal((3, 7))
    K = build_kernel(X, KernelSpec(kind="linear"))
    K_centered = build_kernel(X, KernelSpec(kind="linear"), center=True)
    H = np.eye(7) - np.full((7, 7), 1.0 / 7)
    assert np.allclose(K_centered, H @ K @ H, atol=1e-12)
