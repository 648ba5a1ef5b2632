import os

# BLAS reads these once, when NumPy is first imported. The suite solves many
# small eigenproblems, where BLAS threads cost far more than they save.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from kmsa import GraphRecipe, KernelSpec, KmsaConfig, MultiviewDataset, eigsolver  # noqa: E402


@pytest.fixture
def rng():
    return np.random.default_rng(42)


def random_dataset(rng, m=3, n=20, dims=None, classes=2):
    dims = dims or [3 + v for v in range(m)]
    views = [rng.standard_normal((dims[v], n)) for v in range(m)]
    labels = np.sort(rng.integers(0, classes, size=n))
    # keep every class populated
    labels[:classes] = np.arange(classes)
    return MultiviewDataset(views=views, labels=np.sort(labels))


def small_config(d=2, recipe="pca", **kw):
    return KmsaConfig(d=d, graph=GraphRecipe(kind=recipe), **kw)


@pytest.fixture(params=["newton", "dense"])
def secular_choice(request, monkeypatch):
    """Force eigsolver.secular_smallest's choice at every order: Newton on the
    secular equation, or the dense subset solve. The patch holds for the whole
    test, so hypothesis tests may take it (the health check for
    function-scoped fixtures does not apply)."""
    newton = request.param == "newton"
    monkeypatch.setattr(eigsolver, "NEWTON_MIN_N", 0 if newton else float("inf"))
    return request.param


@pytest.fixture
def toy_dataset(rng):
    return random_dataset(rng)


@pytest.fixture
def gaussian_spec():
    return KernelSpec(kind="gaussian", bandwidth=1.0)
