"""Core domain types and their rules.

Conventions: feature matrices are column-major in samples (a view is D_v x N,
one column per sample); labels are non-negative integer class ids, names that
need not be contiguous (the lda graph compacts them). A config or a dataset is
judged when it is built, and validate_config judges one against the other.
All types are frozen dataclasses and safe to share read-only across threads.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields, replace
from typing import Optional, Union

import numpy as np

from .errors import ConfigError

KERNEL_KINDS = ("gaussian", "linear", "polynomial")
GRAPH_KINDS = ("pca", "lpp", "lda", "spp")

MEDIAN = "median"  # sentinel: resolve the Gaussian bandwidth by the median heuristic


def _check(cond: bool, code: str, message: str) -> None:
    if not cond:
        raise ConfigError(code, message)


def _json_value(owner: str, name: str, annotation: str, value):
    """One JSON value converted to its field's annotated type.

    An int is accepted for a float and an integral float for an int; a
    float-or-string field takes either, and the spec judges the string.
    A bool is never a number here, although Python treats it as one.
    """
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if annotation == "int" and number and (isinstance(value, int) or value.is_integer()):
        return int(value)
    if annotation in ("float", "Union[float, str]") and number:
        return float(value)
    if annotation in ("str", "Union[float, str]") and isinstance(value, str):
        return value
    if annotation == "bool" and isinstance(value, bool):
        return value
    raise ConfigError("bad_type", f"{owner} field {name!r} has the wrong type: {value!r}")


def _from_dict(cls, raw):
    """Build a config dataclass from a JSON object; omitted keys take the
    defaults of the field declarations.

    A field whose default_factory is a spec class (kernel, graph) takes one
    object or a list (or to_dict's tuple) with one object per view.
    """
    owner = cls.__name__
    if not isinstance(raw, dict):
        raise ConfigError("bad_type", f"{owner} must be a JSON object, got {raw!r}")
    declared = {f.name: f for f in fields(cls)}
    unknown = sorted(set(raw) - set(declared))
    if unknown:
        raise ConfigError("unknown_key", f"unknown {owner} key(s): {', '.join(unknown)}")
    kwargs = {}
    for name, value in raw.items():
        spec = declared[name].default_factory
        if spec not in (KernelSpec, GraphRecipe):
            kwargs[name] = _json_value(owner, name, declared[name].type, value)
        elif isinstance(value, (list, tuple)):
            kwargs[name] = tuple(spec.from_dict(v) for v in value)
        else:
            kwargs[name] = spec.from_dict(value)
    return cls(**kwargs)


@dataclass(frozen=True)
class KernelSpec:
    """One view's kernel function.

    gaussian: k(x,y) = exp(-||x-y||^2 / (2 sigma^2)), sigma > 0 or "median"
    linear: k(x,y) = x.y
    polynomial: k(x,y) = (x.y + offset)^degree, degree >= 1, offset >= 0
    """

    kind: str = "gaussian"
    bandwidth: Union[float, str] = MEDIAN
    degree: int = 2
    offset: float = 1.0

    def __post_init__(self):
        _check(
            self.kind in KERNEL_KINDS, "unknown_kernel", f"unknown kernel {self.kind!r}"
        )
        if self.kind == "gaussian":
            if isinstance(self.bandwidth, str):
                _check(
                    self.bandwidth == MEDIAN,
                    "bad_bandwidth",
                    f"bandwidth must be positive or {MEDIAN!r}",
                )
            else:
                _check(
                    self.bandwidth > 0,
                    "bandwidth_not_positive",
                    "gaussian bandwidth must be > 0",
                )
        elif self.kind == "polynomial":
            _check(self.degree >= 1, "degree_too_small", "polynomial degree must be >= 1")
            _check(self.offset >= 0, "offset_negative", "polynomial offset must be >= 0")

    to_dict = asdict
    from_dict = classmethod(_from_dict)


@dataclass(frozen=True)
class GraphRecipe:
    """One view's graph construction.

    pca: dense similarity -1/N off the diagonal, constraint K
    lpp: heat-kernel weights on the symmetric kNN graph, constraint K B K
         with B the degree matrix; heat is the scale t or "median" for the
         squared median pairwise distance
    lda: +-1/n_class weights from labels, constraint K B K with B centering
    spp: sparse-coding similarity M + M^T + M^T M, constraint K; lasso codes
         are exact, lasso_max_iters caps each code's homotopy steps
    """

    kind: str = "pca"
    k: int = 5
    heat: Union[float, str] = MEDIAN
    lasso_lambda: float = 0.1
    lasso_max_iters: int = 500

    def __post_init__(self):
        _check(
            self.kind in GRAPH_KINDS, "unknown_graph", f"unknown graph {self.kind!r}"
        )
        if self.kind == "lpp":
            if isinstance(self.heat, str):
                _check(
                    self.heat == MEDIAN,
                    "bad_heat",
                    f"heat must be positive or {MEDIAN!r}",
                )
            else:
                _check(self.heat > 0, "heat_not_positive", "lpp heat must be > 0")
        elif self.kind == "spp":
            _check(
                self.lasso_lambda > 0,
                "lasso_lambda_not_positive",
                "spp lasso weight must be > 0",
            )
            _check(
                self.lasso_max_iters >= 1,
                "lasso_iters_not_positive",
                "spp lasso iteration cap must be >= 1",
            )

    to_dict = asdict
    from_dict = classmethod(_from_dict)


def _class_ids(labels) -> np.ndarray:
    """labels as ints when every entry is an integral number, else as given,
    for MultiviewDataset to reject: a cast would truncate 1.5 to 1."""
    raw = np.asarray(labels)
    # NaN, infinity and floats beyond int64 fail the bound
    integral = raw.dtype.kind in "biu" or (
        raw.dtype.kind == "f" and (np.abs(raw) < 2.0**63).all() and (raw == np.round(raw)).all()
    )
    return raw.astype(int) if integral else raw


@dataclass(frozen=True)
class MultiviewDataset:
    """m >= 1 feature views over the same N samples, optionally with one class
    id per sample; building a dataset that breaks a rule raises ConfigError.
    N may be 0 or 1: two samples are a rule of a fit (validate_config)."""

    views: tuple
    labels: Optional[np.ndarray] = None

    def __init__(self, views, labels=None):
        views = tuple(np.asarray(v, dtype=float) for v in views)
        labels = None if labels is None else _class_ids(labels)
        _check(len(views) >= 1, "empty_views", "dataset must contain at least one view")
        for v, X in enumerate(views):  # before n, which reads view 0's shape
            _check(X.ndim == 2, "bad_view_shape", f"view {v} is not a matrix")
        n = views[0].shape[1]
        for v, X in enumerate(views):
            _check(X.shape[0] >= 1, "empty_view", f"view {v} has no features")
            message = f"view {v} has {X.shape[1]} samples, view 0 has {n}"
            _check(X.shape[1] == n, "mismatched_samples", message)
        if labels is not None:
            _check(labels.ndim == 1, "labels_shape", "labels must be a vector of class ids")
            _check(len(labels) == n, "labels_length", f"got {len(labels)} labels for {n} samples")
            _check(
                labels.dtype.kind == "i",
                "labels_not_integer",
                f"class ids must be integers, got {labels.dtype} entries",
            )
            _check((labels >= 0).all(), "labels_negative", "class ids must be >= 0")
        object.__setattr__(self, "views", views)
        object.__setattr__(self, "labels", labels)

    @property
    def n_views(self) -> int:
        return len(self.views)

    @property
    def n_samples(self) -> int:
        return self.views[0].shape[1]

    def subset(self, idx) -> "MultiviewDataset":
        """Column subset (same m views restricted to the given samples)."""
        idx = np.asarray(idx, dtype=int)
        return MultiviewDataset(
            views=[v[:, idx] for v in self.views],
            labels=None if self.labels is None else self.labels[idx],
        )


@dataclass(frozen=True)
class KmsaConfig:
    """Hyperparameters for one fit.

    kernel and graph may be a single spec (applied to every view) or a
    sequence with one entry per view.
    """

    d: int
    r: float = 3.0
    kappa: float = 0.1
    eta: float = -1.0
    kernel: Union[KernelSpec, tuple] = field(default_factory=KernelSpec)
    graph: Union[GraphRecipe, tuple] = field(default_factory=GraphRecipe)
    max_iters: int = 30
    tol: float = 1e-6
    ridge: float = 1e-8
    center_kernel: bool = False

    def __post_init__(self):
        _check(self.d >= 1, "d_not_positive", "d must be a positive integer")
        _check(self.r > 1.0, "r_not_gt_1", "r must exceed 1")
        _check(self.eta < 0.0, "eta_not_negative", "eta must be negative")
        _check(self.kappa >= 0.0, "kappa_negative", "kappa must be >= 0")
        _check(self.max_iters >= 0, "max_iters_negative", "max_iters must be >= 0")
        _check(self.tol > 0.0, "tol_not_positive", "tol must be > 0")
        _check(self.ridge >= 0.0, "ridge_negative", "ridge must be >= 0")

    def kernels_for(self, m: int) -> tuple:
        """Per-view kernel specs, broadcasting a single spec to all m views."""
        if isinstance(self.kernel, KernelSpec):
            return (self.kernel,) * m
        return tuple(self.kernel)

    def graphs_for(self, m: int) -> tuple:
        if isinstance(self.graph, GraphRecipe):
            return (self.graph,) * m
        return tuple(self.graph)

    to_dict = asdict  # specs nest as dicts; a per-view tuple stays a tuple, a JSON list

    @classmethod
    def from_dict(cls, d: dict) -> "KmsaConfig":
        if isinstance(d, dict) and "d" not in d:
            raise ConfigError("missing_d", "config must specify the target dimension d")
        return _from_dict(cls, d)

    def with_graph_kind(self, kind: str) -> "KmsaConfig":
        """Replace every view's graph recipe kind, keeping other knobs."""
        if isinstance(self.graph, GraphRecipe):
            return replace(self, graph=replace(self.graph, kind=kind))
        return replace(self, graph=tuple(replace(g, kind=kind) for g in self.graph))


@dataclass(frozen=True)
class KmsaModel:
    """Everything a fit produces, and all that inference needs.

    coefficients are the per-view N x d matrices U_v; alpha lies strictly
    inside the simplex; objective_trace holds the recorded objective after
    initialization and after each sweep; embeddings are the d x N per-view
    representations U^T K, with K the raw training kernel centered by
    kernel_means under center_kernel; kernels are the per-view specs with
    bandwidths resolved to concrete values; log records clamp and
    non-monotonicity events; kernel_means, set exactly when the config
    centers, holds each view's training-kernel row means (length N), with
    which transform centers new kernel columns. Kernel, graph and constraint
    matrices are fit-time internals, recomputable from the training data and
    config.
    """

    coefficients: tuple
    alpha: np.ndarray
    objective_trace: tuple
    embeddings: tuple
    config: KmsaConfig
    kernels: tuple
    log: tuple = ()
    kernel_means: Optional[tuple] = None


def validate_config(cfg: KmsaConfig, data: MultiviewDataset) -> None:
    """Raise ConfigError unless data is what a fit of cfg needs: two samples,
    d <= N, a kernel and a graph per view, lpp's 1 <= k < N and lda's labels.
    Pure function: same inputs, same outcome."""
    m = data.n_views
    n = data.n_samples
    _check(n >= 2, "too_few_samples", f"need at least 2 samples, got {n}")
    _check(cfg.d <= n, "d_exceeds_n", f"d={cfg.d} exceeds sample count {n}")

    kernels = cfg.kernels_for(m)
    _check(
        len(kernels) == m,
        "kernel_count_mismatch",
        f"{len(kernels)} kernel specs for {m} views",
    )
    recipes = cfg.graphs_for(m)
    _check(
        len(recipes) == m,
        "graph_count_mismatch",
        f"{len(recipes)} graph recipes for {m} views",
    )
    for recipe in recipes:
        if recipe.kind == "lpp":
            _check(
                1 <= recipe.k < n,
                "k_out_of_range",
                f"lpp neighbor count must satisfy 1 <= k < N, got k={recipe.k}, N={n}",
            )
        elif recipe.kind == "lda":
            _check(
                data.labels is not None,
                "lda_requires_labels",
                "lda graph recipe requires labels (no labels.csv loaded with the dataset)",
            )
