"""Core domain types and configuration validation.

Conventions: feature matrices are column-major in samples (a view is D_v x N,
one column per sample); labels are non-negative integer class ids, names that
need not be contiguous (the lda graph compacts them).
All types are frozen dataclasses and safe to share read-only across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Optional, Union

import numpy as np

from .errors import ConfigError

KERNEL_KINDS = ("gaussian", "linear", "polynomial")
GRAPH_KINDS = ("pca", "lpp", "lda", "spp")

MEDIAN = "median"  # sentinel: resolve the Gaussian bandwidth by the median heuristic


def _to_dict(spec) -> dict:
    """Every field of a config dataclass as a JSON value; nested specs nest."""
    out = {}
    for f in fields(spec):
        value = getattr(spec, f.name)
        if isinstance(value, (KernelSpec, GraphRecipe)):
            value = value.to_dict()
        elif isinstance(value, (list, tuple)):
            value = [v.to_dict() for v in value]
        out[f.name] = value
    return out


def _json_value(owner: str, name: str, annotation: str, value):
    """One JSON value converted to its field's annotated type.

    An int is accepted for a float and an integral float for an int; a
    float-or-string field takes either, and validate_config judges the string.
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
    object or a list with one object per view.
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
        elif isinstance(value, list):
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

    to_dict = _to_dict
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

    to_dict = _to_dict
    from_dict = classmethod(_from_dict)


@dataclass(frozen=True)
class MultiviewDataset:
    """m feature views over the same N samples, optionally labeled."""

    views: tuple
    labels: Optional[np.ndarray] = None

    def __init__(self, views, labels=None):
        object.__setattr__(
            self, "views", tuple(np.asarray(v, dtype=float) for v in views)
        )
        object.__setattr__(
            self,
            "labels",
            None if labels is None else np.asarray(labels, dtype=int),
        )

    @property
    def n_views(self) -> int:
        return len(self.views)

    @property
    def n_samples(self) -> int:
        return self.views[0].shape[1] if self.views else 0

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
    seed: int = 0

    def kernels_for(self, m: int) -> tuple:
        """Per-view kernel specs, broadcasting a single spec to all m views."""
        if isinstance(self.kernel, KernelSpec):
            return (self.kernel,) * m
        return tuple(self.kernel)

    def graphs_for(self, m: int) -> tuple:
        if isinstance(self.graph, GraphRecipe):
            return (self.graph,) * m
        return tuple(self.graph)

    to_dict = _to_dict

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
    """Everything a fit produces.

    coefficients are the per-view N x d matrices U_v; alpha lies strictly
    inside the simplex; objective_trace holds the recorded objective after
    initialization and after each sweep; embeddings are the d x N per-view
    representations U^T K; kernels are the per-view specs with bandwidths
    resolved to concrete values; log records clamp and non-monotonicity
    events. Kernel, graph and constraint matrices are fit-time internals,
    recomputable from the training data and config.
    """

    coefficients: tuple
    alpha: np.ndarray
    objective_trace: tuple
    embeddings: tuple
    config: KmsaConfig
    kernels: tuple
    log: tuple = ()


def _check(cond: bool, code: str, message: str) -> None:
    if not cond:
        raise ConfigError(code, message)


def validate_config(cfg: KmsaConfig, data: MultiviewDataset) -> None:
    """Raise ConfigError unless cfg and data jointly satisfy every invariant.

    Pure function: same inputs always produce the same outcome.
    """
    m = data.n_views
    _check(m >= 1, "empty_views", "dataset must contain at least one view")
    for v, X in enumerate(data.views):  # before n, which reads view 0's shape
        _check(X.ndim == 2, "bad_view_shape", f"view {v} is not a matrix")
    n = data.n_samples
    _check(n >= 2, "too_few_samples", f"need at least 2 samples, got {n}")
    for v, X in enumerate(data.views):
        _check(X.shape[0] >= 1, "empty_view", f"view {v} has no features")
        _check(
            X.shape[1] == n,
            "mismatched_samples",
            f"view {v} has {X.shape[1]} samples, view 0 has {n}",
        )
    if data.labels is not None:
        _check(data.labels.ndim == 1, "labels_shape", "labels must be a vector of class ids")
        _check(
            len(data.labels) == n,
            "labels_length",
            f"got {len(data.labels)} labels for {n} samples",
        )
        _check((data.labels >= 0).all(), "labels_negative", "class ids must be >= 0")

    _check(cfg.d >= 1, "d_not_positive", "d must be a positive integer")
    _check(cfg.d <= n, "d_exceeds_n", f"d={cfg.d} exceeds sample count {n}")
    _check(cfg.r > 1.0, "r_not_gt_1", "r must exceed 1")
    _check(cfg.eta < 0.0, "eta_not_negative", "eta must be negative")
    _check(cfg.kappa >= 0.0, "kappa_negative", "kappa must be >= 0")
    _check(cfg.max_iters >= 0, "max_iters_negative", "max_iters must be >= 0")
    _check(cfg.tol > 0.0, "tol_not_positive", "tol must be > 0")
    _check(cfg.ridge >= 0.0, "ridge_negative", "ridge must be >= 0")

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
    for spec in kernels:
        _check(
            spec.kind in KERNEL_KINDS, "unknown_kernel", f"unknown kernel {spec.kind!r}"
        )
        if spec.kind == "gaussian":
            if isinstance(spec.bandwidth, str):
                _check(
                    spec.bandwidth == MEDIAN,
                    "bad_bandwidth",
                    f"bandwidth must be positive or {MEDIAN!r}",
                )
            else:
                _check(
                    spec.bandwidth > 0,
                    "bandwidth_not_positive",
                    "gaussian bandwidth must be > 0",
                )
        elif spec.kind == "polynomial":
            _check(spec.degree >= 1, "degree_too_small", "polynomial degree must be >= 1")
            _check(spec.offset >= 0, "offset_negative", "polynomial offset must be >= 0")

    for recipe in recipes:
        _check(
            recipe.kind in GRAPH_KINDS, "unknown_graph", f"unknown graph {recipe.kind!r}"
        )
        if recipe.kind == "lpp":
            _check(
                1 <= recipe.k < n,
                "k_out_of_range",
                f"lpp neighbor count must satisfy 1 <= k < N, got k={recipe.k}, N={n}",
            )
            if isinstance(recipe.heat, str):
                _check(
                    recipe.heat == MEDIAN,
                    "bad_heat",
                    f"heat must be positive or {MEDIAN!r}",
                )
            else:
                _check(recipe.heat > 0, "heat_not_positive", "lpp heat must be > 0")
        elif recipe.kind == "lda":
            _check(
                data.labels is not None,
                "lda_requires_labels",
                "lda graph recipe requires labels (no labels.csv loaded with the dataset)",
            )
        elif recipe.kind == "spp":
            _check(
                recipe.lasso_lambda > 0,
                "lasso_lambda_not_positive",
                "spp lasso weight must be > 0",
            )
            _check(
                recipe.lasso_max_iters >= 1,
                "lasso_iters_not_positive",
                "spp lasso iteration cap must be >= 1",
            )
