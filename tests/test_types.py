import ast
import inspect
import json
import textwrap
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kmsa import (
    ConfigError,
    GraphRecipe,
    KernelSpec,
    KmsaConfig,
    MultiviewDataset,
    validate_config,
)
from kmsa.types import GRAPH_KINDS, KERNEL_KINDS, MEDIAN

from conftest import random_dataset


def valid_pair():
    rng = np.random.default_rng(0)
    data = random_dataset(rng, m=3, n=20)
    return KmsaConfig(d=5), data


def test_valid_config_passes():
    cfg, data = valid_pair()
    validate_config(cfg, data)  # must not raise


def test_r_at_boundary_rejected():
    # a config is judged when it is built, not when it is fitted
    with pytest.raises(ConfigError, match="r must exceed 1") as exc:
        KmsaConfig(d=2, r=1.0)
    assert exc.value.code == "r_not_gt_1"


def test_positive_eta_rejected():
    with pytest.raises(ConfigError, match="eta must be negative") as exc:
        replace(KmsaConfig(d=2), eta=1.0)
    assert exc.value.code == "eta_not_negative"


def test_validation_is_pure():
    cfg, data = valid_pair()
    first = validate_config(cfg, data)
    second = validate_config(cfg, data)
    assert first is None and second is None
    bad = KmsaConfig(d=21)  # one more than the samples
    for _ in range(2):
        with pytest.raises(ConfigError):
            validate_config(bad, data)


# config documents, as from_dict reads them, each breaking one rule. A rule of
# the config alone is enforced when the config or its spec is built; a row
# whose code is in DATASET_RULES builds, and validate_config judges it against
# a dataset of 20 samples
DATASET_RULES = {"d_exceeds_n", "k_out_of_range", "kernel_count_mismatch", "graph_count_mismatch"}

CONFIG_VIOLATIONS = [
    (dict(d=0), "d_not_positive"),
    (dict(d=21), "d_exceeds_n"),
    (dict(d=2, r=0.5), "r_not_gt_1"),
    (dict(d=2, eta=0.0), "eta_not_negative"),
    (dict(d=2, kappa=-0.1), "kappa_negative"),
    (dict(d=2, max_iters=-1), "max_iters_negative"),
    (dict(d=2, tol=0.0), "tol_not_positive"),
    (dict(d=2, ridge=-1e-9), "ridge_negative"),
    (dict(d=2, kernel=dict(kind="rbf")), "unknown_kernel"),
    (dict(d=2, kernel=dict(kind="gaussian", bandwidth=0.0)), "bandwidth_not_positive"),
    (dict(d=2, kernel=dict(kind="gaussian", bandwidth="auto")), "bad_bandwidth"),
    (dict(d=2, kernel=dict(kind="polynomial", degree=0)), "degree_too_small"),
    (dict(d=2, kernel=dict(kind="polynomial", offset=-1.0)), "offset_negative"),
    (dict(d=2, graph=dict(kind="isomap")), "unknown_graph"),
    (dict(d=2, graph=dict(kind="lpp", k=0)), "k_out_of_range"),
    (dict(d=2, graph=dict(kind="lpp", k=20)), "k_out_of_range"),
    (dict(d=2, graph=dict(kind="lpp", heat=0.0)), "heat_not_positive"),
    (dict(d=2, graph=dict(kind="lpp", heat="auto")), "bad_heat"),
    (dict(d=2, graph=dict(kind="spp", lasso_lambda=0.0)), "lasso_lambda_not_positive"),
    (dict(d=2, graph=dict(kind="spp", lasso_max_iters=0)), "lasso_iters_not_positive"),
    (dict(d=2, kernel=[{}, {}]), "kernel_count_mismatch"),
    (dict(d=2, graph=[{}, {}]), "graph_count_mismatch"),
]


def _built(doc: dict) -> KmsaConfig:
    """The config a one-spec-per-field document describes, built through the
    constructors rather than from_dict."""
    specs = {"kernel": KernelSpec, "graph": GraphRecipe}
    return KmsaConfig(**{k: specs[k](**v) if k in specs else v for k, v in doc.items()})


@pytest.mark.parametrize("cfg_kw, code", CONFIG_VIOLATIONS)
def test_each_config_violation_has_a_code(cfg_kw, code):
    if code in DATASET_RULES:
        _, data = valid_pair()
        with pytest.raises(ConfigError) as exc:
            validate_config(KmsaConfig.from_dict(cfg_kw), data)
        assert exc.value.code == code
        return
    # from_dict is how a config file and a model manifest are read
    for build in (_built, KmsaConfig.from_dict):
        with pytest.raises(ConfigError) as exc:
            build(cfg_kw)
        assert exc.value.code == code


def _views(*shapes):
    rng = np.random.default_rng(1)
    return [rng.standard_normal(shape) for shape in shapes]


# a rule of the dataset alone, which MultiviewDataset enforces when it is
# built; the rows with a cfg_kw dict are fit rules, which validate_config enforces
BUILD = object()

DATASET_VIOLATIONS = [
    (dict(views=[]), BUILD, "empty_views"),
    (dict(views=_views((3, 1))), dict(d=1), "too_few_samples"),  # one sample is a dataset
    (dict(views=[np.ones(5)]), BUILD, "bad_view_shape"),  # view 0 gives N
    (dict(views=_views((3, 5), (2, 5, 1))), BUILD, "bad_view_shape"),
    (dict(views=_views((3, 5), (0, 5))), BUILD, "empty_view"),
    (dict(views=_views((3, 5), (2, 4))), BUILD, "mismatched_samples"),
    (dict(views=_views((3, 5)), labels=[0, 1]), BUILD, "labels_length"),
    (dict(views=_views((3, 5)), labels=[[0], [1], [1], [0], [1]]), BUILD, "labels_shape"),
    (dict(views=_views((3, 5)), labels=[0, 1, -1, 0, 1]), BUILD, "labels_negative"),
    (dict(views=_views((3, 5))), dict(graph=GraphRecipe(kind="lda")), "lda_requires_labels"),
    (dict(views=_views((3, 5)), labels=[0.0, 1.5, 1.7, 0.0, 1.0]), BUILD, "labels_not_integer"),
    (dict(views=_views((3, 5)), labels=["a", "b", "a", "b", "a"]), BUILD, "labels_not_integer"),
    (dict(views=[*_views((3, 5)), np.full((2, 5), np.nan)]), BUILD, "view_not_finite"),
    (dict(views=[np.array([[0.0, np.inf, 1.0]])]), BUILD, "view_not_finite"),
]


@pytest.mark.parametrize("data_kw, cfg_kw, code", DATASET_VIOLATIONS)
def test_each_dataset_violation_has_a_code(data_kw, cfg_kw, code):
    if cfg_kw is BUILD:  # a malformed dataset cannot be built
        with pytest.raises(ConfigError) as exc:
            MultiviewDataset(**data_kw)
    else:
        data = MultiviewDataset(**data_kw)
        with pytest.raises(ConfigError) as exc:
            validate_config(KmsaConfig(**{"d": 2, **cfg_kw}), data)
    assert exc.value.code == code


def test_integral_labels_load_as_class_ids():
    # fractional ids are rejected, not truncated
    with pytest.raises(ConfigError) as exc:
        MultiviewDataset(_views((3, 2)), labels=[0.0, 1.5])
    assert exc.value.code == "labels_not_integer"
    for labels in ([0.0, 1.0], [0, 1], np.array([0, 1], dtype=np.uint8), [False, True]):
        ids = MultiviewDataset(_views((3, 2)), labels=labels).labels
        assert ids.dtype == int and ids.tolist() == [0, 1]
    validate_config(KmsaConfig(d=1), MultiviewDataset(_views((3, 2)), labels=[0.0, 1.0]))


def _codes(function) -> set:
    """The ConfigError codes that function raises by name, through _check or
    directly."""
    raised = set()
    for call in ast.walk(ast.parse(textwrap.dedent(inspect.getsource(function)))):
        if isinstance(call, ast.Call) and isinstance(call.func, ast.Name):
            position = {"_check": 1, "ConfigError": 0}.get(call.func.id)
            if position is not None:
                assert isinstance(call.args[position], ast.Constant)
                raised.add(call.args[position].value)
    return raised


def test_every_rule_has_a_case():
    # each code has one judge: the class whose value it rules on, when that
    # value is built, or validate_config for what a fit asks of a dataset.
    # The two tables above are the only tests of the rules the graph builders
    # trust, so each code has a row
    config_rules = [
        _codes(KmsaConfig.__post_init__),
        _codes(KernelSpec.__post_init__),
        _codes(GraphRecipe.__post_init__),
    ]
    dataset_rules = _codes(MultiviewDataset.__init__)
    fit_rules = _codes(validate_config)
    judges = [*config_rules, dataset_rules, fit_rules]
    assert sum(map(len, judges)) == len(set().union(*judges))  # no code has two judges
    built = {code for cfg_kw, code in CONFIG_VIOLATIONS if code not in DATASET_RULES}
    assert built == set().union(*config_rules)
    assert {code for _, cfg_kw, code in DATASET_VIOLATIONS if cfg_kw is BUILD} == dataset_rules
    assert DATASET_RULES | {
        code for _, cfg_kw, code in DATASET_VIOLATIONS if cfg_kw is not BUILD
    } == fit_rules


def test_config_dict_round_trip():
    cfg = KmsaConfig(
        d=4,
        r=2.5,
        kappa=0.2,
        eta=-2.0,
        kernel=(KernelSpec(kind="linear"), KernelSpec(bandwidth=1.5)),
        graph=GraphRecipe(kind="lpp", k=3, heat=2.0),
        max_iters=10,
        tol=1e-5,
        ridge=1e-4,
        center_kernel=True,
    )
    again = KmsaConfig.from_dict(cfg.to_dict())
    assert again == cfg


def test_config_defaults_follow_reported_settings():
    cfg = KmsaConfig.from_dict({"d": 3})
    assert cfg.kappa == 0.1 and cfg.eta == -1.0 and cfg.r == 3.0


def test_per_view_broadcast():
    cfg = KmsaConfig(d=2)
    assert cfg.kernels_for(3) == (KernelSpec(),) * 3
    assert cfg.graphs_for(2) == (GraphRecipe(),) * 2


def test_dataset_subset_keeps_alignment(rng):
    data = random_dataset(rng, m=2, n=10)
    sub = data.subset([1, 3, 5])
    assert sub.n_samples == 3
    assert np.array_equal(sub.views[0], data.views[0][:, [1, 3, 5]])
    assert np.array_equal(sub.labels, data.labels[[1, 3, 5]])


# every value these draw can be built: each draws inside the rules of its field
non_negative = st.floats(0.0, 1e6)
positive = st.floats(0.0, 1e6, exclude_min=True)
positive_or_median = st.one_of(positive, st.just(MEDIAN))
kernel_specs = st.builds(
    KernelSpec,
    kind=st.sampled_from(KERNEL_KINDS),
    bandwidth=positive_or_median,
    degree=st.integers(1, 6),
    offset=non_negative,
)
graph_recipes = st.builds(
    GraphRecipe,
    kind=st.sampled_from(GRAPH_KINDS),
    k=st.integers(-2, 50),  # judged against a dataset's N, not when built
    heat=positive_or_median,
    lasso_lambda=positive,
    lasso_max_iters=st.integers(1, 1000),
)


def one_or_per_view(specs):
    return st.one_of(specs, st.lists(specs, min_size=1, max_size=4).map(tuple))


configs = st.builds(
    KmsaConfig,
    d=st.integers(1, 500),
    r=st.floats(1.0, 1e6, exclude_min=True),
    kappa=non_negative,
    eta=st.floats(-1e6, -5e-324),  # not -0.0, which is not < 0
    kernel=one_or_per_view(kernel_specs),
    graph=one_or_per_view(graph_recipes),
    max_iters=st.integers(0, 100),
    tol=positive,
    ridge=non_negative,
    center_kernel=st.booleans(),
)


@settings(max_examples=200, deadline=None)
@given(configs)
def test_config_json_round_trip(cfg):
    again = KmsaConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
    assert again == cfg


def test_to_dict_writes_every_field():
    cfg = KmsaConfig(d=2, kernel=KernelSpec(kind="linear"), graph=GraphRecipe(kind="pca"))
    doc = cfg.to_dict()
    assert set(doc) == set(KmsaConfig.__dataclass_fields__)
    assert doc["kernel"] == {"kind": "linear", "bandwidth": MEDIAN, "degree": 2, "offset": 1.0}
    assert doc["graph"] == {
        "kind": "pca", "k": 5, "heat": MEDIAN, "lasso_lambda": 0.1, "lasso_max_iters": 500,
    }


@pytest.mark.parametrize(
    "doc, code",
    [
        ({"d": 3, "kapa": 0.5}, "unknown_key"),
        ({"d": 3, "kernel": {"kind": "gaussian", "sigma": 1.0}}, "unknown_key"),
        ({"d": 3, "graph": [{"kind": "lpp"}, {"kind": "pca", "neighbours": 3}]}, "unknown_key"),
        ({"d": 3, "center_kernel": "false"}, "bad_type"),
        ({"d": 3, "center_kernel": 0}, "bad_type"),
        ({"d": 3.9}, "bad_type"),
        ({"d": True}, "bad_type"),
        ({"d": "3"}, "bad_type"),
        ({"d": 3, "max_iters": True}, "bad_type"),
        ({"d": 3, "max_iters": 1.5}, "bad_type"),
        ({"d": 3, "kappa": "0.5"}, "bad_type"),
        ({"d": 3, "r": False}, "bad_type"),
        ({"d": 3, "ridge": None}, "bad_type"),
        ({"d": 3, "graph": {"kind": "lpp", "k": "5"}}, "bad_type"),
        ({"d": 3, "graph": {"kind": "lpp", "heat": True}}, "bad_type"),
        ({"d": 3, "graph": [{"kind": "spp", "lasso_max_iters": 2.5}]}, "bad_type"),
        ({"d": 3, "kernel": {"kind": 1}}, "bad_type"),
        ({"d": 3, "kernel": {"bandwidth": [1.0]}}, "bad_type"),
        ({"d": 3, "kernel": "gaussian"}, "bad_type"),
        ({"d": 3, "graph": [{"kind": "pca"}, 5]}, "bad_type"),
        ({"r": 2.0}, "missing_d"),
        (None, "bad_type"),
        ([{"d": 3}], "bad_type"),
        ({"d": 3, "seed": 0}, "unknown_key"),  # a field up to model format 2
        # a number its field cannot hold: an int beyond the doubles or int64
        ({"d": 3, "kappa": 10**400}, "bad_type"),
        ({"d": 3, "kernel": {"bandwidth": -(10**400)}}, "bad_type"),
        ({"d": 2**63}, "bad_type"),
        ({"d": 3, "max_iters": 1e300}, "bad_type"),
        ({"d": 3, "graph": [{"kind": "spp", "lasso_max_iters": 10**23}]}, "bad_type"),
    ],
)
def test_from_dict_rejects_bad_documents(doc, code):
    with pytest.raises(ConfigError) as exc:
        KmsaConfig.from_dict(doc)
    assert exc.value.code == code


def test_from_dict_converts_numbers_to_field_types():
    cfg = KmsaConfig.from_dict(
        {"d": 3.0, "r": 2, "kernel": {"bandwidth": 2}, "graph": {"kind": "lpp", "heat": MEDIAN}}
    )
    assert cfg.d == 3 and isinstance(cfg.d, int)
    assert cfg.r == 2.0 and isinstance(cfg.r, float)
    assert cfg.kernel.bandwidth == 2.0 and isinstance(cfg.kernel.bandwidth, float)
    assert cfg.graph.heat == MEDIAN  # a string is left for GraphRecipe to judge
    with pytest.raises(ConfigError) as exc:
        KmsaConfig.from_dict({"d": 3, "graph": {"kind": "lpp", "heat": "auto"}})
    assert exc.value.code == "bad_heat"


def test_earlier_manifest_dicts_still_load():
    # config and kernels as model format 2 wrote them when to_dict kept only
    # each kind's own fields, less the seed field that format 3 dropped
    config = {
        "center_kernel": False, "d": 2, "eta": -5.0,
        "graph": [
            {"heat": 2.0, "k": 3, "kind": "lpp"},
            {"kind": "spp", "lasso_lambda": 0.05, "lasso_max_iters": 100},
        ],
        "kappa": 0.5,
        "kernel": [
            {"bandwidth": "median", "kind": "gaussian"},
            {"degree": 3, "kind": "polynomial", "offset": 0.5},
        ],
        "max_iters": 2, "r": 3.0, "ridge": 0.1, "tol": 1e-06,
    }
    kernels = [
        {"bandwidth": 5.129776716251439, "kind": "gaussian"},
        {"degree": 3, "kind": "polynomial", "offset": 0.5},
    ]
    assert KmsaConfig.from_dict(config) == KmsaConfig(
        d=2, kappa=0.5, eta=-5.0, ridge=0.1, max_iters=2,
        kernel=(KernelSpec(), KernelSpec(kind="polynomial", degree=3, offset=0.5)),
        graph=(
            GraphRecipe(kind="lpp", k=3, heat=2.0),
            GraphRecipe(kind="spp", lasso_lambda=0.05, lasso_max_iters=100),
        ),
    )
    assert [KernelSpec.from_dict(k) for k in kernels] == [
        KernelSpec(bandwidth=5.129776716251439),
        KernelSpec(kind="polynomial", degree=3, offset=0.5),
    ]
    single = {
        "d": 4, "r": 3.0, "kappa": 0.1, "eta": -1.0, "kernel": {"kind": "linear"},
        "graph": {"kind": "lda"}, "max_iters": 30, "tol": 1e-06, "ridge": 1e-08,
        "center_kernel": True,
    }
    assert KmsaConfig.from_dict(single) == KmsaConfig(
        d=4, kernel=KernelSpec(kind="linear"), graph=GraphRecipe(kind="lda"), center_kernel=True
    )
