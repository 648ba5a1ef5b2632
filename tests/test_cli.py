import importlib
import itertools
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kmsa
from kmsa import ConfigError, KmsaConfig, generate_synthetic
from kmsa.cli import build_parser, cmd_eval, evaluate_repeat, main
from kmsa.data_io import (
    load_dataset,
    load_model,
    load_training_data,
    read_json_object,
    read_matrix_csv,
    write_matrix_csv,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_config(tmp_path, name="config.json", **kw):
    cfg = {"d": 2, "ridge": 1e-2, "max_iters": 8}
    cfg.update(kw)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def with_kernel(**fields):
    """A manifest edit that sets fields of view 1's kernel, all other
    kernels kept."""
    return lambda doc: {**doc, "kernels": [{**doc["kernels"][0], **fields}, *doc["kernels"][1:]]}


@pytest.fixture
def synth_dir(tmp_path, capsys):
    out = tmp_path / "data"
    code, _, _ = run(
        capsys, "synth", "--out", str(out),
        "--classes", "3", "--per-class", "8", "--informative-views", "2",
        "--noise-views", "1", "--seed", "0",
    )
    assert code == 0
    return out


@pytest.fixture(scope="module")
def fitted_model(tmp_path_factory):
    """A dataset and the model directory `kmsa fit` writes for it, shared by
    tests that copy the model before editing it."""
    root = tmp_path_factory.mktemp("fitted")
    assert main(["synth", "--out", str(root / "data"), "--per-class", "8",
                 "--informative-views", "2", "--noise-views", "1"]) == 0
    cfg = write_config(root)
    assert main(["fit", "--data", str(root / "data"), "--out", str(root / "run"),
                 "--config", str(cfg)]) == 0
    return root


class TestSynth:
    def test_writes_loadable_dataset(self, synth_dir):
        data = load_dataset(synth_dir)
        assert data.n_views == 3
        assert data.n_samples == 24
        assert data.labels is not None

    def test_summary_line(self, tmp_path, capsys):
        out = tmp_path / "d2"
        code, stdout, _ = run(capsys, "synth", "--out", str(out), "--per-class", "4")
        assert code == 0
        assert "status=ok" in stdout and "command=synth" in stdout
        assert stdout.count("\n") == 1

    def test_bad_generator_flags_exit_one(self, tmp_path, capsys):
        code, _, err = run(capsys, "synth", "--out", str(tmp_path / "x"),
                           "--classes", "0")
        assert code == 1

    def test_non_finite_noise_scale_exits_one(self, tmp_path, capsys):
        # the dataset refuses non-finite features when it is built, so no
        # file is written
        out = tmp_path / "x"
        code, _, err = run(capsys, "synth", "--out", str(out), "--noise-scale", "nan")
        assert code == 1 and "non-finite" in err
        assert not out.exists()

    def test_same_seed_same_bytes(self, tmp_path, capsys):
        blobs = []
        for name in ("s1", "s2"):
            out = tmp_path / name
            assert run(capsys, "synth", "--out", str(out), "--seed", "6")[0] == 0
            blobs.append((out / "view_1.csv").read_bytes())
        assert blobs[0] == blobs[1]


class TestFit:
    def test_outputs_and_monotone_trace(self, synth_dir, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "run"
        code, stdout, _ = run(
            capsys, "fit", "--data", str(synth_dir), "--out", str(out),
            "--config", str(cfg),
        )
        assert code == 0
        assert "status=ok" in stdout
        # kmsa fit writes its model, which holds every output, and nothing else
        assert [p.name for p in out.iterdir()] == ["model"]
        model = load_model(out / "model")
        trace = np.array(model.objective_trace)
        diffs = np.diff(trace)
        slack = 1e-8 * (1.0 + np.abs(trace[:-1]))
        assert (diffs <= slack).all()
        assert model.alpha.sum() == pytest.approx(1.0)
        emb = read_matrix_csv(out / "model" / "embeddings_1.csv")
        assert emb.shape == (24, 2)

    def test_missing_data_flag_is_usage_error(self, tmp_path, capsys):
        code, _, err = run(capsys, "fit", "--out", str(tmp_path / "x"),
                           "--config", str(write_config(tmp_path)))
        assert code == 1
        assert "usage" in err.lower()

    def test_lda_without_labels_exits_one(self, tmp_path, capsys):
        bare = tmp_path / "nolabels"
        bare.mkdir()
        (bare / "view_1.csv").write_text("1,2\n2,1\n4,5\n5,4\n")
        cfg = write_config(tmp_path)
        code, _, err = run(
            capsys, "fit", "--data", str(bare), "--out", str(tmp_path / "o"),
            "--config", str(cfg), "--recipe", "lda",
        )
        assert code == 1
        assert "labels.csv" in err

    def test_missing_dataset_dir_exits_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        code, _, err = run(
            capsys, "fit", "--data", str(tmp_path / "ghost"),
            "--out", str(tmp_path / "o"), "--config", str(cfg),
        )
        assert code == 2

    def test_bad_config_json_exits_two(self, synth_dir, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, _ = run(
            capsys, "fit", "--data", str(synth_dir),
            "--out", str(tmp_path / "o"), "--config", str(bad),
        )
        assert code == 2

    @pytest.mark.parametrize("text", [
        '{"d": 2, "kappa": Infinity}',
        '{"d": 2, "ridge": NaN}',
        '{"d": 2, "eta": -Infinity}',
        '{"d": 2, "graph": {"kind": "spp", "lasso_lambda": Infinity}}',
        '{"d": 2, "kappa": 1e400}',
    ], ids=["kappa-infinity", "ridge-nan", "eta-minus-infinity", "lasso-infinity",
            "kappa-overflow"])
    def test_non_finite_config_number_exits_two(self, synth_dir, tmp_path, capsys, text):
        cfg = tmp_path / "config.json"
        cfg.write_text(text)
        code, _, err = run(
            capsys, "fit", "--data", str(synth_dir),
            "--out", str(tmp_path / "o"), "--config", str(cfg),
        )
        assert code == 2
        assert err.startswith(f"error: {cfg}: invalid JSON: ") and "not a finite number" in err

    def test_byte_order_marks_are_read_past(self, synth_dir, tmp_path, capsys):
        # a BOM before the config's object, and before a view's first row
        cfg = tmp_path / "config.json"
        cfg.write_bytes(b'\xef\xbb\xbf{"d": 2, "ridge": 0.01, "max_iters": 2}')
        view = synth_dir / "view_1.csv"
        view.write_bytes(b"\xef\xbb\xbf" + view.read_bytes())
        code, out, _ = run(
            capsys, "fit", "--data", str(synth_dir),
            "--out", str(tmp_path / "o"), "--config", str(cfg),
        )
        assert code == 0 and "samples=24" in out

    @pytest.mark.parametrize("name", ["config.json", "view_1.csv"])
    def test_non_utf8_file_exits_two(self, synth_dir, tmp_path, capsys, name):
        cfg = write_config(tmp_path)
        bad = cfg if name == "config.json" else synth_dir / name
        bad.write_bytes(bad.read_bytes() + b"\xff")
        code, _, err = run(
            capsys, "fit", "--data", str(synth_dir),
            "--out", str(tmp_path / "o"), "--config", str(cfg),
        )
        assert code == 2
        assert err.startswith(f"error: {bad}: not UTF-8 text: ")

    def test_unknown_config_key_exits_one(self, synth_dir, tmp_path, capsys):
        cfg = write_config(tmp_path, kapa=0.5)
        code, _, err = run(
            capsys, "fit", "--data", str(synth_dir),
            "--out", str(tmp_path / "o"), "--config", str(cfg),
        )
        assert code == 1
        assert "kapa" in err

    def test_config_directory_exits_two(self, synth_dir, tmp_path, capsys):
        code, _, err = run(
            capsys, "fit", "--data", str(synth_dir),
            "--out", str(tmp_path / "o"), "--config", str(tmp_path),
        )
        assert code == 2
        assert err.startswith("error: cannot read ")

    @pytest.mark.parametrize(
        "files, message",
        [
            ({"view_2.csv": "1\n2\n3\n"},
             "view 1 has 3 samples, view 0 has 4 (from view_1.csv, view_2.csv)"),
            ({"labels.csv": "0\n1\n"}, "got 2 labels for 4 samples (from labels.csv)"),
            ({"labels.csv": "0\n1.5\n0\n1\n"},
             "class ids must be integers, got float64 entries (from labels.csv)"),
            ({"labels.csv": "0\n-1\n0\n1\n"}, "class ids must be >= 0 (from labels.csv)"),
            ({"labels.csv": "0,1\n1,0\n"},
             "labels must be a vector of class ids (from labels.csv)"),
            ({"labels.csv": "0,1,1,0\n"},
             "labels must be a vector of class ids (from labels.csv)"),
        ],
        ids=["sample-counts", "labels-count", "fractional-id", "negative-id",
             "ids-in-columns", "ids-in-one-row"],
    )
    def test_each_dataset_file_fault_exits_two(self, tmp_path, capsys, files, message):
        # MultiviewDataset judges a dataset once; a file that breaks one of its
        # rules is a file-format failure that names the directory and the file
        bad = tmp_path / "bad"
        bad.mkdir()
        for name, text in {"view_1.csv": "1\n2\n3\n4\n", **files}.items():
            (bad / name).write_text(text)
        code, _, err = run(
            capsys, "fit", "--data", str(bad), "--out", str(tmp_path / "o"),
            "--config", str(write_config(tmp_path, d=1)),
        )
        assert code == 2
        assert err == f"error: {bad}: {message}\n"

    def test_underflowing_median_heat_exits_one(self, tmp_path, capsys):
        # the lpp median heat of these four points squares to 0
        tiny = tmp_path / "tiny"
        tiny.mkdir()
        (tiny / "view_1.csv").write_text("0\n0\n0\n2.3e-162\n")
        cfg = write_config(tmp_path, d=1, graph={"kind": "lpp", "k": 2})
        code, _, err = run(
            capsys, "fit", "--data", str(tiny), "--out", str(tmp_path / "o"),
            "--config", str(cfg),
        )
        assert code == 1
        assert "underflows to 0" in err

    @pytest.mark.parametrize(
        "graph, message",
        [
            ({"kind": "lpp", "k": 24}, "1 <= k < N"),
            ({"kind": "lpp", "heat": 0}, "heat must be > 0"),
            ({"kind": "spp", "lasso_lambda": 0}, "lasso weight must be > 0"),
            ({"kind": "spp", "lasso_max_iters": 0}, "iteration cap must be >= 1"),
            ({"kind": "isomap"}, "unknown graph 'isomap'"),
        ],
        ids=["lpp-k-n", "lpp-heat-0", "spp-lambda-0", "spp-iters-0", "isomap"],
    )
    def test_each_graph_rule_exits_one(self, synth_dir, tmp_path, capsys, graph, message):
        # the graph builders trust validate_config: a config that breaks one
        # of its graph rules stops the fit before any graph is built
        cfg = write_config(tmp_path, graph=graph)
        code, _, err = run(
            capsys, "fit", "--data", str(synth_dir),
            "--out", str(tmp_path / "o"), "--config", str(cfg),
        )
        assert code == 1
        assert err.startswith("error: ") and message in err

    def test_numeric_failure_exits_three(self, tmp_path, capsys):
        huge = tmp_path / "huge"
        huge.mkdir()
        (huge / "view_1.csv").write_text("1e200,1e200\n-1e200,1e200\n1e199,-1e200\n")
        cfg = write_config(
            tmp_path, kernel={"kind": "polynomial", "degree": 3, "offset": 0.0}
        )
        code, _, err = run(
            capsys, "fit", "--data", str(huge), "--out", str(tmp_path / "o"),
            "--config", str(cfg),
        )
        assert code == 3

    def test_recipe_flag_overrides_all_views(self, synth_dir, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "lpp_run"
        code, _, _ = run(
            capsys, "fit", "--data", str(synth_dir), "--out", str(out),
            "--config", str(cfg), "--recipe", "lpp",
        )
        assert code == 0
        manifest = json.loads((out / "model" / "manifest.json").read_text())
        assert manifest["config"]["graph"]["kind"] == "lpp"

    def test_recipe_flag_overrides_per_view_graphs(self, synth_dir, tmp_path, capsys):
        graphs = [{"kind": "pca"}, {"kind": "spp", "lasso_lambda": 0.05}, {"kind": "lda"}]
        cfg = write_config(tmp_path, graph=graphs, max_iters=0)
        out = tmp_path / "lpp_run"
        code, _, _ = run(
            capsys, "fit", "--data", str(synth_dir), "--out", str(out),
            "--config", str(cfg), "--recipe", "lpp",
        )
        assert code == 0
        manifest = json.loads((out / "model" / "manifest.json").read_text())
        written = manifest["config"]["graph"]
        assert [g["kind"] for g in written] == ["lpp"] * 3
        assert [g["lasso_lambda"] for g in written] == [0.1, 0.05, 0.1]


class TestTransform:
    def test_training_data_reproduces_fit_embeddings(self, tmp_path, capsys):
        # at N=12 numpy's product of a view with itself rounds apart from its
        # product with a copy; at N=24 the two agree
        for per_class, center in itertools.product((4, 8), (False, True)):
            data = tmp_path / f"data-{per_class}"
            assert run(capsys, "synth", "--out", str(data), "--per-class", str(per_class),
                       "--informative-views", "2", "--noise-views", "1")[0] == 0
            cfg = write_config(tmp_path, center_kernel=center)
            out = tmp_path / f"run-{per_class}-{center}"
            tr_out = tmp_path / f"tr-{per_class}-{center}"
            assert run(capsys, "fit", "--data", str(data), "--out", str(out),
                       "--config", str(cfg))[0] == 0
            code, _, _ = run(
                capsys, "transform", "--model", str(out / "model"),
                "--data", str(data), "--out", str(tr_out),
            )
            assert code == 0
            for v in (1, 2, 3):
                a = (out / "model" / f"embeddings_{v}.csv").read_bytes()
                b = (tr_out / f"embeddings_{v}.csv").read_bytes()
                assert a == b
                read_matrix_csv(tr_out / f"embeddings_{v}.csv")  # loader round-trip

    @pytest.mark.parametrize("per_class", [4, 8])
    def test_out_at_its_own_model_exits_one(self, synth_dir, tmp_path, capsys, per_class):
        # transform writes embeddings_<v>.csv, the name of the model's training
        # embeddings: 12 new points against 24 training points would leave a
        # model that no longer loads, and 24 one whose embeddings are wrong
        cfg = write_config(tmp_path)
        model = tmp_path / "run" / "model"
        assert run(capsys, "fit", "--data", str(synth_dir), "--out", str(model.parent),
                   "--config", str(cfg))[0] == 0
        new = tmp_path / "new"
        assert run(capsys, "synth", "--out", str(new), "--per-class", str(per_class),
                   "--informative-views", "2", "--noise-views", "1", "--seed", "5")[0] == 0
        before = {p: p.read_bytes() for p in model.rglob("*") if p.is_file()}
        code, stdout, err = run(
            capsys, "transform", "--model", str(model), "--data", str(new),
            "--out", str(model / ".." / "model"),
        )
        assert code == 1 and stdout == ""
        assert "--out must not be part of a model directory" in err
        assert {p: p.read_bytes() for p in model.rglob("*") if p.is_file()} == before

    def test_dimension_mismatch_exits_one(self, synth_dir, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "run"
        assert run(capsys, "fit", "--data", str(synth_dir), "--out", str(out),
                   "--config", str(cfg))[0] == 0
        wrong = tmp_path / "wrong"
        wrong.mkdir()
        (wrong / "view_1.csv").write_text("1,2,3\n4,5,6\n")
        code, _, _ = run(
            capsys, "transform", "--model", str(out / "model"),
            "--data", str(wrong), "--out", str(tmp_path / "t2"),
        )
        assert code == 1

    def test_tampered_version_exits_two(self, synth_dir, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "run"
        assert run(capsys, "fit", "--data", str(synth_dir), "--out", str(out),
                   "--config", str(cfg))[0] == 0
        manifest_path = out / "model" / "manifest.json"
        doc = json.loads(manifest_path.read_text())
        # format 2 stored no kernel means, and format 3 a d x N embedding
        # file and n_views; neither is read any more
        for version in (2, 3, 42):
            doc["format_version"] = version
            manifest_path.write_text(json.dumps(doc))
            code, _, err = run(
                capsys, "transform", "--model", str(out / "model"),
                "--data", str(synth_dir), "--out", str(tmp_path / "t3"),
            )
            assert code == 2 and f"format version {version}" in err

    @pytest.mark.parametrize("edit", [
        pytest.param(lambda doc: {k: v for k, v in doc.items() if k != "alpha"}, id="no-alpha"),
        pytest.param(lambda doc: {k: v for k, v in doc.items() if k != "kernels"},
                     id="no-kernels"),
        pytest.param(lambda doc: [doc], id="top-level-list"),
        pytest.param(lambda doc: {**doc, "alpha": ["x"] + doc["alpha"][1:]}, id="alpha-entry"),
        pytest.param(lambda doc: {**doc, "alpha": "1234"}, id="alpha-string"),
        pytest.param(lambda doc: {**doc, "alpha": [True] + doc["alpha"][1:]}, id="alpha-bool"),
        pytest.param(
            lambda doc: {**doc, "kernels": [{**doc["kernels"][0], "kind": "bogus"}]},
            id="kernel-kind",
        ),
        # a manifest's kernels are read through KernelSpec, so each kernel rule
        # holds for a model too; fit resolves every Gaussian median bandwidth
        pytest.param(with_kernel(bandwidth=0.0), id="kernel-bandwidth-0"),
        pytest.param(with_kernel(bandwidth=-2.0), id="kernel-bandwidth-negative"),
        pytest.param(with_kernel(bandwidth="0"), id="kernel-bandwidth-string"),
        pytest.param(with_kernel(kind="polynomial", degree=0), id="kernel-degree-0"),
        pytest.param(with_kernel(kind="polynomial", offset=-5.0), id="kernel-offset-negative"),
        pytest.param(with_kernel(kind="rbf"), id="kernel-unknown-kind"),
        pytest.param(with_kernel(bandwidth="median"), id="kernel-gaussian-median"),
        pytest.param(lambda doc: {**doc, "config": {**doc["config"], "kapa": 0.5}},
                     id="unknown-config-key"),
        # json.dumps writes an infinite kappa as the non-JSON Infinity
        pytest.param(lambda doc: {**doc, "config": {**doc["config"], "kappa": float("inf")}},
                     id="config-kappa-infinity"),
        pytest.param(lambda doc: {**doc, "kernels": doc["kernels"][1:]}, id="kernels-short"),
        pytest.param(lambda doc: {**doc, "alpha": doc["alpha"][1:]}, id="alpha-short"),
        pytest.param(lambda doc: {**doc, "alpha": [], "kernels": []}, id="no-views"),
    ])
    def test_malformed_manifest_exits_two(self, fitted_model, tmp_path, capsys, edit):
        model = tmp_path / "model"
        shutil.copytree(fitted_model / "run" / "model", model)
        manifest_path = model / "manifest.json"
        manifest_path.write_text(json.dumps(edit(json.loads(manifest_path.read_text()))))
        code, _, err = run(
            capsys, "transform", "--model", str(model),
            "--data", str(fitted_model / "data"), "--out", str(tmp_path / "t"),
        )
        assert code == 2
        lines = err.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error:") and "manifest.json" in lines[0]

    @pytest.mark.parametrize("file, edit, named", [
        pytest.param("coefficients_2.csv", lambda U: U[:-1], "coefficients_2.csv",
                     id="coefficients-row-missing"),
        pytest.param("coefficients_2.csv", lambda U: np.hstack([U, U[:, :1]]),
                     "coefficients_2.csv", id="coefficients-extra-column"),
        pytest.param("embeddings_2.csv", lambda Y: np.eye(2), "embeddings_2.csv",
                     id="embeddings-2x2"),
        pytest.param("manifest.json", lambda doc: {**doc, "config": {**doc["config"], "d": 5}},
                     "coefficients_1.csv", id="manifest-d"),
    ])
    def test_misshapen_model_matrix_exits_two(
        self, fitted_model, tmp_path, capsys, file, edit, named
    ):
        # every per-view matrix holds the same N rows, and d columns of the
        # manifest's config
        model = tmp_path / "model"
        shutil.copytree(fitted_model / "run" / "model", model)
        path = model / file
        if file == "manifest.json":
            path.write_text(json.dumps(edit(json.loads(path.read_text()))))
        else:
            write_matrix_csv(path, edit(read_matrix_csv(path)))
        code, _, err = run(
            capsys, "transform", "--model", str(model),
            "--data", str(fitted_model / "data"), "--out", str(tmp_path / "t"),
        )
        assert code == 2
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:") and named in lines[0]


class TestEval:
    def test_classify_deterministic_bytes(self, synth_dir, tmp_path, capsys):
        cfg = write_config(tmp_path)
        outs = []
        for name in ("e1.json", "e2.json"):
            path = tmp_path / name
            code, stdout, _ = run(
                capsys, "eval", "--task", "classify", "--data", str(synth_dir),
                "--config", str(cfg), "--out", str(path),
                "--repeats", "2", "--train-frac", "0.5", "--seed", "9",
            )
            assert code == 0
            assert "mean_best_accuracy" in stdout
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("frac", ["0.3", "0.5"])
    def test_train_fractions(self, synth_dir, tmp_path, capsys, frac):
        cfg = write_config(tmp_path)
        path = tmp_path / f"e_{frac}.json"
        code, _, _ = run(
            capsys, "eval", "--task", "classify", "--data", str(synth_dir),
            "--config", str(cfg), "--out", str(path),
            "--repeats", "1", "--train-frac", frac, "--seed", "0",
        )
        assert code == 0
        doc = read_json_object(path)
        assert doc["train_frac"] == float(frac)
        assert 0.0 <= doc["mean"]["best_accuracy"] <= 1.0

    def test_retrieval_schema(self, synth_dir, tmp_path, capsys):
        cfg = write_config(tmp_path)
        path = tmp_path / "r.json"
        code, _, _ = run(
            capsys, "eval", "--task", "retrieve", "--data", str(synth_dir),
            "--config", str(cfg), "--out", str(path),
            "--repeats", "2", "--train-frac", "0.5", "--seed", "3",
        )
        assert code == 0
        doc = read_json_object(path)
        mean = doc["mean"]
        for key in ("best_map", "best_precision", "best_recall", "best_f1", "cutoffs"):
            assert key in mean
        first = doc["per_repeat"][0]["views"][0]
        for key in ("precision", "recall", "f1", "map", "cutoffs"):
            assert key in first

    def test_malformed_top_n_exits_one(self, synth_dir, tmp_path, capsys):
        cfg = write_config(tmp_path)
        code, _, err = run(
            capsys, "eval", "--task", "retrieve", "--data", str(synth_dir),
            "--config", str(cfg), "--out", str(tmp_path / "x.json"),
            "--repeats", "1", "--top-n", "1,a",
        )
        assert code == 1
        assert "--top-n" in err

    def test_top_n_with_classify_exits_one(self, synth_dir, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "x.json"
        code, _, err = run(
            capsys, "eval", "--task", "classify", "--data", str(synth_dir),
            "--config", str(cfg), "--out", str(out),
            "--repeats", "1", "--top-n", "1,a",
        )
        assert code == 1
        assert "--top-n" in err
        assert not out.exists()

    def test_top_n_sets_every_cutoff_list(self, synth_dir, tmp_path, capsys):
        cfg = write_config(tmp_path)
        path = tmp_path / "r.json"
        code, _, _ = run(
            capsys, "eval", "--task", "retrieve", "--data", str(synth_dir),
            "--config", str(cfg), "--out", str(path),
            "--repeats", "2", "--seed", "3", "--top-n", "1,3",
        )
        assert code == 0
        doc = read_json_object(path)
        assert doc["mean"]["cutoffs"] == [1, 3]
        for key in ("precision", "recall", "f1"):
            assert len(doc["mean"][f"best_{key}"]) == 2
            for rep in doc["per_repeat"]:
                assert all(len(view[key]) == 2 for view in rep["views"])

    def test_out_of_range_top_n_exits_one_before_any_fit(
        self, synth_dir, tmp_path, capsys, monkeypatch
    ):
        def no_fit(*args, **kwargs):
            raise AssertionError("a fit ran before --top-n was checked")

        monkeypatch.setattr(kmsa.optimizer, "fit", no_fit)
        argv = [
            "eval", "--task", "retrieve", "--data", str(synth_dir),
            "--config", str(write_config(tmp_path)), "--out", str(tmp_path / "x.json"),
            "--repeats", "2", "--top-n", "1,13",  # the gallery holds 12 of 24 samples
        ]
        with pytest.raises(ConfigError) as exc:
            cmd_eval(build_parser().parse_args(argv))
        assert exc.value.code == "top_n_range"
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert "--top-n entries must lie in [1, 12]" in err

    def test_bad_train_frac_exits_one(self, synth_dir, tmp_path, capsys):
        cfg = write_config(tmp_path)
        code, _, _ = run(
            capsys, "eval", "--task", "classify", "--data", str(synth_dir),
            "--config", str(cfg), "--out", str(tmp_path / "x.json"),
            "--repeats", "1", "--train-frac", "1.5",
        )
        assert code == 1

    def test_zero_repeats_exits_one(self, synth_dir, tmp_path, capsys):
        cfg = write_config(tmp_path)
        code, _, err = run(
            capsys, "eval", "--task", "classify", "--data", str(synth_dir),
            "--config", str(cfg), "--out", str(tmp_path / "x.json"), "--repeats", "0",
        )
        assert code == 1
        assert "--repeats must be >= 1" in err

    @pytest.mark.filterwarnings("ignore::kmsa.errors.WeightDomainWarning")
    def test_lda_split_without_class_zero(self, tmp_path, capsys):
        # classes of 1, 10 and 10 samples: a half split that leaves out the
        # one sample of class 0 trains lda on class ids {1, 2}
        data = generate_synthetic(classes=3, per_class=10, seed=0)
        kmsa.save_dataset(data.subset(np.r_[0, 10:30]), tmp_path / "data")
        cfg = tmp_path / "lda.json"
        cfg.write_text(json.dumps({"d": 2, "graph": {"kind": "lda"}, "ridge": 1e-2}))
        code, _, err = run(
            capsys, "eval", "--task", "classify", "--data", str(tmp_path / "data"),
            "--config", str(cfg), "--out", str(tmp_path / "m.json"),
            "--repeats", "6", "--seed", "0",
        )
        assert code == 0, err

    def test_unlabeled_data_exits_one(self, tmp_path, capsys):
        bare = tmp_path / "bare"
        bare.mkdir()
        (bare / "view_1.csv").write_text("1,2\n3,4\n5,6\n7,8\n")
        cfg = write_config(tmp_path)
        code, _, _ = run(
            capsys, "eval", "--task", "classify", "--data", str(bare),
            "--config", str(cfg), "--out", str(tmp_path / "x.json"),
            "--repeats", "1",
        )
        assert code == 1


def test_fit_outputs_parse_back_through_loaders(synth_dir, tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "roundtrip"
    assert run(capsys, "fit", "--data", str(synth_dir), "--out", str(out),
               "--config", str(cfg))[0] == 0
    for path in (out / "model").glob("*.csv"):
        read_matrix_csv(path)  # must not raise
    model = load_model(out / "model")
    train = load_training_data(out / "model")
    assert train.n_samples == model.embeddings[0].shape[1]


def files(root: Path) -> dict:
    """Every file under root, by relative path, with its bytes."""
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


@pytest.mark.parametrize("command", ["transform", "synth", "eval"])
def test_out_in_another_model_exits_one(fitted_model, tmp_path, capsys, command):
    # a model directory, and its train/, belong to that model alone: transform
    # would replace runB's embeddings with those of other points, and synth its
    # training views, both without a word
    run_b = tmp_path / "runB"
    shutil.copytree(fitted_model / "run", run_b)
    new = tmp_path / "new"
    assert run(capsys, "synth", "--out", str(new), "--per-class", "8",
               "--informative-views", "2", "--noise-views", "1", "--seed", "5")[0] == 0
    argv = {
        "transform": ["transform", "--model", str(fitted_model / "run" / "model"),
                      "--data", str(new), "--out", str(run_b / "model")],
        "synth": ["synth", "--seed", "9", "--out", str(run_b / "model" / "train")],
        "eval": ["eval", "--task", "classify", "--data", str(new), "--repeats", "1",
                 "--config", str(fitted_model / "config.json"),
                 "--out", str(run_b / "model" / "metrics.json")],
    }[command]
    before = files(run_b)
    code, stdout, err = run(capsys, *argv)
    assert code == 1 and stdout == ""
    assert err == f"error: --out must not be part of a model directory: {argv[-1]}\n"
    assert files(run_b) == before


SUMMARY_KEYS = {
    "fit": "views samples d sweeps objective alpha mean_divergence",
    "transform": "views points d",
    "synth": "views samples classes",
    "eval-classify": "task repeats train_frac seed mean_best_accuracy",
    "eval-retrieve": "task repeats train_frac seed mean_best_map",
}


@pytest.mark.parametrize("case", sorted(SUMMARY_KEYS))
def test_summary_line_keys(fitted_model, tmp_path, capsys, case):
    # main prints each command's one summary line, status and command first
    # and out last; a command that fails prints nothing on stdout
    data, cfg = str(fitted_model / "data"), str(fitted_model / "config.json")
    command, _, task = case.partition("-")
    argv, breaker = {
        "fit": (["--data", data, "--config", cfg], "--data"),
        "transform": (["--model", str(fitted_model / "run" / "model"), "--data", data],
                      "--data"),
        "synth": (["--per-class", "4"], "--classes"),
        "eval": (["--task", task, "--data", data, "--config", cfg, "--repeats", "2"], "--data"),
    }[command]
    argv = [command, *argv, "--out", str(tmp_path / "out")]
    code, stdout, err = run(capsys, *argv)
    assert code == 0, err
    assert stdout.count("\n") == 1 and stdout.endswith("\n")
    pairs = [field.split("=", 1) for field in stdout.split()]
    keys = ["status", "command", *SUMMARY_KEYS[case].split(), "out"]
    assert [key for key, _ in pairs] == keys
    assert pairs[0][1] == "ok" and pairs[1][1] == command
    # argparse keeps the last value of a repeated flag
    bad = str(tmp_path / "ghost") if breaker == "--data" else "0"
    code, stdout, _ = run(capsys, *argv, breaker, bad)
    assert code != 0 and stdout == ""


class TestRewrite:
    """A command writing into a directory that an earlier, larger write used
    leaves what it would leave in a fresh one, plus files it does not name."""

    def synth(self, capsys, out, views):
        assert run(capsys, "synth", "--out", str(out), "--per-class", "6",
                   "--informative-views", str(views), "--noise-views", "0")[0] == 0

    def test_refit_replaces_a_larger_centered_fit(self, tmp_path, capsys):
        self.synth(capsys, tmp_path / "four", 4)
        self.synth(capsys, tmp_path / "two", 2)
        centered = write_config(tmp_path, "centered.json", center_kernel=True)
        plain = write_config(tmp_path)
        run_dir, fresh = tmp_path / "run", tmp_path / "fresh"
        assert run(capsys, "fit", "--data", str(tmp_path / "four"), "--out", str(run_dir),
                   "--config", str(centered))[0] == 0
        # a format-3 model's embeddings and files no writer names
        write_matrix_csv(run_dir / "model" / "embedding_1.csv", np.ones((2, 12)))
        kept = {"model/notes.txt": b"kept", "model/coefficients_old.csv": b"1\n",
                "model/train/view_notes.csv": b"1\n"}
        for name, data in kept.items():
            (run_dir / name).write_bytes(data)
        for out in (run_dir, fresh):
            assert run(capsys, "fit", "--data", str(tmp_path / "two"), "--out", str(out),
                       "--config", str(plain))[0] == 0
        assert files(run_dir) == {**files(fresh), **kept}
        code, _, err = run(capsys, "transform", "--model", str(run_dir / "model"),
                           "--data", str(tmp_path / "two"), "--out", str(tmp_path / "tr"))
        assert code == 0, err

    def test_synth_and_transform_replace_more_views(self, tmp_path, capsys):
        data = tmp_path / "data"
        self.synth(capsys, data, 4)
        self.synth(capsys, data, 2)
        self.synth(capsys, tmp_path / "fresh", 2)
        assert files(data) == files(tmp_path / "fresh")
        cfg = write_config(tmp_path)
        for views in (4, 2):
            source, fitted = tmp_path / f"data-{views}", tmp_path / f"run-{views}"
            self.synth(capsys, source, views)
            assert run(capsys, "fit", "--data", str(source), "--out", str(fitted),
                       "--config", str(cfg))[0] == 0
            code, _, err = run(capsys, "transform", "--model", str(fitted / "model"),
                               "--data", str(source), "--out", str(tmp_path / "tr"))
            assert code == 0, err
        assert sorted(files(tmp_path / "tr")) == ["embeddings_1.csv", "embeddings_2.csv"]


def test_evaluate_repeat_picks_best_view(monkeypatch):
    data = generate_synthetic(classes=2, per_class=4, informative_views=2, noise_views=1, seed=0)
    cfg = KmsaConfig(d=1, max_iters=1, ridge=1e-2)
    halves = np.arange(0, 8, 2), np.arange(1, 8, 2)

    accuracies = iter([0.4, 0.9, 0.6])
    monkeypatch.setattr(kmsa.evaluation, "knn_classify", lambda *a, **k: next(accuracies))
    _, best, _ = evaluate_repeat(data, cfg, "classification", *halves, None)
    assert best == 1

    maps = iter([0.2, 0.5, 0.5])
    monkeypatch.setattr(kmsa.evaluation, "retrieval_metrics", lambda *a: {"map": next(maps)})
    per_view, best, _ = evaluate_repeat(data, cfg, "retrieval", *halves, [1])
    assert best == 1  # ties go to the lowest view
    assert per_view == [{"map": 0.2}, {"map": 0.5}, {"map": 0.5}]


@pytest.mark.parametrize(
    "case", ["import", "transform", "synth", "bad-config-fit", "fit", "indefinite-pencil"]
)
def test_scipy_loads_at_the_first_diagonalization(case, fitted_model, tmp_path):
    # every benchmark workload's setup time includes a fresh `import kmsa.cli`,
    # and scipy.linalg alone adds about 0.3 s and 28 MB to a process: only a
    # diagonalization loads it, and nothing loads scipy.spatial
    linalg = case in ("fit", "indefinite-pencil")
    root = fitted_model
    cli = "from kmsa.cli import main\nassert main(sys.argv[1:]) == {}"
    fit = ["fit", "--data", str(root / "data"), "--out", str(tmp_path / "run"), "--config"]
    code, argv = {
        "import": ("import kmsa, kmsa.cli", []),
        "transform": (cli.format(0), ["transform", "--model", str(root / "run" / "model"),
                                      "--data", str(root / "data"), "--out", str(tmp_path)]),
        "synth": (cli.format(0), ["synth", "--out", str(tmp_path / "data"), "--per-class", "4"]),
        "bad-config-fit": (cli.format(1), [*fit, str(write_config(tmp_path, kapa=0.5))]),
        "fit": (cli.format(0), [*fit, str(root / "config.json")]),
        # the first call's LinAlgError becomes a NumericError
        "indefinite-pencil": (
            "import numpy as np\nfrom kmsa import NumericError, eigsolver\n"
            "try:\n    eigsolver.pencil_eigh(np.eye(2), -np.eye(2))\n"
            "except NumericError:\n    pass\nelse:\n    raise AssertionError", []
        ),
    }[case]
    code = f"import sys\n{code}\nprint('scipy.linalg' in sys.modules, 'scipy.spatial' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(kmsa.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.splitlines()[-1] == f"{linalg} False"


def test_installed_command_runs(tmp_path, capsys):
    # the tests import kmsa from src/; the entry point pip installs as the
    # kmsa command must name a function that runs the CLI
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).parents[1] / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["kmsa"]
    module, _, name = target.partition(":")
    command = getattr(importlib.import_module(module), name)
    cfg = write_config(tmp_path)
    for argv in (
        ["synth", "--out", str(tmp_path / "data"), "--per-class", "4"],
        ["fit", "--data", str(tmp_path / "data"), "--out", str(tmp_path / "run"),
         "--config", str(cfg)],
        ["transform", "--model", str(tmp_path / "run" / "model"),
         "--data", str(tmp_path / "data"), "--out", str(tmp_path / "embedded")],
    ):
        assert command(argv) == 0
        assert capsys.readouterr().out.startswith(f"status=ok command={argv[0]}")
    assert (tmp_path / "embedded" / "embeddings_1.csv").is_file()
