import json

import numpy as np
import pytest

from kmsa import (
    FormatError,
    IoError,
    KmsaConfig,
    VersionError,
    fit,
    generate_synthetic,
    knn_classify,
    load_dataset,
    load_model,
    save_dataset,
    save_model,
    transform,
)
from kmsa.data_io import (
    read_json_object,
    read_matrix_csv,
    save_report,
    write_matrix_csv,
)


class TestMatrixCsv:
    def test_round_trip_is_bit_exact(self, rng, tmp_path):
        A = rng.standard_normal((5, 3)) * 10.0 ** rng.integers(-8, 8, size=(5, 3))
        path = tmp_path / "a.csv"
        write_matrix_csv(path, A)
        B = read_matrix_csv(path)
        assert np.array_equal(A, B)

    def test_header_sniffing(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("f1,f2\n1.0,2.0\n3.0,4.0\n")
        A = read_matrix_csv(path)
        assert A.shape == (2, 2)

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("1,2\n3\n")
        with pytest.raises(FormatError, match="ragged"):
            read_matrix_csv(path)

    def test_non_numeric_cell_coordinates(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("1,2\n3,oops\n")
        with pytest.raises(FormatError, match="row 2, column 2"):
            read_matrix_csv(path)

    def test_non_finite_cell_rejected(self, tmp_path):
        path = tmp_path / "n.csv"
        path.write_text("1,2\nnan,4\n")
        with pytest.raises(FormatError, match="row 2, column 1"):
            read_matrix_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(IoError):
            read_matrix_csv(tmp_path / "absent.csv")


class TestLoadDataset:
    def write_views(self, tmp_path, rows_per_view, labels=None):
        for k, rows in enumerate(rows_per_view, start=1):
            lines = "\n".join(",".join(str(x) for x in row) for row in rows)
            (tmp_path / f"view_{k}.csv").write_text(lines + "\n")
        if labels is not None:
            (tmp_path / "labels.csv").write_text("\n".join(map(str, labels)) + "\n")

    def test_two_views_with_labels(self, tmp_path):
        self.write_views(
            tmp_path,
            [[[1, 2], [3, 4], [5, 6], [7, 8], [9, 0]],
             [[1], [2], [3], [4], [5]]],
            labels=[0, 0, 1, 1, 1],
        )
        data = load_dataset(tmp_path)
        assert data.n_views == 2
        assert data.n_samples == 5
        assert [X.shape for X in data.views] == [(2, 5), (1, 5)]  # features x samples
        assert data.labels.tolist() == [0, 0, 1, 1, 1]

    def test_mismatched_sample_counts_named(self, tmp_path):
        self.write_views(tmp_path, [[[1], [2], [3], [4], [5]], [[1], [2], [3], [4]]])
        with pytest.raises(FormatError, match="4.*5|5.*4"):
            load_dataset(tmp_path)

    def test_header_skipped(self, tmp_path):
        (tmp_path / "view_1.csv").write_text("f1,f2\n1,2\n3,4\n")
        data = load_dataset(tmp_path)
        assert data.views[0].shape == (2, 2)

    def test_view_order_is_numeric(self, tmp_path):
        for k in (10, 2, 1):
            (tmp_path / f"view_{k}.csv").write_text(f"{k},0\n{k},0\n")
        data = load_dataset(tmp_path)
        assert [v[0, 0] for v in data.views] == [1.0, 2.0, 10.0]

    def test_missing_directory(self, tmp_path):
        with pytest.raises(IoError):
            load_dataset(tmp_path / "nope")

    def test_no_view_files(self, tmp_path):
        with pytest.raises(IoError):
            load_dataset(tmp_path)

    def test_label_length_mismatch(self, tmp_path):
        self.write_views(tmp_path, [[[1], [2], [3]]], labels=[0, 1])
        with pytest.raises(FormatError):
            load_dataset(tmp_path)

    def test_dataset_round_trip(self, rng, tmp_path):
        data = generate_synthetic(classes=2, per_class=4, seed=3)
        save_dataset(data, tmp_path / "ds")
        again = load_dataset(tmp_path / "ds")
        assert again.n_views == data.n_views
        for a, b in zip(data.views, again.views):
            assert np.array_equal(a, b)
        assert np.array_equal(data.labels, again.labels)


class TestSynthetic:
    def test_same_seed_is_bit_identical(self):
        a = generate_synthetic(seed=11)
        b = generate_synthetic(seed=11)
        for va, vb in zip(a.views, b.views):
            assert np.array_equal(va, vb)
        assert np.array_equal(a.labels, b.labels)

    def test_shapes_and_labels(self):
        data = generate_synthetic(
            classes=4, per_class=5, informative_views=2, noise_views=1, latent_dim=3
        )
        assert data.n_views == 3
        assert data.n_samples == 20
        assert np.bincount(data.labels).tolist() == [5, 5, 5, 5]

    def test_informative_views_beat_chance(self, rng):
        data = generate_synthetic(classes=3, per_class=10, noise_views=0, seed=5)
        idx = rng.permutation(30)
        tr, te = idx[:20], idx[10:]
        for X in data.views:
            acc = knn_classify(X[:, tr], data.labels[tr], X[:, te], data.labels[te])
            assert acc > 0.8  # raw informative views carry the class signal

    def test_bad_counts_rejected(self):
        with pytest.raises(ValueError):
            generate_synthetic(classes=0)
        with pytest.raises(ValueError):
            generate_synthetic(noise_views=-1)


class TestModelPersistence:
    def fitted(self, seed=0):
        data = generate_synthetic(classes=2, per_class=6, informative_views=2,
                                  noise_views=0, seed=seed)
        model = fit(data, KmsaConfig(d=2, max_iters=3, ridge=1e-2))
        return data, model

    def test_alpha_bit_exact(self, tmp_path):
        _, model = self.fitted()
        save_model(model, tmp_path / "m")
        again = load_model(tmp_path / "m")
        assert np.array_equal(model.alpha, again.alpha)
        assert model.objective_trace == again.objective_trace

    def test_matrices_round_trip(self, tmp_path):
        data, model = self.fitted()
        save_model(model, tmp_path / "m", train_data=data)
        again = load_model(tmp_path / "m")
        assert len(again.coefficients) == len(model.coefficients) == 2
        for a, b in zip(model.coefficients, again.coefficients):
            assert np.array_equal(a, b)  # 17 digits round-trips doubles
        for a, b in zip(model.embeddings, again.embeddings):
            assert np.array_equal(a, b)
        assert again.config == model.config
        assert again.kernels == model.kernels
        # only what transform needs: no kernel, graph or constraint matrices
        assert sorted(p.name for p in (tmp_path / "m").iterdir()) == [
            "coefficients_1.csv",
            "coefficients_2.csv",
            "embedding_1.csv",
            "embedding_2.csv",
            "manifest.json",
            "train",
        ]

    def test_version_bump_rejected(self, tmp_path):
        _, model = self.fitted()
        save_model(model, tmp_path / "m")
        manifest = json.loads((tmp_path / "m" / "manifest.json").read_text())
        assert manifest["format_version"] == 2
        # version 1 directories stored K/P/M and are no longer read
        for version in (1, 99):
            manifest["format_version"] = version
            (tmp_path / "m" / "manifest.json").write_text(json.dumps(manifest))
            with pytest.raises(VersionError):
                load_model(tmp_path / "m")

    @pytest.mark.parametrize("key, value", [
        ("alpha", "1234"),
        ("objective_trace", "123"),
        ("log", "oops"),
        ("log", [1, 2]),
        ("alpha", [True, False]),
        ("objective_trace", [False]),
        ("alpha", [0.5, 0.5]),
    ], ids=["alpha", "objective-trace", "log", "log-entries", "alpha-bool",
            "objective-trace-bool", "alpha-number"])
    def test_string_in_place_of_an_array_rejected(self, tmp_path, key, value):
        # a string is not the array of its characters; nor are entries other
        # than the strings save_model writes accepted (float(True) is 1.0)
        _, model = self.fitted()
        save_model(model, tmp_path / "m")
        path = tmp_path / "m" / "manifest.json"
        path.write_text(json.dumps({**json.loads(path.read_text()), key: value}))
        with pytest.raises(FormatError, match=key):
            load_model(tmp_path / "m")

    def test_missing_manifest(self, tmp_path):
        (tmp_path / "m").mkdir()
        with pytest.raises(IoError):
            load_model(tmp_path / "m")

    def test_reloaded_model_transforms_identically(self, tmp_path):
        data, model = self.fitted()
        save_model(model, tmp_path / "m", train_data=data)
        again = load_model(tmp_path / "m")
        direct = transform(model, data.views, data)
        reloaded = transform(again, data.views, data)
        for a, b in zip(direct, reloaded):
            assert np.array_equal(a, b)
        for Y, Z in zip(again.embeddings, reloaded):
            assert np.abs(Y - Z).max() < 1e-12


def test_report_round_trip(tmp_path):
    doc = {"task": "classification", "mean": {"best_accuracy": 0.75}, "n": 3}
    save_report(doc, tmp_path / "rep.json")
    assert read_json_object(tmp_path / "rep.json") == doc
