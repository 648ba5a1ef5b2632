import json
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from kmsa import (
    FormatError,
    IoError,
    KernelSpec,
    KmsaConfig,
    MultiviewDataset,
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
from kmsa.types import MEDIAN

from oracles import csv_cells_reference, matrix_csv_reference

EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e-308, -1e-308,
               1e308, -1e308, 1.7976931348623157e308]
# every double, non-finite ones included, with the edge values drawn often
ANY_FLOAT = st.floats(allow_subnormal=True) | st.sampled_from(EDGE_FLOATS)
FINITE_FLOAT = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGE_FLOATS)
CSV_SETTINGS = settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


@st.composite
def cell_texts(draw):
    """A cell that float() reads, in the spellings a CSV file may hold: 17
    digits, repr, exponent form, padding, digit-group underscores, fullwidth
    digits."""
    x = draw(FINITE_FLOAT)
    n = draw(st.integers(-10**9, 10**9))
    text = draw(st.sampled_from([
        f"{x:.17g}", repr(x), f"{x:.6e}", f"{x:.17g}".upper(), f"{n:_}",
        str(n).translate({ord(c): 0xFF10 + int(c) for c in "0123456789"}),
    ]))
    pad = draw(st.sampled_from(["", " ", "\t", "\xa0"]))
    return draw(st.sampled_from([text, pad + text, text + pad, pad + text + pad]))


def bits(A):
    return np.asarray(A, dtype=float).view(np.int64)


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

    def test_byte_order_mark_is_not_a_header(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf1,2\n3,4\n")
        assert np.array_equal(read_matrix_csv(path), [[1.0, 2.0], [3.0, 4.0]])

    def test_non_utf8_file_named(self, tmp_path):
        path = tmp_path / "latin.csv"
        path.write_bytes(b"1,2\n3,\xff\n")
        with pytest.raises(FormatError, match=r"latin\.csv: not UTF-8 text"):
            read_matrix_csv(path)

    def test_non_finite_cell_rejected(self, tmp_path):
        path = tmp_path / "n.csv"
        path.write_text("1,2\nnan,4\n")
        with pytest.raises(FormatError, match="row 2, column 1"):
            read_matrix_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(IoError):
            read_matrix_csv(tmp_path / "absent.csv")

    @CSV_SETTINGS
    @given(
        A=hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=6),
                     elements=ANY_FLOAT),
    )
    @example(A=np.array([EDGE_FLOATS]))
    @example(A=np.array([EDGE_FLOATS]).T)
    @example(A=np.zeros((0, 3)))
    @example(A=np.zeros((0, 0)))
    @example(A=np.zeros((3, 0)))
    def test_written_bytes_match_per_cell_writer(self, tmp_path, A):
        path = tmp_path / "w.csv"
        write_matrix_csv(path, A)
        assert path.read_bytes() == matrix_csv_reference(A).encode("utf-8")

    @pytest.mark.parametrize("A", [np.array(-0.0), np.array([1.5, -0.0, 5e-324])])
    def test_fewer_than_two_dimensions_write_one_row(self, tmp_path, A):
        path = tmp_path / "w.csv"
        write_matrix_csv(path, A)
        assert path.read_bytes() == matrix_csv_reference(A).encode("utf-8")
        assert np.array_equal(bits(read_matrix_csv(path)), bits(np.atleast_2d(A)))

    @CSV_SETTINGS
    @given(
        A=hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=6),
                     elements=FINITE_FLOAT),
        header=st.booleans(),
    )
    def test_round_trip_keeps_every_bit(self, tmp_path, A, header):
        # a header line is what files from outside the program may carry
        path = tmp_path / "r.csv"
        write_matrix_csv(path, A)
        if header:
            path.write_text("a,b\n" + path.read_text(encoding="utf-8"), encoding="utf-8")
        assert np.array_equal(bits(read_matrix_csv(path)), bits(A))

    @CSV_SETTINGS
    @given(
        cells=st.integers(1, 5).flatmap(
            lambda c: st.lists(st.lists(cell_texts(), min_size=c, max_size=c),
                               min_size=1, max_size=5)
        ),
        header=st.booleans(),
    )
    def test_read_values_match_per_cell_float(self, tmp_path, cells, header):
        rows = [",".join(row) for row in cells]
        path = tmp_path / "c.csv"
        path.write_text("".join(f"{ln}\n" for ln in (["a"] if header else []) + rows),
                        encoding="utf-8")
        assert np.array_equal(bits(read_matrix_csv(path)), bits(csv_cells_reference(rows)))

    @pytest.mark.parametrize("text, want", [
        ("1_000,2\n", [[1000.0, 2.0]]),
        ("\uff11\uff12,3\n", [[12.0, 3.0]]),
        (" 1.5 ,\t-2 \n 3, 4e1\n", [[1.5, -2.0], [3.0, 40.0]]),
    ])
    def test_cells_that_only_float_accepts(self, tmp_path, text, want):
        path = tmp_path / "f.csv"
        path.write_text(text, encoding="utf-8")
        assert read_matrix_csv(path).tolist() == want

    @pytest.mark.parametrize("text, message", [
        ("1,2\n3,nan\n", "non-finite cell at row 2, column 2"),
        ("h1,h2\n1,2\n-inf,4\n", "non-finite cell at row 3, column 1"),
        ("1,2\n3,1e400\n", "non-finite cell at row 2, column 2"),
        ("1,2\n3\n4,5\n", "ragged row 2 has 1 cells, expected 2"),
        ("h\n1,2\n3,4,5\n", "ragged row 3 has 3 cells, expected 2"),
        ("1,nan\n3\n", "non-finite cell at row 1, column 2"),
        ("1,2\n3,x\n", "non-numeric cell at row 2, column 2: 'x'"),
        ("1,,2\n", "non-numeric cell at row 1, column 2: ''"),
        ("h1,h2\n", "no data rows"),
        ("\n \n", "empty file"),
    ])
    def test_malformed_files_name_row_and_column(self, tmp_path, text, message):
        path = tmp_path / "bad.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(FormatError, match=f"^{re.escape(f'{path}: {message}')}$"):
            read_matrix_csv(path)

    def test_no_warning_escapes(self, tmp_path):
        texts = ["h1,h2\n", "h1,h2\n1,2\n", "1,2\n", "1,nan\n", "1,1e400\n", "1,2\n3\n",
                 "1_0\n"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for i, text in enumerate(texts):
                path = tmp_path / f"{i}.csv"
                path.write_text(text, encoding="utf-8")
                try:
                    read_matrix_csv(path)
                except FormatError:
                    pass
        assert [str(w.message) for w in caught] == []


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

    def test_view_without_a_number_is_ignored(self, tmp_path):
        (tmp_path / "view_1.csv").write_text("1,0\n2,0\n")
        (tmp_path / "view_a.csv").write_text("not,a\nview,file\nat,all\n")
        data = load_dataset(tmp_path)
        assert data.n_views == 1 and data.views[0][0].tolist() == [1.0, 2.0]

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

    def test_unlabeled_rewrite_removes_labels_and_extra_views(self, tmp_path):
        # a dataset written over a larger, labeled one loads as written; files
        # that load_dataset does not read stay
        data = generate_synthetic(classes=2, per_class=4, informative_views=3, seed=3)
        save_dataset(data, tmp_path)
        (tmp_path / "view_notes.csv").write_text("1\n")
        (tmp_path / "view_04.csv").write_text("1\n")  # read as a view: int("04") is 4
        unlabeled = MultiviewDataset(data.views[:2])
        save_dataset(unlabeled, tmp_path)
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["view_1.csv", "view_2.csv", "view_notes.csv"]
        again = load_dataset(tmp_path)
        assert again.labels is None and again.n_views == 2


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
    def fitted(self, seed=0, center=False):
        data = generate_synthetic(classes=2, per_class=6, informative_views=2,
                                  noise_views=0, seed=seed)
        model = fit(data, KmsaConfig(d=2, max_iters=3, ridge=1e-2, center_kernel=center))
        return data, model

    def test_alpha_bit_exact(self, tmp_path):
        _, model = self.fitted()
        save_model(model, tmp_path / "m")
        again = load_model(tmp_path / "m")
        assert np.array_equal(model.alpha, again.alpha)
        assert model.objective_trace == again.objective_trace

    def test_matrices_round_trip(self, tmp_path):
        for center in (False, True):
            data, model = self.fitted(center=center)
            path = tmp_path / f"m-{center}"
            save_model(model, path, train_data=data)
            again = load_model(path)
            assert len(again.coefficients) == len(model.coefficients) == 2
            for a, b in zip(model.coefficients, again.coefficients):
                assert np.array_equal(a, b)  # 17 digits round-trips doubles
            for a, b in zip(model.embeddings, again.embeddings):
                assert np.array_equal(a, b)
            assert again.config == model.config
            assert again.kernels == model.kernels
            if center:
                assert len(again.kernel_means) == len(model.kernel_means) == 2
                for a, b in zip(model.kernel_means, again.kernel_means):
                    assert a.shape == (12,) and np.array_equal(bits(a), bits(b))
            else:
                assert model.kernel_means is again.kernel_means is None
            # only what transform needs: no kernel, graph or constraint
            # matrices, and the row means that center new kernel columns
            means = ["kernel_means_1.csv", "kernel_means_2.csv"] if center else []
            assert sorted(p.name for p in path.iterdir()) == [
                "coefficients_1.csv",
                "coefficients_2.csv",
                "embeddings_1.csv",
                "embeddings_2.csv",
                *means,
                "manifest.json",
                "train",
            ]

    def test_only_a_gaussian_bandwidth_must_be_concrete(self, tmp_path):
        # fit resolves a Gaussian median bandwidth; linear and polynomial
        # kernels keep the unused default, and load as written
        data = generate_synthetic(classes=2, per_class=6, informative_views=2,
                                  noise_views=0, seed=0)
        kernel = (KernelSpec(kind="linear"), KernelSpec(kind="polynomial"))
        model = fit(data, KmsaConfig(d=2, max_iters=3, ridge=1e-2, kernel=kernel))
        assert [k.bandwidth for k in model.kernels] == [MEDIAN, MEDIAN]
        save_model(model, tmp_path / "m")
        assert load_model(tmp_path / "m").kernels == model.kernels
        _, gaussian = self.fitted()
        save_model(replace(gaussian, kernels=(KernelSpec(),) * 2), tmp_path / "g")
        with pytest.raises(FormatError, match="manifest.json: a gaussian kernel keeps"):
            load_model(tmp_path / "g")

    def test_version_bump_rejected(self, tmp_path):
        _, model = self.fitted()
        save_model(model, tmp_path / "m")
        manifest = json.loads((tmp_path / "m" / "manifest.json").read_text())
        assert manifest["format_version"] == 4 and "n_views" not in manifest
        # version 1 directories stored K/P/M, version 2 ones no kernel means
        # and a seed, and version 3 ones n_views and d x N embedding files;
        # none is read any more
        for version in (1, 2, 3, 99):
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

    @pytest.mark.parametrize("means", [None, "1\n2\n", "1,2,3,4,5,6,7,8,9,10,11,12\n"],
                             ids=["missing", "short", "one-row"])
    def test_centered_model_needs_its_kernel_means(self, tmp_path, means):
        _, model = self.fitted(center=True)
        save_model(model, tmp_path / "m")
        path = tmp_path / "m" / "kernel_means_2.csv"
        if means is None:
            path.unlink()
        else:
            path.write_text(means)
        with pytest.raises(FormatError, match="kernel_means_2.csv"):
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
            assert np.array_equal(Y, Z)


def test_report_round_trip(tmp_path):
    doc = {"task": "classification", "mean": {"best_accuracy": 0.75}, "n": 3}
    save_report(doc, tmp_path / "rep.json")
    assert read_json_object(tmp_path / "rep.json") == doc
