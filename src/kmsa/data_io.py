"""Dataset files, synthetic generation, and model persistence.

File conventions: matrices are plain CSV with one sample per row; an optional
header row is detected by a non-numeric first cell. Floats serialize with 17
significant digits, which round-trips IEEE doubles exactly. A matrix is
written with one %-format over a repeated row template and read with
np.loadtxt. A file that loadtxt rejects, or that holds a non-finite value, is
read again one cell at a time with float(): that parser accepts every spelling
float() accepts (digit-group underscores, non-ASCII digits) and words every
FormatError. A model is a directory holding manifest.json (sorted keys, with a
format-version field) and per view v, each file N rows of one sample: the
coefficients coefficients_<v>.csv, the embedding embeddings_<v>.csv (as kmsa
transform writes it) and, for a centered model, the training kernel's row
means kernel_means_<v>.csv, plus an optional train/ dataset. A writer
replaces: it removes the files of its name patterns that it did not write
(views beyond its own, an unlabeled set's labels.csv, format 3's embeddings).
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .errors import ConfigError, FormatError, IoError, VersionError
from .types import MEDIAN, KernelSpec, KmsaConfig, KmsaModel, MultiviewDataset

FORMAT_VERSION = 4


def format_float(x: float) -> str:
    return f"{x:.17g}"


def write_matrix_csv(path, A: np.ndarray) -> None:
    """Write a matrix with one row per line; rows of A are file rows."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    row = ",".join(["%.17g"] * A.shape[1]) + "\n"
    text = (row * A.shape[0]) % tuple(A.ravel().tolist())
    # a file with no rows is one empty line
    Path(path).write_text(text or "\n", encoding="utf-8")


def _parse_cell(text: str, path, row: int, col: int) -> float:
    try:
        value = float(text)
    except ValueError:
        raise FormatError(
            f"{path}: non-numeric cell at row {row}, column {col}: {text!r}"
        ) from None
    if not math.isfinite(value):
        raise FormatError(f"{path}: non-finite cell at row {row}, column {col}")
    return value


def _read_text(path: Path) -> str:
    """The file's UTF-8 text less a leading BOM; IoError if unreadable, FormatError if not UTF-8."""
    try:
        return path.read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text: {exc}") from None


def read_matrix_csv(path) -> np.ndarray:
    """Read a samples-by-features CSV, skipping a header row when the first
    cell is not numeric. Raises IoError / FormatError."""
    path = Path(path)
    lines = [ln for ln in _read_text(path).splitlines() if ln.strip()]
    if not lines:
        raise FormatError(f"{path}: empty file")
    start = 0
    try:
        float(lines[0].split(",")[0])
    except ValueError:
        start = 1  # header row sniffed
    if start == len(lines):
        raise FormatError(f"{path}: no data rows")
    try:
        A = np.loadtxt(lines[start:], delimiter=",", comments=None, ndmin=2)
    except ValueError:
        A = None
    if A is None or not np.isfinite(A).all():
        A = _parse_rows(lines, start, path)
    return A


def _parse_rows(lines, start, path) -> np.ndarray:
    """lines[start:] parsed one cell at a time; FormatError names the first
    ragged row or bad cell (1-based file row and column)."""
    rows = []
    width = None
    for i, line in enumerate(lines[start:], start=start + 1):
        cells = line.split(",")
        if width is None:
            width = len(cells)
        elif len(cells) != width:
            raise FormatError(f"{path}: ragged row {i} has {len(cells)} cells, expected {width}")
        rows.append([_parse_cell(c, path, i, j + 1) for j, c in enumerate(cells)])
    return np.asarray(rows, dtype=float)


def load_dataset(dir_path) -> MultiviewDataset:
    """Load view_<k>.csv files (rows are samples) plus optional labels.csv
    (one class id per line).

    Views are transposed to the column-major D_v x N convention and ordered by
    ascending k. FormatError for two files of one k (view_1.csv, view_01.csv),
    for a class id of 2^53 or more, which a double may not read exactly, and
    for a dataset that MultiviewDataset rejects, with the rule's message and
    the files it judged.
    """
    dir_path = Path(dir_path)
    if not dir_path.is_dir():
        raise IoError(f"dataset directory not found: {dir_path}")
    found = sorted(_indexed_files(dir_path, "view"))
    if not found:
        raise IoError(f"no view_<k>.csv files in {dir_path}")
    for (k, a), (j, b) in zip(found, found[1:]):
        if k == j:  # save_dataset would keep only view_<k>.csv
            raise FormatError(f"{dir_path}: {a.name} and {b.name} both hold view {k}")
    views = [read_matrix_csv(p).T for _, p in found]
    labels_path = dir_path / "labels.csv"
    labels = read_matrix_csv(labels_path) if labels_path.exists() else None
    if labels is not None and (labels >= 2.0**53).any():  # 2^53 + 1 reads as 2^53
        raise FormatError(f"{dir_path}: class ids must be below 2^53 (from labels.csv)")
    if labels is not None and labels.shape[1] == 1:  # one id per line
        labels = labels[:, 0]
    try:
        return MultiviewDataset(views=views, labels=labels)
    except ConfigError as exc:  # the rule numbers views from 0, in file order
        named = [labels_path] if exc.code.startswith("labels_") else [p for _, p in found]
        raise FormatError(f"{dir_path}: {exc} (from {', '.join(p.name for p in named)})") from exc


def _indexed_files(dir_path: Path, name: str) -> list:
    """(k, path) of each dir_path/<name>_<k>.csv whose k int() parses."""
    found = []
    for path in dir_path.glob(f"{name}_*.csv"):
        try:
            found.append((int(path.stem[len(name) + 1:]), path))
        except ValueError:
            continue
    return found


def _write_view_matrices(dir_path: Path, name: str, matrices) -> None:
    """Write matrix v as dir_path/<name>_<v>.csv, v from 1, and delete every
    other <name>_<k>.csv whose k int() parses: an earlier write's."""
    for v, A in enumerate(matrices, start=1):
        write_matrix_csv(dir_path / f"{name}_{v}.csv", A)
    keep = {f"{name}_{v}.csv" for v in range(1, len(matrices) + 1)}
    for _, path in _indexed_files(dir_path, name):
        if path.name not in keep:
            path.unlink()


def save_dataset(data: MultiviewDataset, dir_path) -> None:
    """Write a dataset directory loadable by load_dataset."""
    dir_path = Path(dir_path)
    dir_path.mkdir(parents=True, exist_ok=True)
    _write_view_matrices(dir_path, "view", [X.T for X in data.views])
    labels_path = dir_path / "labels.csv"
    labels_path.unlink(missing_ok=True)
    if data.labels is not None:
        lines = "\n".join(str(int(y)) for y in data.labels) + "\n"
        labels_path.write_text(lines, encoding="utf-8")


def generate_synthetic(
    classes: int = 3,
    per_class: int = 20,
    informative_views: int = 3,
    noise_views: int = 1,
    latent_dim: int = 4,
    noise_scale: float = 1.0,
    seed: int = 0,
) -> MultiviewDataset:
    """Clustered multiview data with optional label-free noise views.

    Class centers are drawn in a latent space; each informative view applies
    its own random linear map to the latent points plus Gaussian noise, so all
    informative views share the label structure through the latent variables.
    Noise views are pure Gaussian noise with no label dependence. Deterministic
    given the seed.
    """
    if min(classes, per_class, latent_dim) < 1 or informative_views < 1:
        raise ValueError("classes, per_class, informative_views, latent_dim must be >= 1")
    if noise_views < 0:
        raise ValueError("noise_views must be >= 0")
    rng = np.random.default_rng(seed)
    n = classes * per_class
    centers = 3.0 * rng.standard_normal((latent_dim, classes))
    labels = np.repeat(np.arange(classes), per_class)
    latent = centers[:, labels] + 0.5 * rng.standard_normal((latent_dim, n))
    views = []
    for v in range(informative_views):
        dim = latent_dim + 2 + v
        lin = rng.standard_normal((dim, latent_dim)) / np.sqrt(latent_dim)
        views.append(lin @ latent + 0.3 * noise_scale * rng.standard_normal((dim, n)))
    for v in range(noise_views):
        dim = latent_dim + 2 + informative_views + v
        views.append(noise_scale * rng.standard_normal((dim, n)))
    return MultiviewDataset(views=views, labels=labels)


def save_embeddings(embeddings, dir_path: Path) -> None:
    """Write each view's d x N embedding as dir_path/embeddings_<v>.csv, one
    sample per row: a model's training embeddings and kmsa transform's output."""
    _write_view_matrices(dir_path, "embeddings", [Y.T for Y in embeddings])


def save_model(model: KmsaModel, path, train_data: MultiviewDataset | None = None) -> None:
    """Write a model directory: manifest.json plus per-view coefficient,
    embedding and, for a centered model, kernel-mean CSVs.

    When train_data is given it is stored under train/ so out-of-sample
    transformation needs nothing else.
    """
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    manifest = {
        "format_version": FORMAT_VERSION,
        "alpha": [format_float(a) for a in model.alpha],
        "objective_trace": [format_float(g) for g in model.objective_trace],
        "config": model.config.to_dict(),
        "kernels": [k.to_dict() for k in model.kernels],
        "log": list(model.log),
    }
    save_report(manifest, path / "manifest.json")
    _write_view_matrices(path, "coefficients", model.coefficients)
    save_embeddings(model.embeddings, path)
    _write_view_matrices(path, "kernel_means", [mu[:, None] for mu in model.kernel_means or ()])
    _write_view_matrices(path, "embedding", [])  # format 3's embeddings
    if train_data is not None:
        save_dataset(train_data, path / "train")


def _json_array(doc: dict, key: str, item=object) -> list:
    """doc[key] if it is a JSON array of item entries, else TypeError: a
    string is not the array of its characters."""
    value = doc[key]
    if not (isinstance(value, list) and all(isinstance(x, item) for x in value)):
        raise TypeError(f"{key!r} is not a JSON array of {item.__name__} entries")
    return value


def load_model(path) -> KmsaModel:
    """Reload a model directory written by save_model. A manifest with a
    missing, mistyped or invalid entry (a Gaussian median bandwidth, which fit
    resolves), or a missing or misshapen per-view file, raises FormatError."""
    path = Path(path)
    manifest_path = path / "manifest.json"
    if not manifest_path.exists():
        raise IoError(f"no manifest.json in {path}")
    manifest = read_json_object(manifest_path)
    version = manifest.get("format_version")
    if version != FORMAT_VERSION:
        raise VersionError(
            f"model format version {version!r} is not supported (expected {FORMAT_VERSION})"
        )
    try:
        alpha = np.array([float(a) for a in _json_array(manifest, "alpha", str)])
        kernels = tuple(KernelSpec.from_dict(k) for k in _json_array(manifest, "kernels"))
        if any(k.kind == "gaussian" and k.bandwidth == MEDIAN for k in kernels):
            raise FormatError(f"{manifest_path}: a gaussian kernel keeps a {MEDIAN!r} bandwidth")
        if len(kernels) != len(alpha):
            raise FormatError(f"{manifest_path}: {len(alpha)} weights but {len(kernels)} kernels")
        if not kernels:
            raise FormatError(f"{manifest_path}: a model needs at least one view")
        config = KmsaConfig.from_dict(manifest["config"])
        m, d = len(alpha), config.d
        coefficients = _read_view_matrices(path, "coefficients", m, d)
        n = len(coefficients[0])
        means = None
        if config.center_kernel:
            means = tuple(mu[:, 0] for mu in _read_view_matrices(path, "kernel_means", m, 1, n))
        return KmsaModel(
            coefficients=coefficients,
            alpha=alpha,
            objective_trace=tuple(float(g) for g in _json_array(manifest, "objective_trace", str)),
            embeddings=tuple(Y.T for Y in _read_view_matrices(path, "embeddings", m, d, n)),
            config=config,
            kernels=kernels,
            log=tuple(_json_array({"log": [], **manifest}, "log", str)),
            kernel_means=means,
        )
    except (KeyError, TypeError, ValueError, ConfigError) as exc:
        raise FormatError(f"{manifest_path}: malformed manifest: {exc!r}") from exc


def _read_view_matrices(path: Path, name: str, m: int, cols: int, rows=None) -> tuple:
    """<name>_1.csv to <name>_<m>.csv of a model directory, each rows x cols,
    rows defaulting to the first file's; FormatError names a missing or
    misshapen file."""
    matrices = []
    for v in range(1, m + 1):
        file = path / f"{name}_{v}.csv"
        if not file.is_file():
            raise FormatError(f"{path}: model has no {file.name}")
        A = read_matrix_csv(file)
        rows = len(A) if rows is None else rows
        if A.shape != (rows, cols):
            raise FormatError(f"{file}: {A.shape} values, expected {(rows, cols)}")
        matrices.append(A)
    return tuple(matrices)


def is_model_part(path) -> bool:
    """Whether a directory is part of a model: it holds a manifest.json, or
    it is a train/ whose parent does. A command that writes elsewhere must
    not write there."""
    path = Path(path).resolve()
    return (path / "manifest.json").exists() or (
        path.name == "train" and (path.parent / "manifest.json").exists()
    )


def load_training_data(model_path) -> MultiviewDataset:
    """The training dataset stored alongside a model by cmd_fit."""
    return load_dataset(Path(model_path) / "train")


def save_report(report: dict, path) -> None:
    """Structured-text metrics file: JSON with sorted keys."""
    Path(path).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _finite_number(text: str) -> float:
    """A JSON float's value; ValueError for NaN, +-Infinity or an overflow."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text} is not a finite number")
    return value


def read_json_object(path) -> dict:
    """The JSON object in the file at path. Raises IoError when the file cannot
    be read, FormatError when it is not an object of finite JSON numbers."""
    path = Path(path)
    text = _read_text(path)
    try:
        doc = json.loads(text, parse_float=_finite_number, parse_constant=_finite_number)
    except ValueError as exc:  # json.JSONDecodeError among them
        raise FormatError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise FormatError(f"{path}: expected a JSON object, got {type(doc).__name__}")
    return doc
