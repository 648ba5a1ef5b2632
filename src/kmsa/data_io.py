"""Dataset files, synthetic generation, and model persistence.

File conventions: matrices are plain CSV with one sample per row; an optional
header row is detected by a non-numeric first cell. Floats serialize with 17
significant digits, which round-trips IEEE doubles exactly. A matrix is
written with one %-format over a repeated row template and read with
np.loadtxt. A file that loadtxt rejects, or that holds a non-finite value, is
read again one cell at a time with float(): that parser accepts every spelling
float() accepts (digit-group underscores, non-ASCII digits) and words every
FormatError. A model is a directory holding manifest.json (sorted keys, with a
format-version field) and per view v the coefficient matrix
coefficients_<v>.csv, the training embedding embedding_<v>.csv and, for a
centered model, the training kernel's row means kernel_means_<v>.csv (one per
row), plus an optional train/ dataset.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .errors import ConfigError, FormatError, IoError, VersionError
from .types import KERNEL_KINDS, KernelSpec, KmsaConfig, KmsaModel, MultiviewDataset

FORMAT_VERSION = 3


def format_float(x: float) -> str:
    return f"{x:.17g}"


def write_matrix_csv(path, A: np.ndarray, header=None) -> None:
    """Write a matrix with one row per line; rows of A are file rows."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    row = ",".join(["%.17g"] * A.shape[1]) + "\n"
    text = (row * A.shape[0]) % tuple(A.ravel().tolist())
    if header is not None:
        text = ",".join(header) + "\n" + text
    # a file with neither header nor rows is one empty line
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


def read_matrix_csv(path) -> np.ndarray:
    """Read a samples-by-features CSV, skipping a header row when the first
    cell is not numeric. Raises IoError / FormatError."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    lines = [ln for ln in text.splitlines() if ln.strip()]
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
            raise FormatError(
                f"{path}: ragged row {i} has {len(cells)} cells, expected {width}"
            )
        rows.append([_parse_cell(c, path, i, j + 1) for j, c in enumerate(cells)])
    return np.asarray(rows, dtype=float)


def load_dataset(dir_path) -> MultiviewDataset:
    """Load view_<k>.csv files (rows are samples) plus optional labels.csv
    (one class id per line).

    Views are transposed to the column-major D_v x N convention and ordered by
    ascending k. A dataset that MultiviewDataset rejects raises FormatError
    with the rule's message and the files it judged.
    """
    dir_path = Path(dir_path)
    if not dir_path.is_dir():
        raise IoError(f"dataset directory not found: {dir_path}")
    found = []
    for p in dir_path.glob("view_*.csv"):
        stem = p.stem[len("view_"):]
        try:
            found.append((int(stem), p))
        except ValueError:
            continue
    if not found:
        raise IoError(f"no view_<k>.csv files in {dir_path}")
    found.sort()
    views = [read_matrix_csv(p).T for _, p in found]
    labels_path = dir_path / "labels.csv"
    labels = read_matrix_csv(labels_path) if labels_path.exists() else None
    if labels is not None and labels.shape[1] == 1:  # one id per line
        labels = labels[:, 0]
    try:
        return MultiviewDataset(views=views, labels=labels)
    except ConfigError as exc:  # the rule numbers views from 0, in file order
        named = [labels_path] if exc.code.startswith("labels_") else [p for _, p in found]
        raise FormatError(f"{dir_path}: {exc} (from {', '.join(p.name for p in named)})") from exc


def save_dataset(data: MultiviewDataset, dir_path) -> None:
    """Write a dataset directory loadable by load_dataset."""
    dir_path = Path(dir_path)
    dir_path.mkdir(parents=True, exist_ok=True)
    for v, X in enumerate(data.views, start=1):
        write_matrix_csv(dir_path / f"view_{v}.csv", X.T)
    if data.labels is not None:
        lines = "\n".join(str(int(y)) for y in data.labels) + "\n"
        (dir_path / "labels.csv").write_text(lines, encoding="utf-8")


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
        "n_views": len(model.coefficients),
        "alpha": [format_float(a) for a in model.alpha],
        "objective_trace": [format_float(g) for g in model.objective_trace],
        "config": model.config.to_dict(),
        "kernels": [k.to_dict() for k in model.kernels],
        "log": list(model.log),
    }
    save_report(manifest, path / "manifest.json")
    for v, (U, Y) in enumerate(zip(model.coefficients, model.embeddings), start=1):
        write_matrix_csv(path / f"coefficients_{v}.csv", U)
        write_matrix_csv(path / f"embedding_{v}.csv", Y)
    for v, mu in enumerate(model.kernel_means or (), start=1):
        write_matrix_csv(path / f"kernel_means_{v}.csv", mu[:, None])
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
    missing, mistyped or invalid entry raises FormatError."""
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
        n_views = manifest["n_views"]
        alpha = np.array([float(a) for a in _json_array(manifest, "alpha", str)])
        kernels = tuple(KernelSpec.from_dict(k) for k in _json_array(manifest, "kernels"))
        for spec in kernels:
            if spec.kind not in KERNEL_KINDS:
                raise FormatError(f"{manifest_path}: unknown kernel kind {spec.kind!r}")
        if type(n_views) is not int or not n_views == len(alpha) == len(kernels):
            raise FormatError(
                f"{manifest_path}: n_views {n_views!r} is not the integer count of "
                f"its {len(alpha)} weights and {len(kernels)} kernels"
            )
        views = range(1, n_views + 1)
        config = KmsaConfig.from_dict(manifest["config"])
        coefficients = tuple(read_matrix_csv(path / f"coefficients_{v}.csv") for v in views)
        return KmsaModel(
            coefficients=coefficients,
            alpha=alpha,
            objective_trace=tuple(float(g) for g in _json_array(manifest, "objective_trace", str)),
            embeddings=tuple(read_matrix_csv(path / f"embedding_{v}.csv") for v in views),
            config=config,
            kernels=kernels,
            log=tuple(_json_array({"log": [], **manifest}, "log", str)),
            kernel_means=_read_means(path, coefficients) if config.center_kernel else None,
        )
    except (KeyError, TypeError, ValueError, ConfigError) as exc:
        raise FormatError(f"{manifest_path}: malformed manifest: {exc!r}") from exc


def _read_means(path: Path, coefficients) -> tuple:
    """A centered model's training-kernel row means, per view one value for
    each training sample; FormatError when a file is missing or misshapen."""
    means = []
    for v, U in enumerate(coefficients, start=1):
        file = path / f"kernel_means_{v}.csv"
        if not file.is_file():
            raise FormatError(f"{path}: centered model has no {file.name}")
        mu = read_matrix_csv(file)
        if mu.shape != (len(U), 1):
            raise FormatError(f"{file}: {mu.shape} values, expected {len(U)} rows of one")
        means.append(mu[:, 0])
    return tuple(means)


def load_training_data(model_path) -> MultiviewDataset:
    """The training dataset stored alongside a model by cmd_fit."""
    return load_dataset(Path(model_path) / "train")


def save_report(report: dict, path) -> None:
    """Structured-text metrics file: JSON with sorted keys."""
    Path(path).write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def read_json_object(path) -> dict:
    """The JSON object in the file at path. Raises IoError when the file cannot
    be read, FormatError when it is not JSON or not an object."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise FormatError(f"{path}: expected a JSON object, got {type(doc).__name__}")
    return doc
