"""Command-line surface for batch experimentation.

Subcommands: fit, transform, eval, synth. Exit codes: 0 success, 1 bad
flags/configuration, 2 I/O or file-format failure, 3 numeric failure. Every
command prints one machine-parsable key=value summary line on stdout and is
deterministic given --seed. A command returns its summary's fields; main
prints them after status=ok and command=<name>.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import data_io, evaluation, optimizer
from .errors import (
    ConfigError,
    DimensionError,
    EvalError,
    FormatError,
    GraphError,
    IoError,
    KmsaError,
    NumericError,
    VersionError,
)
from .types import GRAPH_KINDS, KmsaConfig

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_IO = 2
EXIT_NUMERIC = 3

# each task's headline metric: evaluate_repeat's best view and eval's summary
HEADLINE = {"classification": "accuracy", "retrieval": "map"}


class UsageError(Exception):
    pass


class Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; remap onto the exit taxonomy
    def error(self, message):
        raise UsageError(f"{message}\n{self.format_usage()}")


def load_config_file(path, recipe=None) -> KmsaConfig:
    """The JSON config at path; recipe, when given, replaces every view's
    graph kind."""
    cfg = KmsaConfig.from_dict(data_io.read_json_object(path))
    return cfg.with_graph_kind(recipe) if recipe else cfg


def summary_line(**kv) -> str:
    parts = []
    for key, value in kv.items():
        if isinstance(value, float):
            value = f"{value:.6g}"
        parts.append(f"{key}={value}")
    return " ".join(parts)


def format_alpha(alpha) -> str:
    return "|".join(f"{a:.6g}" for a in alpha)


def write_fit_outputs(out_dir: Path, model, data) -> None:
    """kmsa fit's outputs: the model, with its training set, under out_dir/model."""
    data_io.save_model(model, out_dir / "model", train_data=data)


def out_path(out, is_file=False) -> Path:
    """--out as a Path; ConfigError when it, or the directory of a file
    --out, is part of a model (data_io.is_model_part)."""
    path = Path(out)
    if data_io.is_model_part(path.parent if is_file else path):
        raise ConfigError("out_is_model", f"--out must not be part of a model directory: {path}")
    return path


def cmd_fit(args) -> dict:
    cfg = load_config_file(args.config, args.recipe)
    data = data_io.load_dataset(args.data)
    model = optimizer.fit(data, cfg)
    out_dir = Path(args.out)
    write_fit_outputs(out_dir, model, data)
    m = len(model.embeddings)
    divergences = [
        optimizer.gram_divergence(model.coefficients[v], model.coefficients[w])
        for v in range(m)
        for w in range(v + 1, m)
    ]
    return dict(
        views=data.n_views,
        samples=data.n_samples,
        d=cfg.d,
        sweeps=len(model.objective_trace) - 1,
        objective=model.objective_trace[-1],
        alpha=format_alpha(model.alpha),
        mean_divergence=float(np.mean(divergences)) if divergences else 0.0,
        out=out_dir,
    )


def cmd_transform(args) -> dict:
    model_dir, out_dir = Path(args.model), out_path(args.out)
    model = data_io.load_model(model_dir)
    train = data_io.load_training_data(model_dir)
    new = data_io.load_dataset(args.data)
    embedded = optimizer.transform(model, new.views, train)
    out_dir.mkdir(parents=True, exist_ok=True)
    data_io.save_embeddings(embedded, out_dir)
    return dict(views=len(embedded), points=new.n_samples, d=embedded[0].shape[0], out=out_dir)


def split_indices(n: int, train_frac: float, rng) -> tuple:
    n_train = int(round(train_frac * n))
    n_train = min(max(n_train, 1), n - 1)
    perm = rng.permutation(n)
    return np.sort(perm[:n_train]), np.sort(perm[n_train:])


def evaluate_repeat(data, cfg, task, train_idx, test_idx, cutoffs):
    """Fit on one split and score every view. Returns the per-view metric
    records, the best view (highest accuracy or mAP, ties to the lowest
    view) and the model."""
    train = data.subset(train_idx)
    test = data.subset(test_idx)
    model = optimizer.fit(train, cfg)
    test_embedded = optimizer.transform(model, test.views, train)
    per_view = []
    for v in range(data.n_views):
        if task == "classification":
            acc = evaluation.knn_classify(
                model.embeddings[v], train.labels, test_embedded[v], test.labels
            )
            per_view.append({"accuracy": acc})
        else:
            per_view.append(
                evaluation.retrieval_metrics(
                    test_embedded[v], model.embeddings[v], test.labels, train.labels, cutoffs
                )
            )
    best = int(np.argmax([rec[HEADLINE[task]] for rec in per_view]))
    return per_view, best, model


def cmd_eval(args) -> dict:
    out = out_path(args.out, is_file=True)
    cfg = load_config_file(args.config, args.recipe)
    data = data_io.load_dataset(args.data)
    if data.labels is None:
        raise EvalError("evaluation requires labels.csv in the dataset directory")
    if not 0.0 < args.train_frac < 1.0:
        raise ConfigError("train_frac_range", "--train-frac must lie in (0, 1)")
    if args.repeats < 1:
        raise ConfigError("repeats_range", "--repeats must be >= 1")
    task = "classification" if args.task == "classify" else "retrieval"
    if task == "classification" and args.top_n:
        raise ConfigError("top_n_task", "--top-n applies only to --task retrieve")

    splits = [
        split_indices(data.n_samples, args.train_frac, np.random.default_rng(args.seed + i))
        for i in range(args.repeats)
    ]
    cutoffs = None
    if task == "retrieval":
        gallery_size = len(splits[0][0])  # every split has the same size
        if args.top_n:
            try:
                cutoffs = [int(x) for x in args.top_n.split(",")]
            except ValueError:
                raise ConfigError(
                    "top_n_format",
                    f"--top-n must be comma-separated integers, got {args.top_n!r}",
                ) from None
            if any(c < 1 or c > gallery_size for c in cutoffs):
                raise ConfigError(
                    "top_n_range",
                    f"--top-n entries must lie in [1, {gallery_size}]",
                )
        else:
            cutoffs = sorted({min(c, gallery_size) for c in (1, 5, 10)})

    repeats = []
    for i, (train_idx, test_idx) in enumerate(splits):
        per_view, best, model = evaluate_repeat(data, cfg, task, train_idx, test_idx, cutoffs)
        repeats.append(
            {
                "repeat": i,
                "seed": args.seed + i,
                "best_view": best,
                "best": per_view[best],
                "views": per_view,
                "alpha": [data_io.format_float(a) for a in model.alpha],
            }
        )

    # best_<key>: each entry of the best view's record averaged over the
    # repeats, a per-cutoff list entry by entry; cutoffs copied once
    mean_block = {}
    for key, first in repeats[0]["best"].items():
        values = [r["best"][key] for r in repeats]
        if key == "cutoffs":
            mean_block[key] = first
        elif isinstance(first, list):
            mean_block[f"best_{key}"] = [float(np.mean(col)) for col in zip(*values)]
        else:
            mean_block[f"best_{key}"] = float(np.mean(values))

    report_doc = {
        "task": task,
        "repeats": args.repeats,
        "train_frac": args.train_frac,
        "seed": args.seed,
        "per_repeat": repeats,
        "mean": mean_block,
    }
    out.parent.mkdir(parents=True, exist_ok=True)
    data_io.save_report(report_doc, out)
    metric = HEADLINE[task]
    return {
        "task": args.task,
        "repeats": args.repeats,
        "train_frac": args.train_frac,
        "seed": args.seed,
        f"mean_best_{metric}": mean_block[f"best_{metric}"],
        "out": out,
    }


def cmd_synth(args) -> dict:
    out_dir = out_path(args.out)
    try:
        data = data_io.generate_synthetic(
            classes=args.classes,
            per_class=args.per_class,
            informative_views=args.informative_views,
            noise_views=args.noise_views,
            latent_dim=args.latent_dim,
            noise_scale=args.noise_scale,
            seed=args.seed,
        )
    except ValueError as exc:
        raise ConfigError("bad_generator_flags", str(exc)) from None
    data_io.save_dataset(data, out_dir)
    return dict(views=data.n_views, samples=data.n_samples, classes=args.classes, out=out_dir)


def build_parser() -> Parser:
    parser = Parser(prog="kmsa", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit a model on a dataset directory")
    p_fit.add_argument("--data", required=True, help="dataset directory")
    p_fit.add_argument("--out", required=True, help="output directory")
    p_fit.add_argument("--config", required=True, help="JSON config file")
    p_fit.add_argument("--recipe", choices=GRAPH_KINDS, help="graph recipe for all views")
    p_fit.set_defaults(func=cmd_fit)

    p_tr = sub.add_parser("transform", help="embed new points with a fitted model")
    p_tr.add_argument("--model", required=True, help="model directory written by fit")
    p_tr.add_argument("--data", required=True, help="dataset directory of new points")
    p_tr.add_argument("--out", required=True, help="output directory")
    p_tr.set_defaults(func=cmd_transform)

    p_ev = sub.add_parser("eval", help="repeated split-fit-evaluate protocol")
    p_ev.add_argument("--task", required=True, choices=("classify", "retrieve"))
    p_ev.add_argument("--data", required=True, help="labeled dataset directory")
    p_ev.add_argument("--config", required=True, help="JSON config file")
    p_ev.add_argument("--out", required=True, help="metrics file to write")
    p_ev.add_argument("--repeats", type=int, default=20)
    p_ev.add_argument("--train-frac", type=float, default=0.5)
    p_ev.add_argument("--seed", type=int, default=0)
    p_ev.add_argument("--top-n", default="", help="retrieval cutoffs, e.g. 1,5,10")
    p_ev.add_argument("--recipe", choices=GRAPH_KINDS, help="graph recipe for all views")
    p_ev.set_defaults(func=cmd_eval)

    p_sy = sub.add_parser("synth", help="generate a synthetic multiview dataset")
    p_sy.add_argument("--out", required=True, help="dataset directory to write")
    p_sy.add_argument("--classes", type=int, default=3)
    p_sy.add_argument("--per-class", type=int, default=20)
    p_sy.add_argument("--informative-views", type=int, default=3)
    p_sy.add_argument("--noise-views", type=int, default=1)
    p_sy.add_argument("--latent-dim", type=int, default=4)
    p_sy.add_argument("--noise-scale", type=float, default=1.0)
    p_sy.add_argument("--seed", type=int, default=0)
    p_sy.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        fields = args.func(args)
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_CONFIG
    except (ConfigError, GraphError, DimensionError, EvalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (IoError, FormatError, VersionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (NumericError, KmsaError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    print(summary_line(status="ok", command=args.command, **fields))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
