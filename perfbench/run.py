"""kmsa benchmark: four workloads driving the library and the CLI in-process.

    python3 perfbench/run.py --workload fit-n400 --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; ``src/`` is put on ``sys.path``.
Inputs come from ``kmsa.generate_synthetic`` with ``--seed``. Operations of
the workload repeat until ``--seconds`` would be exceeded (at least one runs).
Every operation's outputs are checked. The last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
``end_to_end`` metrics of ``BENCHMARK.json`` with ``--trace 0``, its
``per_layer`` metrics with ``--trace 1``. The traced run alternates untraced
and traced operations, so the tracing overhead is measured in the same run.
The environment block, per-operation details and the spans are written to
``.perfbench-out/``. See ``perfbench/README.md`` for the metric definitions.
"""

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
RECEIVED_THREAD_ENV = {var: os.environ.get(var) for var in THREAD_VARS}
# BLAS reads these once, when NumPy is first imported.
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402
from dataclasses import dataclass, replace  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
REFERENCES = HERE / "references.json"

sys.path.insert(0, str(SRC))
import numpy as np  # noqa: E402
import scipy  # noqa: E402

import kmsa  # noqa: E402
import kmsa.cli  # noqa: E402
from kmsa import optimizer  # noqa: E402
from spans import LAYERS, Recorder, layer_of, public_functions, self_times  # noqa: E402

# Reference values are compared within these tolerances: the final objective
# relative to its magnitude, mean_best_map absolutely. At the default ridge the
# lpp pencil of fit-n400 is ill-conditioned: an equivalent eigensolver route
# (scipy.linalg.eigh with subset_by_index) moves its final objective by up to
# 2e-3 relative, so a tighter objective tolerance would reject such a change.
OBJECTIVE_RTOL = 1e-2
MAP_ATOL = 1e-3
# Stored embeddings against the reloaded model's transform of the training views.
EMBEDDING_RTOL = 1e-10

SETUP_REPEATS = 3
WARMUP_SEED = 0
SECOND_SET_OFFSET = 1_000_000

# Functions recorded in every run: fit_s and the per-repeat latency need the
# first two, the output checks need the return values of all four.
ALWAYS = ("optimizer.fit", "cli.evaluate_repeat", "data_io.load_model", "data_io.load_training_data")
CAPTURE = ("optimizer.fit", "data_io.load_model", "data_io.load_training_data")


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "fit": kmsa.fit; "eval": kmsa eval; "cli": kmsa fit + kmsa transform
    per_class: int
    config: dict
    repeats: int = 0


# Library defaults apart from d, the recipe and max_iters: the acceptance suite
# claims monotone descent at these defaults, so the monotone check applies.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("fit-n400", "fit", 133, {"d": 4, "graph": {"kind": "lpp"}, "max_iters": 30}),
        Workload("eval-small", "eval", 40, {"d": 4}, repeats=40),
        Workload("cli-persist", "cli", 133, {"d": 4, "graph": {"kind": "lda"}, "max_iters": 3}),
        # N=21 rather than 30: the lasso's cost grows with N^2, and at N=30 a
        # run holds only two operations, too few for a steady median here
        Workload("spp-graph", "fit", 7, {"d": 4, "graph": {"kind": "spp"}, "max_iters": 30}),
    )
}


def warmup_workload(w: Workload) -> Workload:
    """The same operation on a tiny input: finishes lazy imports and LAPACK
    dispatch before anything is timed."""
    # the pure-Python lasso makes an spp warm-up slow unless N is tiny
    per_class = 2 if w.config.get("graph", {}).get("kind") == "spp" else 6
    return replace(
        w,
        per_class=per_class,
        config={**w.config, "max_iters": 2},
        repeats=min(w.repeats, 2),
    )


# ---------------------------------------------------------------- inputs


def generate(per_class: int, seed: int):
    return kmsa.generate_synthetic(
        classes=3, per_class=per_class, informative_views=3, noise_views=1, seed=seed
    )


def prepare(w: Workload, seed: int, workdir: Path) -> dict:
    """Generated arrays for library workloads; dataset directories and a
    config file for CLI workloads."""
    data = generate(w.per_class, seed)
    inputs = {"workload": w, "seed": seed, "data": data, "cfg": kmsa.KmsaConfig.from_dict(w.config)}
    if w.kind in ("eval", "cli"):
        workdir.mkdir(parents=True, exist_ok=True)
        kmsa.save_dataset(data, workdir / "train")
        (workdir / "config.json").write_text(json.dumps(w.config), encoding="utf-8")
        inputs["dir"] = workdir
    if w.kind == "cli":
        kmsa.save_dataset(generate(w.per_class, seed + SECOND_SET_OFFSET), workdir / "new")
    return inputs


def setup(w: Workload, seed: int) -> tuple:
    """Returns (inputs, setup_s). setup_s is the median import time of
    ``kmsa.cli`` in a fresh interpreter plus the median of repeated input
    generation, dataset writing and warm-up in this process."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    imports = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import kmsa.cli"], env=env, check=True)
        imports.append(time.perf_counter() - start)

    tiny = warmup_workload(w)
    rounds = []
    inputs = None
    for i in range(SETUP_REPEATS):
        start = time.perf_counter()
        base = OUT / "inputs" / f"{w.name}-{seed}-{i}"
        shutil.rmtree(base, ignore_errors=True)
        inputs = prepare(w, seed, base / "full")
        warm = prepare(tiny, WARMUP_SEED, base / "warm")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            run_op(warm, recorder(False))
        rounds.append(time.perf_counter() - start)
        if i + 1 < SETUP_REPEATS:
            shutil.rmtree(base, ignore_errors=True)
    return inputs, statistics.median(imports) + statistics.median(rounds)


# ---------------------------------------------------------------- operations


def recorder(traced: bool):
    functions = public_functions()
    if not traced:
        functions = {name: functions[name] for name in ALWAYS}
    return Recorder(functions, capture=CAPTURE)


def run_cli(argv) -> int:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = kmsa.cli.main(argv)
    if code != 0:
        raise RuntimeError(f"kmsa {argv[0]} exited {code}: {err.getvalue().strip()}")
    return code


def dir_bytes(path: Path, skip=None) -> int:
    return sum(
        p.stat().st_size
        for p in path.rglob("*")
        if p.is_file() and (skip is None or skip not in p.relative_to(path).parts)
    )


def run_op(inputs: dict, rec) -> dict:
    """One workload operation under ``rec``. Returns the wall time, the
    timed parts and the values the checks need; temporary outputs are
    removed before returning."""
    w = inputs["workload"]
    op = {"parts": {}}
    tmp = Path(tempfile.mkdtemp(prefix="op-", dir=OUT))
    try:
        with rec, rec.span("bench.op") as whole:
            if w.kind == "fit":
                kmsa.fit(inputs["data"], inputs["cfg"])
            elif w.kind == "eval":
                run_cli([
                    "eval", "--task", "retrieve", "--data", str(inputs["dir"] / "train"),
                    "--config", str(inputs["dir"] / "config.json"), "--out", str(tmp / "metrics.json"),
                    "--repeats", str(w.repeats), "--train-frac", "0.5", "--seed", str(inputs["seed"]),
                ])
            else:
                with rec.span("bench.fit_cmd") as part:
                    run_cli([
                        "fit", "--data", str(inputs["dir"] / "train"), "--out", str(tmp / "run"),
                        "--config", str(inputs["dir"] / "config.json"),
                    ])
                op["parts"]["fit_cmd_s"] = part.seconds
                with rec.span("bench.transform_cmd") as part:
                    run_cli([
                        "transform", "--model", str(tmp / "run" / "model"),
                        "--data", str(inputs["dir"] / "new"), "--out", str(tmp / "embedded"),
                    ])
                op["parts"]["transform_cmd_s"] = part.seconds
        op["wall"] = whole.seconds
        if w.kind == "eval":
            op["map"] = json.loads((tmp / "metrics.json").read_text())["mean"]["best_map"]
        if w.kind == "cli":
            model_dir = tmp / "run" / "model"
            op["save_bytes"] = dir_bytes(model_dir)
            op["load_bytes"] = dir_bytes(model_dir, skip="train")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return op


def check(inputs: dict, op: dict, rec, references: dict) -> list:
    """Problems found in one operation's outputs; empty when it is correct."""
    w = inputs["workload"]
    problems = []
    models = rec.captured["optimizer.fit"]
    expected_fits = {"fit": 1, "eval": w.repeats, "cli": 1}[w.kind]
    if len(models) != expected_fits:
        problems.append(f"expected {expected_fits} fits, saw {len(models)}")
    for i, model in enumerate(models):
        trace = model.objective_trace
        for prev, value in zip(trace, trace[1:]):
            if value > prev + optimizer.MONOTONE_SLACK * (1.0 + abs(prev)):
                problems.append(f"fit {i}: objective rose from {prev!r} to {value!r}")
                break
        alpha = np.asarray(model.alpha)
        if not (np.all(alpha > 0) and abs(alpha.sum() - 1.0) < 1e-12):
            problems.append(f"fit {i}: weights {alpha.tolist()} are not on the simplex")
        if not all(np.isfinite(Y).all() for Y in model.embeddings):
            problems.append(f"fit {i}: non-finite embeddings")

    if w.kind == "cli":
        (model,) = rec.captured["data_io.load_model"]
        (train,) = rec.captured["data_io.load_training_data"]
        for v, (got, want) in enumerate(
            zip(optimizer.transform(model, train.views, train), model.embeddings)
        ):
            err = np.linalg.norm(got - want) / np.linalg.norm(want)
            if not err <= EMBEDDING_RTOL:
                problems.append(f"view {v}: reloaded transform differs by {err:.3e} relative")

    ref = references.get(w.name, {}).get(str(inputs["seed"]))
    if ref is not None:
        finals = [model.objective_trace[-1] for model in models]
        if len(finals) != len(ref["objective"]) or not all(
            abs(got - want) <= OBJECTIVE_RTOL * abs(want)
            for got, want in zip(finals, ref["objective"])
        ):
            problems.append("final objectives differ from the reference")
        if "map" in ref and not abs(op["map"] - ref["map"]) <= MAP_ATOL:
            problems.append(f"mean_best_map {op['map']!r} differs from reference {ref['map']!r}")
    if w.kind == "eval" and not 0.0 < op["map"] <= 1.0:
        problems.append(f"mean_best_map {op['map']!r} outside (0, 1]")
    return problems


def reference_values(op: dict, rec) -> dict:
    """The values ``check`` compares against, as recorded from this operation."""
    values = {"objective": [m.objective_trace[-1] for m in rec.captured["optimizer.fit"]]}
    if "map" in op:
        values["map"] = op["map"]
    return values


# ---------------------------------------------------------------- measuring


def measure(inputs: dict, seconds: float, traced_run: bool, references: dict) -> list:
    """Repeat the operation while the next one is expected to finish within
    ``seconds``. A traced run alternates untraced and traced operations."""
    ops = []
    start = time.perf_counter()
    while True:
        traced = traced_run and len(ops) % 2 == 1
        rec = recorder(traced)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                op = run_op(inputs, rec)
                op["problems"] = check(inputs, op, rec, references)
            except Exception:  # counted as a failed operation; the run goes on
                op = {"wall": None, "parts": {}, "problems": [traceback.format_exc()]}
        op["traced"] = traced
        op["warnings"] = {}
        for item in caught:
            name = item.category.__name__
            op["warnings"][name] = op["warnings"].get(name, 0) + 1
        op["spans"] = rec.spans
        op["models"] = [
            {"sweeps": len(m.objective_trace) - 1, "log": list(m.log)}
            for m in rec.captured["optimizer.fit"]
        ]
        ops.append(op)
        walls = [o["wall"] for o in ops if o["wall"] is not None]
        elapsed = time.perf_counter() - start
        enough = not traced_run or len(ops) >= 2
        if enough and (not walls or elapsed + statistics.median(walls) > seconds):
            return ops


def span_durations(ops, name: str) -> list:
    return [end - start for op in ops for n, start, end, _ in op["spans"] if n == name]


def end_to_end(ops, setup_s: float) -> dict:
    ok = [op for op in ops if op["wall"] is not None]
    return {
        "setup_s": setup_s,
        "op_s": statistics.median(op["wall"] for op in ok),
        "fit_s": statistics.median(span_durations(ok, "optimizer.fit")),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def percentile(values, q: int) -> float:
    """The q-th percentile (of 100) by statistics.quantiles' default method."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100)[q - 1]


WARNING_METRICS = {
    "ConvergenceWarning": "warnings.convergence",
    "NonMonotoneWarning": "warnings.non_monotone",
    "WeightDomainWarning": "warnings.weight_domain",
}


def per_layer(ops) -> dict:
    """Per-operation means over the traced operations, plus figures taken
    from the untraced ones (wall times, latencies) and from outputs."""
    ok = [op for op in ops if op["wall"] is not None]
    traced = [op for op in ok if op["traced"]]
    plain = [op for op in ok if not op["traced"]]
    if not (traced and plain):
        return {}
    n = len(traced)
    totals = {}
    for op in traced:
        for name, entry in self_times(op["spans"]).items():
            acc = totals.setdefault(name, {"calls": 0, "self": 0.0, "layer_self": 0.0})
            for key in acc:
                acc[key] += entry[key]

    def fn(name, key):
        return totals.get(name, {}).get(key, 0) / n

    m = {}
    calls = fn("eigsolver.generalized_eigh", "calls")
    m["eigsolver.generalized_eigh.calls"] = calls
    m["eigsolver.generalized_eigh.s"] = fn("eigsolver.generalized_eigh", "layer_self")
    m["eigsolver.generalized_eigh.per_call_ms"] = (
        1e3 * m["eigsolver.generalized_eigh.s"] / calls if calls else 0.0
    )
    for name in (
        "optimizer.build_h", "optimizer.view_trace_terms", "optimizer.objective",
        "optimizer.transform", "graphs.build_graph", "graphs.constraint_matrix",
        "graphs.laplacian", "kernels.resolve_kernel_spec", "kernels.build_kernel",
        "kernels.cross_kernel", "data_io.save_model", "data_io.load_model",
        "data_io.load_dataset", "data_io.save_dataset", "cli.write_fit_outputs",
        "evaluation.retrieval_metrics",
    ):
        m[f"{name}.s"] = fn(name, "layer_self")
    m["evaluation.retrieval_metrics.calls"] = fn("evaluation.retrieval_metrics", "calls")
    m["optimizer.fit.self_s"] = fn("optimizer.fit", "self")

    fits = [model for op in traced for model in op["models"]]
    sweeps = sum(model["sweeps"] for model in fits)
    m["optimizer.sweeps"] = sweeps / n
    fit_time = sum(span_durations(traced, "optimizer.fit"))
    m["optimizer.sweep_ms"] = 1e3 * fit_time / sweeps if sweeps else 0.0
    logs = [line for model in fits for line in model["log"]]
    m["optimizer.clamped_sweeps"] = sum("clamped" in line for line in logs) / n
    capped = sum(line.startswith("lasso column") for line in logs)
    columns = totals.get("graphs.lasso_coordinate_descent", {}).get("calls", 0)
    m["graphs.lasso_capped_columns"] = capped / n
    m["graphs.lasso_converged_ratio"] = (columns - capped) / columns if columns else 0.0

    m["data_io.save_model.bytes"] = statistics.mean(op.get("save_bytes", 0) for op in ok)
    m["data_io.load_model.bytes"] = statistics.mean(op.get("load_bytes", 0) for op in ok)
    m["evaluation.map"] = statistics.mean(op.get("map", 0.0) for op in ok)

    for layer in LAYERS + ("bench",):
        m[f"{layer}.self_s"] = sum(
            entry["self"] for name, entry in totals.items() if layer_of(name) == layer
        ) / n
    for part in ("fit_cmd_s", "transform_cmd_s"):
        values = [op["parts"][part] for op in plain if part in op["parts"]]
        m[f"cli.{part}"] = statistics.median(values) if values else 0.0
    repeats = [1e3 * d for d in span_durations(plain, "cli.evaluate_repeat")]
    m["cli.evaluate_repeat.p50_ms"] = percentile(repeats, 50)
    m["cli.evaluate_repeat.p75_ms"] = percentile(repeats, 75)

    untraced_s = statistics.median(op["wall"] for op in plain)
    traced_s = statistics.median(op["wall"] for op in traced)
    m["trace.untraced_op_s"] = untraced_s
    m["trace.traced_op_s"] = traced_s
    m["trace.overhead_s"] = traced_s - untraced_s
    m["trace.self_sum_s"] = statistics.median(
        sum(entry["self"] for entry in self_times(op["spans"]).values()) for op in traced
    )
    m["trace.spans"] = sum(len(op["spans"]) for op in traced) / n

    for category, metric in WARNING_METRICS.items():
        m[metric] = sum(op["warnings"].get(category, 0) for op in traced) / n
    m["warnings.other"] = sum(
        count for op in traced for c, count in op["warnings"].items() if c not in WARNING_METRICS
    ) / n
    return m


# ---------------------------------------------------------------- environment


def probe_ms(pinned: bool) -> float:
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = str(SRC)
    if pinned:
        env.update({var: "1" for var in THREAD_VARS})
    out = subprocess.run(
        [sys.executable, str(HERE / "probe.py")], env=env, check=True,
        capture_output=True, text=True,
    )
    return float(out.stdout.strip())


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas = "unknown"
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    pinned, default = probe_ms(True), probe_ms(False)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "thread_env_received": RECEIVED_THREAD_ENV,
        "thread_env_used": {var: os.environ[var] for var in THREAD_VARS},
        "commit": commit,
        "src_lines": sum(
            len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.rglob("*.py")
        ),
        "eigh60_pinned_ms": pinned,
        "eigh60_default_threads_ms": default,
        "eigh60_default_over_pinned": default / pinned,
    }


# ---------------------------------------------------------------- main


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_references() -> dict:
    return json.loads(REFERENCES.read_text()) if REFERENCES.exists() else {}


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT.mkdir(exist_ok=True)
    w = WORKLOADS[args.workload]

    inputs, setup_s = setup(w, args.seed)
    env = environment()
    ops = measure(inputs, args.seconds, bool(args.trace), load_references())
    shutil.rmtree(OUT / "inputs", ignore_errors=True)

    failed = sum(bool(op["problems"]) for op in ops)
    if failed == len(ops):
        metrics = {}
    elif args.trace:
        metrics = per_layer(ops)
    else:
        metrics = end_to_end(ops, setup_s)
    section = spec["per_layer" if args.trace else "end_to_end"]
    units = {entry["name"]: entry["unit"] for entry in section}
    if metrics and set(metrics) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")

    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units if metrics},
    }
    detail = OUT / f"{w.name}-seed{args.seed}-trace{args.trace}.json"
    detail.write_text(json.dumps({
        "environment": env,
        "result": result,
        "operations": [
            {key: value for key, value in op.items() if key != "spans"} for op in ops
        ],
        "span_format": ["name", "start_s", "end_s", "parent_index"],
        "spans": [op["spans"] for op in ops] if args.trace else [],
    }))
    for op in ops:
        for problem in op["problems"]:
            print(f"# check failed: {problem}")
    print("# environment: " + json.dumps(env))
    print(f"# details: {detail.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
