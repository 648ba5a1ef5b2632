"""The benchmark's per-layer metrics look kmsa functions up by name: a name
that is no longer a public function of its module silently reads 0. These
tests hold every such name in perfbench/run.py to the library."""

import ast
import importlib
import inspect
import json
import pkgutil
import re
from pathlib import Path

import kmsa

ROOT = Path(__file__).resolve().parents[1]
# names of functions that left the library; the next benchmark version renames
# or drops the metrics that read them
STALE = {"optimizer.build_h", "graphs.lasso_coordinate_descent"}


def span_names() -> set:
    """Every `<module>.<name>` string constant in perfbench/run.py whose module
    is a kmsa module and which is not itself a metric of BENCHMARK.json."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {m["name"] for m in bench["end_to_end"] + bench["per_layer"]}
    modules = {info.name for info in pkgutil.iter_modules(kmsa.__path__)}
    tree = ast.parse((ROOT / "perfbench" / "run.py").read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            match = re.fullmatch(r"(\w+)\.(\w+)", node.value)
            if match and match[1] in modules and node.value not in metrics:
                names.add(node.value)
    return names


def is_public_function(name: str) -> bool:
    """Whether kmsa.<module> itself defines a public function of that name,
    the functions the benchmark's span recorder wraps."""
    layer, attr = name.split(".")
    module = importlib.import_module(f"kmsa.{layer}")
    fn = getattr(module, attr, None)
    return (
        not attr.startswith("_")
        and inspect.isfunction(fn)
        and fn.__module__ == module.__name__
    )


def test_span_names_are_public_functions():
    names = span_names() - STALE
    assert "optimizer.fit" in names and "graphs.constraint_matrix" in names
    assert sorted(n for n in names if not is_public_function(n)) == []


def test_stale_span_names_are_still_missing():
    # once a name here is defined again, or leaves the benchmark, move it out
    # of STALE so the check above covers it
    assert STALE <= span_names()
    assert not any(is_public_function(n) for n in STALE)
