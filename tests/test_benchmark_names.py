"""The per-layer metrics that BENCHMARK.json names exist in brauerkit.

The benchmark's tracer records the public functions of each brauerkit layer
and a list of methods, and ``perfbench/run.py --trace 1`` fails with
"no value for ..." when a metric names one that is gone.  This test reads
BENCHMARK.json, changes nothing in it, and catches such a deletion first.
"""

import importlib
import inspect
import json
import re
from pathlib import Path

SPEC = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
# <layer>.<function> or <layer>.<Class>.<method>, then a per-span suffix;
# layer totals such as "covers.calls" carry no function name
SPAN_METRIC = re.compile(r"(\w+)\.(\w+)(?:\.(\w+))?\.(?:calls|self_s|rows_\w+)")


def _resolves(layer: str, name: str, method: str | None) -> bool:
    module = importlib.import_module(f"brauerkit.{layer}")
    obj = vars(module).get(name)
    if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
        return False
    if method is None:
        return inspect.isfunction(obj)
    if not inspect.isclass(obj) or method.startswith("_"):
        return False
    attr = vars(obj).get(method)
    if isinstance(attr, (classmethod, staticmethod)):
        attr = attr.__func__
    return inspect.isfunction(attr)


def test_per_layer_metrics_name_public_functions():
    names = [metric["name"] for metric in json.loads(SPEC.read_text())["per_layer"]]
    spans = [m.groups() for m in map(SPAN_METRIC.fullmatch, names) if m]
    assert spans
    missing = [".".join(p for p in span if p) for span in spans if not _resolves(*span)]
    assert not missing, f"BENCHMARK.json names missing brauerkit code: {missing}"
