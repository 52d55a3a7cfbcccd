"""Outside-in tracer for brauerkit.

Every public function of the layer modules, and a few named methods, is
replaced by a wrapper at every module binding that refers to it: a name
imported with ``from .zmodlinalg import howell_form`` is a separate binding
in each importing module, and a function that looks up a module global (as
``solve_mod`` does with ``smith_normal_form``) sees only the binding in its
own module.  The library's source is not touched.

Each call records a span (name, start, end, parent span, op id) in memory.
Self time is derived afterwards from how the spans nest.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

LAYERS = ("zmodlinalg", "finab", "sympl", "brauer", "covers", "cli")
METHODS = (
    ("finab", "FinAbGroup", "coordinate_table"),
    ("brauer", "BicyclicFamily", "with_pair"),
    ("brauer", "FormSubmodule", "from_rows"),
    ("brauer", "FormSubmodule", "contains_vector"),
)
ROW_COUNTED = "zmodlinalg.howell_form"
ROOT = "bench.op"


class Tracer:
    """Span recorder plus the patch list that routes brauerkit calls to it."""

    def __init__(self):
        self.names: list[str] = [ROOT]
        self.spans: list = []  # (name id, start, end, parent index, op id)
        self.rows: dict[int, tuple[int, int]] = {}  # span index -> (rows in, rows out)
        self._stack: list[int] = []
        self._op = -1
        self._patches: list[tuple[object, str, object, object]] = []
        modules = [importlib.import_module("brauerkit")]
        modules += [importlib.import_module(f"brauerkit.{layer}") for layer in LAYERS]
        wrapped = {}
        for layer, module in zip(LAYERS, modules[1:]):
            for attr, obj in vars(module).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                ):
                    wrapped[obj] = self._wrap(f"{layer}.{attr}", obj)
        for module in modules:
            for attr, obj in vars(module).items():
                if inspect.isfunction(obj) and obj in wrapped:
                    self._patches.append((module, attr, obj, wrapped[obj]))
        for layer, cls_name, attr in METHODS:
            cls = getattr(modules[1 + LAYERS.index(layer)], cls_name)
            original = vars(cls)[attr]
            name = f"{layer}.{cls_name}.{attr}"
            if isinstance(original, classmethod):
                wrapper = classmethod(self._wrap(name, original.__func__))
            else:
                wrapper = self._wrap(name, original)
            self._patches.append((cls, attr, original, wrapper))

    def install(self):
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        spans, stack, rows, clock = self.spans, self._stack, self.rows, time.perf_counter
        count_rows = name == ROW_COUNTED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (nid, start, end, parent, self._op)
            if count_rows:
                rows[idx] = (len(args[0]), out.shape[0])
            return out

        return wrapper

    def run_op(self, op_id: int, fn):
        """Call ``fn`` under a root span that starts the span tree of ``op_id``."""
        self._op = op_id
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            return fn()
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (0, start, end, -1, op_id)

    def summarize(self) -> dict[int, dict]:
        """Per op id: total seconds, per span name its calls and self
        seconds, and the rows offered to and returned by howell_form."""
        covered = [0.0] * len(self.spans)
        for nid, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[int, dict] = {}
        for idx, (nid, start, end, parent, op) in enumerate(self.spans):
            entry = out.setdefault(op, {"total_s": 0.0, "calls": {}, "self_s": {}, "rows": [0, 0]})
            name = self.names[nid]
            if parent < 0:
                entry["total_s"] += end - start
            entry["calls"][name] = entry["calls"].get(name, 0) + 1
            entry["self_s"][name] = entry["self_s"].get(name, 0.0) + (end - start) - covered[idx]
            if idx in self.rows:
                entry["rows"][0] += self.rows[idx][0]
                entry["rows"][1] += self.rows[idx][1]
        return out

    def write(self, path: str, origin: float):
        """Write every span as CSV, times in seconds from ``origin``."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("op,span,parent,name,start_s,end_s\n")
            for idx, (nid, start, end, parent, op) in enumerate(self.spans):
                fh.write(f"{op},{idx},{parent},{self.names[nid]},{start - origin:.9f},{end - origin:.9f}\n")
