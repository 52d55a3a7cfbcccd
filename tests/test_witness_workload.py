"""The benchmark's own checks, run as tests.

``perfbench/workloads.py`` checks every result against values it derives
without brauerkit.  These tests load that file unchanged and run every
``family`` and ``scan`` op and one ``witness`` op per (g, r), so a wrong
intersection or report fails here rather than only as a lower ``ok_rate``
in a benchmark run.
"""

import importlib.util
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
SEED = 3


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_witness_ops_pass_the_benchmark_checks(tmp_path):
    workloads = _load_workloads()
    first = {}
    for op in workloads.build("witness", SEED, str(tmp_path)):
        first.setdefault((op.g, op.r), op)
    # the ops at r = 10^12 + 39 raise ModulusTooLargeError: the Howell
    # routines are exact in int64 only up to r = 2^31
    ops = [op for (g, r), op in sorted(first.items()) if r <= 2**31 - 1]
    assert len(ops) == 12
    for op in ops:
        op.check(op.run())


@pytest.mark.parametrize("workload, count", [("family", 9), ("scan", 7)])
def test_every_op_passes_the_benchmark_checks(tmp_path, workload, count):
    ops = _load_workloads().build(workload, SEED, str(tmp_path))
    assert len(ops) == count
    for op in ops:
        op.check(op.run())
