"""The benchmark's own `witness` checks, run as a test.

``perfbench/workloads.py`` checks every result against values it derives
without brauerkit.  This test loads that file unchanged and runs one op per
(g, r), so a wrong explicit intersection fails here rather than only as a
lower ``ok_rate`` in a benchmark run.
"""

import importlib.util
from pathlib import Path

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
