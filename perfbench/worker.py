"""Measuring process for one run of one workload; started by run.py.

It imports numpy and brauerkit from ./src, builds the workload's inputs from
the seed, then runs the ops for --seconds (see measure).  Each execution of
an op is timed alone and its result checked after the timer stops.  With
--trace 1 every untraced execution is followed by one under the tracer, so
the overhead of tracing is measured in the same process.  Every reported
time is scaled to nominal host speed (see speed.py).  The last line of
stdout is one JSON object for run.py.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass

OUTDIR = ".perfbench_out"
SETUP_REF_SAMPLES = 15
LOWER_QUARTILE_FROM = 4


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument(
        "--spawned-at",
        type=float,
        required=True,
        help="time.monotonic() just before this process was started",
    )
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


@dataclass
class Execution:
    """Outcome of one execution of one op."""

    start: float
    seconds: float
    fingerprint: str | None = None
    error: str | None = None
    wrong: bool = False
    scale: float = 1.0  # set by to_nominal

    @property
    def ok(self) -> bool:
        return self.error is None


def execute(op, tracer=None, exec_id=-1) -> Execution:
    start = time.perf_counter()
    try:
        if tracer is None:
            value = op.run()
        else:
            tracer.install()
            try:
                value = tracer.run_op(exec_id, op.run)
            finally:
                tracer.uninstall()
    except Exception as exc:  # an op that raises is a failed op; the run goes on
        return Execution(start, time.perf_counter() - start, error=f"{type(exc).__name__}: {exc}")
    seconds = time.perf_counter() - start
    try:
        fingerprint = op.check(value)
    except Exception as exc:  # any failing check is a wrong result
        return Execution(start, seconds, error=f"wrong result: {exc}", wrong=True)
    return Execution(start, seconds, fingerprint)


def measure(ops, seconds: float, tracer, speed):
    """Run every op once, in the seeded order, and then once more, cheapest
    first.  Until the deadline, then run again and again the op with the
    least time spent on it per square root of its median time.  Only ops
    that have not failed and still fit before the deadline are run after
    the first pass.  An op of median time c so gets about k / sqrt(c)
    executions: a cheap op many, spread over the whole run, and an op that
    takes most of the run one or two.  The reference kernel is sampled
    throughout, except during traced executions.

    Returns per op its untraced executions and, when tracing, its traced
    ones as (exec id, execution); each traced execution directly follows an
    untraced one of the same op.
    """
    untraced = [[] for _ in ops]
    traced = [[] for _ in ops]
    spent = [0.0] * len(ops)

    def run(i):
        e = execute(ops[i])
        untraced[i].append(e)
        spent[i] += e.seconds
        if tracer is not None:
            exec_id = sum(map(len, traced))
            speed.stop()
            e = execute(ops[i], tracer, exec_id)
            speed.start()
            traced[i].append((exec_id, e))
            spent[i] += e.seconds

    def cost(i):
        total = statistics.median(e.seconds for e in untraced[i])
        if tracer is not None:
            total += statistics.median(e.seconds for _, e in traced[i])
        return total

    def priority(i):
        return len(untraced[i]) > 1, spent[i] / math.sqrt(cost(i))

    deadline = time.perf_counter() + seconds
    speed.start()
    try:
        for i in range(len(ops)):
            run(i)
        live = [i for i in range(len(ops)) if all(e.ok for e in untraced[i])]
        while True:
            now = time.perf_counter()
            fits = [i for i in live if now + cost(i) <= deadline]
            if not fits:
                return untraced, traced
            run(min(fits, key=priority))
    finally:
        speed.stop()


def to_nominal(speed, untraced, traced):
    """Take out the kernel runs that fell inside each execution, and scale
    what is left to nominal host speed (see speed.py)."""
    for runs in untraced + [[e for _, e in t] for t in traced]:
        for e in runs:
            e.scale = speed.scale_at(e.start, e.seconds)
            e.seconds = (e.seconds - speed.kernel_time(e.start, e.seconds)) * e.scale


def percentile(values, q: int) -> float:
    """The mean of the values ranked within q +- 5 percentage points (by
    the midpoint of each rank), else the value whose rank spans q.

    With few values this is one observed value: with 7 or 9, the middle
    one for q = 50 and the largest for q = 90.  With many it averages a few
    neighbours, so a quantile that falls on a gap between groups of ops of
    different cost (on witness, between g = 4 and g = 6) does not read the
    one extreme op at the edge of a group.
    """
    ranked = sorted(values)
    n = len(ranked)
    band = [v for r, v in enumerate(ranked) if abs((r + 0.5) / n - q / 100) <= 0.05]
    return statistics.fmean(band) if band else ranked[min(n - 1, q * n // 100)]


def op_time(runs) -> float:
    """The lower quartile of an op's execution times (inclusive method)
    when it has at least LOWER_QUARTILE_FROM of them, else their median.

    Interference from the host slows a share of the executions, and a
    larger share when the host is slow, which the reference kernel does not
    fully scale away for ops below about 0.3 s; the lower quartile reads
    the op's own cost with less of it.  Of two or three executions it
    would read little more than the fastest one; their median is steadier.
    The ops that run about four times in a run take half a second or more,
    and their executions differ by a few percent, so the switch moves their
    time by about as much.
    """
    times = [e.seconds for e in runs]
    if len(times) < LOWER_QUARTILE_FROM:
        return statistics.median(times)
    return statistics.quantiles(times, n=4, method="inclusive")[0]


def end_to_end(untraced) -> dict:
    """An op fails if any of its executions does; each op that verifies
    contributes its op_time."""
    per_op = [op_time(runs) for runs in untraced if all(e.ok for e in runs)]
    if not per_op:
        raise SystemExit("perfbench: no op returned a verified result")
    return {
        "wall_s": sum(per_op),
        "op_p50_ms": 1000.0 * percentile(per_op, 50),
        "op_p90_ms": 1000.0 * percentile(per_op, 90),
        "ok_rate": len(per_op) / len(untraced),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "fail_rate": 1 - len(per_op) / len(untraced),
        "ops": len(untraced),
        "ops_failed": len(untraced) - len(per_op),
        "executions": sum(map(len, untraced)),
    }


def per_layer(tracer, untraced, traced, problems: list) -> dict:
    """Layer metrics from, per op, the traced execution of median (low)
    time; its span times are scaled like the execution (see to_nominal)."""
    from tracer import LAYERS, ROW_COUNTED

    summary = tracer.summarize()
    calls: dict[str, int] = {name: 0 for name in tracer.names}
    rows_in = rows_out = 0
    self_s: dict[str, float] = {name: 0.0 for name in tracer.names}
    traced_wall = untraced_wall = 0.0
    for u_runs, t_runs in zip(untraced, traced):
        if not all(e.ok for e in u_runs + [e for _, e in t_runs]):
            continue
        ok = [(summary[exec_id], e.scale) for exec_id, e in t_runs]
        if any((s["calls"], s["rows"]) != (ok[0][0]["calls"], ok[0][0]["rows"]) for s, _ in ok):
            problems.append("call or row counts differ between executions of one op")
        chosen = statistics.median_low(s["total_s"] * f for s, f in ok)
        entry, scale = next((s, f) for s, f in ok if s["total_s"] * f == chosen)
        traced_wall += chosen
        untraced_wall += statistics.median_low(e.seconds for e in u_runs)
        rows_in += entry["rows"][0]
        rows_out += entry["rows"][1]
        for name, n in entry["calls"].items():
            calls[name] += n
        for name, t in entry["self_s"].items():
            self_s[name] += t * scale
    accounted = sum(self_s.values())
    if abs(accounted - traced_wall) > 1e-6 * max(1.0, traced_wall):
        problems.append(f"self times sum to {accounted} s, traced wall is {traced_wall} s")
    metrics = {}
    for name in calls:
        metrics[f"{name}.calls"] = calls[name]
    for name, t in self_s.items():
        metrics[f"{name}.self_s"] = t
    metrics[ROW_COUNTED + ".rows_in"] = rows_in
    metrics[ROW_COUNTED + ".rows_out"] = rows_out
    metrics[ROW_COUNTED + ".kept_ratio"] = rows_out / rows_in if rows_in else 0.0
    for layer in LAYERS + ("bench",):
        names = [n for n in tracer.names if n.split(".", 1)[0] == layer]
        metrics[f"{layer}.calls"] = sum(calls[n] for n in names)
        metrics[f"{layer}.self_s"] = sum(self_s[n] for n in names)
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    src = os.path.join(os.getcwd(), "src")
    sys.path.insert(0, src)
    import numpy  # noqa: F401  (its import is part of set-up time)

    import brauerkit

    if not os.path.abspath(brauerkit.__file__).startswith(src + os.sep):
        raise SystemExit(f"perfbench: brauerkit imported from {brauerkit.__file__}, not {src}")
    import workloads
    from speed import Speed
    from tracer import Tracer

    os.makedirs(OUTDIR, exist_ok=True)
    ops = workloads.build(args.workload, args.seed, OUTDIR)
    tracer = Tracer() if args.trace else None
    setup_s = time.monotonic() - args.spawned_at
    speed = Speed()
    speed.sample(SETUP_REF_SAMPLES)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s * speed.scale()}))
        return 0
    setup_s *= speed.scale()

    origin = time.perf_counter()
    untraced, traced = measure(ops, args.seconds, tracer, speed)
    to_nominal(speed, untraced, traced)
    problems = []
    runs_of = [u + [e for _, e in t] for u, t in zip(untraced, traced)]
    errors = {}
    for op, runs in zip(ops, runs_of):
        if len({e.fingerprint for e in runs if e.ok}) > 1:
            problems.append(f"{op.name}: results differ between executions")
        for e in runs:
            if e.wrong:
                problems.append(f"{op.name}: {e.error}")
            if not e.ok:
                errors.setdefault(op.name, e.error)
    metrics = end_to_end(untraced)
    if tracer is not None:
        metrics.update(per_layer(tracer, untraced, traced, problems))
        tracer.write(os.path.join(OUTDIR, f"{args.workload}.spans.csv"), origin)
    result = {
        "correct": not problems,
        "attempted": len(ops),
        "failed": metrics["ops_failed"],
        "setup_s": setup_s,
        "scale": speed.scale(),
        "ref_samples": len(speed.times),
        "metrics": metrics,
        "problems": sorted(set(problems)),
        "errors": errors,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
