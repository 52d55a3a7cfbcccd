"""Benchmark for brauerkit.

    python3 perfbench/run.py --workload scan|family|witness --seed N \
        --seconds S --trace 0|1

Run from the repository root.  The launcher measures set-up time in a few
processes that only import numpy and brauerkit and build the inputs, then
starts one measuring process (worker.py) for the workload, with no pool, so
peak memory is that workload's alone.  OPENBLAS_NUM_THREADS=1 keeps numpy's
BLAS from starting threads the machine has no cores for.

The metrics to print, with their units, are read from BENCHMARK.json: the
end-to-end ones with --trace 0, the per-layer ones with --trace 1.  The
last line of stdout is one JSON object; a readable table goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("scan", "family", "witness")
SETUP_PROBES = 6  # the measuring process gives one more set-up sample
TIME_LIMIT_S = 170.0
EXTRA_E2E = ("fail_rate", "ops", "ops_failed", "executions")


def parse_args(argv):
    parser = argparse.ArgumentParser(description="brauerkit benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def spawn(args, env, timeout: float, setup_only: bool) -> dict:
    cmd = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--spawned-at", repr(time.monotonic())]
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("worker printed no result")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    args = parse_args(argv)
    started = time.monotonic()
    if not os.path.isfile(os.path.join("src", "brauerkit", "__init__.py")):
        print("perfbench: src/brauerkit not found; run from the repository root", file=sys.stderr)
        return 2
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")

    def remaining() -> float:
        return TIME_LIMIT_S - (time.monotonic() - started)

    try:
        setups = [spawn(args, env, remaining(), True)["setup_s"] for _ in range(SETUP_PROBES)]
        out = spawn(args, env, remaining(), False)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    setups.append(out["setup_s"])
    measured = dict(out["metrics"], setup_s=statistics.median(setups))

    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        print(f"perfbench: no value for {', '.join(missing)}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted}

    report = [f"workload {args.workload}, seed {args.seed}, trace {args.trace}"]
    report += [f"  {name:48s} {v['value']:>16.6g} {v['unit']}" for name, v in metrics.items()]
    if args.trace:
        report.append(f"  {'every span called':46s} {'calls':>10s} {'self s':>12s}")
        for name in sorted(measured):
            span = name[: -len(".calls")]
            if name.endswith(".calls") and "." in span and measured[name]:
                report.append(f"    {span:46s} {measured[name]:>10d} {measured[span + '.self_s']:>12.6f}")
    else:
        report += [f"  {name:48s} {measured[name]:>16.6g}" for name in EXTRA_E2E]
        report.append(f"  setup samples (s): {', '.join(f'{s:.4f}' for s in setups)}")
    report.append(
        f"  times scaled to nominal speed, by {out['scale']:.4f} over the run"
        f" ({out['ref_samples']} reference kernel samples)"
    )
    by_error: dict[str, list[str]] = {}
    for name, err in sorted(out["errors"].items()):
        by_error.setdefault(err, []).append(name)
    report += [f"  {len(names)} ops failed ({names[0]}, ...): {err}" for err, names in by_error.items()]
    report += [f"  PROBLEM: {p}" for p in out["problems"]]
    print("\n".join(report), file=sys.stderr)

    print(
        json.dumps(
            {
                "correct": out["correct"],
                "attempted": out["attempted"],
                "failed": out["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
