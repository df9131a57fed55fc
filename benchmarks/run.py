"""Benchmark of the ccz codec on seeded synthetic workloads.

    python3 benchmarks/run.py --workload dense --seed 1 --seconds 30 --trace 0

Each workload runs in a child process of its own (``measure.py``), one at
a time and with no threads, so its peak memory is its own.  Set-up is
repeated in ``SETUP_REPEATS`` fresh processes and ``setup_s`` is their
median, each scaled to the reference CPU speed of ``speed.py`` by a
calibration in this process just before the child starts and one in the
child just after its set-up, both on the same CPU.  ``--workload all`` runs every workload in turn and prefixes each
metric with the workload's name.

Standard output holds a table of every metric with its unit, one JSON line
of details per workload (input and archive digests, byte split, failures),
and, as the last line, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones, with ``--trace 1`` the per-layer ones.  The exit
code is 0 only when every output was correct.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from measure import END_TO_END_UNITS, PER_LAYER_UNITS
from speed import calibrate, pinned_to_fastest_cpu, scale
from workloads import GENERATORS

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 9
# The whole command must end within 180 s; each child gets what is left.
BUDGET_S = 170


class ChildFailed(RuntimeError):
    pass


def child(args, workload: str, deadline: float, *extra: str) -> dict:
    """Run ``measure.py`` for one workload and return its JSON report."""
    cmd = [
        sys.executable, str(HERE / "measure.py"),
        "--workload", workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--scale", str(args.scale), *extra,
        "--t0", str(time.monotonic_ns()),
    ]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        raise ChildFailed(f"{workload}: no result within {exc.timeout:.0f} s") from None
    if proc.returncode != 0:
        raise ChildFailed(f"{workload}: measure.py exited with code {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def setup_time(args, workload: str, deadline: float) -> float:
    """Set-up time of one fresh child, in reference seconds."""
    before = calibrate()
    report = child(args, workload, deadline, "--setup-only")
    return report["setup_s"] * scale(before, report["calibration_ns"])


def run_workload(args, workload: str, deadline: float) -> dict:
    report = child(args, workload, deadline)
    if not args.trace:
        with pinned_to_fastest_cpu():
            setups = [setup_time(args, workload, deadline) for _ in range(SETUP_REPEATS)]
        report["setup_samples"] = setups
        report["metrics"]["setup_s"] = statistics.median(setups)
    return report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*GENERATORS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input size factor; below 1 only for the smoke test")
    args = parser.parse_args()

    deadline = time.monotonic() + BUDGET_S
    names = list(GENERATORS) if args.workload == "all" else [args.workload]
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in names:
        try:
            report = run_workload(args, workload, deadline)
        except ChildFailed as exc:
            print(f"benchmark failed: {exc}", file=sys.stderr)
            return 2
        metrics = report.pop("metrics")
        report["failed_ratio"] = report["failed"] / report["attempted"]
        for name, unit in units.items():
            print(f"{workload:<11} {name:<30} {metrics[name]:>14.6g} {unit}")
        print(json.dumps(report))
        result["correct"] = result["correct"] and report["failed"] == 0
        result["attempted"] += report["attempted"]
        result["failed"] += report["failed"]
        prefix = f"{workload}." if len(names) > 1 else ""
        for name, unit in units.items():
            result["metrics"][prefix + name] = {"value": metrics[name], "unit": unit}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
