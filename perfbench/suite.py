"""Run every workload untraced and traced and print one table.

    python3 perfbench/suite.py [--seed 1] [--seconds 25] [--baseline]

For each workload this runs ``run.py`` twice in a fresh interpreter: once
with ``--trace 0`` for the end-to-end metrics and once with ``--trace 1``
for the per-layer metrics. It prints every end-to-end metric by name and
unit, the tracing overhead (traced minus untraced median pass time) and the
per-layer metrics. ``--baseline`` also writes ``perfbench/baseline.json``
with the machine, the metrics and the inputs that failed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("odometry", "projectile", "balance", "tools")


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    report = json.loads((HERE / "_out" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return result, report


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--baseline", action="store_true",
                        help="write perfbench/baseline.json from this run")
    args = parser.parse_args()

    summary = {}
    for workload in WORKLOADS:
        plain, plain_report = run(workload, args.seed, args.seconds, 0)
        traced, _ = run(workload, args.seed, args.seconds, 1)
        e2e = {k: v["value"] for k, v in plain["metrics"].items()}
        layers = {k: v["value"] for k, v in traced["metrics"].items()}
        summary[workload] = {
            "correct": plain["correct"] and traced["correct"],
            "attempted": plain["attempted"], "failed": plain["failed"],
            "passes": plain_report["passes"],
            "pass_s_quartiles": plain_report["pass_s_quartiles"],
            "fail_ratio": plain_report["fail_ratio"],
            "failing_inputs": plain_report["failing_inputs"],
            "end_to_end": e2e,
            "trace_overhead_s": layers["trace.wall_s"] - e2e["wall_s"],
            "per_layer": layers,
        }
        machine = plain_report["machine"]

        print(f"== {workload} (seed {args.seed}, {args.seconds:g} s per run, "
              f"{plain_report['passes']} passes, correct {summary[workload]['correct']})")
        for m in spec["end_to_end"]:
            print(f"  {m['name']:<12} {e2e[m['name']]:>12.6g} {m['unit']}")
        q1, _, q3 = plain_report["pass_s_quartiles"]
        print(f"  {'wall_s q1/q3':<12} {q1:>12.6g} / {q3:.6g} s")
        print(f"  {'fail_ratio':<12} {plain_report['fail_ratio']:>12.6g} 1")
        print(f"  {'trace overhead':<12} {summary[workload]['trace_overhead_s']:>10.6g} s")
        for f in plain_report["failing_inputs"]:
            print(f"  {f['status']}: {f['label']}: calckit {f['command']} {json.dumps(f['configs'])}")
        for m in spec["per_layer"]:
            print(f"    {m['name']:<36} {layers[m['name']]:>14.6g} {m['unit']}")

    print(f"machine: {json.dumps(machine)}")
    if args.baseline:
        (HERE / "baseline.json").write_text(json.dumps(
            {"seed": args.seed, "seconds": args.seconds, "machine": machine,
             "workloads": summary}, indent=1) + "\n")
    return 0 if all(s["correct"] for s in summary.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
