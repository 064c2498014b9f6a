"""calckit benchmark: one workload, one seed, one measurement window.

    python3 perfbench/run.py --workload odometry --seed 1 --seconds 20 --trace 0

Runs from the root of a calckit source tree and imports the package from
``src/``. The workload's inputs are generated from the seed, then its
command list goes through ``calckit.cli.main(argv)`` in this process, one
command at a time (a closed loop with one client, no threads), pass after
pass until ``--seconds`` have elapsed. Every output is checked by the
workload's oracles.

With ``--trace 0`` it reports the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced run (see tracer.py). The last stdout line is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``. A
detailed report (pass times, failing inputs, machine) goes to
``perfbench/_out/<workload>-seed<seed>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "_out"
WORK = HERE / "_work"
SETUP_REPEATS = 5
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def machine() -> dict:
    cpu = ""
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    import numpy
    return {"nproc": os.cpu_count(), "cpu": cpu or platform.processor(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "blas_threads": {k: os.environ.get(k) for k in BLAS_ENV}}


def setup_seconds() -> list[float]:
    """Fresh-interpreter start plus ``import calckit.cli``, SETUP_REPEATS times."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import calckit.cli"], env=env, cwd=ROOT,
                       check=True, stdin=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return times


def quartiles(values: list[float]) -> list[float]:
    if len(values) == 1:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def run_pass(cli, commands, tracer, outcomes: list) -> float:
    """One pass over the command list; returns the seconds spent in the CLI."""
    from workloads import OracleError

    busy = 0.0
    previous = ""
    for i, cmd in enumerate(commands):
        argv = cmd.resolve(previous)
        if tracer is not None:
            tracer.command += 1
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = cli.main(argv)
            except Exception:       # a crash is a wrong output, not a benchmark error
                traceback.print_exc()
                code = None
            seconds = time.perf_counter() - start
        busy += seconds
        previous = out.getvalue()
        if code == 0:
            try:
                cmd.check(previous)
                status, detail = "ok", ""
            except (OracleError, KeyError, ValueError, IndexError, OSError) as exc:
                status, detail = "wrong", f"{type(exc).__name__}: {exc}"
        elif code == 3 and cmd.may_not_converge:
            status, detail = "unsolved", err.getvalue().strip()
        else:
            status, detail = "wrong", f"exit {code}: {err.getvalue().strip()}"
        if status != "ok":      # keep the inputs: the work directory is removed at exit
            configs = {Path(a).name: json.loads(Path(a).read_text())
                       for a in argv if a.endswith(".json")}
            argv = [Path(a).name if a.startswith(str(WORK)) else a for a in argv]
            detail = {"detail": detail, "configs": configs}
        outcomes.append((i, cmd.label, argv, status, detail, seconds))
    return busy


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "calckit" / "cli.py").is_file():
        print(f"error: no calckit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())    # metric names and units
    for key in BLAS_ENV:     # closed loop, one thread: keep BLAS single-threaded too
        os.environ.setdefault(key, "1")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import numpy as np
    import calckit.cli as cli
    from tracer import Tracer, layer_metrics
    from workloads import WORKLOADS

    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: imported calckit from {cli.__file__}, not {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    setup = [] if args.trace else setup_seconds()
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()

    OUT.mkdir(exist_ok=True)
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        commands = WORKLOADS[args.workload](np.random.default_rng(args.seed), work)
        outcomes: list = []
        pass_s: list[float] = []
        pass_layers: list[dict] = []
        before = tracer.snapshot() if tracer else None
        deadline = time.perf_counter() + args.seconds
        # Start another pass only while at least half a typical pass fits.
        while not pass_s or time.perf_counter() + statistics.median(pass_s) / 2 < deadline:
            pass_s.append(run_pass(cli, commands, tracer, outcomes))
            if tracer:
                after = tracer.snapshot()
                pass_layers.append(layer_metrics(
                    {k: v - before.get(k, 0) for k, v in after.items()}))
                before = after
        spans = 0
        if tracer:
            spans = tracer.write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.csv.gz")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(outcomes)
    wrong = [o for o in outcomes if o[3] == "wrong"]
    unsolved = [o for o in outcomes if o[3] == "unsolved"]
    ok = attempted - len(wrong) - len(unsolved)
    q1, med, q3 = quartiles(pass_s)
    unsteady: list[str] = []

    if tracer:
        measured = {}
        for m in spec["per_layer"]:
            values = [p.get(m["name"], 0) for p in pass_layers]
            if m["unit"] == "s":
                measured[m["name"]] = statistics.median(values)
            else:
                measured[m["name"]] = values[0]
                if any(v != values[0] for v in values):
                    unsteady.append(m["name"])
        measured["trace.wall_s"] = med
    else:
        measured = {
            "wall_s": med,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_ratio": ok / attempted,
        }
    wanted = spec["per_layer"] if tracer else spec["end_to_end"]
    result_metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
                      for m in wanted}

    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine(),
        "commands_per_pass": len(commands), "passes": len(pass_s),
        "command_s": [[c.label, [o[5] for o in outcomes if o[0] == i]]
                      for i, c in enumerate(commands)],
        "pass_s": pass_s, "pass_s_quartiles": [q1, med, q3], "setup_s_samples": setup,
        "attempted": attempted, "ok": ok, "unsolved": len(unsolved), "wrong": len(wrong),
        "fail_ratio": (attempted - ok) / attempted,
        "failing_inputs": list({(o[1], " ".join(o[2])): {
            "label": o[1], "command": " ".join(o[2]), "status": o[3], **o[4]}
            for o in wrong + unsolved}.values()),
        "counts_differ_between_passes": unsteady, "spans_written": spans,
        "metrics": result_metrics,
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1))

    print(f"workload {args.workload}, seed {args.seed}: {len(pass_s)} passes of "
          f"{len(commands)} commands; pass seconds q1 {q1:.4f} median {med:.4f} q3 {q3:.4f}")
    print(f"ok {ok}, unsolved (exit 3 within budget) {len(unsolved)}, wrong {len(wrong)} "
          f"of {attempted}; fail_ratio {report['fail_ratio']:.4f}")
    for f in report["failing_inputs"]:
        print(f"{f['status']}: {f['label']}: calckit {f['command']}\n  {f['detail']}")
    if unsteady:
        print(f"warning: counts differ between passes: {', '.join(unsteady)}")
    for key, m in result_metrics.items():
        print(f"{key} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not wrong and not unsteady, "attempted": attempted,
                      "failed": len(wrong), "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
