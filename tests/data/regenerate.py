"""Rebuild the committed CLI fixtures and golden outputs in this directory.

Run from this directory:  python regenerate.py
Check without writing:    python regenerate.py --check

The golden-file test replays the exact same commands and compares bytes, so
regenerate only when an intentional behavior change invalidates the goldens.
``--check`` rebuilds everything in a temporary directory, compares it byte
for byte with the committed files, lists each file that differs and exits 1
if any does; it writes nothing here. A differing file whose lines pair up
with the committed ones and match once their numbers are masked also gets
its largest absolute and relative numeric difference.
"""

import filecmp
import io
import json
import os
import pathlib
import re
import sys
import tempfile
from contextlib import redirect_stdout

import numpy as np

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))     # this checkout's calckit, installed or not
_SEPARATORS = re.compile(r"([\s,\[\]]+)")          # numeric_difference's fields


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if argv == ["--check"]:
        return check()
    if argv:
        print("usage: python regenerate.py [--check]", file=sys.stderr)
        return 2
    build(HERE)
    print("fixtures regenerated")
    return 0


def check():
    """Rebuild in a temporary directory; exit status 1 if any file differs."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        build(tmp)
        built = sorted(p.relative_to(tmp).as_posix() for p in tmp.rglob("*") if p.is_file())
        differ = [name for name in built if not (HERE / name).is_file()
                  or not filecmp.cmp(HERE / name, tmp / name, shallow=False)]
        for name in differ:
            print(f"differs: {name}{numeric_difference(HERE / name, tmp / name)}")
    print(f"{len(built) - len(differ)} of {len(built)} files match")
    return 1 if differ else 0


def numeric_difference(old: pathlib.Path, new: pathlib.Path) -> str:
    """' (max abs diff A, max rel diff R)' when both files have the same
    number of lines, equal once every field that float accepts is masked, and
    hold at least one number; else ''. Fields are split on whitespace, ',',
    '[' and ']'."""
    if not old.is_file():
        return ""
    masked, numbers = [], []
    for path in (old, new):
        lines, values = [], []
        for line in path.read_text(encoding="utf-8").splitlines():
            fields = _SEPARATORS.split(line)       # separators at the odd indices
            for i in range(0, len(fields), 2):
                try:
                    values.append(float(fields[i]))
                    fields[i] = None
                except ValueError:
                    pass
            lines.append(fields)
        masked.append(lines)
        numbers.append(values)
    if masked[0] != masked[1] or not numbers[0]:
        return ""
    a, b = np.array(numbers[0]), np.array(numbers[1])
    diff = np.abs(a - b)
    scale = np.maximum(np.abs(a), np.abs(b))
    rel = np.divide(diff, scale, out=np.zeros_like(diff), where=scale > 0)
    return f" (max abs diff {diff.max():.3g}, max rel diff {rel.max():.3g})"


def build(dest: pathlib.Path):
    """Write every fixture into dest and every golden into dest/golden.

    The commands run from dest with relative input names, because the
    reports echo them."""
    cwd = os.getcwd()
    os.chdir(dest)
    try:
        _build(dest)
    finally:
        os.chdir(cwd)


def _build(dest: pathlib.Path):
    from calckit import odo
    from calckit.cli import main as cli_main

    golden = dest / "golden"
    golden.mkdir(exist_ok=True)

    # IMU fixture: sinusoidal truth, constant bias, mild noise, fixed seed
    synth = odo.synth_imu(odo.AccelProfile.sinusoid(0.8, 2.0), [0.08], 0.02,
                          dt=0.05, T=4.0, seed=7)
    odo.write_imu_csv(synth.trace, "imu_fixture.csv")
    times = np.arange(0.5, 4.0 + 1e-9, 0.5)
    meas = [odo.VelMeasurement(float(t), [float(np.interp(t, synth.truth_v.t,
                                                          synth.truth_v.y[:, 0]))])
            for t in times]
    odo.write_measurements_csv(meas, "meas_fixture.csv")

    with open("freethrow.json", "w", encoding="utf-8") as fh:
        json.dump({"p0": [0.0, 2.0], "p_h": [4.6, 3.05], "g": 9.81}, fh, indent=2)
        fh.write("\n")
    with open("gymnast.json", "w", encoding="utf-8") as fh:
        json.dump({"half_length": 0.9, "m1": 30.0, "m2": 30.0,
                   "p0": [0.0, 3.0], "p_land": [0.0, 0.0], "theta_land": 0.0},
                  fh, indent=2)
        fh.write("\n")
    with open("diver.json", "w", encoding="utf-8") as fh:
        json.dump({"i_open": 1.0, "i_tuck": 0.4, "k": 1, "d_min": 1.0}, fh, indent=2)
        fh.write("\n")

    rc = cli_main(["project1", "--imu", "imu_fixture.csv",
                   "--meas", "meas_fixture.csv", "--l1", "0.5", "--l2", "0.5",
                   "--out", str(golden / "project1_out.csv"),
                   "--plot", str(golden / "project1_plot.svg")])
    assert rc == 0, rc

    _stdout_golden(cli_main, golden / "optimize_freethrow.txt",
                   ["optimize", "--scenario", "freethrow", "--config", "freethrow.json",
                    "--mode", "fixed_tf", "--tf", "1.0"])

    rc = cli_main(["project1", "--imu", "imu_fixture.csv",
                   "--out", str(golden / "project1_dead_reckon.csv")])
    assert rc == 0, rc

    _stdout_golden(cli_main, golden / "control_pd_segway.txt",
                   ["control", "pd", "--model", "segway", "--wn", "3", "--zeta", "0.9"])
    _stdout_golden(cli_main, golden / "control_linearize_pendulum.txt",
                   ["control", "linearize", "--model", "pendulum"])
    _stdout_golden(cli_main, golden / "control_pd_pendulum.txt",
                   ["control", "pd", "--model", "pendulum", "--wn", "4", "--zeta", "0.7"])

    rc = cli_main(["simulate", "--model", "segway", "--q0", "0", "0.05",
                   "--T", "2", "--dt", "0.01", "--controller", "pd",
                   "--kp", "-28.62", "--kd", "-5.4", "--precomp", "0.31446541",
                   "--out", str(golden / "simulate_segway.csv")])
    assert rc == 0, rc


def _stdout_golden(cli_main, path: pathlib.Path, argv):
    """Run one CLI command and write its stdout to path."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = cli_main(argv)
    assert rc == 0, rc
    path.write_text(buf.getvalue(), encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
