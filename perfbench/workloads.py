"""Seeded inputs, CLI command lists and output oracles for each workload.

Inputs are generated here with numpy from the benchmark seed, never with
calckit's own generators, so a change to the program cannot change the
inputs it is measured on. Every command carries an oracle that checks its
stdout (and any file it wrote) against an independent closed form or numpy
computation.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

G = 9.81
MAX_ITERS = 5000        # the stated --max-iters budget of every optimize run


class OracleError(Exception):
    """An output that disagrees with its oracle."""


@dataclass(frozen=True)
class Command:
    """One CLI invocation and the check of its stdout.

    ``may_not_converge`` marks an input that the baseline lists as not
    converging within MAX_ITERS: for it, exit 3 is an honest outcome. It
    still counts against ``ok_ratio`` but not as a wrong output.
    """

    label: str
    argv: list
    check: Callable[[str], None]
    may_not_converge: bool = False

    def resolve(self, previous_stdout: str) -> list:
        """argv with each ``{key}`` replaced by that field of the previous
        command's report (how simulate picks up a control pd design)."""
        if not any(a.startswith("{") for a in self.argv):
            return self.argv
        f = fields(previous_stdout)
        return [f[a[1:-1]] if a.startswith("{") else a for a in self.argv]


def fields(stdout: str) -> dict:
    """First ``key: value`` pair of each report line."""
    out = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(": ")
        if sep and key not in out:
            out[key] = value
    return out


def numbers(text: str) -> np.ndarray:
    return np.array([float(v) for v in text.split()])


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise OracleError(message)


def close(got: float, want: float, tol: float, what: str) -> None:
    expect(abs(got - want) <= tol, f"{what}: got {got!r}, want {want!r} (tol {tol:g})")


def _num(x: float) -> str:
    """Six-decimal text form; the oracle uses the same rounded value."""
    return f"{x:.6f}"


def _write_json(path: Path, obj: dict) -> str:
    path.write_text(json.dumps(obj, indent=1))
    return str(path)


def _check_csv(path: Path, header: str, rows: int) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        first = fh.readline().rstrip("\n")
    expect(first == header, f"{path.name}: header {first!r}, want {header!r}")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    expect(len(data) == rows, f"{path.name}: {len(data)} rows, want {rows}")
    return data


# ---------------------------------------------------------------- odometry

ODO_SAMPLES = 100_000
ODO_DT = 0.01
ODO_MEAS_EVERY = 2.0           # seconds between velocity measurements
ODO_NOISE = 0.01               # accelerometer noise std, m/s^2
ODO_V_BOUND = 0.02             # max |v - v_true| over the second half, m/s
ODO_P_BOUND = 1.0              # max |p - p_true| over the record, m
ODO_B_BOUND = 0.005            # |final bias estimate - bias|, m/s^2


def odometry(rng: np.random.Generator, work: Path) -> list[Command]:
    """project1 --meas --plot on a 3-axis trace of ODO_SAMPLES samples.

    Each axis accelerates as a sum of two sinusoids from rest; its velocity
    and position have closed forms. The accelerometer adds a constant bias
    and white noise; velocity measurements are exact truth every
    ODO_MEAS_EVERY seconds.
    """
    t = ODO_DT * np.arange(ODO_SAMPLES)
    amp = rng.uniform(0.2, 1.0, (2, 3))
    om = rng.uniform(0.05, 0.5, (2, 3))
    bias = rng.uniform(0.02, 0.1, 3) * rng.choice([-1.0, 1.0], 3)
    ph = t[:, None, None] * om[None]
    a_true = (amp * np.sin(ph)).sum(axis=1)
    v_true = (amp / om * (1.0 - np.cos(ph))).sum(axis=1)
    p_true = (amp / om * (t[:, None, None] - np.sin(ph) / om)).sum(axis=1)
    accel = a_true + bias + rng.normal(0.0, ODO_NOISE, a_true.shape)

    imu, meas = work / "imu.csv", work / "meas.csv"
    out, plot = work / "odometry.csv", work / "odometry.svg"
    np.savetxt(imu, np.column_stack([t, accel]), fmt="%.17g", delimiter=",",
               header="t,ax,ay,az", comments="")
    step = int(round(ODO_MEAS_EVERY / ODO_DT))
    idx = np.arange(step, ODO_SAMPLES, step)
    np.savetxt(meas, np.column_stack([t[idx], v_true[idx]]), fmt="%.17g",
               delimiter=",", header="t,vx,vy,vz", comments="")

    def check(stdout: str) -> None:
        f = fields(stdout)
        data = _check_csv(out, "t,vx,vy,vz,px,py,pz,bx,by,bz", ODO_SAMPLES)
        expect(np.array_equal(data[:, 0], t), "odometry timestamps differ from the input")
        v_err = np.abs(data[ODO_SAMPLES // 2:, 1:4] - v_true[ODO_SAMPLES // 2:]).max()
        p_err = np.abs(data[:, 4:7] - p_true).max()
        expect(v_err <= ODO_V_BOUND, f"velocity drift {v_err:.4g} m/s > {ODO_V_BOUND}")
        expect(p_err <= ODO_P_BOUND, f"position drift {p_err:.4g} m > {ODO_P_BOUND}")
        b_err = np.abs(numbers(f["final bias estimate"]) - bias).max()
        expect(b_err <= ODO_B_BOUND, f"bias error {b_err:.4g} > {ODO_B_BOUND}")
        final = data[-1, 4:7]
        close(np.abs(numbers(f["final position"]) - final).max(), 0.0,
              1e-11 * np.abs(final).max(), "reported final position vs CSV")
        svg = plot.read_text(encoding="utf-8")
        expect(svg.startswith("<svg") and svg.count("<polyline") == 6, "odometry plot")

    argv = ["project1", "--imu", str(imu), "--meas", str(meas), "--l1", "0.5",
            "--l2", "0.5", "--out", str(out), "--plot", str(plot)]
    return [Command("project1", argv, check)]


# ---------------------------------------------------------------- projectile

def _optimize(scenario: str, cfg: str, *extra) -> list:
    return ["optimize", "--scenario", scenario, "--config", cfg,
            "--max-iters", str(MAX_ITERS), *extra]


def _converged(f: dict, tol: float) -> None:
    expect(f.get("converged") == "True", "not converged")
    expect(float(f["constraint residual"]) <= tol, "constraint residual above tolerance")


def _freethrow(rng, work: Path, i: int, mode: str) -> Command:
    p0 = np.array([0.0, float(_num(rng.uniform(1.9, 2.2)))])
    p_h = np.array([float(_num(rng.uniform(4.2, 5.0))), 3.05])
    cfg = _write_json(work / f"freethrow{i}.json", {"p0": list(p0), "p_h": list(p_h)})
    dx, dy = p_h - p0
    extra: list = ["--mode", mode]
    if mode == "fixed_tf":
        tf = float(_num(rng.uniform(0.8, 1.3)))
        extra += ["--tf", _num(tf)]
    elif mode == "fixed_speed":
        v_min = math.sqrt(G * (dy + math.hypot(dx, dy)))   # minimum launch speed
        speed = float(_num(v_min * rng.uniform(1.05, 1.2)))
        extra += ["--speed", _num(speed)]

    def check(stdout: str) -> None:
        f = fields(stdout)
        expect(f.get("converged") == "True", "not converged")
        v, tof = numbers(f["v0"]), float(f["tf"])
        land = p0 + v * tof - np.array([0.0, 0.5 * G * tof * tof])
        close(np.abs(land - p_h).max(), 0.0, 1e-4, "ballistic landing miss")
        if mode == "fixed_tf":
            close(tof, tf, 1e-6, "time of flight")
        elif mode == "fixed_speed":
            close(float(np.hypot(*v)), speed, 1e-6, "launch speed")

    return Command(f"freethrow-{mode}", _optimize("freethrow", cfg, *extra), check)


def _diver(rng, work: Path, k: int) -> Command:
    i_open = float(_num(rng.uniform(0.9, 1.1)))
    i_tuck = float(_num(rng.uniform(0.35, 0.45)))
    d_min = float(_num(rng.uniform(0.8, 1.2)))
    cfg = _write_json(work / f"diver{k}.json",
                      {"i_open": i_open, "i_tuck": i_tuck, "k": k, "d_min": d_min})

    def check(stdout: str) -> None:
        f = fields(stdout)
        _converged(f, 1e-6)
        v0x, v0y = numbers(f["v0"])
        big_l = float(f["L"])
        t1, t2 = numbers(f["tuck window"])
        te = (v0y + math.sqrt(v0y * v0y + 2.0 * G * 10.0)) / G
        close(float(f["entry time"]), te, 1e-9 * te, "entry time vs closed form")
        angle = big_l * (t1 / i_open + (t2 - t1) / i_tuck + (te - t2) / i_open)
        close(angle, k * math.pi, 1e-5, "entry orientation")
        close(v0x * te, d_min, 1e-5, "entry clearance")

    return Command(f"diver-k{k}", _optimize("diver", cfg), check)


def _gymnast(rng, work: Path, i: int, heavy: bool) -> Command:
    if heavy:
        m1, m2, half = rng.uniform(20.0, 40.0), rng.uniform(20.0, 40.0), rng.uniform(0.8, 1.0)
    else:
        m1, m2, half = rng.uniform(1.0, 2.5), rng.uniform(1.0, 2.5), rng.uniform(0.3, 0.5)
    p0 = np.array([0.0, 3.0])
    p_land = np.array([float(_num(rng.uniform(0.5, 2.0))), float(_num(rng.uniform(1.5, 2.5)))])
    theta = float(_num(rng.uniform(1.0, 3.5)))
    cfg = _write_json(work / f"gymnast{i}.json", {
        "half_length": float(_num(half)), "m1": float(_num(m1)), "m2": float(_num(m2)),
        "p0": list(p0), "p_land": list(p_land), "theta_land": theta})

    def check(stdout: str) -> None:
        f = fields(stdout)
        _converged(f, 1e-6)
        v0, omega, tf = numbers(f["v0"]), float(f["omega"]), float(f["tf"])
        land = p0 + v0 * tf - np.array([0.0, 0.5 * G * tf * tf])
        close(np.abs(land - p_land).max(), 0.0, 1e-6, "landing point vs closed form")
        close(omega * tf, theta, 1e-6, "landing orientation")

    label = "gymnast-heavy" if heavy else "gymnast-light"
    return Command(label, _optimize("gymnast", cfg), check, may_not_converge=heavy)


def projectile(rng: np.random.Generator, work: Path) -> list[Command]:
    """A batch of optimize runs, each under the MAX_ITERS budget."""
    return [
        _freethrow(rng, work, 0, "fixed_speed"),
        *[_diver(rng, work, k) for k in (1, 2, 3, 4)],
        _gymnast(rng, work, 0, heavy=False),
        _gymnast(rng, work, 1, heavy=False),
        _gymnast(rng, work, 2, heavy=True),
        _freethrow(rng, work, 1, "free"),
        _freethrow(rng, work, 2, "fixed_tf"),
    ]


# ---------------------------------------------------------------- balance / tools shared

def _poles_from_table(stdout: str) -> np.ndarray:
    lines = stdout.splitlines()
    start = lines.index("closed-loop poles:") + 2      # skip the column header
    poles = []
    for line in lines[start:]:
        parts = line.split()
        if len(parts) != 2:
            break
        poles.append(complex(float(parts[0]), float(parts[1])))
    return np.array(sorted(poles, key=lambda z: (z.real, z.imag)))


def _pd_command(label: str, model: str, cfg: str, wn: float, zeta: float,
                extra=()) -> Command:
    """control pd, checked against numpy.roots of s^2 + 2 zeta wn s + wn^2."""

    def check(stdout: str) -> None:
        want = np.roots([1.0, 2.0 * zeta * wn, wn * wn])
        want = np.array(sorted(want, key=lambda z: (z.real, z.imag)))
        got = _poles_from_table(stdout)
        expect(len(got) == 2, f"{len(got)} closed-loop poles, want 2")
        close(np.abs(got - want).max(), 0.0, 1e-6 * wn, "closed-loop poles")
        close(float(fields(stdout)["steady state"]), 1.0, 1e-9, "precompensated DC gain")

    argv = ["control", "pd", "--model", model, "--config", cfg,
            "--wn", _num(wn), "--zeta", _num(zeta), *extra]
    return Command(label, argv, check)


def _segway_params(rng) -> dict:
    return {"cart_mass": float(_num(rng.uniform(0.8, 1.5))),
            "pole_mass": float(_num(rng.uniform(0.2, 0.6))),
            "length": float(_num(rng.uniform(0.5, 1.0)))}


def _ballbot_params(rng) -> dict:
    return {"torso_mass": float(_num(rng.uniform(6.0, 10.0))),
            "com_offset": float(_num(rng.uniform(0.25, 0.35)))}


# ---------------------------------------------------------------- balance

BAL_T, BAL_DT = 2.0, 0.005          # closed-loop rollouts: 400 RK4 steps
BAL_REG = 0.02                      # final |lean| <= BAL_REG * |initial lean|
BAR_T, BAR_DT = 1.0, 0.01           # unforced gymnast bar: 100 RK4 steps
BAR_DRIFT = 1e-8                    # relative energy drift bound


def _design_and_fly(rng, work: Path, model: str, params: dict) -> list[Command]:
    cfg = _write_json(work / f"{model}.json", params)
    wn = float(_num(rng.uniform(4.0, 6.0)))
    zeta = float(_num(rng.uniform(0.7, 0.9)))
    lean0 = float(_num(rng.uniform(0.03, 0.1) * rng.choice([-1.0, 1.0])))
    out = work / f"{model}.csv"
    design = _pd_command(f"pd-{model}", model, cfg, wn, zeta, ["--T", "3", "--dt", "0.01"])
    steps = int(round(BAL_T / BAL_DT))

    def check(stdout: str) -> None:
        err = float(fields(stdout)["final regulation error"])
        expect(err <= BAL_REG * abs(lean0), f"regulation error {err:.3g} rad")
        data = _check_csv(out, "t,q0,q1,qd0,qd1", steps + 1)
        close(abs(data[-1, 2]), err, 1e-9, "reported regulation error vs CSV")

    sim = Command(f"simulate-{model}", [
        "simulate", "--model", model, "--config", cfg, "--q0", "0", _num(lean0),
        "--T", str(BAL_T), "--dt", str(BAL_DT), "--out", str(out), "--controller", "pd",
        "--kp", "{kp}", "--kd", "{kd}"], check)
    return [design, sim]


def balance(rng: np.random.Generator, work: Path) -> list[Command]:
    """PD-stabilized segway and ballbot rollouts plus an unforced bar flight.

    Each simulate command takes its gains from the control pd report just
    before it (see Command.resolve).
    """
    cmds = _design_and_fly(rng, work, "segway", _segway_params(rng))
    cmds += _design_and_fly(rng, work, "ballbot", _ballbot_params(rng))

    q0 = np.array([0.0, float(_num(rng.uniform(2.0, 4.0))), float(_num(rng.uniform(-1, 1)))])
    qd0 = np.array([float(_num(rng.uniform(0.5, 2.0))), float(_num(rng.uniform(1.0, 3.0))),
                    float(_num(rng.uniform(-3.0, 3.0)))])
    bar = {"m1": float(_num(rng.uniform(20.0, 40.0))),
           "m2": float(_num(rng.uniform(20.0, 40.0))),
           "half_length": float(_num(rng.uniform(0.8, 1.0)))}
    cfg = _write_json(work / "bar.json", bar)
    out = work / "bar.csv"
    steps = int(round(BAR_T / BAR_DT))

    def check(stdout: str) -> None:
        drift = float(fields(stdout)["relative energy drift"])
        expect(drift <= BAR_DRIFT, f"energy drift {drift:.3g} > {BAR_DRIFT}")
        data = _check_csv(out, "t,q0,q1,q2,qd0,qd1,qd2", steps + 1)
        t = data[-1, 0]
        want = q0 + qd0 * t - np.array([0.0, 0.5 * G * t * t, 0.0])
        close(np.abs(data[-1, 1:4] - want).max(), 0.0, 1e-6, "bar flight vs closed form")

    cmds.append(Command("simulate-gymnast_bar", [
        "simulate", "--model", "gymnast_bar", "--config", cfg,
        "--q0", *map(_num, q0), "--qd0", *map(_num, qd0),
        "--T", str(BAR_T), "--dt", str(BAR_DT), "--out", str(out)], check))
    return cmds


# ---------------------------------------------------------------- tools

INT_N = 100_000
DARBOUX_N, DARBOUX_M = 5_000, 8

# (method, calckit text, numpy twin, interval end); constants {a}, {b} are
# seeded. The darboux integrand is increasing so its bounds must bracket.
_INTEGRANDS = [
    ("simpson", "{a}*sin({b}*x) + {c}*x^2",
     lambda x, a, b, c: a * np.sin(b * x) + c * x ** 2),
    ("trapezoid", "exp(-{a}*x)*cos({b}*x) + {c}",
     lambda x, a, b, c: np.exp(-a * x) * np.cos(b * x) + c),
    ("midpoint", "sqrt(1 + {a}*x^2)/(1 + {b}*x) - {c}*x",
     lambda x, a, b, c: np.sqrt(1 + a * x ** 2) / (1 + b * x) - c * x),
    ("darboux", "ln(1 + {a}*x) + {b}*x + {c}*x^3",
     lambda x, a, b, c: np.log(1 + a * x) + b * x + c * x ** 3),
]


def _reference_integral(fn, lo: float, hi: float) -> float:
    """Composite Simpson in numpy on 400,001 points."""
    n = 400_000
    x = np.linspace(lo, hi, n + 1)
    y = fn(x)
    h = (hi - lo) / n
    return float(h / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-2:2].sum()))


def _integrate(rng, method: str, text: str, fn) -> Command:
    consts = {k: _num(rng.uniform(0.2, 2.0)) for k in "abc"}
    hi = float(_num(rng.uniform(2.0, 5.0)))
    expr = text.format(**consts)
    f = lambda x: fn(x, *(float(consts[k]) for k in "abc"))   # noqa: E731
    ref = _reference_integral(f, 0.0, hi)
    argv = ["integrate", "--expr", expr, "--a", "0", "--b", _num(hi), "--method", method]

    if method == "darboux":
        argv += ["--n", str(DARBOUX_N), "--subsamples", str(DARBOUX_M)]

        def check(stdout: str) -> None:
            got = fields(stdout)
            lower, upper = float(got["lower"]), float(got["upper"])
            slack = 1e-9 * (1.0 + abs(ref))
            expect(lower - slack <= ref <= upper + slack, "Darboux bounds do not bracket")
            gap = hi / DARBOUX_N * (f(hi) - f(0.0))     # exact gap of an increasing f
            close(upper - lower, gap, 1e-6 * (1.0 + abs(gap)), "Darboux gap")
    else:
        argv += ["--n", str(INT_N)]

        def check(stdout: str) -> None:
            close(float(fields(stdout)["value"]), ref, 1e-6 * (1.0 + abs(ref)),
                  f"{method} integral vs numpy")

    return Command(f"integrate-{method}", argv, check)


def _step_reference(num: np.ndarray, den: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Exact unit-step response by partial fractions (distinct poles).

    Coefficients are ascending, as on the calckit command line."""
    n_desc, d_desc = num[::-1], den[::-1]
    poles = np.roots(d_desc)
    dd = np.polyder(d_desc)
    y = np.full(t.shape, np.polyval(n_desc, 0.0) / np.polyval(d_desc, 0.0), complex)
    for p in poles:
        y += np.polyval(n_desc, p) / (p * np.polyval(dd, p)) * np.exp(p * t)
    return y.real


def _step(rng, order: int) -> Command:
    wn = float(_num(rng.uniform(1.0, 4.0)))
    zeta = float(_num(rng.uniform(0.2, 0.7)))
    quad_den = np.array([wn * wn, 2.0 * zeta * wn, 1.0])
    if order == 2:
        num, den = np.array([wn * wn]), quad_den
    else:
        p = float(_num(rng.uniform(2.0, 6.0)))
        num, den = np.array([p * wn * wn]), np.convolve(quad_den, [p, 1.0])
    T, dt = 10.0, 1e-3
    t = dt * np.arange(int(round(T / dt)) + 1)
    y = _step_reference(num, den, t)
    final = num[0] / den[0]
    overshoot = max(0.0, (y.max() - final) / abs(final))

    def crossing(level):            # first crossing, linearly interpolated
        k = int(np.argmax(y >= level))
        return t[k - 1] + (level - y[k - 1]) / (y[k] - y[k - 1]) * dt

    rise = crossing(0.9 * final) - crossing(0.1 * final)
    settling = t[np.nonzero(np.abs(y - final) > 0.02 * abs(final))[0][-1]]

    def check(stdout: str) -> None:
        f = fields(stdout)
        close(float(f["steady state"]), final, 1e-9, "step steady state")
        close(float(f["overshoot"]), overshoot, 1e-6, "step overshoot vs partial fractions")
        close(float(f["rise time"]), rise, 1e-6, "step rise time vs partial fractions")
        close(float(f["settling time"]), settling, 1.5 * dt, "step settling time")

    argv = ["control", "step", "--num", *map(repr, num.tolist()),
            "--den", *map(repr, den.tolist())]
    return Command(f"step-order{order}", argv, check)


def _linearize(rng, work: Path) -> Command:
    params = _segway_params(rng)
    cfg = _write_json(work / "linearize.json", params)
    big_m, m, ell = params["cart_mass"], params["pole_mass"], params["length"]
    mass = np.array([[big_m + m, m * ell], [m * ell, m * ell * ell]])
    stiff = np.diag([0.0, -m * G * ell])            # Hessian of V about upright
    a = np.zeros((4, 4))
    a[:2, 2:] = np.eye(2)
    a[2:, :2] = -np.linalg.solve(mass, stiff)
    b = np.concatenate([np.zeros(2), np.linalg.solve(mass, [1.0, 0.0])])

    def check(stdout: str) -> None:
        lines = stdout.splitlines()
        i = lines.index("A:")
        got_a = np.array([numbers(r) for r in lines[i + 1:i + 5]])
        got_b = np.array([float(r) for r in lines[i + 6:i + 10]])
        close(np.abs(got_a - a).max(), 0.0, 1e-4 * np.abs(a).max(), "linearized A")
        close(np.abs(got_b - b).max(), 0.0, 1e-4 * np.abs(b).max(), "linearized B")

    return Command("linearize-segway",
                   ["control", "linearize", "--model", "segway", "--config", cfg], check)


def tools(rng: np.random.Generator, work: Path) -> list[Command]:
    """Parsed-expression quadrature plus the control design helpers."""
    cmds = [_integrate(rng, *spec) for spec in _INTEGRANDS]
    seg = _write_json(work / "pd-segway.json", _segway_params(rng))
    bb = _write_json(work / "pd-ballbot.json", _ballbot_params(rng))
    for model, cfg in (("segway", seg), ("ballbot", bb)):
        for _ in range(2):
            wn = float(_num(rng.uniform(2.0, 8.0)))
            zeta = float(_num(rng.uniform(0.5, 1.0)))
            cmds.append(_pd_command(f"pd-{model}", model, cfg, wn, zeta))
    cmds += [_step(rng, 2), _step(rng, 3), _linearize(rng, work)]
    return cmds


WORKLOADS = {"odometry": odometry, "projectile": projectile,
             "balance": balance, "tools": tools}
