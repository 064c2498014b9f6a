"""Batch command-line surface.

Subcommands: integrate (quadrature of a parsed expression), project1 (IMU
odometry from CSV), optimize (free throw / gymnast / diver from JSON),
simulate (nonlinear model rollout to CSV), control (linearize / step / pd).

Exit codes: 0 success, 2 input error, 3 non-convergence. All reports go to
stdout and are deterministic for fixed inputs and --seed; wall time is the
one nondeterministic line and goes to stderr.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
import time

import numpy as np

from . import funcexpr, lti, mech, odo, opt, quad, svgplot
from .errors import CalcError, ConvergenceError
from .signals import write_csv


def _fmt(x: float) -> str:
    return f"{float(x):.12g}"


def _digest(path) -> str:
    """First 12 hex digits of the file's SHA-256, read 1 MiB at a time."""
    sha = hashlib.sha256()
    with open(path, "rb", buffering=0) as fh:
        while block := fh.read(1 << 20):
            sha.update(block)
            del block                   # so that no read holds two blocks
    return sha.hexdigest()[:12]


def _report_header(args, *inputs):
    """Echo the command and seed, then digest each input path given (not None)."""
    print(f"command: {' '.join(args._echo)}")
    print(f"seed: {args.seed}")
    for path in filter(None, inputs):
        print(f"input: {path} sha256:{_digest(path)}")


def _expr_fn(text: str, var: str):
    ast = funcexpr.parse_text(text)
    return lambda x: funcexpr.evaluate(ast, {var: x})


# ---------------------------------------------------------------- integrate

def cmd_integrate(args) -> int:
    f = _expr_fn(args.expr, args.var)
    iv = quad.Interval(args.a, args.b)
    _report_header(args)
    if args.method == "darboux":
        lower, upper = quad.darboux_bounds(f, iv, args.n, args.subsamples)
        print(f"lower: {_fmt(lower)}")
        print(f"upper: {_fmt(upper)}")
    elif args.method in ("trapezoid", "simpson"):
        print(f"value: {_fmt(getattr(quad, args.method)(f, iv, args.n))}")
    else:
        scheme = args.method.removeprefix("riemann-")
        print(f"value: {_fmt(quad.riemann_sum(f, iv, args.n, scheme))}")
    return 0


# ---------------------------------------------------------------- project 1

def cmd_project1(args) -> int:
    trace = odo.read_imu_csv(args.imu)
    d = trace.dim
    zeros = np.zeros(d)
    if args.meas:
        measurements = odo.read_measurements_csv(args.meas)
        gains = odo.FilterGains(args.l1, args.l2)
    _report_header(args, args.imu, args.meas)   # digests before the records exist
    if args.meas:
        result = odo.bias_corrected_odometry(trace, measurements, gains,
                                             zeros, zeros, zeros)
    else:
        result = odo.dead_reckon(trace, zeros, zeros)
    del trace                                   # its samples are not needed again
    odo.write_odometry_csv(result, args.out)
    final_p = result.p.y[-1]
    print(f"final position: {' '.join(_fmt(v) for v in final_p)}")
    print(f"final bias estimate: {' '.join(_fmt(v) for v in result.final_bias)}")
    print(f"wrote: {args.out}")
    if args.plot:
        series = [*zip(odo.axis_headers("v", d), result.v.y.T),
                  *zip(odo.axis_headers("p", d), result.p.y.T)]
        svgplot.line_chart(args.plot, "odometry", result.v.t, series)
        print(f"wrote: {args.plot}")
    return 0


# ---------------------------------------------------------------- optimize

def _load_json(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise CalcError(f"{path}: JSON nested too deeply") from None


def cmd_optimize(args) -> int:
    config = _load_json(args.config)
    _report_header(args, args.config)
    if args.scenario == "freethrow":
        result = opt.freethrow_opt(opt.FreeThrowParams(**config), args.mode, tf=args.tf,
                                   speed=args.speed, max_iters=args.max_iters)
        print(f"v0: {_fmt(result.v[0])} {_fmt(result.v[1])}")
        print(f"tf: {_fmt(result.tf)}")
        print(f"miss_distance: {_fmt(result.miss_distance)}")
        residual = result.miss_distance
    elif args.scenario == "gymnast":
        result = opt.gymnast_optimize(opt.GymnastModel(**config), max_iters=args.max_iters)
        print(f"v0: {_fmt(result.v0[0])} {_fmt(result.v0[1])}")
        print(f"omega: {_fmt(result.omega)}")
        print(f"tf: {_fmt(result.tf)}")
        print(f"objective: {_fmt(result.objective)}")
        residual = result.residual
    else:
        result = opt.diver_optimize(opt.DiverModel(**config), max_iters=args.max_iters)
        print(f"v0: {_fmt(result.v0[0])} {_fmt(result.v0[1])}")
        print(f"L: {_fmt(result.L)}")
        print(f"tuck window: {_fmt(result.t_tuck_start)} {_fmt(result.t_tuck_end)}")
        print(f"entry time: {_fmt(result.entry_time)}")
        residual = result.residual
    converged = result.converged
    print(f"constraint residual: {_fmt(residual)}")
    print(f"converged: {converged}")
    if not converged:
        raise ConvergenceError(f"{args.scenario} solve did not converge")
    return 0


# ---------------------------------------------------------------- simulate

_LEAN_COORD = {"pendulum": 0, "segway": 1, "ballbot": 1}


def _build_model(name: str, config_path):
    factory = mech.MODEL_ZOO.get(name)
    if factory is None:
        raise CalcError(f"unknown model {name!r}")
    kwargs = _load_json(config_path) if config_path else {}
    return factory(**kwargs)


def cmd_simulate(args) -> int:
    model = _build_model(args.model, args.config)
    n = model.n_dof
    q0 = np.asarray(args.q0, float)
    qd0 = np.asarray(args.qd0, float) if args.qd0 else np.zeros(n)
    _report_header(args, args.config)
    coord = _LEAN_COORD.get(args.model, 0)
    controller = None
    if args.controller == "pd":
        kp, kd, pre, ref = args.kp, args.kd, args.precomp, args.ref

        def controller(t, q, qd):
            return np.array([pre * ref - kp * q[coord] - kd * qd[coord]])

    states = mech.simulate(model, controller, q0, qd0, args.T, args.dt)
    write_csv(states, args.out, [f"q{i}" for i in range(n)] + [f"qd{i}" for i in range(n)])
    print(f"wrote: {args.out}")
    if args.controller == "pd":
        err = abs(states.y[-1, coord] - args.ref)
        print(f"final regulation error: {_fmt(err)}")
    else:
        e0 = model.energy(q0, qd0)
        eT = model.energy(states.y[-1, :n], states.y[-1, n:])
        drift = abs(eT - e0) / max(abs(e0), 1e-12)
        print(f"relative energy drift: {_fmt(drift)}")
    return 0


# ---------------------------------------------------------------- control

def _print_metrics(metrics: lti.StepMetrics) -> None:
    print(f"steady state: {_fmt(metrics.steady_state)}")
    print(f"rise time: {_fmt(metrics.rise_time)}")
    print(f"overshoot: {_fmt(metrics.overshoot)}")
    print(f"settling time: {_fmt(metrics.settling_time)}")


def _print_pole_table(values) -> None:
    """Rows in order of the printed real part, then the imaginary part, so a
    conjugate pair whose real parts differ in the last bits lists -imag first."""
    print(f"{'real':>16} {'imag':>16}")
    for v in sorted(values, key=lambda v: (float(f"{v.real:.8f}"), v.imag)):
        print(f"{v.real:>16.8f} {v.imag:>16.8f}")


def _design_plant(model_name: str, config_path):
    """Lean-angle SISO plant of a zoo model linearized about upright/rest."""
    model = _build_model(model_name, config_path)
    ss = lti.linearize(model, np.zeros(model.n_dof), np.zeros(model.n_inputs))
    coord = _LEAN_COORD.get(model_name, 0)
    reduced = lti.subsystem(ss, [coord, model.n_dof + coord], outputs=[coord])
    return ss, lti.ss_to_tf(reduced)


def cmd_linearize(args) -> int:
    _report_header(args, args.config)
    ss, tf = _design_plant(args.model, args.config)
    for name, mat in (("A", ss.A), ("B", ss.B)):
        print(f"{name}:")
        for row in mat:
            print("  " + " ".join(_fmt(v) for v in row))
    print(f"lean transfer function: {tf}")
    return 0


def cmd_step(args) -> int:
    _report_header(args)
    tf = lti.TransferFunction(np.asarray(args.num, float), np.asarray(args.den, float))
    sig = lti.step_response(tf, args.T, args.dt)
    metrics = lti.response_metrics(sig, tf)
    if args.out:
        write_csv(sig, args.out, headers=["y"])
        print(f"wrote: {args.out}")
    _print_metrics(metrics)
    return 0


def cmd_pd(args) -> int:
    _report_header(args, args.config)
    _, plant = _design_plant(args.model, args.config)
    gains = lti.pd_pole_placement(plant, args.wn, args.zeta)
    pd = lti.pd_tf(gains)
    pre = lti.precompensator(lti.unity_feedback(plant, pd))
    closed = lti.unity_feedback(plant, pd, precomp=pre)
    print(f"plant: {plant}")
    print(f"kp: {_fmt(gains.kp)}")
    print(f"kd: {_fmt(gains.kd)}")
    print(f"precompensator: {_fmt(pre)}")
    print("closed-loop poles:")
    _print_pole_table(lti.poles(closed))
    sig = lti.step_response(closed, args.T, args.dt)
    _print_metrics(lti.response_metrics(sig, closed))
    return 0


# ---------------------------------------------------------------- parser

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built at its first use.

    Each subcommand's handler is bound as the module attribute stands then,
    so a wrapper installed after import and before the first command is the
    one every command calls. Nothing in the parser changes while parsing.
    """
    parser = argparse.ArgumentParser(prog="calckit",
                                     description="numerical calculus and control toolkit")
    parser.add_argument("--seed", type=int, default=0,
                        help="echoed into reports; commands are deterministic")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("integrate", help="definite integral of an expression")
    p.add_argument("--expr", required=True)
    p.add_argument("--var", default="x")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--method", default="simpson",
                   choices=["riemann-left", "riemann-right", "midpoint",
                            "trapezoid", "simpson", "darboux"])
    p.add_argument("--subsamples", type=int, default=8,
                   help="per-panel subsamples for darboux")
    p.set_defaults(fn=cmd_integrate)

    p = sub.add_parser("project1", help="IMU odometry from CSV traces")
    p.add_argument("--imu", required=True)
    p.add_argument("--meas")
    p.add_argument("--l1", type=float, default=0.5)
    p.add_argument("--l2", type=float, default=0.5)
    p.add_argument("--out", required=True)
    p.add_argument("--plot")
    p.set_defaults(fn=cmd_project1)

    p = sub.add_parser("optimize", help="projectile scenario optimization")
    p.add_argument("--scenario", required=True,
                   choices=["freethrow", "gymnast", "diver"])
    p.add_argument("--config", required=True)
    p.add_argument("--mode", default="free",
                   choices=["free", "fixed_tf", "fixed_speed"])
    p.add_argument("--tf", type=float)
    p.add_argument("--speed", type=float)
    p.add_argument("--max-iters", type=int, default=50_000,
                   help="descent iteration budget; exhaustion exits 3")
    p.set_defaults(fn=cmd_optimize)

    p = sub.add_parser("simulate", help="nonlinear model rollout")
    p.add_argument("--model", required=True, choices=sorted(mech.MODEL_ZOO))
    p.add_argument("--config")
    p.add_argument("--q0", type=float, nargs="+", required=True)
    p.add_argument("--qd0", type=float, nargs="+")
    p.add_argument("--T", type=float, required=True)
    p.add_argument("--dt", type=float, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--controller", choices=["pd"])
    p.add_argument("--kp", type=float, default=0.0)
    p.add_argument("--kd", type=float, default=0.0)
    p.add_argument("--precomp", type=float, default=1.0)
    p.add_argument("--ref", type=float, default=0.0)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("control", help="linearization and PD design")
    csub = p.add_subparsers(dest="control_cmd", required=True)

    c = csub.add_parser("linearize", help="A, B and lean transfer function")
    c.add_argument("--model", required=True, choices=sorted(mech.MODEL_ZOO))
    c.add_argument("--config")
    c.set_defaults(fn=cmd_linearize)

    c = csub.add_parser("step", help="step response and transient metrics")
    c.add_argument("--num", type=float, nargs="+", required=True,
                   help="numerator coefficients, ascending powers")
    c.add_argument("--den", type=float, nargs="+", required=True,
                   help="denominator coefficients, ascending powers")
    c.add_argument("--T", type=float, default=10.0)
    c.add_argument("--dt", type=float, default=1e-3)
    c.add_argument("--out")
    c.set_defaults(fn=cmd_step)

    c = csub.add_parser("pd", help="pole placement on a zoo model")
    c.add_argument("--model", required=True, choices=sorted(mech.MODEL_ZOO))
    c.add_argument("--config")
    c.add_argument("--wn", type=float, required=True)
    c.add_argument("--zeta", type=float, required=True)
    c.add_argument("--T", type=float, default=10.0)
    c.add_argument("--dt", type=float, default=1e-3)
    c.set_defaults(fn=cmd_pd)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    args._echo = ["calckit"] + argv
    start = time.perf_counter()
    try:
        code = args.fn(args)
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except CalcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError, KeyError, ValueError, TypeError,
            OverflowError) as exc:
        print(f"error: {exc!r}", file=sys.stderr)
        return 2
    print(f"wall time: {time.perf_counter() - start:.3f} s", file=sys.stderr)
    return code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
