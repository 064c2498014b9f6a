import hashlib
import importlib.util
import json
import math
import os
import pathlib
import shutil
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from calckit import cli, funcexpr, lti, odo, quad, signals
from calckit.cli import _fmt, _print_pole_table, main
from calckit.errors import CalcError
from calckit.signals import read_csv

DATA = pathlib.Path(__file__).parent / "data"
GOLDEN = DATA / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------- integrate

def test_integrate_simpson_value(capsys):
    code, out, _ = run(capsys, "integrate", "--expr", "x^2", "--a", "0", "--b", "1",
                       "--n", "1000", "--method", "simpson")
    assert code == 0
    assert "value: 0.333333333333" in out


def test_integrate_trapezoid_constant(capsys):
    code, out, _ = run(capsys, "integrate", "--expr", "1", "--a", "0", "--b", "2",
                       "--method", "trapezoid", "--n", "1")
    assert code == 0
    assert "value: 2" in out


def test_integrate_darboux_prints_bounds(capsys):
    code, out, _ = run(capsys, "integrate", "--expr", "x", "--a", "0", "--b", "1",
                       "--n", "4", "--method", "darboux", "--subsamples", "2")
    assert code == 0
    assert "lower: 0.375" in out
    assert "upper: 0.625" in out


def test_integrate_parse_error_exit_2(capsys):
    code, _, err = run(capsys, "integrate", "--expr", "x@", "--a", "0", "--b", "1")
    assert code == 2
    assert "offset" in err


def test_integrate_domain_error_exit_2(capsys):
    code, _, err = run(capsys, "integrate", "--expr", "1/x", "--a", "0", "--b", "1",
                       "--method", "riemann-left")
    assert code == 2
    assert "error" in err


# the direct quad call each non-Darboux method stood for before it was
# derived from the method name
DIRECT_RULES = {
    "riemann-left": lambda f, iv, n: quad.riemann_sum(f, iv, n, "left"),
    "riemann-right": lambda f, iv, n: quad.riemann_sum(f, iv, n, "right"),
    "midpoint": lambda f, iv, n: quad.riemann_sum(f, iv, n, "midpoint"),
    "trapezoid": quad.trapezoid,
    "simpson": quad.simpson,
}


@pytest.mark.parametrize("method", sorted(DIRECT_RULES))
def test_integrate_prints_the_value_of_the_direct_quad_call(method, capsys):
    rng = np.random.default_rng(sorted(DIRECT_RULES).index(method))
    expr = "sin(3*x)*exp(-x/4) + x^2"
    f = lambda x: funcexpr.evaluate(funcexpr.parse_text(expr), {"x": x})
    for _ in range(10):
        a = float(rng.uniform(-5.0, 5.0))
        b = a + float(rng.uniform(0.1, 10.0))
        n = 2 * int(rng.integers(1, 500))
        code, out, _ = run(capsys, "integrate", "--expr", expr, "--a", repr(a),
                           "--b", repr(b), "--n", str(n), "--method", method)
        assert code == 0
        value = DIRECT_RULES[method](f, quad.Interval(a, b), n)
        assert out.splitlines()[-1] == f"value: {_fmt(value)}"


@pytest.mark.parametrize("method", ["simpson", "trapezoid", "riemann-left", "darboux"])
def test_integrate_interval_of_overflowing_width_exit_2(method, capsys):
    code, out, err = run(capsys, "integrate", "--expr", "1", "--a=-1e308", "--b", "1e308",
                         "--method", method)
    assert code == 2
    assert "interval width" in err


# ---------------------------------------------------------------- projects

def test_project1_writes_reingestable_csv(tmp_path, capsys):
    out_csv = tmp_path / "odo.csv"
    code, out, _ = run(capsys, "project1", "--imu", str(DATA / "imu_fixture.csv"),
                       "--out", str(out_csv))
    assert code == 0
    assert "final position:" in out
    sig = read_csv(out_csv)           # shared CSV contract round-trips
    assert sig.dim == 2               # vx and px for the 1-axis trace


def test_project1_holds_each_record_once(tmp_path, monkeypatch, capsys):
    # the trace, three odometry records on the trace's one t, and blocks of
    # 512 rows: about 120 bytes a sample traced, where copying each record
    # into every SampledSignal and digesting the input whole took 210
    monkeypatch.setattr(signals, "READ_BLOCK_LINES", 512)
    monkeypatch.setattr(signals, "WRITE_BLOCK_ROWS", 512)
    n = 20_000
    syn = odo.synth_imu(odo.AccelProfile.sinusoid(0.5, 0.2), [0.05, -0.03, 0.02], 0.01,
                        0.01, (n - 1) * 0.01, seed=3)
    imu, meas = tmp_path / "imu.csv", tmp_path / "meas.csv"
    odo.write_imu_csv(syn.trace, imu)
    odo.write_measurements_csv([odo.VelMeasurement(syn.truth_v.t[k], syn.truth_v.y[k])
                                for k in range(200, n, 200)], meas)
    tracemalloc.start()
    try:
        code = main(["project1", "--imu", str(imu), "--meas", str(meas),
                     "--out", str(tmp_path / "odo.csv"), "--plot", str(tmp_path / "odo.svg")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and len(syn.trace) == n
    assert "final position:" in capsys.readouterr().out
    assert peak <= 140 * n


@pytest.mark.parametrize("size", [0, 1, 2 ** 20 - 1, 2 ** 20, 2 ** 20 + 1])
def test_digest_is_the_whole_file_sha256(tmp_path, size):
    data = np.random.default_rng(size).bytes(size)
    path = tmp_path / "input.bin"
    path.write_bytes(data)
    assert cli._digest(path) == hashlib.sha256(data).hexdigest()[:12]


def test_digest_memory_does_not_grow_with_the_file(tmp_path):
    path = tmp_path / "input.bin"
    with open(path, "wb") as fh:
        for k in range(8):
            fh.write(bytes([k]) * 2 ** 20)
    tracemalloc.start()
    try:
        cli._digest(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 2 ** 20


def test_project1_malformed_csv_reports_line(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("t,ax\n0.0,1.0\nnot,a,number\n")
    code, _, err = run(capsys, "project1", "--imu", str(bad),
                       "--out", str(tmp_path / "o.csv"))
    assert code == 2
    assert "line 3" in err


def test_project1_nonfinite_l2_exit_2_before_integrating(tmp_path, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run(capsys, "project1", "--imu", str(DATA / "imu_fixture.csv"),
                           "--meas", str(DATA / "meas_fixture.csv"), "--l2", "nan",
                           "--out", str(tmp_path / "o.csv"))
    assert code == 2
    assert "l2" in err


def test_optimize_gymnast_runs(capsys):
    code, out, _ = run(capsys, "optimize", "--scenario", "gymnast",
                       "--config", str(DATA / "gymnast.json"))
    assert code == 0
    assert "converged: True" in out


def test_optimize_diver_runs(capsys):
    code, out, _ = run(capsys, "optimize", "--scenario", "diver",
                       "--config", str(DATA / "diver.json"))
    assert code == 0
    assert "constraint residual:" in out


def test_optimize_diver_residual_covers_both_constraints(capsys):
    # one iteration leaves both constraints violated; here the clearance
    # residual v0x te - d_min is the larger one
    code, out, _ = run(capsys, "optimize", "--scenario", "diver",
                       "--config", str(DATA / "diver.json"), "--max-iters", "1")
    assert code == 3
    f = dict(line.split(": ", 1) for line in out.splitlines())
    v0x, _ = map(float, f["v0"].split())
    t1, t2 = map(float, f["tuck window"].split())
    big_l, te = float(f["L"]), float(f["entry time"])
    angle = big_l * (t1 / 1.0 + (t2 - t1) / 0.4 + (te - t2) / 1.0) - math.pi
    clearance = v0x * te - 1.0
    assert abs(clearance) > abs(angle)
    assert float(f["constraint residual"]) == pytest.approx(
        max(abs(angle), abs(clearance)), rel=1e-8)


def test_optimize_budget_exhaustion_exit_3(tmp_path, capsys):
    cfg = tmp_path / "gym.json"
    cfg.write_text(json.dumps({"half_length": 0.5, "m1": 5.0, "m2": 5.0,
                               "p0": [0.0, 3.0], "p_land": [1.0, 0.0],
                               "theta_land": math.pi}))
    code, out, _ = run(capsys, "optimize", "--scenario", "gymnast",
                       "--config", str(cfg), "--max-iters", "3")
    assert code == 3
    assert "constraint residual:" in out   # residuals still reported


@pytest.mark.parametrize("scenario", ["freethrow", "gymnast", "diver"])
def test_optimize_empty_budget_exit_2(scenario, capsys):
    code, _, err = run(capsys, "optimize", "--scenario", scenario,
                       "--config", str(DATA / f"{scenario}.json"), "--max-iters", "0")
    assert code == 2
    assert "budget must be at least 1" in err


def test_simulate_config_overrides_model_parameters(tmp_path, capsys):
    cfg = tmp_path / "pend.json"
    cfg.write_text(json.dumps({"length": 2.0, "mass": 0.5}))
    out_csv = tmp_path / "states.csv"
    code, out, _ = run(capsys, "simulate", "--model", "pendulum",
                       "--config", str(cfg), "--q0", "0.01",
                       "--T", "6", "--dt", "0.001", "--out", str(out_csv))
    assert code == 0
    # period scales with sqrt(length): doubled length vs the default model
    sig = read_csv(out_csv)
    th = sig.channel(0)
    crossings = [sig.t[k - 1] + th[k - 1] / (th[k - 1] - th[k]) * (sig.t[k] - sig.t[k - 1])
                 for k in range(1, len(th)) if th[k - 1] > 0.0 >= th[k]]
    period = crossings[1] - crossings[0]
    assert abs(period - 2.0 * math.pi * math.sqrt(2.0 / 9.81)) < 0.01


def test_simulate_uncontrolled_energy_drift(tmp_path, capsys):
    out_csv = tmp_path / "pend.csv"
    code, out, _ = run(capsys, "simulate", "--model", "pendulum", "--q0", "1.0",
                       "--T", "2", "--dt", "0.001", "--out", str(out_csv))
    assert code == 0
    drift = float(out.splitlines()[-1].split(":")[1])
    assert drift < 1e-6
    sig = read_csv(out_csv)
    assert sig.dim == 2


def test_control_step_first_order(capsys):
    code, out, _ = run(capsys, "control", "step", "--num", "1", "--den", "1", "1",
                       "--T", "5", "--dt", "0.001")
    assert code == 0
    steady = float(next(l for l in out.splitlines()
                        if l.startswith("steady state:")).split(":")[1])
    assert abs(steady - 1.0) <= 1e-3


def test_control_step_integrator_never_settles_exit_2(capsys):
    # a pure integrator ramps: there is no steady state to report metrics for
    code, out, err = run(capsys, "control", "step", "--num", "1", "--den", "0", "1")
    assert code == 2
    assert "not settled" in err
    assert "steady state" not in out


@pytest.mark.parametrize("den", [
    ["1", "-0.1", "1"],                  # a growing oscillation: overshoot 1.17, settling = T
    ["1", "0", "1"],                     # undamped
    ["2", "1", "2", "1"],                # (s^2 + 1)(s + 2): the axis pair comes out at Re < 0
    [str(c) for c in range(1, 21)],      # degree 19, largest real part 1.03
], ids=["growing", "undamped", "undamped-roundoff", "degree-19"])
def test_control_step_refuses_a_plant_with_no_steady_state(den, capsys):
    code, out, err = run(capsys, "control", "step", "--num", "1", "--den", *den,
                         "--T", "5", "--dt", "0.01")
    assert code == 2
    assert "is not in the open left half-plane" in err
    assert "steady state" not in out


def test_control_step_takes_a_stable_plant_not_yet_settled_at_t(capsys):
    # zeta = 0.2, wn = 1: the envelope is still about 14 % at T = 10
    code, out, _ = run(capsys, "control", "step", "--num", "1", "--den", "1", "0.4", "1",
                       "--T", "10", "--dt", "0.01")
    assert code == 0
    assert metric_lines(out)["settling time"] == pytest.approx(10.0, abs=0.02)


def test_control_step_takes_a_stable_plant_with_a_large_gain(capsys):
    # 1e10 / (s + 1) passes 1e9 at t = 0.106 on its way to 1e10: its pole,
    # not its magnitude, decides whether it has a steady state
    code, out, _ = run(capsys, "control", "step", "--num", "1e10", "--den", "1", "1")
    assert code == 0
    m = metric_lines(out)
    assert m["steady state"] == 1e10
    assert m["rise time"] == pytest.approx(math.log(9.0), abs=1e-6)


def test_control_step_judges_a_plant_with_tiny_poles_stable(capsys):
    # poles -1e-13 and -3e-13, below the absolute tol of 1e-12: both are
    # stable, and time constants that dwarf T = 10 reach no level
    code, out, err = run(capsys, "control", "step", "--num", "3e-26",
                         "--den", "3e-26", "4e-13", "1")
    assert code == 2
    assert err == "error: response never reaches level 0.1\n"
    assert "steady state" not in out


def test_control_step_horizon_below_the_grid_tolerance_exit_2(capsys):
    # the time grid dropped t0 below a 1e-12 horizon: IndexError, exit 1
    code, out, err = run(capsys, "control", "step", "--num", "1", "--den", "1", "1",
                         "--T", "1e-15")
    assert code == 2
    assert err == "error: response never reaches level 0.1\n"
    assert "steady state" not in out


def metric_lines(out):
    return {k: float(v) for k, _, v in (l.partition(": ") for l in out.splitlines())
            if k in ("steady state", "rise time", "overshoot", "settling time")}


def test_control_step_static_gain(capsys):
    code, out, _ = run(capsys, "control", "step", "--num", "2", "--den", "1")
    assert code == 0
    assert metric_lines(out) == {"steady state": 2.0, "rise time": 0.0,
                                 "overshoot": 0.0, "settling time": 0.0}


def test_control_step_direct_term(capsys):
    code, out, _ = run(capsys, "control", "step", "--num", "2", "1", "--den", "1", "1")
    assert code == 0
    m = metric_lines(out)
    assert m["rise time"] == pytest.approx(math.log(5.0), abs=1e-6)
    assert m["settling time"] == pytest.approx(math.log(25.0), abs=1e-3)
    assert (m["overshoot"], m["steady state"]) == (0.0, 2.0)


def test_control_step_static_gain_zero_dt_exit_2(capsys):
    code, _, err = run(capsys, "control", "step", "--num", "2", "--den", "1",
                       "--dt", "0")
    assert code == 2
    assert "step size must be positive" in err


def test_nonfinite_energy_exits_2(tmp_path, capsys):
    cfg = tmp_path / "pendulum.json"
    cfg.write_text('{"gravity": Infinity}')
    code, _, err = run(capsys, "simulate", "--model", "pendulum", "--config", str(cfg),
                       "--q0", "0.3", "--T", "0.1", "--dt", "0.01",
                       "--out", str(tmp_path / "out.csv"))
    assert code == 2
    assert "not finite" in err


@pytest.mark.parametrize("argv", [
    ["integrate", "--expr", "x", "--a", "0", "--b", "1", "--n", "1000000000000"],
    ["simulate", "--model", "pendulum", "--q0", "0.1", "--T", "1e12", "--dt", "1e-3"],
    ["control", "step", "--num", "1", "--den", "1", "1", "--T", "1e12", "--dt", "1e-3"],
], ids=["integrate", "simulate", "control-step"])
def test_grid_over_the_point_budget_exits_2(argv, tmp_path, capsys):
    out_csv = tmp_path / "x.csv"
    if argv[0] == "simulate":
        argv = argv + ["--out", str(out_csv)]
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "over the budget of 10,000,000" in err
    assert not out_csv.exists()


@pytest.mark.parametrize("argv", [
    ["control", "step", "--num", "1", "--den", "1", "3", "3", "1", "--T", "1", "--dt", "0.003"],
], ids=["control-step"])
def test_state_record_over_the_budget_exits_2(argv, monkeypatch, tmp_path, capsys):
    # about 334 points pass a 1000-point grid budget, 3 states do not
    monkeypatch.setattr(signals, "MAX_GRID_POINTS", 1000)
    out_csv = tmp_path / "x.csv"
    code, _, err = run(capsys, *argv, "--out", str(out_csv))
    assert code == 2
    assert "state record needs" in err and "over the budget of 1,000" in err
    assert not out_csv.exists()


def test_simulate_work_over_the_budget_exits_2(monkeypatch, tmp_path, capsys):
    # 501 points pass a 1000-point grid budget; 1002 state values do not, but
    # 500 steps x 4 stages x 3 energy evaluations are refused first
    monkeypatch.setattr(signals, "MAX_GRID_POINTS", 1000)
    out_csv = tmp_path / "x.csv"
    code, _, err = run(capsys, "simulate", "--model", "pendulum", "--q0", "0.1", "--T", "1",
                       "--dt", "0.002", "--out", str(out_csv))
    assert code == 2
    assert err == "error: simulation needs 6,000 energy evaluations, over the budget of 1,000\n"
    assert not out_csv.exists()


DEEP = 3000


HALF = funcexpr.MAX_TOKENS // 2


@pytest.mark.parametrize("expr, value, too_long", [
    ("(" * DEEP + "x" + ")" * DEEP, "0.5", "(" * HALF + "x" + ")" * HALF),
    ("-" * DEEP + "x", "0.5", "-" * (2 * HALF) + "x"),
    ("+".join(["x"] * 20_000), "10000", "+".join(["x"] * (HALF + 1))),
], ids=["parentheses", "unary-minus", "flat-sum"])
def test_deeply_nested_expression_exits_2(expr, value, too_long, capsys):
    # nesting takes no stack: an expression integrates at any depth, and only
    # one of MAX_TOKENS + 1 tokens is refused
    code, out, _ = run(capsys, "integrate", f"--expr={expr}", "--a", "0", "--b", "1")
    assert code == 0
    assert f"value: {value}\n" in out
    code, _, err = run(capsys, "integrate", f"--expr={too_long}", "--a", "0", "--b", "1")
    assert code == 2
    offset = funcexpr.tokenize(too_long)[funcexpr.MAX_TOKENS].position
    assert err == f"error: expression over 262,144 tokens (at offset {offset})\n"


@pytest.mark.parametrize("argv", [
    ["optimize", "--scenario", "diver"],
    ["simulate", "--model", "pendulum", "--q0", "0.1", "--T", "1", "--dt", "0.1"],
], ids=["optimize", "simulate"])
def test_deeply_nested_json_config_exits_2(argv, tmp_path, capsys):
    cfg = tmp_path / "deep.json"
    cfg.write_text("[" * DEEP + "]" * DEEP)
    if argv[0] == "simulate":
        argv = argv + ["--out", str(tmp_path / "x.csv")]
    code, _, err = run(capsys, *argv, "--config", str(cfg))
    assert code == 2
    assert "JSON nested too deeply" in err


@pytest.mark.parametrize("edit", ["unknown", "missing"])
@pytest.mark.parametrize("scenario", ["freethrow", "gymnast", "diver"])
def test_optimize_config_with_an_unknown_or_missing_key_exits_2(scenario, edit,
                                                                tmp_path, capsys):
    # a typo such as "G" for "g" must not be ignored in favour of the default
    config = json.loads((DATA / f"{scenario}.json").read_text())
    if edit == "unknown":
        config["G"] = 1.6
    else:
        del config[next(iter(config))]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, out, err = run(capsys, "optimize", "--scenario", scenario, "--config", str(cfg))
    assert code == 2
    assert ("unexpected keyword argument 'G'" if edit == "unknown" else "missing") in err
    assert "converged" not in out


@pytest.mark.parametrize("k", [1.5, True], ids=["half", "bool"])
def test_optimize_diver_with_a_non_integer_k_exits_2(k, tmp_path, capsys):
    # k = 1.5 asks for a horizontal entry; true would pass for k = 1
    config = json.loads((DATA / "diver.json").read_text())
    config["k"] = k
    cfg = tmp_path / "diver.json"
    cfg.write_text(json.dumps(config))
    code, out, err = run(capsys, "optimize", "--scenario", "diver", "--config", str(cfg))
    assert code == 2
    assert "DiverModel k must be an integer >= 1" in err
    assert "converged" not in out


@pytest.mark.parametrize("scenario,field,record", [
    ("freethrow", "g", "FreeThrowParams"),
    ("gymnast", "theta_land", "GymnastModel"),
    ("gymnast", "p_land", "GymnastModel"),
    ("diver", "d_min", "DiverModel"),
    ("diver", "platform_height", "DiverModel"),
])
@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
def test_optimize_nonfinite_scenario_field_exits_2(scenario, field, record, value,
                                                    tmp_path, capsys):
    config = json.loads((DATA / f"{scenario}.json").read_text())
    config[field] = [0.5, float(value)] if field == "p_land" else float(value)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "optimize", "--scenario", scenario,
                             "--config", str(cfg))
    assert code == 2
    assert f"{record} {field} must be finite" in err
    assert "converged" not in out


def test_control_linearize_of_an_unactuated_model_exits_2_for_want_of_an_input(
        tmp_path, capsys):
    cfg = tmp_path / "bar.json"
    cfg.write_text('{"gravity": 0}')
    code, out, err = run(capsys, "control", "linearize", "--model", "gymnast_bar",
                         "--config", str(cfg))
    assert code == 2
    assert "ss_to_tf needs one input and one output, got 0 inputs" in err
    assert "A:" not in out


@pytest.mark.parametrize("argv", [
    ["simulate", "--model", "segway", "--q0", "0", "0.1", "--T", "0.1", "--dt", "0.01"],
    ["control", "pd", "--model", "segway", "--wn", "3", "--zeta", "0.9"],
], ids=["simulate", "control-pd"])
def test_negative_mass_segway_exits_2(argv, tmp_path, capsys):
    cfg = tmp_path / "segway.json"
    cfg.write_text('{"cart_mass": -3.0}')
    out_csv = tmp_path / "x.csv"
    if argv[0] == "simulate":
        argv = argv + ["--out", str(out_csv)]
    code, out, err = run(capsys, *argv, "--config", str(cfg))
    assert code == 2
    assert "mass matrix of segway is not positive definite at q = " in err
    assert "kp:" not in out
    assert not out_csv.exists()


LONG_PENDULUM = '{"length": 1e200}'


@pytest.mark.parametrize("argv,config", [
    (["control", "pd", "--model", "segway", "--wn", "1e200", "--zeta", "0.9"], None),
    (["optimize", "--scenario", "freethrow", "--mode", "fixed_speed", "--speed", "1e200",
      "--config", str(DATA / "freethrow.json")], None),
    (["optimize", "--scenario", "gymnast"],
     '{"half_length": 1e200, "m1": 30.0, "m2": 30.0, "p0": [0.0, 3.0], '
     '"p_land": [0.0, 0.0], "theta_land": 0.0}'),
    (["control", "pd", "--model", "pendulum", "--wn", "3", "--zeta", "0.9"], LONG_PENDULUM),
    (["control", "linearize", "--model", "pendulum"], LONG_PENDULUM),
    (["simulate", "--model", "pendulum", "--q0", "0.1", "--T", "0.1", "--dt", "0.01"],
     LONG_PENDULUM),
], ids=["pd-wn", "freethrow-speed", "gymnast-half-length", "pd-pendulum-length",
        "linearize-pendulum-length", "simulate-pendulum-length"])
def test_overflow_from_finite_input_exits_2(argv, config, tmp_path, capsys):
    # a Python float ** raises OverflowError, which is not a ValueError
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(config)
        argv = argv + ["--config", str(cfg)]
    out_csv = tmp_path / "x.csv"
    if argv[0] == "simulate":
        argv = argv + ["--out", str(out_csv)]
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "OverflowError" in err
    assert not out_csv.exists()


def test_control_pd_segway_stable_poles(capsys):
    code, out, _ = run(capsys, "control", "pd", "--model", "segway",
                       "--wn", "3", "--zeta", "0.9", "--T", "5")
    assert code == 0
    lines = out.splitlines()
    start = lines.index("closed-loop poles:") + 2   # skip the header row
    reals = []
    for line in lines[start:]:
        parts = line.split()
        if len(parts) != 2:
            break
        try:
            reals.append(float(parts[0]))
        except ValueError:
            break
    assert reals and all(r < 0.0 for r in reals)


class _LoopSeen(CalcError):
    """Stops `control pd` once its closed loop reaches lti.poles."""


def closed_loop_of_control_pd(capsys, *argv):
    """The closed loop `control pd` forms, caught where it asks for its poles."""
    seen = []

    def poles(tf):
        seen.append(tf)
        raise _LoopSeen("closed loop seen")

    with pytest.MonkeyPatch.context() as m:
        m.setattr(lti, "poles", poles)
        assert run(capsys, "control", "pd", *argv)[0] == 2
    return seen[0]


def assert_loop_built_twice(closed, plant, gains):
    """The old form: build the loop, read its precompensator, build it again."""
    pre = lti.precompensator(lti.unity_feedback(plant, lti.pd_tf(gains)))
    want = lti.unity_feedback(plant, lti.pd_tf(gains), precomp=pre)
    assert closed.num.tobytes() == want.num.tobytes()
    assert closed.den.tobytes() == want.den.tobytes()


@pytest.mark.parametrize("model, wn, zeta", [
    ("pendulum", 4.0, 0.7), ("segway", 3.0, 0.9), ("ballbot", 5.5, 0.6),
])
def test_control_pd_scales_the_loop_it_formed_once(model, wn, zeta, capsys):
    closed = closed_loop_of_control_pd(capsys, "--model", model,
                                       "--wn", str(wn), "--zeta", str(zeta))
    _, plant = cli._design_plant(model, None)
    assert_loop_built_twice(closed, plant, lti.pd_pole_placement(plant, wn, zeta))


def test_control_pd_scaled_loop_on_seeded_plants_and_gains(monkeypatch, capsys):
    rng = np.random.default_rng(41)
    for _ in range(200):
        den = rng.standard_normal(int(rng.integers(3, 6))) * 10.0 ** rng.uniform(-3, 3)
        num = rng.standard_normal(int(rng.integers(1, len(den) - 1)))
        plant = lti.TransferFunction(num, den)
        gains = lti.PdGains(*(rng.standard_normal(2) * 10.0 ** rng.uniform(-2, 2, 2)))
        with monkeypatch.context() as m:
            m.setattr(cli, "_design_plant", lambda name, config: (None, plant))
            m.setattr(lti, "pd_pole_placement", lambda tf, wn, zeta: gains)
            closed = closed_loop_of_control_pd(capsys, "--model", "pendulum",
                                               "--wn", "1", "--zeta", "1")
        assert_loop_built_twice(closed, plant, gains)


def test_pole_table_lists_the_negative_imaginary_part_of_a_pair_first(capsys):
    # the real parts differ in the last bit, as computed conjugates can
    upper, lower = complex(-1.5, 2.5), complex(np.nextafter(-1.5, 0.0), -2.5)
    for values in ([upper, lower], [lower, upper]):
        _print_pole_table(values)
        rows = capsys.readouterr().out.splitlines()[1:]
        assert [float(row.split()[1]) for row in rows] == [-2.5, 2.5]


def test_control_linearize_prints_tf(capsys):
    code, out, _ = run(capsys, "control", "linearize", "--model", "pendulum")
    assert code == 0
    assert "lean transfer function:" in out


def test_unknown_subcommand_exit_2(capsys):
    code, _, _ = run(capsys, "frobnicate", "--x", "1")
    assert code == 2


def test_missing_required_flag_exit_2(capsys):
    code, _, _ = run(capsys, "integrate", "--a", "0", "--b", "1")
    assert code == 2


def test_flag_fuzz_never_raises(capsys):
    rng = np.random.default_rng(99)
    vocab = ["integrate", "project1", "optimize", "simulate", "control",
             "--expr", "--a", "--b", "--n", "--method", "simpson", "x^2",
             "--imu", "--out", "--q0", "--T", "--dt", "--model", "nope",
             "--scenario", "diver", "", "-1", "@@", "--seed", "()", "steps"]
    for _ in range(60):
        argv = [vocab[i] for i in rng.integers(0, len(vocab),
                                               size=rng.integers(0, 6))]
        code = main(argv)
        assert isinstance(code, int)
        capsys.readouterr()


def test_one_parser_serves_every_command_of_a_process(capsys, monkeypatch):
    # each command in one process prints what it prints alone in a fresh one
    monkeypatch.setenv("COLUMNS", "80")         # --help wraps to the same width
    calls = [["integrate", "--expr", "x^2", "--a", "0", "--b", "1", "--n", "10"],
             ["integrate", "--expr", "x^2", "--method", "bogus"],
             ["control", "pd", "--model", "pendulum", "--wn", "4", "--zeta", "0.7"],
             ["--help"]]
    together = [run(capsys, *argv)[:2] for argv in calls]
    assert cli.build_parser() is cli.build_parser()
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(cli.__file__).parents[1]))
    alone = [subprocess.run([sys.executable, "-m", "calckit.cli", *argv], env=env,
                            capture_output=True, text=True, timeout=120)
             for argv in calls]
    assert [code for code, _ in together] == [0, 2, 0, 0]
    assert together == [(proc.returncode, proc.stdout) for proc in alone]


# ---------------------------------------------------------------- goldens

def test_golden_project1(tmp_path, capsys):
    out_csv = tmp_path / "out.csv"
    out_svg = tmp_path / "plot.svg"
    code, _, _ = run(capsys, "project1", "--imu", str(DATA / "imu_fixture.csv"),
                     "--meas", str(DATA / "meas_fixture.csv"),
                     "--l1", "0.5", "--l2", "0.5",
                     "--out", str(out_csv), "--plot", str(out_svg))
    assert code == 0
    assert out_csv.read_bytes() == (GOLDEN / "project1_out.csv").read_bytes()
    assert out_svg.read_bytes() == (GOLDEN / "project1_plot.svg").read_bytes()


def test_golden_optimize_freethrow(capsys, monkeypatch):
    monkeypatch.chdir(DATA)           # keep the echoed config path relative
    code = main(["optimize", "--scenario", "freethrow", "--config",
                 "freethrow.json", "--mode", "fixed_tf", "--tf", "1.0"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / "optimize_freethrow.txt").read_text(encoding="utf-8")


def test_golden_simulate_segway(tmp_path, capsys):
    out_csv = tmp_path / "states.csv"
    code, _, _ = run(capsys, "simulate", "--model", "segway", "--q0", "0", "0.05",
                     "--T", "2", "--dt", "0.01", "--controller", "pd",
                     "--kp", "-28.62", "--kd", "-5.4",
                     "--precomp", "0.31446541", "--out", str(out_csv))
    assert code == 0
    assert out_csv.read_bytes() == (GOLDEN / "simulate_segway.csv").read_bytes()


def test_golden_project1_dead_reckon(tmp_path, capsys):
    out_csv = tmp_path / "out.csv"
    code, _, _ = run(capsys, "project1", "--imu", str(DATA / "imu_fixture.csv"),
                     "--out", str(out_csv))
    assert code == 0
    assert out_csv.read_bytes() == (GOLDEN / "project1_dead_reckon.csv").read_bytes()


def test_golden_control_pd_segway(capsys):
    code, out, _ = run(capsys, "control", "pd", "--model", "segway",
                       "--wn", "3", "--zeta", "0.9")
    assert code == 0
    assert out == (GOLDEN / "control_pd_segway.txt").read_text(encoding="utf-8")


def test_golden_control_linearize_pendulum(capsys):
    code, out, _ = run(capsys, "control", "linearize", "--model", "pendulum")
    assert code == 0
    assert out == (GOLDEN / "control_linearize_pendulum.txt").read_text(encoding="utf-8")


def test_golden_control_pd_pendulum(capsys):
    code, out, _ = run(capsys, "control", "pd", "--model", "pendulum",
                       "--wn", "4", "--zeta", "0.7")
    assert code == 0
    assert out == (GOLDEN / "control_pd_pendulum.txt").read_text(encoding="utf-8")


def load_regenerate():
    spec = importlib.util.spec_from_file_location("regenerate", DATA / "regenerate.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_regenerate_check_rebuilds_every_file_byte_for_byte(capsys):
    regenerate = load_regenerate()
    committed = {p: p.read_bytes() for p in DATA.rglob("*") if p.is_file()}
    assert regenerate.main(["--check"]) == 0
    assert "13 of 13 files match" in capsys.readouterr().out
    assert {p: p.read_bytes() for p in DATA.rglob("*") if p.is_file()} == committed


def test_regenerate_check_runs_from_a_clean_checkout(tmp_path):
    # no PYTHONPATH and no installed calckit needed: the script finds src/
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, str(DATA / "regenerate.py"), "--check"],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "13 of 13 files match" in proc.stdout


def test_regenerate_check_lists_a_changed_golden(tmp_path, capsys, monkeypatch):
    regenerate = load_regenerate()
    copy = tmp_path / "data"
    shutil.copytree(DATA, copy, ignore=shutil.ignore_patterns("__pycache__"))
    with open(copy / "golden" / "project1_out.csv", "a", encoding="utf-8") as fh:
        fh.write("\n")
    monkeypatch.setattr(regenerate, "HERE", copy)
    assert regenerate.main(["--check"]) == 1
    out = capsys.readouterr().out
    assert "differs: golden/project1_out.csv" in out
    assert "12 of 13 files match" in out


def test_regenerate_check_prints_the_largest_csv_difference(tmp_path, capsys, monkeypatch):
    regenerate = load_regenerate()
    copy = tmp_path / "data"
    shutil.copytree(DATA, copy, ignore=shutil.ignore_patterns("__pycache__"))
    golden = copy / "golden" / "simulate_segway.csv"
    text = golden.read_text(encoding="utf-8")
    assert "\n0.0,0.0,0.05,0.0,0.0\n" in text
    golden.write_text(text.replace("\n0.0,0.0,0.05,", "\n0.0,0.0,0.0500001,", 1),
                      encoding="utf-8")
    monkeypatch.setattr(regenerate, "HERE", copy)
    assert regenerate.main(["--check"]) == 1
    out = capsys.readouterr().out
    assert ("differs: golden/simulate_segway.csv (max abs diff 1e-07, max rel diff 2e-06)\n"
            in out)
    assert "12 of 13 files match" in out


def test_regenerate_csv_difference_needs_equal_headers_and_shapes(tmp_path):
    regenerate = load_regenerate()
    files = {"a.csv": "t,x\n0,1\n1,2\n", "b.csv": "t,x\n0,1\n1,2.5\n",
             "header.csv": "t,y\n0,1\n1,2\n", "short.csv": "t,x\n0,1\n",
             "text.csv": "t,x\n0,one\n1,2\n", "empty.csv": ""}
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    diff = regenerate.numeric_difference
    assert diff(tmp_path / "a.csv", tmp_path / "b.csv") == " (max abs diff 0.5, max rel diff 0.2)"
    for other in ("header.csv", "short.csv", "text.csv", "empty.csv"):
        assert diff(tmp_path / "a.csv", tmp_path / other) == ""


def test_regenerate_numeric_difference_of_text_goldens(tmp_path):
    regenerate = load_regenerate()
    files = {"a.txt": "plant: [1] / [9.81,-0,1]\nkp: 6.19000000016\nkd: 5.6\n",
             "b.txt": "plant: [1] / [9.81,-0,1]\nkp: 6.19\nkd: 5.6\n",
             "word.txt": "plant: [1] / [9.81,-0,1]\nkp: 6.19\nkd: 5.6 s\n",
             "spaced.txt": "plant: [1] / [9.81, -0, 1]\nkp: 6.19\nkd: 5.6\n",
             "long.txt": "plant: [1] / [9.81,-0,1]\nkp: 6.19\nkd: 5.6\nkd: 5.6\n",
             "words.txt": "plant\nkp\nkd\n"}
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    diff = regenerate.numeric_difference
    assert (diff(tmp_path / "a.txt", tmp_path / "b.txt")
            == " (max abs diff 1.6e-10, max rel diff 2.58e-11)")
    for other in ("word.txt", "spaced.txt", "long.txt", "words.txt"):
        assert diff(tmp_path / "a.txt", tmp_path / other) == ""
    assert diff(tmp_path / "words.txt", tmp_path / "words.txt") == ""
    assert diff(tmp_path / "missing.txt", tmp_path / "a.txt") == ""
