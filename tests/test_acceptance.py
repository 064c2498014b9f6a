"""Acceptance suite: every exit criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion. Everything here is oracle- or property-based and runs at desk
scale in well under a minute.
"""

import contextlib
import math
import pathlib

import numpy as np
import pytest

from calckit import diffnum, lti, mech, odesolve, odo, opt, quad
from calckit.errors import ConvergenceError

DATA = pathlib.Path(__file__).parent / "data"
GOLDEN = DATA / "golden"


@contextlib.contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"FAIL  criterion {number:2d}: {title}")
        raise
    print(f"PASS  criterion {number:2d}: {title}")


def test_c01_quadrature_orders_and_simpson_exactness():
    with criterion(1, "trapezoid/Simpson convergence orders; Simpson exact on cubics"):
        iv = quad.Interval(0.0, math.pi)
        ns = (8, 16, 32, 64, 128)
        trap = [abs(quad.trapezoid(math.sin, iv, n) - 2.0) for n in ns]
        simp = [abs(quad.simpson(math.sin, iv, n) - 2.0) for n in ns]
        for a, b in zip(trap, trap[1:]):
            assert 3.5 <= a / b <= 4.5
        for a, b in zip(simp, simp[1:]):
            assert 14.0 <= a / b <= 18.0
        rng = np.random.default_rng(1)
        for _ in range(50):
            c = rng.uniform(-1.0, 1.0, size=4)
            exact = c[0] + c[1] / 2.0 + c[2] / 3.0 + c[3] / 4.0
            got = quad.simpson(lambda x: c[0] + c[1] * x + c[2] * x ** 2 + c[3] * x ** 3,
                               quad.Interval(0.0, 1.0), 4)
            assert abs(got - exact) <= 1e-14


def test_c02_fundamental_theorem_numeric():
    with criterion(2, "derivative of the numeric antiderivative recovers f (1e-6)"):
        rng = np.random.default_rng(2)
        cfg = diffnum.DiffConfig(h=1e-4, relative=False)
        for f in (math.sin, math.exp, lambda x: x ** 3):
            F = quad.antiderivative_numeric(f, 0.0)
            for x in rng.uniform(-1.5, 1.5, size=100):
                assert abs(diffnum.derivative(F, float(x), cfg) - f(float(x))) <= 1e-6


def test_c03_improper_integrals():
    with criterion(3, "Gaussian integral sqrt(pi) within 1e-6; 1/x tail diverges"):
        total = 2.0 * quad.improper_type1(lambda x: math.exp(-x * x), 0.0, 1e-8, 10)
        assert abs(total - math.sqrt(math.pi)) <= 1e-6
        with pytest.raises(ConvergenceError):
            quad.improper_type1(lambda x: 1.0 / x, 1.0, 1e-8, 10)


def test_c04_geometry_applications():
    with criterion(4, "unit-circle path length 2 pi (1e-6); unit-square Iz = 2/3 (1e-8)"):
        length = quad.path_length(math.cos, math.sin, 0.0, 2.0 * math.pi, 256)
        assert abs(length - 2.0 * math.pi) <= 1e-6
        lam = quad.Lamina(lambda x: 1.0, lambda x: 0.0, quad.Interval(0.0, 1.0), 1.0, 1.0)
        # analytic Iz integrand for the unit square: x^2 + 1/3, integral 2/3
        assert abs(quad.lamina_properties(lam, 100).Iz - 2.0 / 3.0) <= 1e-8


def test_c05_imu_bias_correction_project():
    with criterion(5, "constant-bias scenario: bias within 0.01, |v(T)| <= 0.02, drift 2.0"):
        synth = odo.synth_imu(odo.AccelProfile.rest(), [0.1], 0.0, 0.01, 20.0, seed=0)
        raw = odo.dead_reckon(synth.trace, [0.0], [0.0])
        assert abs(raw.v.y[-1, 0] - 2.0) <= 1e-9            # analytic drift b*T
        meas = [odo.VelMeasurement(float(t), [0.0])
                for t in np.arange(0.5, 20.0 + 1e-9, 0.5)]   # 2 Hz
        out = odo.bias_corrected_odometry(synth.trace, meas, odo.FilterGains(0.5, 0.5),
                                          [0.0], [0.0], [0.0])
        assert abs(out.final_bias[0] - 0.1) <= 0.01
        assert abs(out.v.y[-1, 0]) <= 0.02


def test_c06_elementary_derivative_oracles():
    with criterion(6, "central differences match the derivative table within 1e-7"):
        cases = [
            (math.atan, lambda x: 1.0 / (1.0 + x * x), -3.0, 3.0),
            (math.tan, lambda x: 1.0 + math.tan(x) ** 2, -1.2, 1.2),
            (math.log, lambda x: 1.0 / x, 0.2, 5.0),
            (math.exp, math.exp, -2.0, 2.0),
            (math.sin, math.cos, -3.0, 3.0),
        ]
        rng = np.random.default_rng(6)
        for f, fprime, lo, hi in cases:
            for x in rng.uniform(lo, hi, size=50):
                assert abs(diffnum.derivative(f, float(x)) - fprime(float(x))) <= 1e-7


def test_c07_constrained_optimization():
    with criterion(7, "solver cross-checks, free-throw agreement, KKT residuals"):
        benches = [
            (opt.ConstrainedProblem(lambda v: v[0] ** 2 + v[1] ** 2,
                                    lambda v: np.array([v[0] + v[1] - 2.0]), 2, 1),
             [0.0, 0.0], [0.0, 0.0], None),
            (opt.ConstrainedProblem(lambda v: v[0] + v[1],
                                    lambda v: np.array([v[0] ** 2 + v[1] ** 2 - 1.0]), 2, 1),
             [1.0, 0.0], [-1.0, -0.5], [0.5]),
        ]
        for prob, x_descent, x_newton, lam0 in benches:
            descent = opt.constrained_descent(prob, x_descent)
            newton = opt.lagrange_solve(prob, x_newton, lam0=lam0)
            assert descent.converged
            assert np.max(np.abs(descent.x - newton.x)) <= 1e-6
            assert np.max(np.abs(prob.h(descent.x))) <= 1e-7
            g = diffnum.gradient(prob.objective, descent.x)
            J = diffnum.jacobian(prob.h, descent.x)
            assert np.max(np.abs(g + J.T @ descent.lam)) <= 10.0 * opt._STOP_TOL

        rng = np.random.default_rng(7)
        for _ in range(20):
            params = opt.FreeThrowParams(
                [0.0, float(rng.uniform(1.5, 2.2))],
                [float(rng.uniform(2.0, 6.0)), float(rng.uniform(2.4, 3.5))])
            tf = float(rng.uniform(0.7, 1.4))
            linear = opt.freethrow_linear(params, tf)
            solved = opt.freethrow_opt(params, "fixed_tf", tf=tf)
            assert solved.converged
            assert np.max(np.abs(solved.v - linear)) <= 1e-5


def test_c08_lagrangian_mechanics():
    with criterion(8, "zoo SPD/skew-symmetry at 100 states; pendulum energy and period"):
        rng = np.random.default_rng(8)
        from calckit.linalg import is_positive_definite
        for name in sorted(mech.MODEL_ZOO):
            model = mech.MODEL_ZOO[name]()
            for _ in range(100):
                q = rng.uniform(-1.2, 1.2, size=model.n_dof)
                qd = rng.uniform(-2.0, 2.0, size=model.n_dof)
                d = mech.mass_matrix(model, q)
                assert np.array_equal(d, d.T)
                assert is_positive_definite(d)
                m = (mech.mass_matrix_rate(model, q, qd)
                     - 2.0 * mech.coriolis_matrix(model, q, qd))
                assert np.max(np.abs(m + m.T)) <= 1e-5
        model = mech.pendulum()
        e0 = model.energy([1.0], [0.0])
        sig = mech.simulate(model, None, [1.0], [0.0], 10.0, 1e-3)
        eT = model.energy(sig.y[-1, :1], sig.y[-1, 1:])
        assert abs(eT - e0) / abs(e0) < 1e-6
        sig = mech.simulate(model, None, [0.01], [0.0], 5.0, 1e-3)
        th = sig.y[:, 0]
        crossings = [sig.t[k - 1] + th[k - 1] / (th[k - 1] - th[k]) * (sig.t[k] - sig.t[k - 1])
                     for k in range(1, len(th)) if th[k - 1] > 0.0 >= th[k]]
        period = crossings[1] - crossings[0]
        expected = 2.0 * math.pi * math.sqrt(1.0 / 9.81)
        assert abs(period - expected) / expected <= 0.005


def test_c09_ode_and_matrix_exponential():
    with criterion(9, "expm semigroup/RK4 agreement, eigenvalue trace, RK4 order"):
        rng = np.random.default_rng(9)
        for _ in range(5):
            a = rng.standard_normal((3, 3)) - 2.0 * np.eye(3)
            t1, t2 = rng.uniform(0.1, 1.5, size=2)
            lhs = odesolve.matrix_exponential(a, t1 + t2)
            rhs = odesolve.matrix_exponential(a, t1) @ odesolve.matrix_exponential(a, t2)
            assert np.max(np.abs(lhs - rhs)) <= 1e-10
        a = rng.standard_normal((3, 3)) - 1.5 * np.eye(3)
        expm = odesolve.matrix_exponential(a, 1.0)
        for j in range(3):
            e = np.zeros(3)
            e[j] = 1.0
            sig = odesolve.rk4_solve(odesolve.IvpProblem(lambda t, x: a @ x, e, 0.0, 1.0),
                                     1e-3)
            assert np.max(np.abs(sig.y[-1] - expm[:, j])) <= 1e-6
        for n in (2, 3, 4, 5, 6):
            m = rng.standard_normal((n, n))
            s = sum(odesolve.eigenvalues(m))
            assert abs(s.real - np.trace(m)) <= 1e-7 and abs(s.imag) <= 1e-7
        prob = odesolve.IvpProblem(lambda t, x: -x, [1.0], 0.0, 1.0)
        errs = [abs(odesolve.rk4_solve(prob, dt).y[-1, 0] - math.exp(-1.0))
                for dt in (0.1, 0.05)]
        assert 14.0 <= errs[0] / errs[1] <= 18.0


def test_c10_control_oracles():
    with criterion(10, "second-order overshoot law, ss/tf round trip, pole consistency"):
        for zeta in (0.3, 0.5, 0.7):
            wn = 2.0
            tf = lti.TransferFunction([wn * wn], [wn * wn, 2.0 * zeta * wn, 1.0])
            metrics = lti.response_metrics(lti.step_response(tf, 15.0, 1e-3), tf)
            expected = math.exp(-math.pi * zeta / math.sqrt(1.0 - zeta * zeta))
            assert abs(metrics.overshoot - expected) <= 0.005
        rng = np.random.default_rng(10)
        for _ in range(10):
            deg = int(rng.integers(1, 5))
            den = np.append(rng.uniform(-2.0, 2.0, size=deg), 1.0)
            num = rng.uniform(-2.0, 2.0, size=int(rng.integers(1, deg + 2)))
            tf = lti.TransferFunction(num, den)
            back = lti.ss_to_tf(lti.tf_to_ss(tf))
            n1 = np.zeros(deg + 1)
            n1[: len(tf.num)] = tf.num
            n2 = np.zeros(deg + 1)
            n2[: len(back.num)] = back.num / back.den[-1]
            assert np.max(np.abs(n1 - n2)) <= 1e-8
            d2 = np.zeros(deg + 1)
            d2[: len(back.den)] = back.den / back.den[-1]
            assert np.max(np.abs(tf.den - d2)) <= 1e-8
        for _ in range(5):
            a = rng.standard_normal((3, 3))
            ss = lti.StateSpace(a, rng.standard_normal((3, 1)),
                                rng.standard_normal((1, 3)), [[0.0]])
            ps = sorted(lti.poles(lti.ss_to_tf(ss)), key=lambda v: (v.real, v.imag))
            ev = sorted(odesolve.eigenvalues(a), key=lambda v: (v.real, v.imag))
            assert max(abs(p - e) for p, e in zip(ps, ev)) <= 1e-6


def test_c11_segway_control_end_to_end():
    with criterion(11, "segway: unstable open loop, placed poles, DC 1, nonlinear regulation"):
        model = mech.cart_pole_segway()
        ss = lti.linearize(model, [0.0, 0.0], [0.0])
        assert max(v.real for v in odesolve.eigenvalues(ss.A)) > 0.0
        plant = lti.ss_to_tf(lti.subsystem(ss, [1, 3], outputs=[1]))
        gains = lti.pd_pole_placement(plant, 3.0, 0.9)
        closed = lti.unity_feedback(plant, lti.pd_tf(gains))
        pre = lti.precompensator(closed)
        closed = lti.unity_feedback(plant, lti.pd_tf(gains), precomp=pre)
        assert all(p.real <= -0.1 for p in lti.poles(closed))
        assert abs(lti.dc_gain(closed) - 1.0) <= 1e-9

        def controller(t, q, qd):
            return np.array([pre * 0.0 - gains.kp * q[1] - gains.kd * qd[1]])

        traj = mech.simulate(model, controller, [0.0, 0.05], [0.0, 0.0], 5.0, 2e-3)
        assert abs(traj.y[-1, 1]) < 0.005


def test_c12_cli_golden_files(tmp_path, capsys, monkeypatch):
    with criterion(12, "project commands reproduce committed outputs byte-for-byte"):
        from calckit.cli import main

        out_csv = tmp_path / "out.csv"
        out_svg = tmp_path / "plot.svg"
        assert main(["project1", "--imu", str(DATA / "imu_fixture.csv"),
                     "--meas", str(DATA / "meas_fixture.csv"),
                     "--l1", "0.5", "--l2", "0.5",
                     "--out", str(out_csv), "--plot", str(out_svg)]) == 0
        capsys.readouterr()
        assert out_csv.read_bytes() == (GOLDEN / "project1_out.csv").read_bytes()
        assert out_svg.read_bytes() == (GOLDEN / "project1_plot.svg").read_bytes()

        monkeypatch.chdir(DATA)
        assert main(["optimize", "--scenario", "freethrow", "--config",
                     "freethrow.json", "--mode", "fixed_tf", "--tf", "1.0"]) == 0
        out = capsys.readouterr().out
        assert out == (GOLDEN / "optimize_freethrow.txt").read_text(encoding="utf-8")

        states = tmp_path / "states.csv"
        assert main(["simulate", "--model", "segway", "--q0", "0", "0.05",
                     "--T", "2", "--dt", "0.01", "--controller", "pd",
                     "--kp", "-28.62", "--kd", "-5.4",
                     "--precomp", "0.31446541", "--out", str(states)]) == 0
        capsys.readouterr()
        assert states.read_bytes() == (GOLDEN / "simulate_segway.csv").read_bytes()
