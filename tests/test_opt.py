import inspect
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from calckit import diffnum, opt
from calckit.errors import (ConvergenceError, DimensionError, DomainError,
                            SingularityError)
from calckit.linalg import lu_solve
from calckit.opt import (ConstrainedProblem, DiverModel,
                         FreeThrowParams, GymnastModel, bisection,
                         constrained_descent, diver_entry_orientation,
                         diver_entry_time, diver_optimize, freethrow_linear,
                         freethrow_opt, gymnast_optimize,
                         lagrange_solve, newton_root)

BENCH_QUAD = ConstrainedProblem(lambda v: v[0] ** 2 + v[1] ** 2,
                                lambda v: np.array([v[0] + v[1] - 2.0]), 2, 1)
BENCH_CIRCLE = ConstrainedProblem(lambda v: v[0] + v[1],
                                  lambda v: np.array([v[0] ** 2 + v[1] ** 2 - 1.0]), 2, 1)


# ---------------------------------------------------------------- bisection

def test_bisection_sqrt2():
    root = bisection(lambda x: x * x - 2.0, 1.0, 2.0, tol=1e-10)
    assert root == pytest.approx(math.sqrt(2.0), abs=1e-10)


def test_bisection_root_at_origin():
    assert bisection(lambda x: x, -1.0, 2.0, tol=1e-8) == pytest.approx(0.0, abs=1e-8)


def test_bisection_no_sign_change():
    with pytest.raises(DomainError):
        bisection(lambda x: x * x + 1.0, 0.0, 1.0)


def test_bisection_budget_too_small():
    with pytest.raises(ConvergenceError):
        bisection(lambda x: x * x - 2.0, 1.0, 2.0, tol=1e-12, max_iters=5)


def test_bisection_bracket_width_halves_exactly():
    # observe the real solver through its probe points: after the two
    # endpoint evaluations every call is a bracket midpoint, and exact
    # halving of the bracket makes consecutive midpoint gaps halve exactly
    # (dyadic endpoints keep all of it exact in binary)
    probes = []

    def f(x):
        probes.append(x)
        return x * x - 2.0

    bisection(f, 1.0, 2.0, tol=1e-9)
    midpoints = probes[2:]
    gaps = [abs(b - a) for a, b in zip(midpoints, midpoints[1:])]
    assert len(gaps) >= 25
    for g0, g1 in zip(gaps, gaps[1:]):
        assert g1 == 0.5 * g0


# ---------------------------------------------------------------- newton

def test_newton_sqrt2_quadratic_convergence():
    x = newton_root(lambda v: np.array([v[0] ** 2 - 2.0]), [1.0],
                    tol=1e-12, max_iters=8)
    assert abs(x[0] - math.sqrt(2.0)) <= 1e-12


def test_newton_affine_single_iteration():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((3, 3)) + 3.0 * np.eye(3)
    b = rng.standard_normal(3)
    x = newton_root(lambda v: a @ v - b, np.zeros(3), tol=1e-8, max_iters=1)
    assert np.max(np.abs(a @ x - b)) <= 1e-8


def test_newton_degenerate_root_exhausts_budget():
    with pytest.raises((ConvergenceError, SingularityError)):
        newton_root(lambda v: np.array([v[0] ** 2]), [1.0], tol=1e-12, max_iters=12)


# ---------------------------------------------------------------- descent

def _unconstrained(f, n: int) -> ConstrainedProblem:
    return ConstrainedProblem(f, lambda v: np.empty(0), n, 0)


BOWL = _unconstrained(lambda v: (v[0] - 3.0) ** 2 + (v[1] + 1.0) ** 2, 2)


def test_quadratic_bowl_minimum():
    res = constrained_descent(BOWL, [0.0, 0.0])
    assert res.converged
    assert res.x == pytest.approx([3.0, -1.0], abs=1e-6)
    assert res.lam.shape == (0,)


def test_start_at_optimum_stays_put():
    res = constrained_descent(BOWL, [3.0, -1.0])
    assert res.converged and res.iterations <= 1
    assert res.x == pytest.approx([3.0, -1.0], abs=1e-8)


def test_rosenbrock_reaches_floor():
    rosen = lambda v: (1.0 - v[0]) ** 2 + 100.0 * (v[1] - v[0] ** 2) ** 2
    res = constrained_descent(_unconstrained(rosen, 2), [-1.2, 1.0], max_iters=100)
    assert res.converged
    assert rosen(res.x) < 1e-6


def test_objective_scaling_leaves_argmin():
    ref = constrained_descent(BOWL, [0.0, 0.0]).x
    for c in (0.5, 3.0):
        scaled = _unconstrained(lambda v: c * BOWL.objective(v), 2)
        assert np.max(np.abs(constrained_descent(scaled, [0.0, 0.0]).x - ref)) <= 1e-6


@st.composite
def _spd_quadratics(draw):
    # A = Q diag(eigenvalues) Q^T with eigenvalues in [0.3, 3], b ~ N(0, 1)
    n = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    a = q @ np.diag(rng.uniform(0.3, 3.0, n)) @ q.T
    return 0.5 * (a + a.T), rng.standard_normal(n)


# a well-conditioned case (eigenvalues 2.40-2.84, f* = -1.13) whose
# difference gradient stayed at 1.6e-8 near x*, over an absolute 1e-8 stop
# test: the descent made no progress for 50,000 iterations
NOISE_FLOOR_QUADRATIC = (
    np.array([[2.4558385478486895, -0.021658857731569253, -0.006828194333673994,
               -0.005626141116739749],
              [-0.021658857731569253, 2.437362245264279, 0.044117845598024834,
               -0.05512609402392302],
              [-0.006828194333673994, 0.044117845598024834, 2.762957847648056,
               -0.13770109462984967],
              [-0.005626141116739749, -0.05512609402392302, -0.13770109462984967,
               2.5260902840964095]]),
    np.array([0.8075599062903401, -0.2344496956881471, 2.307481348259907,
              -0.41137447492904505]))


@settings(max_examples=60, deadline=None)
@given(_spd_quadratics())
@example(NOISE_FLOOR_QUADRATIC)
def test_unconstrained_quadratic_matches_numpy_solve(quadratic):
    # damped Newton needs at most 13 iterations on 1,750 draws of this
    # family, so a budget of 200 turns a stall into a failure in seconds
    a, b = quadratic
    prob = _unconstrained(lambda v: 0.5 * v @ a @ v + b @ v, len(b))
    res = constrained_descent(prob, np.zeros(len(b)), max_iters=200)
    assert res.converged
    want = np.linalg.solve(a, -b)
    assert np.max(np.abs(res.x - want)) <= 1e-6 * max(1.0, np.max(np.abs(want)))


def test_unconstrained_descent_agrees_with_lagrange_solve():
    prob = _unconstrained(lambda v: math.cosh(v[0] - 1.0) + (v[1] - v[0]) ** 2
                          + 0.1 * v[1] ** 4, 2)
    got = constrained_descent(prob, [0.0, 0.0]).x
    assert np.max(np.abs(got - lagrange_solve(prob, [0.0, 0.0]).x)) <= 1e-8


# ------------------------------------------------------- constrained descent

def test_symmetric_quadratic_benchmark():
    res = constrained_descent(BENCH_QUAD, [0.0, 0.0])
    assert res.converged
    assert res.x == pytest.approx([1.0, 1.0], abs=1e-7)
    # gradient (2, 2) + lambda * (1, 1) = 0 fixes lambda = -2
    assert res.lam == pytest.approx([-2.0], abs=1e-6)


def test_circle_benchmark_by_hand_lagrange():
    res = constrained_descent(BENCH_CIRCLE, [1.0, 0.0])
    assert res.converged
    assert res.x == pytest.approx([-math.sqrt(0.5), -math.sqrt(0.5)], abs=1e-6)


def test_gram_solve_by_cholesky_agrees_with_lu():
    # _multiplier_solve factors J J^T by Cholesky where it used LU. On 3,000
    # seeded full-rank J (m <= 3 < n <= 6, cond(J J^T) up to 1.4e9) the two
    # differed by at most 2.4 m eps cond(J J^T) relative to the solution,
    # for the multipliers and for the restoration step J^T y alike
    eps = np.finfo(float).eps
    for seed in range(300):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 4))
        n = int(rng.integers(m + 1, 7))
        jac = rng.standard_normal((m, n)) * 10.0 ** rng.uniform(-2.0, 2.0, (m, 1))
        bound = 8.0 * m * eps * np.linalg.cond(jac @ jac.T)
        for rhs in (rng.standard_normal(m), jac @ rng.standard_normal(n)):
            new, old = opt._multiplier_solve(jac, rhs), lu_solve(jac @ jac.T, rhs)
            assert np.max(np.abs(new - old)) <= bound * np.max(np.abs(old))
            step = jac.T @ old
            assert np.max(np.abs(jac.T @ new - step)) <= bound * np.max(np.abs(step))


def test_duplicated_constraint_rows_singular():
    prob = ConstrainedProblem(lambda v: v[0] ** 2 + v[1] ** 2,
                              lambda v: np.array([v[0] - 1.0, v[0] - 1.0]), 3, 2)
    with pytest.raises(SingularityError):
        constrained_descent(prob, [0.0, 0.0, 0.0])


def test_restoration_never_inflates_violation():
    # constrained_descent's documented call order: each iteration evaluates
    # h at x, its 2n-point Jacobian, h after the restoration, the Jacobian
    # there, then (except on the converging iteration) the Lagrangian Hessian
    for prob, x0 in ((BENCH_QUAD, [4.0, -7.0]), (BENCH_CIRCLE, [1.0, 0.0])):
        norms = []

        def constraints(x, h=prob.constraints):
            hx = h(x)
            norms.append(float(np.max(np.abs(hx))))
            return hx

        res = constrained_descent(ConstrainedProblem(prob.objective, constraints,
                                                     prob.n, prob.m), x0)
        assert res.converged
        n = prob.n
        per_iteration = 4 * n + 2 + 1 + 2 * n + 2 * n * (n - 1)
        assert len(norms) == res.iterations * per_iteration + 4 * n + 2
        for k in range(res.iterations + 1):
            before, after = norms[k * per_iteration], norms[k * per_iteration + 2 * n + 1]
            assert after <= before + 1e-12


def test_first_order_stationarity_at_solutions():
    from calckit import diffnum
    for prob, x0 in ((BENCH_QUAD, [0.0, 0.0]), (BENCH_CIRCLE, [1.0, 0.0])):
        res = constrained_descent(prob, x0)
        g = diffnum.gradient(prob.objective, res.x)
        J = diffnum.jacobian(prob.h, res.x)
        assert np.max(np.abs(g + J.T @ res.lam)) <= 10.0 * opt._STOP_TOL
        assert np.max(np.abs(prob.h(res.x))) <= 1e-7


def _first_order_reference(prob, x0, max_iters=50_000):
    # the projected-gradient loop as it stood before the KKT step, under the
    # descent's stop test: restore, then line-search along d with slope -d.d
    x = np.asarray(x0, dtype=float)
    for k in range(max_iters):
        hx = prob.h(x)
        jac = diffnum.jacobian(prob.h, x, opt._FD)
        x = x - jac.T @ opt._multiplier_solve(jac, hx)
        after = float(np.max(np.abs(prob.h(x))))
        g = diffnum.gradient(prob.objective, x, opt._FD)
        jac = diffnum.jacobian(prob.h, x, opt._FD)
        lam = -opt._multiplier_solve(jac, jac @ g)
        d = -(g + jac.T @ lam)
        fx = prob.objective(x)
        if (np.max(np.abs(d)) < opt._STOP_TOL * (1.0 + abs(fx))
                and after < opt._STOP_TOL * (1.0 + np.max(np.abs(x)))):
            return x, lam, k
        x = opt._line_step(prob.objective, x, fx, d, float(-(d @ d)))
    return x, None, max_iters


def test_singular_kkt_matrix_falls_back_to_the_projected_gradient(monkeypatch):
    # a KKT solve that always fails must leave exactly the armijo d-step loop
    real = opt.lu_solve
    kkt_solves = []

    def lu_solve(a, b):
        if len(b) == BENCH_CIRCLE.n + BENCH_CIRCLE.m:
            kkt_solves.append(len(b))
            raise SingularityError("forced")
        return real(a, b)

    monkeypatch.setattr(opt, "lu_solve", lu_solve)
    res = constrained_descent(BENCH_CIRCLE, [1.0, 0.0])
    x, lam, k = _first_order_reference(BENCH_CIRCLE, [1.0, 0.0])
    assert res.converged and len(kkt_solves) == res.iterations > 0
    assert res.iterations == k
    assert res.x.tobytes() == x.tobytes() and res.lam.tobytes() == lam.tobytes()


def test_start_next_to_the_constrained_maximum_reaches_the_minimum(monkeypatch):
    # at (r, r) the Lagrangian Hessian 2 lam I is negative definite: the
    # Newton direction climbs (g.p > 0), so the d fallback has to move first
    directions = []
    real = opt._kkt_direction

    def spy(*args):
        p = real(*args)
        directions.append(p)
        return p

    monkeypatch.setattr(opt, "_kkt_direction", spy)
    r = math.sqrt(0.5)
    res = constrained_descent(BENCH_CIRCLE, [r + 1e-3, r - 2e-3])
    assert res.converged
    assert res.x == pytest.approx([-r, -r], abs=1e-7)
    assert directions[0] is None
    assert directions[-1] is not None     # Newton steps finish the solve


def _counted(prob, calls):
    def f(x):
        calls["f"] += 1
        return prob.objective(x)

    def h(x):
        calls["h"] += 1
        return prob.constraints(x)

    return ConstrainedProblem(f, h, prob.n, prob.m)


@pytest.mark.parametrize("solve", [
    lambda: opt.gymnast_optimize(GymnastModel(0.9, 30.0, 30.0, [0.0, 3.0], [1.2, 2.0], 2.5)),
    lambda: opt.diver_optimize(DiverModel(1.0, 0.4, 3, 1.0)),
    lambda: opt.constrained_descent(BENCH_CIRCLE, [1.0, 0.0]),
], ids=["heavy-gymnast", "diver-k3", "circle"])
def test_evaluations_per_iteration_within_the_documented_bound(monkeypatch, solve):
    # per iteration: 4n + 2 evaluations of h and 1 + 2n of f, a line
    # search of 1 to 54 of f, and one Lagrangian Hessian of
    # 1 + 2n + 2n(n - 1) of each; the converging iteration stops before the
    # Hessian and the line search
    runs = []
    real = opt.constrained_descent

    def counting(prob, x0, **kwargs):
        calls = {"f": 0, "h": 0}
        res = real(_counted(prob, calls), x0, **kwargs)
        runs.append((prob.n, res, calls))
        return res

    monkeypatch.setattr(opt, "constrained_descent", counting)
    solve()
    (n, res, calls), = runs
    assert res.converged
    k, hessian = res.iterations, 1 + 2 * n + 2 * n * (n - 1)
    assert calls["h"] == k * (4 * n + 2 + hessian) + 4 * n + 2
    assert k * (2 * n + 2 + hessian) + 2 * n + 1 <= calls["f"]
    assert calls["f"] <= k * (2 * n + 55 + hessian) + 2 * n + 1


def test_lagrange_matches_descent_on_quadratic():
    res = lagrange_solve(BENCH_QUAD, [0.0, 0.0])
    assert res.x == pytest.approx([1.0, 1.0], abs=1e-8)
    assert res.lam == pytest.approx([-2.0], abs=1e-7)


def test_lagrange_matches_descent_on_circle():
    descent = constrained_descent(BENCH_CIRCLE, [1.0, 0.0])
    newton = lagrange_solve(BENCH_CIRCLE, [-1.0, -0.5], lam0=[0.5])
    assert np.max(np.abs(descent.x - newton.x)) <= 1e-6
    assert np.max(np.abs(descent.lam - newton.lam)) <= 1e-6


def test_lagrange_may_find_constrained_maximum():
    # stationary, not minimal: documented behavior for a far-off start
    res = lagrange_solve(BENCH_CIRCLE, [1.0, 0.0])
    r = math.sqrt(0.5)
    is_min = np.allclose(res.x, [-r, -r], atol=1e-6)
    is_max = np.allclose(res.x, [r, r], atol=1e-6)
    assert is_min or is_max


# ---------------------------------------------------------------- free throw

HOOP = FreeThrowParams([0.0, 2.0], [4.6, 3.05])


def test_freethrow_linear_hand_algebra():
    # p0 + v*tf - (0, g tf^2 / 2) = p_h with tf = 1:
    # vx = 4.6, vy = 3.05 - 2 + 4.905 = 5.955
    v = freethrow_linear(HOOP, 1.0)
    assert v == pytest.approx([4.6, 5.955], abs=1e-12)


def test_freethrow_linear_no_gravity():
    params = FreeThrowParams([0.0, 1.0], [3.0, 1.0], g=1e-12)
    v = freethrow_linear(params, 1.0)
    assert v == pytest.approx([3.0, 0.0], abs=1e-9)


def test_freethrow_linear_residual_definitional():
    v = freethrow_linear(HOOP, 1.0)
    assert np.max(np.abs(HOOP.ballistic(v, 1.0) - HOOP.p_h)) <= 1e-12


def test_freethrow_linear_rejects_nonpositive_tf():
    for tf in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(DomainError, match="time of flight must be positive and finite"):
            freethrow_linear(HOOP, tf)


def test_freethrow_linear_equals_lu_on_diag_tf_bit_for_bit():
    # reference: the 2x2 LU solve of diag(tf, tf) v = b it replaced
    rng = np.random.default_rng(7)
    for _ in range(2000):
        p0 = rng.uniform(-5.0, 5.0, 2)
        params = FreeThrowParams(p0, p0 + [rng.uniform(0.1, 10.0), rng.uniform(-5.0, 5.0)],
                                 g=rng.uniform(0.1, 20.0))
        tf = 10.0 ** rng.uniform(-2.0, 2.0)
        b = params.p_h - params.p0 + np.array([0.0, 0.5 * params.g * tf * tf])
        want = lu_solve(np.diag([tf, tf]), b)
        assert freethrow_linear(params, tf).tobytes() == want.tobytes()


def test_freethrow_opt_fixed_tf_matches_linear():
    res = freethrow_opt(HOOP, "fixed_tf", tf=1.0)
    assert res.converged
    assert np.max(np.abs(res.v - freethrow_linear(HOOP, 1.0))) <= 1e-5


def test_freethrow_opt_free_mode():
    res = freethrow_opt(HOOP, "free")
    assert res.miss_distance < 1e-6


def test_freethrow_opt_fixed_speed_constraint_holds():
    res = freethrow_opt(HOOP, "fixed_speed", speed=9.0)
    assert res.v[0] ** 2 + res.v[1] ** 2 == pytest.approx(81.0, abs=1e-8)
    assert res.miss_distance <= 1e-3


def test_freethrow_opt_infeasible_speed_reports():
    with pytest.raises((DomainError, ConvergenceError)):
        freethrow_opt(HOOP, "fixed_speed", speed=1.0)


def test_freethrow_linear_vs_opt_20_random_hoops():
    rng = np.random.default_rng(101)
    for _ in range(20):
        params = FreeThrowParams(
            [0.0, float(rng.uniform(1.5, 2.2))],
            [float(rng.uniform(2.0, 6.0)), float(rng.uniform(2.4, 3.5))])
        tf = float(rng.uniform(0.7, 1.4))
        expected = freethrow_linear(params, tf)
        got = freethrow_opt(params, "fixed_tf", tf=tf)
        assert got.converged
        assert np.max(np.abs(got.v - expected)) <= 1e-5


# ---------------------------------------------------------------- gymnast

def test_gymnast_no_required_rotation_means_no_spin():
    model = GymnastModel(0.9, 30.0, 30.0, [0.0, 3.0], [0.5, 0.0], theta_land=0.0)
    res = gymnast_optimize(model)
    assert res.converged
    assert abs(res.omega) <= 1e-7


def test_gymnast_pure_drop_satisfies_constraints():
    model = GymnastModel(0.9, 30.0, 30.0, [0.0, 3.0], [0.0, 0.0], theta_land=0.0)
    res = gymnast_optimize(model)
    assert res.converged
    land_x = res.v0[0] * res.tf
    land_y = 3.0 + res.v0[1] * res.tf - 0.5 * 9.81 * res.tf ** 2
    assert abs(land_x - 0.0) <= 1e-7
    assert abs(land_y - 0.0) <= 1e-7
    assert abs(res.omega * res.tf - 0.0) <= 1e-7
    # free-fall drop: v0y = 0 and tf = sqrt(2 h / g) minimize launch effort
    assert res.tf == pytest.approx(math.sqrt(2.0 * 3.0 / 9.81), abs=1e-5)


def test_gymnast_mass_doubling_leaves_argmin():
    base = GymnastModel(0.9, 30.0, 30.0, [0.0, 3.0], [0.4, 0.0], theta_land=0.0)
    doubled = GymnastModel(0.9, 60.0, 60.0, [0.0, 3.0], [0.4, 0.0], theta_land=0.0)
    a, b = gymnast_optimize(base), gymnast_optimize(doubled)
    assert np.max(np.abs(a.v0 - b.v0)) <= 1e-6
    assert abs(a.omega - b.omega) <= 1e-6
    assert abs(a.tf - b.tf) <= 1e-6


def test_gymnast_with_rotation_hits_posture():
    model = GymnastModel(0.5, 5.0, 5.0, [0.0, 3.0], [1.0, 0.0],
                         theta_land=math.pi)
    res = gymnast_optimize(model)
    assert res.converged
    assert res.omega * res.tf == pytest.approx(math.pi, abs=1e-6)


def _gymnast_closed_form(model):
    # tf minimizes (A + g dy tf^2 + g^2 tf^4 / 4) / (2 tf^2)
    dx, dy = model.p_land - model.p0
    area = dx * dx + dy * dy + model.inertia * model.theta_land ** 2
    return (4.0 * area / model.g ** 2) ** 0.25, model.g * (math.sqrt(area) + dy) / 2.0


def _check_gymnast_optimum(model):
    res = gymnast_optimize(model)
    tf, best = _gymnast_closed_form(model)
    assert res.converged
    assert res.tf == pytest.approx(tf, abs=1e-6)
    assert res.objective == pytest.approx(best, rel=1e-10)
    return res


def test_gymnast_heavy_bar_80_924_reaches_the_closed_form():
    model = GymnastModel(0.9, 30.0, 30.0, [0.0, 3.0], [1.2, 2.0], theta_land=2.5)
    res = _check_gymnast_optimum(model)
    assert res.objective == pytest.approx(80.924091016683, abs=1e-9)


landings = st.tuples(st.floats(0.5, 2.0), st.floats(0.0, 2.5), st.floats(1.0, 3.5))


@settings(max_examples=50, deadline=None)
@given(st.floats(1.0, 2.5), st.floats(0.3, 0.5), landings)
def test_gymnast_light_bar_closed_form(mass, half, landing):
    x, y, theta = landing
    _check_gymnast_optimum(GymnastModel(half, mass, mass, [0.0, 3.0], [x, y], theta))


@settings(max_examples=50, deadline=None)
@given(st.floats(20.0, 40.0), st.floats(20.0, 40.0), st.floats(0.8, 1.0), landings)
@example(30.0, 30.0, 0.9, (1.0, 0.0, math.pi))
def test_gymnast_heavy_bar_closed_form(m1, m2, half, landing):
    x, y, theta = landing
    _check_gymnast_optimum(GymnastModel(half, m1, m2, [0.0, 3.0], [x, y], theta))


@pytest.mark.parametrize("max_iters", [1, 3, 50_000])
def test_gymnast_residual_is_the_closed_form_landing_residual(max_iters):
    model = GymnastModel(0.5, 5.0, 5.0, [0.0, 3.0], [1.0, 0.0], theta_land=math.pi)
    res = gymnast_optimize(model, max_iters=max_iters)
    land = model.p0 + res.v0 * res.tf - np.array([0.0, 0.5 * model.g * res.tf ** 2])
    expected = max(np.max(np.abs(land - model.p_land)),
                   abs(res.omega * res.tf - model.theta_land))
    assert res.residual == pytest.approx(expected, rel=1e-8, abs=1e-12)


# ---------------------------------------------------------------- diver

DIVER = DiverModel(i_open=1.0, i_tuck=0.4, k=1, d_min=1.0)


def test_diver_model_validation():
    with pytest.raises(DomainError):
        DiverModel(i_open=0.4, i_tuck=0.4, k=1, d_min=1.0)
    with pytest.raises(DomainError):
        DiverModel(i_open=1.0, i_tuck=0.4, k=0, d_min=1.0)


def test_diver_constraints_satisfied():
    res = diver_optimize(DIVER)
    assert res.converged
    assert res.residual <= 1e-6
    x_entry = res.v0[0] * res.entry_time
    assert abs(x_entry - DIVER.d_min) <= 1e-6


@pytest.mark.parametrize("max_iters", [1, 3, 50_000])
def test_diver_residual_is_the_closed_form_entry_and_clearance_residual(max_iters):
    res = diver_optimize(DIVER, max_iters=max_iters)
    t1, t2, te = res.t_tuck_start, res.t_tuck_end, res.entry_time
    angle = res.L * (t1 / DIVER.i_open + (t2 - t1) / DIVER.i_tuck + (te - t2) / DIVER.i_open)
    expected = max(abs(angle - DIVER.k * math.pi), abs(res.v0[0] * te - DIVER.d_min))
    assert res.residual == pytest.approx(expected, rel=1e-8, abs=1e-12)


def test_diver_zero_tuck_window_is_rigid_case():
    te = diver_entry_time(1.0)
    for t1 in (0.0, 0.3 * te, te):
        theta = diver_entry_orientation(2.0, t1, t1, te, 1.0, 0.4)
        assert theta == pytest.approx(2.0 * te / 1.0, abs=1e-12)


def test_diver_orientation_per_unit_momentum_equals_the_restated_sum():
    # diver_optimize's starting tau0 is this call; inside [0, t_entry] the
    # clamp is the identity, so it must equal the sum it replaced
    rng = np.random.default_rng(31)
    for _ in range(2000):
        te = float(rng.uniform(0.1, 5.0))
        t1, t2 = sorted(map(float, rng.uniform(0.0, te, 2)))
        i_tuck, i_open = sorted(map(float, rng.uniform(0.05, 3.0, 2)))
        old = t1 / i_open + (t2 - t1) / i_tuck + (te - t2) / i_open
        assert diver_entry_orientation(1.0, t1, t2, te, i_open, i_tuck) == old


def test_diver_start_and_reported_window_equal_their_old_forms(monkeypatch):
    rng = np.random.default_rng(37)
    starts = []

    def fake_descent(prob, x0, max_iters):
        starts.append(x0)
        return opt.ConstrainedResult(x, np.zeros(2), 1, True)

    monkeypatch.setattr(opt, "constrained_descent", fake_descent)
    for _ in range(200):
        model = DiverModel(i_open=float(rng.uniform(0.5, 2.0)),
                           i_tuck=float(rng.uniform(0.1, 0.45)),
                           k=int(rng.integers(1, 5)), d_min=float(rng.uniform(0.5, 2.0)))
        x = np.array([1.0, float(rng.uniform(-2.0, 6.0)), 3.0, *rng.uniform(-1.0, 4.0, 2)])
        res = diver_optimize(model)
        te0 = diver_entry_time(1.0)
        t10, t20 = 0.1 * te0, 0.9 * te0
        tau0 = t10 / model.i_open + (t20 - t10) / model.i_tuck + (te0 - t20) / model.i_open
        assert starts[-1][2] == model.k * math.pi / tau0
        te = diver_entry_time(x[1])
        t1c = min(max(x[3], 0.0), te)
        assert (res.t_tuck_start, res.t_tuck_end) == (t1c, min(max(x[4], t1c), te))


def test_diver_near_rigid_matches_closed_form_momentum():
    # with I_tuck -> I_open the rotation constraint collapses to
    # L = k pi I_open / t_entry regardless of the tuck window
    model = DiverModel(i_open=1.0, i_tuck=1.0 - 1e-6, k=1, d_min=1.0)
    res = diver_optimize(model)
    assert res.converged
    expected = model.k * math.pi * model.i_open / res.entry_time
    assert res.L == pytest.approx(expected, abs=1e-4)


def test_diver_tuck_speeds_rotation():
    # tucking reduces the momentum needed for the same rotation
    rigid = DiverModel(i_open=1.0, i_tuck=1.0 - 1e-6, k=1, d_min=1.0)
    assert diver_optimize(DIVER).L < diver_optimize(rigid).L


def _full_tuck_v0y(model, eps=1e-3, g=9.81):
    # on the full-tuck branch L = k pi I_tuck / te and v0x = d_min / te, so
    # the effort is C / (2 te^2) + v0y^2 / 2 with C = d_min^2 + eps (k pi I_tuck)^2;
    # with te' = te / s, s = sqrt(v0y^2 + 2 g H), its derivative is v0y - C / (te^2 s)
    c = model.d_min ** 2 + eps * (model.k * math.pi * model.i_tuck) ** 2

    def slope(v):
        s = math.sqrt(v * v + 2.0 * g * model.platform_height)
        return v - c / (diver_entry_time(v, g, model.platform_height) ** 2 * s)

    return bisection(slope, 0.0, 5.0, tol=1e-13)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.floats(0.8, 1.2), st.floats(0.3, 0.5), st.floats(0.8, 1.2))
@example(2, 1.05859375, 0.5, 1.0)      # v0y once stopped 1.02e-6 from the optimum
def test_diver_lands_on_the_full_tuck_minimum(k, i_open, i_tuck, d_min):
    # tucking for the whole flight needs the least momentum, so the optimum
    # has the tuck window [0, te]; the no-tuck branch is also stationary
    model = DiverModel(i_open=i_open, i_tuck=i_tuck, k=k, d_min=d_min)
    res = diver_optimize(model)
    assert res.converged
    assert res.t_tuck_start == 0.0 and res.t_tuck_end == res.entry_time
    v0y = _full_tuck_v0y(model)
    te = diver_entry_time(v0y)
    assert res.v0[1] == pytest.approx(v0y, abs=1e-6)
    assert res.v0[0] == pytest.approx(model.d_min / te, abs=1e-6)
    assert res.L == pytest.approx(k * math.pi * i_tuck / te, abs=1e-6)


def test_problem_dimension_validation():
    with pytest.raises(DimensionError):
        ConstrainedProblem(lambda v: 0.0, lambda v: v, 2, 2)
    with pytest.raises(DimensionError):
        ConstrainedProblem(lambda v: 0.0, lambda v: v, 2, -1)
    with pytest.raises(DimensionError):      # a map returning values declares m > 0
        constrained_descent(ConstrainedProblem(lambda v: 0.0, lambda v: v, 2, 0), [0.0, 0.0])
    with pytest.raises(DimensionError):
        constrained_descent(BENCH_QUAD, [0.0, 0.0, 0.0])


SOLVES = {
    constrained_descent: lambda **kw: constrained_descent(BENCH_QUAD, [0.0, 0.0], **kw),
    freethrow_opt: lambda **kw: freethrow_opt(HOOP, "fixed_tf", tf=1.0, **kw),
    gymnast_optimize: lambda **kw: gymnast_optimize(
        GymnastModel(0.5, 5.0, 5.0, [0.0, 3.0], [1.0, 0.0], 1.0), **kw),
    diver_optimize: lambda **kw: diver_optimize(DIVER, **kw),
}
PROBLEM_INPUTS = {"x0", "prob", "params", "mode", "tf", "speed", "model"}


@pytest.mark.parametrize("solver", SOLVES, ids=lambda fn: fn.__name__)
def test_max_iters_is_the_only_solver_setting(solver):
    params = dict(inspect.signature(solver).parameters)
    budget = params.pop("max_iters")
    assert budget.kind is budget.KEYWORD_ONLY and budget.default == 50_000
    assert set(params) <= PROBLEM_INPUTS
    assert SOLVES[solver](max_iters=1).iterations <= 1
    with pytest.raises(DomainError):
        SOLVES[solver](max_iters=0)


def test_armijo_halves_until_sufficient_decrease():
    # f = x^2 from x = 1 along d = -2: t = 1 lands on f = 1, not below
    # 1 + 1e-4 * t * (-4); t = 0.5 lands on 0 and is taken
    f = lambda v: float(v[0] ** 2)
    step = opt._line_step(f, np.array([1.0]), 1.0, np.array([-2.0]), -4.0)
    assert step.tolist() == [0.0]
    # with slope -2 the Armijo line is 1e-4 * t * (-2): f(1) = -1e-4 is half
    # the decrease it asks for, f(0.5) = -1e-4 is exactly on it
    values = {0.0: 0.0, 1.0: -1e-4, 0.5: -1e-4}
    g = lambda v: values.get(float(v[0]), 1.0)
    step = opt._line_step(g, np.array([0.0]), 0.0, np.array([1.0]), -2.0)
    assert step.tolist() == [0.5]
