import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from calckit.diffnum import DiffConfig, gradient, hessian
from calckit.errors import DimensionError, DomainError
from calckit.linalg import is_positive_definite, lu_solve
from calckit import mech
from calckit.mech import (MODEL_ZOO, MechanicalModel, cart_pole_segway,
                          coriolis_matrix, forward_dynamics, gravity_vector,
                          gymnast_bar, mass_matrix, mass_matrix_rate,
                          pendulum, planar_ballbot, simulate)

G = 9.81


def point_mass(m=2.0):
    return MechanicalModel(
        lambda q, qd: 0.5 * m * (qd[0] ** 2 + qd[1] ** 2),
        lambda q: 0.0,
        np.eye(2), name="point_mass")


def random_state(model, rng):
    q = rng.uniform(-1.2, 1.2, size=model.n_dof)
    qd = rng.uniform(-2.0, 2.0, size=model.n_dof)
    return q, qd


def assert_close(got, exact, tol=1e-6):
    got, exact = np.asarray(got), np.asarray(exact)
    assert np.all(np.abs(got - exact) <= tol * np.maximum(1.0, np.abs(exact)))


# ---------------------------------------------------------------- D matrix

def test_point_mass_mass_matrix():
    d = mass_matrix(point_mass(2.0), [0.3, -0.7])
    assert np.max(np.abs(d - 2.0 * np.eye(2))) <= 1e-9


def test_pendulum_mass_matrix_hand_value():
    # D = m l^2 = 1 * 2^2
    d = mass_matrix(pendulum(mass=1.0, length=2.0), [0.4])
    assert d[0, 0] == pytest.approx(4.0, abs=1e-8)


def test_kinetic_quadratic_gives_base_point_independence():
    model = cart_pole_segway()
    q = np.array([0.2, 0.5])
    rng = np.random.default_rng(4)
    base = mass_matrix(model, q)
    cfg = DiffConfig(h=1e-4, relative=False)
    for _ in range(5):
        v0 = rng.uniform(-1, 1, size=2)
        shifted = hessian(lambda v: model.kinetic(q, v), v0, cfg)
        assert np.max(np.abs(0.5 * (shifted + shifted.T) - base)) <= 1e-6


def test_mass_matrix_dimension_check():
    with pytest.raises(DimensionError):
        mass_matrix(pendulum(), [0.0, 0.0])


# ---------------------------------------------------------------- G vector

def test_pendulum_gravity_at_equilibrium():
    assert abs(gravity_vector(pendulum(), [0.0])[0]) <= 1e-9


def test_pendulum_gravity_hand_partial():
    # dV/dtheta = m g l sin(theta) = 9.81 at theta = pi/2
    g = gravity_vector(pendulum(), [math.pi / 2.0])
    assert g[0] == pytest.approx(G, abs=1e-5)


def test_constant_potential_zero_gravity():
    assert np.max(np.abs(gravity_vector(point_mass(), [1.0, 2.0]))) == 0.0


# ---------------------------------------------------------------- C matrix

def test_configuration_independent_models_have_zero_coriolis():
    for model in (point_mass(), pendulum(), gymnast_bar()):
        rng = np.random.default_rng(6)
        q, qd = random_state(model, rng)
        assert np.max(np.abs(coriolis_matrix(model, q, qd))) <= 1e-6


def test_cart_pole_zero_velocity_zero_coriolis():
    c = coriolis_matrix(cart_pole_segway(), [0.1, 0.8], [0.0, 0.0])
    assert np.max(np.abs(c)) <= 1e-9


def test_cart_pole_coriolis_textbook_term():
    # hand-derived cart equation: C qdot = (-m_p l sin(th) thdot^2, ...)
    model = cart_pole_segway(cart_mass=1.0, pole_mass=1.0, length=1.0)
    th, thdot = math.pi / 4.0, 1.0
    c = coriolis_matrix(model, [0.0, th], [0.0, thdot])
    got = c @ np.array([0.0, thdot])
    assert got[0] == pytest.approx(-math.sin(th) * thdot ** 2, abs=1e-4)


# ----------------------------------------------------------- forward dynamics

def test_pendulum_equilibrium_rest():
    qdd = forward_dynamics(pendulum(), [0.0], [0.0], [0.0])
    assert abs(qdd[0]) <= 1e-9


def test_pendulum_horizontal_release():
    qdd = forward_dynamics(pendulum(), [math.pi / 2.0], [0.0], [0.0])
    assert qdd[0] == pytest.approx(-G, abs=1e-5)


def test_nonfinite_torques_raise_domain_error():
    with pytest.raises(DomainError, match="generalized forces of pendulum not finite"):
        forward_dynamics(pendulum(), [0.1], [0.0], [math.nan])


def test_point_mass_newton():
    qdd = forward_dynamics(point_mass(1.0), [0.0, 0.0], [0.0, 0.0], [3.0, 4.0])
    assert qdd == pytest.approx([3.0, 4.0], abs=1e-8)


def test_zero_velocity_accel_decomposition():
    # at qdot = 0 the dynamics reduce to -D^-1 G exactly
    rng = np.random.default_rng(8)
    for name, factory in MODEL_ZOO.items():
        model = factory()
        q = rng.uniform(-1.0, 1.0, size=model.n_dof)
        qdd = forward_dynamics(model, q, np.zeros(model.n_dof),
                               np.zeros(model.n_inputs))
        d, g = mass_matrix(model, q), gravity_vector(model, q)
        assert np.max(np.abs(qdd - lu_solve(d, -g))) <= 1e-8


# ---------------------------------------------------------------- invariants

@pytest.mark.parametrize("name", sorted(MODEL_ZOO))
def test_mass_matrix_spd_at_random_states(name):
    model = MODEL_ZOO[name]()
    rng = np.random.default_rng(11)
    for _ in range(100):
        q, _ = random_state(model, rng)
        d = mass_matrix(model, q)
        assert np.array_equal(d, d.T)
        assert is_positive_definite(d)


@pytest.mark.parametrize("name", sorted(MODEL_ZOO))
def test_skew_symmetry_of_drate_minus_two_coriolis(name):
    model = MODEL_ZOO[name]()
    rng = np.random.default_rng(13)
    for _ in range(25):
        q, qd = random_state(model, rng)
        m = mass_matrix_rate(model, q, qd) - 2.0 * coriolis_matrix(model, q, qd)
        assert np.max(np.abs(m + m.T)) <= 1e-5


def test_energy_balance_with_inputs():
    # d/dt (K + V) must equal the actuator power qdot^T B Gamma
    model = pendulum()
    torque = lambda t, q, qd: np.array([0.5 * math.sin(2.0 * t)])
    dt = 1e-3
    sig = simulate(model, torque, [0.2], [0.0], 4.0, dt)
    q, qd = sig.y[:, 0], sig.y[:, 1]
    energy = np.array([model.energy([qi], [vi]) for qi, vi in zip(q, qd)])
    power = np.array([qd[k] * (model.input_map[0, 0] * torque(sig.t[k], None, None)[0])
                      for k in range(len(sig))])
    dedt = (energy[2:] - energy[:-2]) / (2.0 * dt)
    assert np.max(np.abs(dedt - power[1:-1])) <= 1e-4


# ---------------------------------------------------------------- simulation

def test_rest_at_stable_equilibrium_stays():
    sig = simulate(pendulum(), None, [0.0], [0.0], 1.0, 1e-2)
    assert np.max(np.abs(sig.y)) == 0.0


def test_a_horizon_below_the_grid_tolerance_keeps_the_initial_state():
    sig = simulate(pendulum(), None, [0.2], [0.0], 1e-15, 0.01)
    assert sig.t.tolist() == [0.0, 1e-15]
    assert sig.y[0].tolist() == [0.2, 0.0]


def test_small_angle_period():
    model = pendulum()
    sig = simulate(model, None, [0.01], [0.0], 5.0, 1e-3)
    th = sig.y[:, 0]
    crossings = [sig.t[k - 1] + th[k - 1] / (th[k - 1] - th[k]) * (sig.t[k] - sig.t[k - 1])
                 for k in range(1, len(th)) if th[k - 1] > 0.0 >= th[k]]
    period = crossings[1] - crossings[0]
    expected = 2.0 * math.pi * math.sqrt(1.0 / G)
    assert abs(period - expected) / expected <= 0.005


def test_unforced_energy_drift():
    model = pendulum()
    e0 = model.energy([1.0], [0.0])
    sig = simulate(model, None, [1.0], [0.0], 10.0, 1e-3)
    eT = model.energy(sig.y[-1, :1], sig.y[-1, 1:])
    assert abs(eT - e0) / abs(e0) <= 1e-6


def test_ballbot_torque_convention():
    # positive torque pushes ball and torso in opposite directions
    model = planar_ballbot()
    qdd = forward_dynamics(model, [0.0, 0.0], [0.0, 0.0], [1.0])
    assert qdd[0] > 0.0 and qdd[1] < 0.0


def test_gymnast_bar_inertia_matches_optimizer_model():
    from calckit.opt import GymnastModel
    bar = gymnast_bar(m1=30.0, m2=30.0, half_length=0.9)
    opt_model = GymnastModel(0.9, 30.0, 30.0, [0.0, 3.0], [0.0, 0.0], 0.0)
    d = mass_matrix(bar, [0.0, 0.0, 0.0])
    assert d[2, 2] == pytest.approx(opt_model.inertia, abs=1e-6)
    assert d[0, 0] == pytest.approx(60.0, abs=1e-6)


# ------------------------------------ Euler-Lagrange terms vs Christoffel loops

def loop_partials(model, q):
    """Reference: one central-difference partial dD/dq_k per coordinate."""
    q = np.asarray(q, dtype=float)
    partials = []
    for k in range(model.n_dof):
        e = np.zeros(model.n_dof)
        e[k] = 1e-4
        partials.append((mass_matrix(model, q + e) - mass_matrix(model, q - e)) / 2e-4)
    return partials


def loop_coriolis(dD, qd):
    """Reference: the i/j/k Christoffel loop."""
    n = len(qd)
    c = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            acc = 0.0
            for k in range(n):
                acc += 0.5 * (dD[k][i, j] + dD[j][i, k] - dD[i][j, k]) * qd[k]
            c[i, j] = acc
    return c


@st.composite
def zoo_states(draw):
    name = draw(st.sampled_from(sorted(MODEL_ZOO)))
    model = MODEL_ZOO[name]()
    coord = st.floats(-3.0, 3.0, allow_nan=False) | st.sampled_from([0.0, -0.0])
    q = draw(st.lists(coord, min_size=model.n_dof, max_size=model.n_dof))
    qd = draw(st.lists(coord, min_size=model.n_dof, max_size=model.n_dof))
    return model, np.array(q), np.array(qd)


@settings(max_examples=120, deadline=None)
@given(zoo_states())
def test_euler_lagrange_terms_match_the_christoffel_loops(state):
    model, q, qd = state
    dD = loop_partials(model, q)
    c_ref = loop_coriolis(dD, qd)
    assert_close(coriolis_matrix(model, q, qd), c_ref)
    assert_close(mass_matrix_rate(model, q, qd), sum(dD[k] * qd[k] for k in range(model.n_dof)))
    torques = np.linspace(-1.0, 1.0, model.n_inputs)
    rhs = model.input_map @ torques - c_ref @ qd - gravity_vector(model, q)
    assert_close(forward_dynamics(model, q, qd, torques),
                 np.linalg.solve(mass_matrix(model, q), rhs))


@pytest.mark.parametrize("name", sorted(MODEL_ZOO))
def test_euler_lagrange_forward_dynamics_equals_the_textbook_form(name):
    # D^-1 (B Gamma - Ddot qdot + dL/dq) against D^-1 (B Gamma - C qdot - G)
    model = MODEL_ZOO[name]()
    rng = np.random.default_rng(19)
    for _ in range(25):
        q, qd = random_state(model, rng)
        torques = rng.uniform(-2.0, 2.0, size=model.n_inputs)
        rhs = (model.input_map @ torques - coriolis_matrix(model, q, qd) @ qd
               - gravity_vector(model, q))
        assert_close(forward_dynamics(model, q, qd, torques),
                     np.linalg.solve(mass_matrix(model, q), rhs))


def counted_energies(model):
    """The model with K and V wrapped to append to the returned call list;
    the list starts empty after the construction check."""
    calls = []

    def counted(f):
        return lambda *a: calls.append(1) or f(*a)

    counted_model = dataclasses.replace(model, kinetic=counted(model.kinetic),
                                        potential=counted(model.potential))
    calls.clear()
    return counted_model, calls


@pytest.mark.parametrize("name,evals", [("pendulum", 3), ("segway", 7),
                                        ("ballbot", 7), ("gymnast_bar", 12)])
def test_forward_dynamics_costs_n_n_plus_1_over_2_plus_2n_energy_evaluations(name, evals):
    # one polarized K at q + i h qdot, and K - V at q + i h e_k for each k
    counted_model, calls = counted_energies(MODEL_ZOO[name]())
    n = counted_model.n_dof
    forward_dynamics(counted_model, np.full(n, 0.3), np.full(n, -0.7),
                     np.ones(counted_model.n_inputs))
    assert len(calls) == evals == n * (n + 1) // 2 + 2 * n


@pytest.mark.parametrize("steps", [1, 5])
def test_segway_simulate_costs_four_forward_dynamics_per_step(steps):
    counted_model, calls = counted_energies(cart_pole_segway())
    sig = simulate(counted_model, lambda t, q, qd: np.array([-q[1]]),
                   [0.0, 0.05], [0.0, 0.0], steps * 0.01, 0.01)
    assert len(sig) == steps + 1
    assert len(calls) == 4 * steps * 7


@pytest.mark.parametrize("n", [1, 2, 3, 0])
def test_construction_costs_the_quadratic_check_plus_one_mass_matrix(n):
    # D(0) by polarization, K at the probe velocity, then n complex steps and
    # 2n central-difference evaluations of K (V costs 3n, uncounted here)
    calls = []
    MechanicalModel(lambda q, qd: calls.append(1) or 0.5 * qd @ qd,
                    lambda q: 0.0, np.eye(n))
    assert len(calls) == n * (n + 1) // 2 + 1 + 3 * n


@pytest.mark.parametrize("name,n", [("pendulum", 1), ("segway", 2), ("ballbot", 2),
                                    ("gymnast_bar", 3)])
def test_degrees_of_freedom_are_the_rows_of_the_input_map(name, n):
    model = MODEL_ZOO[name]()
    assert model.n_dof == model.input_map.shape[0] == n
    assert [f.name for f in dataclasses.fields(model)] == ["kinetic", "potential",
                                                            "input_map", "name"]


@pytest.mark.parametrize("input_map", [np.ones(2), np.ones((1, 1, 1))])
def test_an_input_map_that_is_not_2d_raises_dimension_error(input_map):
    with pytest.raises(DimensionError, match="input map must be n_dof x n_inputs"):
        MechanicalModel(lambda q, qd: 0.5 * qd @ qd, lambda q: 0.0, input_map)


# ------------------------------------------- K quadratic in the velocities

@pytest.mark.parametrize("name", sorted(MODEL_ZOO))
def test_zoo_kinetic_energies_pass_the_quadratic_check(name):
    model = MODEL_ZOO[name]()
    rng = np.random.default_rng(23)
    for _ in range(50):
        q, v = rng.uniform(-3.0, 3.0, size=(2, model.n_dof))
        assert model.kinetic(q, v) == pytest.approx(0.5 * v @ mass_matrix(model, q) @ v,
                                                    rel=1e-12, abs=0.0)


def test_construction_rejects_a_kinetic_energy_not_quadratic_in_the_velocities():
    # unchecked, forward_dynamics would return 1/3 instead of 1 here
    with pytest.raises(DomainError, match="linear_term is not quadratic"):
        MechanicalModel(lambda q, qd: 0.5 * qd[0] ** 2 + qd[0],
                        lambda q: 0.0, np.eye(1), name="linear_term")


def test_construction_rejects_a_velocity_cross_term():
    # K(0, 2 e_i) = 4 K(0, e_i) holds on both axes and D(0) = [[1, 0.1], [0.1, 1]]
    # is positive definite, but K(0, (0.5, -0.5)) = 0.2375 is not v^T D v / 2 = 0.225
    with pytest.raises(DomainError, match="cross_term is not quadratic"):
        MechanicalModel(lambda q, qd: 0.5 * (qd[0] ** 2 + qd[1] ** 2) + 0.1 * qd[0] ** 2 * qd[1],
                        lambda q: 0.0, np.eye(2), name="cross_term")


@pytest.mark.parametrize("factory,kwargs", [
    (cart_pole_segway, {"cart_mass": -3.0}),
    (pendulum, {"mass": -1.0}),
    (planar_ballbot, {"torso_inertia": -1.0}),
    (gymnast_bar, {"m1": -30.0, "m2": 0.0}),
])
def test_construction_rejects_a_mass_matrix_not_positive_definite(factory, kwargs):
    with pytest.raises(DomainError, match="is not positive definite at q = "):
        factory(**kwargs)


def test_forward_dynamics_refuses_a_mass_matrix_indefinite_away_from_zero():
    # D(q) = cos(q0) is positive at q = 0, so the model is built, and negative
    # at q = 2; LU solved it and returned a finite qddot = 1 / cos(2) < 0,
    # accelerating against the applied force
    model = MechanicalModel(lambda q, qd: 0.5 * np.cos(q[0]) * qd[0] ** 2,
                            lambda q: 0.0, np.array([[1.0]]), name="cosine_mass")
    assert forward_dynamics(model, [0.0], [0.0], [1.0]) == pytest.approx([1.0])
    with pytest.raises(DomainError,
                       match=r"mass matrix of cosine_mass is not positive definite at q = \[2\.\]"):
        forward_dynamics(model, [2.0], [0.0], [1.0])
    with pytest.raises(DomainError, match="not positive definite"):
        simulate(model, lambda t, q, qd: np.ones(1), [1.5], [0.0], 1.0, 0.01)


def complex_step_dldq(model, q, qd):
    """Reference: dL/dq_k = Im L(q + i h e_k, qdot) / h at h = 1e-30."""
    return np.array([(model.kinetic(z, qd) - model.potential(z)).imag / 1e-30
                     for z in q + 1e-30j * np.eye(len(q))])


@pytest.mark.parametrize("name", sorted(MODEL_ZOO))
def test_cholesky_forward_dynamics_equals_the_lu_solve_to_roundoff(name):
    # an older forward_dynamics solved the same rhs with the pivoting LU; both
    # solvers are backward stable, so they differ by at most c n eps cond(D)
    # ||qddot||_inf; at these states c stayed below 0.36, and 4 is allowed
    model = MODEL_ZOO[name]()
    n = model.n_dof
    rng = np.random.default_rng(31)
    for _ in range(100):
        q, qd = rng.uniform(-3.0, 3.0, size=(2, n))
        torques = rng.uniform(-2.0, 2.0, size=model.n_inputs)
        dldq = complex_step_dldq(model, q, qd)
        rhs = model.input_map @ torques - mass_matrix_rate(model, q, qd) @ qd + dldq
        d = mass_matrix(model, q)
        qdd = forward_dynamics(model, q, qd, torques)
        bound = 4.0 * n * np.finfo(float).eps * np.linalg.cond(d) * np.max(np.abs(qdd))
        assert np.max(np.abs(qdd - lu_solve(d, rhs))) <= bound


# ------------------------------- complex step against the old central differences

OLD_FD = DiffConfig(h=1e-4, relative=False)


def central_difference_terms(model, q, qd):
    """Reference: G, Ddot and dL/dq as the central differences at h = 1e-4
    that mech took before its complex step."""
    h = OLD_FD.h
    g = gradient(lambda v: float(model.potential(v)), q, OLD_FD)
    rate = (mass_matrix(model, q + h * qd) - mass_matrix(model, q - h * qd)) / (2 * h)
    dldq = gradient(lambda v: model.kinetic(v, qd) - model.potential(v), q, OLD_FD)
    return g, rate, dldq


@settings(max_examples=120, deadline=None)
@given(zoo_states())
def test_complex_step_terms_are_within_1e_6_of_the_old_central_differences(state):
    model, q, qd = state
    # D by polarization against the second-difference Hessian it replaced
    d = mass_matrix(model, q)
    d_hessian = hessian(lambda v: float(model.kinetic(q, v)), np.zeros(model.n_dof), OLD_FD)
    assert np.all(np.abs(d - d_hessian) <= 1e-9 * np.maximum(1.0, np.abs(d)))
    g, rate, dldq = central_difference_terms(model, q, qd)
    assert_close(gravity_vector(model, q), g)
    assert_close(mass_matrix_rate(model, q, qd), rate)
    torques = np.linspace(-1.0, 1.0, model.n_inputs)
    old = lu_solve(d, model.input_map @ torques - rate @ qd + dldq)
    assert_close(forward_dynamics(model, q, qd, torques), old)


def segway_closed_form(q, qd, force, cart=1.0, pole=1.0, length=1.0):
    """qddot of the cart-pole from its hand-derived Euler-Lagrange equations
    (M + m) xdd + m l cos(th) thdd = F + m l sin(th) thd^2 and
    m l cos(th) xdd + m l^2 thdd = m g l sin(th), by Cramer's rule."""
    s, c = math.sin(q[1]), math.cos(q[1])
    r1 = force + pole * length * s * qd[1] ** 2
    r2 = pole * G * length * s
    det = (cart + pole) * pole * length ** 2 - (pole * length * c) ** 2
    return np.array([pole * length ** 2 * r1 - pole * length * c * r2,
                     (cart + pole) * r2 - pole * length * c * r1]) / det


def test_segway_forward_dynamics_matches_the_closed_form_to_roundoff():
    # the central differences were off by up to 7.6e-8 here
    model = cart_pole_segway()
    rng = np.random.default_rng(37)
    for _ in range(2000):
        q, qd = rng.uniform(-3.0, 3.0, size=(2, 2))
        force = rng.uniform(-3.0, 3.0)
        exact = segway_closed_form(q, qd, force)
        got = forward_dynamics(model, q, qd, [force])
        assert np.max(np.abs(got - exact)) <= 1e-13 * np.max(np.abs(exact))


@pytest.mark.parametrize("kinetic,potential", [
    (lambda q, qd: 0.5 * (1.0 + np.abs(q[0])) * qd[0] ** 2, lambda q: 0.0),
    (lambda q, qd: 0.5 * qd[0] ** 2, lambda q: G * np.abs(q[0])),
    (lambda q, qd: 0.5 * qd[0] ** 2, lambda q: G * (1.0 - math.cos(float(q[0])))),
    (lambda q, qd: 0.5 * qd[0] ** 2, lambda q: G * (1.0 - math.cos(q.tolist()[0]))),
], ids=["abs-kinetic", "abs-potential", "float", "type-error"])
def test_construction_refuses_an_energy_not_analytic_in_q(kinetic, potential):
    # np.abs drops the imaginary part, so the complex step would read a zero
    # slope; float() casts it away with a warning, math.cos refuses it
    with pytest.raises(DomainError, match="energy of non_analytic is not analytic in q"):
        MechanicalModel(kinetic, potential, np.eye(1), name="non_analytic")


@pytest.mark.parametrize("kinetic,potential", [
    (lambda q, qd: math.inf if qd[0] > 0 else 0.5 * qd[0] ** 2, lambda q: 0.0),
    (lambda q, qd: 0.5 * qd[0] ** 2, lambda q: math.nan),
    (lambda q, qd: math.inf, lambda q: 0.0),
    # nan only away from the construction probe; its imaginary part is 0
    (lambda q, qd: 0.5 * qd[0] ** 2, lambda q: math.nan if q[0].real < 0.25 else 0.0),
])
def test_nonfinite_energy_raises_domain_error(kinetic, potential):
    # the first three fail at construction, the last on first use
    with pytest.raises(DomainError, match="not finite"):
        forward_dynamics(MechanicalModel(kinetic, potential, np.eye(1)),
                         [0.2], [0.0], [0.0])
    with pytest.raises(DomainError, match="not finite"):
        simulate(MechanicalModel(kinetic, potential, np.eye(1)),
                 None, [0.2], [0.0], 0.01, 0.01)


# ------------------------------------------- symbolic Euler-Lagrange oracle

def symbolic_dynamics(model, sympy):
    """D, Ddot qdot, dL/dq and G of a model, derived by sympy from the same
    energy code: mech's np.sin/np.cos are swapped for sympy's while the
    energies are evaluated on symbols. Returns a function of (q, qdot)."""
    n = model.n_dof
    q = list(sympy.symbols(f"q:{n}"))
    v = list(sympy.symbols(f"v:{n}"))
    real_np, mech.np = mech.np, SimpleNamespace(sin=sympy.sin, cos=sympy.cos)
    try:
        K = sympy.sympify(model.kinetic(q, v))
        V = sympy.sympify(model.potential(q))
    finally:
        mech.np = real_np
    D = sympy.hessian(K, v)
    Dv = D * sympy.Matrix(v)
    Ddot_v = sum((Dv.diff(qk) * vk for qk, vk in zip(q, v)), sympy.zeros(n, 1))
    dLdq = sympy.Matrix([(K - V).diff(qk) for qk in q])
    G = sympy.Matrix([V.diff(qk) for qk in q])
    fn = sympy.lambdify([q, v], [D, Ddot_v, dLdq, G], "numpy")

    def exact(qq, vv):
        shapes = [(n, n), (n,), (n,), (n,)]
        return [np.array(a, dtype=float).reshape(s) for a, s in zip(fn(qq, vv), shapes)]
    return exact


@pytest.mark.parametrize("name", sorted(MODEL_ZOO))
def test_robot_equations_match_the_symbolic_euler_lagrange_oracle(name):
    sympy = pytest.importorskip("sympy")
    model = MODEL_ZOO[name]()
    exact = symbolic_dynamics(model, sympy)
    rng = np.random.default_rng(17)
    for _ in range(20):
        q = rng.uniform(-3.0, 3.0, size=model.n_dof)
        qd = rng.uniform(-3.0, 3.0, size=model.n_dof)
        torques = rng.uniform(-2.0, 2.0, size=model.n_inputs)
        d, ddot_qd, dldq, g = exact(q, qd)
        assert_close(mass_matrix(model, q), d, tol=1e-12)
        assert_close(gravity_vector(model, q), g, tol=1e-12)
        # C qdot = Ddot qdot - dK/dq, and dK/dq = dL/dq + G
        assert_close(coriolis_matrix(model, q, qd) @ qd, ddot_qd - dldq - g, tol=1e-12)
        qdd = np.linalg.solve(d, model.input_map @ torques - ddot_qd + dldq)
        assert_close(forward_dynamics(model, q, qd, torques), qdd, tol=1e-12)
