import math

import numpy as np
import pytest

from calckit import odesolve
from calckit.errors import ConvergenceError, DimensionError, DomainError
from calckit.lti import (PdGains, StateSpace, TransferFunction, dc_gain,
                         linearize, pd_pole_placement, pd_tf, poles,
                         precompensator, response_metrics, ss_to_tf,
                         step_response, subsystem, tf_to_ss, unity_feedback,
                         zeros)
from calckit.mech import cart_pole_segway, gymnast_bar, pendulum
from calckit.poly import poly_add, poly_eval, poly_mul, roots_dk
from calckit.signals import SampledSignal

G = 9.81


# ---------------------------------------------------------------- polynomials

def test_poly_difference_of_squares():
    assert np.allclose(poly_mul([1.0, 1.0], [1.0, -1.0]), [1.0, 0.0, -1.0])


def test_poly_eval_at_i():
    assert poly_eval([1.0, 0.0, 1.0], 1j) == 0.0


def test_poly_hand_expansion():
    assert np.allclose(poly_mul([1.0, 1.0], [2.0, 1.0]), [2.0, 3.0, 1.0])


def test_poly_add_padding():
    assert np.allclose(poly_add([1.0], [0.0, 0.0, 2.0]), [1.0, 0.0, 2.0])


def test_roots_difference_of_squares():
    got = roots_dk([-1.0, 0.0, 1.0])
    assert got[0] == pytest.approx(-1.0 + 0j, abs=1e-10)
    assert got[1] == pytest.approx(1.0 + 0j, abs=1e-10)


def test_roots_hand_factoring():
    got = roots_dk([2.0, 3.0, 1.0])
    assert got[0] == pytest.approx(-2.0 + 0j, abs=1e-10)
    assert got[1] == pytest.approx(-1.0 + 0j, abs=1e-10)


def test_roots_triple_root_with_loose_tol():
    # clustered roots converge slowly and lose accuracy with multiplicity;
    # residuals stay tiny even so
    coeffs = [1.0, 3.0, 3.0, 1.0]          # (s + 1)^3
    got = roots_dk(coeffs, tol=1e-4)
    for r in got:
        assert abs(r - (-1.0)) <= 1e-3
        assert abs(poly_eval(coeffs, r)) < 1e-6


def test_roots_residuals_on_random_polynomials():
    rng = np.random.default_rng(5)
    for _ in range(20):
        deg = int(rng.integers(1, 7))
        roots = rng.uniform(-3, 3, size=deg) + 1j * rng.uniform(-2, 2, size=deg)
        coeffs = np.array([1.0 + 0j])
        for r in roots:
            coeffs = np.convolve(coeffs, [-r, 1.0])
        coeffs = coeffs.real if np.max(np.abs(coeffs.imag)) < 1e-9 else None
        if coeffs is None:
            continue
        scale = np.max(np.abs(coeffs))
        for r in roots_dk(coeffs):
            assert abs(poly_eval(coeffs, r)) <= 1e-8 * scale


def test_roots_of_degree_12_stable_spectra_within_80_iterations():
    # started on Fujiwara's bound these take at most about 60 iterations
    rng = np.random.default_rng(12)
    for _ in range(5):
        pairs = -rng.uniform(0.1, 3.0, 6) + 1j * rng.uniform(0.1, 3.0, 6)
        want = np.concatenate([pairs, pairs.conj()])
        got = np.array(roots_dk(np.poly(want).real[::-1], max_iters=80))
        gaps = np.abs(got[:, None] - want[None, :])
        assert np.max(gaps.min(axis=0)) <= 1e-6 and np.max(gaps.min(axis=1)) <= 1e-6


def test_roots_budget_exhaustion():
    with pytest.raises(ConvergenceError):
        roots_dk([1.0, 3.0, 3.0, 1.0], tol=1e-15, max_iters=20)


# ---------------------------------------------------------------- transfer fn

def test_tf_trims_leading_zero_padding():
    tf = TransferFunction([1.0, 0.0, 0.0], [1.0, 1.0, 0.0])
    assert len(tf.num) == 1 and len(tf.den) == 2


def test_tf_rejects_zero_denominator():
    with pytest.raises(DomainError):
        TransferFunction([1.0], [0.0])


def test_tf_string_form():
    assert str(TransferFunction([2.0, 3.0], [2.0, 3.0, 1.0])) == "[2,3] / [2,3,1]"


def test_poles_and_no_cancellation():
    tf = TransferFunction([1.0, 1.0], [1.0, 1.0])     # (s+1)/(s+1) kept verbatim
    assert poles(tf)[0] == pytest.approx(-1.0 + 0j, abs=1e-10)
    assert zeros(tf)[0] == pytest.approx(-1.0 + 0j, abs=1e-10)


def test_poles_zeros_hand_cases():
    tf = TransferFunction([1.0], [2.0, 3.0, 1.0])
    ps = poles(tf)
    assert ps[0] == pytest.approx(-2.0 + 0j, abs=1e-10)
    assert ps[1] == pytest.approx(-1.0 + 0j, abs=1e-10)
    assert zeros(tf) == []
    zs = zeros(TransferFunction([1.0, 2.0], [0.0, 0.0, 1.0]))
    assert zs[0] == pytest.approx(-0.5 + 0j, abs=1e-12)


def test_pd_tf_forms():
    assert str(pd_tf(PdGains(1.0, 0.0))) == "[1] / [1]"
    tf = pd_tf(PdGains(2.0, 3.0))
    assert np.allclose(tf.num, [2.0, 3.0])
    assert poly_eval(tf.num, 0.0).real == 2.0


def test_unity_feedback_pd_on_double_integrator():
    plant = TransferFunction([1.0], [0.0, 0.0, 1.0])
    closed = unity_feedback(plant, pd_tf(PdGains(2.0, 3.0)))
    assert np.allclose(closed.num, [2.0, 3.0])
    assert np.allclose(closed.den, [2.0, 3.0, 1.0])


def test_unity_feedback_zero_controller():
    plant = TransferFunction([1.0], [1.0, 1.0])
    closed = unity_feedback(plant, TransferFunction([0.0], [1.0]))
    assert dc_gain(closed) == 0.0
    assert np.allclose(closed.num, [0.0])


def test_unity_feedback_static_gain():
    plant = TransferFunction([1.0], [1.0, 1.0])
    closed = unity_feedback(plant, TransferFunction([4.0], [1.0]))
    assert np.allclose(closed.num, [4.0])
    assert np.allclose(closed.den, [5.0, 1.0])


def test_closed_loop_denominator_identity():
    rng = np.random.default_rng(9)
    for _ in range(20):
        plant = TransferFunction(rng.uniform(-2, 2, size=2),
                                 np.append(rng.uniform(-2, 2, size=2), 1.0))
        gains = PdGains(*rng.uniform(-3, 3, size=2))
        ctrl = pd_tf(gains)
        try:
            closed = unity_feedback(plant, ctrl)
        except DomainError:
            continue
        expected = poly_add(poly_mul(plant.den, ctrl.den),
                            poly_mul(plant.num, ctrl.num))
        padded = np.zeros_like(expected)
        padded[: len(closed.den)] = closed.den
        assert np.max(np.abs(padded - expected)) <= 1e-12


def test_dc_gain_and_precompensator():
    tf = TransferFunction([2.0], [4.0, 1.0])
    assert dc_gain(tf) == 0.5
    assert precompensator(tf) == 2.0


def test_pd_closed_loop_needs_no_precompensator():
    plant = TransferFunction([1.0], [0.0, 0.0, 1.0])
    closed = unity_feedback(plant, pd_tf(PdGains(5.0, 2.0)))
    assert dc_gain(closed) == 1.0


def test_dc_gain_pole_at_origin():
    with pytest.raises(DomainError):
        dc_gain(TransferFunction([1.0], [0.0, 1.0]))


def test_precompensator_zero_at_origin():
    with pytest.raises(DomainError):
        precompensator(TransferFunction([0.0, 1.0], [1.0, 1.0]))


# ---------------------------------------------------------------- realization

def test_tf_to_ss_first_order():
    ss = tf_to_ss(TransferFunction([1.0], [1.0, 1.0]))
    assert ss.A[0, 0] == -1.0 and ss.B[0, 0] == 1.0
    assert ss.C[0, 0] == 1.0 and ss.D[0, 0] == 0.0


def test_tf_to_ss_constant_gain():
    ss = tf_to_ss(TransferFunction([3.0], [1.0]))
    assert ss.n_states == 0 and ss.D[0, 0] == 3.0


def test_tf_to_ss_rejects_improper():
    with pytest.raises(DomainError):
        tf_to_ss(TransferFunction([1.0, 2.0, 3.0], [1.0, 1.0]))


def test_ss_to_tf_double_integrator():
    ss = StateSpace([[0.0, 1.0], [0.0, 0.0]], [[0.0], [1.0]], [[1.0, 0.0]], [[0.0]])
    tf = ss_to_tf(ss)
    assert np.allclose(tf.num, [1.0])
    assert np.allclose(tf.den, [0.0, 0.0, 1.0])


def test_ss_to_tf_scalar_resolvent():
    tf = ss_to_tf(StateSpace([[-1.0]], [[1.0]], [[1.0]], [[0.0]]))
    assert np.allclose(tf.num, [1.0])
    assert np.allclose(tf.den, [1.0, 1.0])


def test_ss_to_tf_pure_feedthrough():
    # no cancellation: num = D * den, so the ratio is 1 wherever defined
    tf = ss_to_tf(StateSpace([[0.0]], [[0.0]], [[0.0]], [[1.0]]))
    assert np.array_equal(tf.num, tf.den)
    assert tf(1.0) == 1.0 and tf(2.0 + 1j) == 1.0


def test_round_trip_random_proper_tfs():
    rng = np.random.default_rng(21)
    for _ in range(20):
        deg = int(rng.integers(1, 5))
        den = np.append(rng.uniform(-2.0, 2.0, size=deg), 1.0)
        num = rng.uniform(-2.0, 2.0, size=int(rng.integers(1, deg + 2)))
        try:
            tf = TransferFunction(num, den)
        except DomainError:
            continue
        back = ss_to_tf(tf_to_ss(tf))
        n1 = np.zeros(deg + 1)
        n1[: len(tf.num)] = tf.num / tf.den[-1]
        n2 = np.zeros(deg + 1)
        n2[: len(back.num)] = back.num / back.den[-1]
        assert np.max(np.abs(n1 - n2)) <= 1e-8
        d1 = tf.den / tf.den[-1]
        d2 = np.zeros(deg + 1)
        d2[: len(back.den)] = back.den / back.den[-1]
        assert np.max(np.abs(d1 - d2)) <= 1e-8


def test_poles_match_eigenvalues_random_systems():
    rng = np.random.default_rng(31)
    for _ in range(10):
        a = rng.standard_normal((3, 3))
        ss = StateSpace(a, rng.standard_normal((3, 1)),
                        rng.standard_normal((1, 3)), [[0.0]])
        ps = sorted(poles(ss_to_tf(ss)), key=lambda v: (v.real, v.imag))
        ev = sorted(odesolve.eigenvalues(a), key=lambda v: (v.real, v.imag))
        for p, e in zip(ps, ev):
            assert abs(p - e) <= 1e-6


@pytest.mark.parametrize("inputs,outputs", [(2, 1), (1, 2)])
def test_ss_to_tf_refuses_a_system_that_is_not_siso(inputs, outputs):
    ss = StateSpace(np.eye(2), np.ones((2, inputs)), np.ones((outputs, 2)),
                    np.zeros((outputs, inputs)))
    with pytest.raises(DimensionError, match="restrict with subsystem first"):
        ss_to_tf(ss)


# ---------------------------------------------------------------- linearize

def test_linearize_pendulum_hanging():
    ss = linearize(pendulum(), [0.0], [0.0])
    expected = np.array([[0.0, 1.0], [-G, 0.0]])
    assert np.max(np.abs(ss.A - expected)) <= 1e-4


def test_linearize_pendulum_inverted_poles():
    ss = linearize(pendulum(), [math.pi], [0.0])
    ev = odesolve.eigenvalues(ss.A)
    expected = math.sqrt(G)
    assert ev[0].real == pytest.approx(-expected, abs=1e-3)
    assert ev[1].real == pytest.approx(expected, abs=1e-3)


def test_linearize_cart_pole_upright_unstable():
    ss = linearize(cart_pole_segway(), [0.0, 0.0], [0.0])
    assert max(v.real for v in odesolve.eigenvalues(ss.A)) > 0.0


def test_linearize_of_an_unactuated_model_has_an_empty_input_matrix():
    ss = linearize(gymnast_bar(gravity=0.0), np.zeros(3), np.zeros(0))
    assert ss.A.shape == (6, 6) and ss.B.shape == (6, 0) and ss.D.shape == (3, 0)
    assert np.array_equal(ss.A[:3, 3:], np.eye(3)) and not ss.A[3:].any()


def test_linearize_rejects_non_equilibrium():
    with pytest.raises(DomainError):
        linearize(pendulum(), [0.3], [0.0])


def test_subsystem_structural_check():
    ss = linearize(cart_pole_segway(), [0.0, 0.0], [0.0])
    red = subsystem(ss, [1, 3], outputs=[1])
    assert red.n_states == 2
    # lean subsystem of the upright cart-pole: thdd = a th + b u
    tf = ss_to_tf(red)
    assert len(tf.den) == 3
    with pytest.raises(DomainError):
        subsystem(ss, [0, 2], outputs=[0])   # cart states depend on the lean


# ---------------------------------------------------------------- responses

def test_first_order_step_values():
    tf = TransferFunction([1.0], [1.0, 1.0])
    sig = step_response(tf, 10.0, 1e-3)
    k = int(round(1.0 / 1e-3))
    assert sig.y[k, 0] == pytest.approx(1.0 - math.exp(-1.0), abs=1e-6)
    metrics = response_metrics(sig, final_hint=1.0)
    assert metrics.rise_time == pytest.approx(math.log(9.0), rel=0.01)


def test_critically_damped_no_overshoot():
    tf = TransferFunction([1.0], [1.0, 2.0, 1.0])
    metrics = response_metrics(step_response(tf, 20.0, 1e-3), final_hint=1.0)
    assert metrics.overshoot < 1e-3


@pytest.mark.parametrize("zeta", [0.3, 0.5, 0.7])
def test_second_order_overshoot_formula(zeta):
    wn = 2.0
    tf = TransferFunction([wn * wn], [wn * wn, 2.0 * zeta * wn, 1.0])
    metrics = response_metrics(step_response(tf, 15.0, 1e-3), final_hint=1.0)
    expected = math.exp(-math.pi * zeta / math.sqrt(1.0 - zeta * zeta))
    assert abs(metrics.overshoot - expected) <= 0.005


def test_unstable_step_reports_blowup():
    tf = TransferFunction([1.0], [-60.0, 1.0])   # pole at +60: y = (exp(60 t) - 1) / 60
    with pytest.raises(DomainError, match="exceeds 1e9") as err:
        step_response(tf, 2.0, 1e-3)
    t_blow = float(str(err.value).split("t = ")[1].split()[0])
    assert t_blow == pytest.approx(math.log(6e10 + 1.0) / 60.0, abs=1e-3)


def _rk4_step_response(tf, T, dt):
    ss = tf_to_ss(tf)
    a, b = ss.A, ss.B[:, 0]
    prob = odesolve.IvpProblem(lambda t, x: a @ x + b, np.zeros(ss.n_states), 0.0, T)
    return odesolve.rk4_solve(prob, dt).y @ ss.C[0] + ss.D[0, 0]


@pytest.mark.parametrize("order", [2, 3])
def test_step_response_matches_rk4_march(order):
    rng = np.random.default_rng(order)
    for _ in range(5):
        sigma, omega = rng.uniform(0.3, 2.0), rng.uniform(0.5, 3.0)
        roots = [complex(-sigma, omega), complex(-sigma, -omega)]
        roots += [-rng.uniform(0.5, 4.0)] * (order - 2)
        den = np.real(np.poly(roots))[::-1]            # ascending, monic
        num = rng.uniform(-1.0, 1.0, order)             # strictly proper
        tf = TransferFunction(num, den)
        got = step_response(tf, 10.0, 1e-3).y[:, 0]
        want = _rk4_step_response(tf, 10.0, 1e-3)
        assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))


def test_step_response_partial_fractions_with_short_final_step():
    # 6 / ((s + 1)(s + 2)(s + 3)): y = 1 - 3 e^-t + 3 e^-2t - e^-3t
    tf = TransferFunction([6.0], [6.0, 11.0, 6.0, 1.0])
    T, dt = 2.0005, 1e-3
    sig = step_response(tf, T, dt)
    t = sig.t
    assert t[-1] == T and t[-1] - t[-2] == pytest.approx(5e-4)
    want = 1.0 - 3.0 * np.exp(-t) + 3.0 * np.exp(-2.0 * t) - np.exp(-3.0 * t)
    assert np.max(np.abs(sig.y[:, 0] - want)) <= 1e-12


def test_static_gain_step_response_uses_the_ivp_grid():
    sig = step_response(TransferFunction([2.0], [1.0]), 1.0, 0.3)
    assert sig.t[-1] == 1.0
    assert np.array_equal(sig.t, odesolve._time_grid(0.0, 1.0, 0.3))
    assert np.all(sig.y == 2.0)
    with pytest.raises(DomainError, match="step size must be positive"):
        step_response(TransferFunction([2.0], [1.0]), 1.0, 0.0)


def test_metrics_without_hint_refuse_an_unsettled_record():
    ramp = step_response(TransferFunction([1.0], [0.0, 1.0]), 10.0, 1e-2)
    with pytest.raises(DomainError, match="not settled"):
        response_metrics(ramp)
    ringing = step_response(TransferFunction([4.0], [4.0, 0.2, 1.0]), 10.0, 1e-2)
    with pytest.raises(DomainError, match="not settled"):
        response_metrics(ringing)
    assert response_metrics(ramp, final_hint=5.0).steady_state == 5.0


def test_steady_state_matches_dc_gain_without_hint():
    tf = TransferFunction([3.0], [2.0, 2.0, 1.0])
    metrics = response_metrics(step_response(tf, 30.0, 1e-3))
    assert abs(metrics.steady_state - dc_gain(tf)) <= 1e-3


# ---------------------------------------------------------------- PD design

def test_pd_placement_double_integrator():
    plant = TransferFunction([1.0], [0.0, 0.0, 1.0])
    gains = pd_pole_placement(plant, 1.0, 1.0)
    assert gains.kp == 1.0 and gains.kd == 2.0
    closed = unity_feedback(plant, pd_tf(gains))
    for p in poles(closed):
        assert p == pytest.approx(-1.0 + 0j, abs=1e-5)


def test_pd_placement_stabilizes_inverted_pendulum():
    g_over_l = G
    plant = TransferFunction([1.0], [-g_over_l, 0.0, 1.0])
    gains = pd_pole_placement(plant, 2.0, 0.7)
    assert gains.kp == pytest.approx(4.0 + g_over_l, abs=1e-12)
    closed = unity_feedback(plant, pd_tf(gains))
    assert all(p.real < 0.0 for p in poles(closed))


def test_pd_placement_gain_scaling():
    base = pd_pole_placement(TransferFunction([1.0], [0.0, 1.0, 1.0]), 2.0, 0.8)
    scaled = pd_pole_placement(TransferFunction([2.0], [0.0, 1.0, 1.0]), 2.0, 0.8)
    assert scaled.kp == pytest.approx(base.kp / 2.0, abs=1e-12)
    assert scaled.kd == pytest.approx(base.kd / 2.0, abs=1e-12)


def test_pd_placement_rejects_wrong_shape():
    with pytest.raises(DomainError):
        pd_pole_placement(TransferFunction([1.0, 1.0], [0.0, 0.0, 1.0]), 1.0, 1.0)
    with pytest.raises(DomainError):
        pd_pole_placement(TransferFunction([1.0], [0.0, 1.0]), 1.0, 1.0)


# ---------------------------------------------------------- project 3 chain

def test_segway_pd_design_end_to_end():
    from calckit.mech import simulate

    model = cart_pole_segway()
    ss = linearize(model, [0.0, 0.0], [0.0])
    assert max(v.real for v in odesolve.eigenvalues(ss.A)) > 0.0

    plant = ss_to_tf(subsystem(ss, [1, 3], outputs=[1]))
    gains = pd_pole_placement(plant, 3.0, 0.9)
    closed = unity_feedback(plant, pd_tf(gains))
    pre = precompensator(closed)
    closed = unity_feedback(plant, pd_tf(gains), precomp=pre)

    assert all(p.real <= -0.1 for p in poles(closed))
    assert dc_gain(closed) == pytest.approx(1.0, abs=1e-9)

    def controller(t, q, qd):
        return np.array([pre * 0.0 - gains.kp * q[1] - gains.kd * qd[1]])

    traj = simulate(model, controller, [0.0, 0.05], [0.0, 0.0], 5.0, 2e-3)
    assert abs(traj.y[-1, 1]) < 0.005


# ------------------------------------------- responses that start past a level

def test_static_gain_metrics_are_instantaneous():
    sig = step_response(TransferFunction([2.0], [1.0]), 10.0, 1e-3)
    m = response_metrics(sig, final_hint=2.0)
    assert (m.rise_time, m.overshoot, m.settling_time, m.steady_state) == (0.0, 0.0, 0.0, 2.0)
    neg = response_metrics(step_response(TransferFunction([-2.0], [1.0]), 1.0, 1e-3),
                           final_hint=-2.0)
    assert (neg.rise_time, neg.settling_time) == (0.0, 0.0)
    # a first sample exactly on the level counts as reached, even if the next stays there
    on_level = SampledSignal(np.linspace(0.0, 1.0, 11), np.full(11, 0.9))
    assert response_metrics(on_level, final_hint=1.0).rise_time == 0.0


def test_direct_term_metrics_match_closed_form():
    # (s + 2)/(s + 1): y = 2 - e^-t starts at 1, past the 10% level 0.2, so
    # rise = t(1.8) - 0 = ln 5 and the 2% band |e^-t| <= 0.04 is entered at ln 25
    dt = 1e-3
    m = response_metrics(step_response(TransferFunction([2.0, 1.0], [1.0, 1.0]), 10.0, dt),
                         final_hint=2.0)
    assert m.rise_time == pytest.approx(math.log(5.0), abs=1e-6)
    assert math.log(25.0) - dt <= m.settling_time <= math.log(25.0)
    assert m.overshoot == 0.0 and m.steady_state == 2.0
