import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from calckit import odesolve, signals
from calckit.errors import DimensionError, DomainError
from calckit.linalg import determinant
from calckit.odesolve import (IvpProblem, char_poly, eigenvalues, euler_solve,
                              matrix_exponential, rk4_solve)


def decay(x0=1.0, tf=1.0):
    return IvpProblem(lambda t, x: -x, [x0], 0.0, tf)


def test_constant_state_both_methods():
    prob = IvpProblem(lambda t, x: np.zeros_like(x), [5.0], 0.0, 2.0)
    for solver in (euler_solve, rk4_solve):
        sig = solver(prob, 0.1)
        assert np.all(sig.y == 5.0)
        assert sig.t[-1] == 2.0


def test_rk4_exponential_decay():
    sig = rk4_solve(decay(), 0.01)
    assert sig.y[-1, 0] == pytest.approx(math.exp(-1.0), abs=1e-8)


def test_euler_first_order_error():
    errs = [abs(euler_solve(decay(), dt).y[-1, 0] - math.exp(-1.0))
            for dt in (0.01, 0.005)]
    assert 1.8 <= errs[0] / errs[1] <= 2.2


def test_rk4_fourth_order_error():
    errs = [abs(rk4_solve(decay(), dt).y[-1, 0] - math.exp(-1.0))
            for dt in (0.1, 0.05, 0.025)]
    assert 14.0 <= errs[0] / errs[1] <= 18.0
    assert 14.0 <= errs[1] / errs[2] <= 18.0


def test_partial_final_step_lands_on_tf():
    prob = IvpProblem(lambda t, x: x * 0.0 + 1.0, [0.0], 0.0, 1.0)
    sig = rk4_solve(prob, 0.3)
    assert sig.t[-1] == 1.0
    assert sig.y[-1, 0] == pytest.approx(1.0, abs=1e-12)


def test_a_horizon_below_the_snap_tolerance_keeps_t0():
    # the final point snapped onto tf and overwrote t0, leaving the grid [tf]
    assert odesolve._time_grid(5.0, 5.0 + 1e-13, 0.01).tolist() == [5.0, 5.0 + 1e-13]
    sig = rk4_solve(IvpProblem(lambda t, x: x * 0.0 + 1.0, [2.0], 0.0, 1e-15), 0.01)
    assert sig.t.tolist() == [0.0, 1e-15]
    assert sig.y[0, 0] == 2.0


def test_nonfinite_rhs_reports_blowup():
    prob = IvpProblem(lambda t, x: x ** 3, [10.0], 0.0, 5.0)
    with pytest.raises(DomainError):
        rk4_solve(prob, 0.1)


@pytest.mark.parametrize("solve,t_bad", [(euler_solve, "2.0"), (rk4_solve, "1.0")])
def test_a_state_that_overflows_reports_the_blowup_without_a_runtime_warning(solve, t_bad):
    # x + h k overflows in the march itself, outside the rhs: 1e308 + 1e308
    # at the first Euler step and the second RK4 stage; the march runs with
    # floating-point warnings off, so the non-finite rhs at the overflowed
    # state is what reports it
    prob = IvpProblem(lambda t, x: x, [1e308], 0.0, 4.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(DomainError, match=rf"rhs is not finite at t = {t_bad} \(state blow-up\)"):
            solve(prob, 2.0)
    assert caught == []


@pytest.mark.parametrize("solve,dt,t_bad", [(rk4_solve, 2.0, "2.0"), (euler_solve, 0.5, "1.0")])
def test_a_state_that_overflows_under_a_finite_rhs_reports_the_blowup_time(solve, dt, t_bad):
    # the rhs stays finite at an infinite state, so no rhs call sees the
    # overflow: it happens in RK4's only (last) step and in Euler's second
    prob = IvpProblem(lambda t, x: np.full_like(x, 1e308), [1e308], 0.0, 2.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(DomainError, match=rf"state is not finite at t = {t_bad} \(state blow-up\)"):
            solve(prob, dt)
    assert caught == []


def test_expm_at_zero_is_identity():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((4, 4))
    assert np.array_equal(matrix_exponential(a, 0.0), np.eye(4))


def test_expm_nilpotent_series_terminates():
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    for t in (0.5, 1.0, 3.0):
        assert np.max(np.abs(matrix_exponential(a, t)
                             - np.array([[1.0, t], [0.0, 1.0]]))) <= 1e-15


def test_expm_diagonal():
    got = matrix_exponential(np.diag([1.0, 2.0]), 1.0)
    assert np.max(np.abs(got - np.diag([math.e, math.e ** 2]))) <= 1e-12


def test_expm_semigroup_property():
    rng = np.random.default_rng(1)
    for _ in range(10):
        a = rng.standard_normal((3, 3)) - 2.0 * np.eye(3)
        t1, t2 = rng.uniform(0.1, 1.5, size=2)
        lhs = matrix_exponential(a, t1 + t2)
        rhs = matrix_exponential(a, t1) @ matrix_exponential(a, t2)
        assert np.max(np.abs(lhs - rhs)) <= 1e-10


def test_expm_columns_match_rk4():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((3, 3)) - 1.5 * np.eye(3)
    expm = matrix_exponential(a, 1.0)
    for j in range(3):
        e = np.zeros(3)
        e[j] = 1.0
        sig = rk4_solve(IvpProblem(lambda t, x: a @ x, e, 0.0, 1.0), 1e-3)
        assert np.max(np.abs(sig.y[-1] - expm[:, j])) <= 1e-6


def test_expm_matches_scipy_on_random_matrices():
    expm = pytest.importorskip("scipy.linalg").expm
    rng = np.random.default_rng(3)
    for n in range(1, 7):
        for scale in (1e-3, 0.3, 1.0, 4.0):
            a = scale * rng.standard_normal((n, n))
            want = expm(a)
            assert np.max(np.abs(matrix_exponential(a) - want)) <= 1e-13 * np.max(np.abs(want))


def test_expm_matches_scipy_on_zero_order_hold_blocks():
    expm = pytest.importorskip("scipy.linalg").expm
    rng = np.random.default_rng(4)
    for n in (1, 2, 3, 4):
        for h in (1e-4, 1e-3, 0.01, 0.5):
            block = np.zeros((n + 1, n + 1))
            block[:n, :n] = rng.standard_normal((n, n)) - np.eye(n)
            block[:n, n] = rng.standard_normal(n)
            want = expm(block * h)
            got = matrix_exponential(block, h)
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
            assert np.array_equal(got[n], np.eye(n + 1)[n])


def test_expm_rejects_nonsquare():
    with pytest.raises(DimensionError):
        matrix_exponential(np.ones((2, 3)), 1.0)


def test_char_poly_identity():
    # (s - 1)^2 = s^2 - 2s + 1
    assert np.allclose(char_poly(np.eye(2)), [1.0, -2.0, 1.0], atol=1e-14)


def test_char_poly_companion_hand_determinant():
    # det(sI - A) for A = [[0,1],[-2,-3]] is s^2 + 3s + 2
    assert np.allclose(char_poly([[0.0, 1.0], [-2.0, -3.0]]),
                       [2.0, 3.0, 1.0], atol=1e-14)


def test_char_poly_constant_term_is_signed_determinant():
    rng = np.random.default_rng(3)
    for n in (2, 3, 4, 5):
        a = rng.standard_normal((n, n))
        c0 = char_poly(a)[0]
        assert c0 == pytest.approx((-1.0) ** n * determinant(a), abs=1e-8)


def test_char_poly_size_cap():
    with pytest.raises(DimensionError):
        char_poly(np.eye(13))


def test_eigenvalues_diagonal():
    got = eigenvalues(np.diag([3.0, -1.0]))
    assert got[0] == pytest.approx(-1.0 + 0j, abs=1e-10)
    assert got[1] == pytest.approx(3.0 + 0j, abs=1e-10)
    assert all(v.imag == 0.0 for v in got)


def test_eigenvalues_companion():
    got = eigenvalues([[0.0, 1.0], [-2.0, -3.0]])
    assert got[0] == pytest.approx(-2.0 + 0j, abs=1e-8)
    assert got[1] == pytest.approx(-1.0 + 0j, abs=1e-8)
    assert all(v.imag == 0.0 for v in got)


def test_eigenvalues_rotation_pure_imaginary():
    got = eigenvalues([[0.0, -1.0], [1.0, 0.0]])
    assert got[0] == pytest.approx(-1j, abs=1e-10)
    assert got[1] == pytest.approx(1j, abs=1e-10)


@pytest.mark.parametrize("spectrum", [(-1e-13, -3e-13), (-2e-10, -5e-10)])
def test_tiny_eigenvalues_keep_their_relative_accuracy(spectrum):
    # Durand-Kerner updates on these spectra fall below an absolute 1e-12
    # long before the roots settle, so the stop test must scale with them
    got = eigenvalues(np.diag(spectrum))
    assert np.allclose(got, sorted(spectrum), rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("a", [
    [[-1e-9, 1e-9], [-1e-9, -1e-9]],     # -1e-9 +- 1e-9 j
    [[0.0, 1e-13], [-1e-13, 0.0]],       # +-1e-13 j
])
def test_small_imaginary_parts_are_kept_against_numpy(a):
    # an absolute snap of imaginary parts below 1e-8 once made these pairs real
    got = eigenvalues(a)
    want = sorted(np.linalg.eigvals(np.array(a)), key=lambda v: (v.real, v.imag))
    assert np.allclose(got, want, rtol=1e-12, atol=0.0)
    assert got[0] == got[1].conjugate() and got[0].imag < 0.0


def test_eigenvalue_sum_matches_trace():
    rng = np.random.default_rng(4)
    for n in (2, 3, 4, 5, 6):
        a = rng.standard_normal((n, n))
        s = sum(eigenvalues(a))
        assert s.real == pytest.approx(np.trace(a), abs=1e-7)
        assert abs(s.imag) <= 1e-7


@st.composite
def separated_spectra(draw):
    # eigenvalues on the grid 0.5 (j + i k), |j| <= 6, 1 <= k <= 4 for the
    # complex pairs: any two are at least 0.5 apart, and n <= 12
    pairs = draw(st.lists(st.tuples(st.integers(-6, 6), st.integers(1, 4)),
                          unique=True, max_size=6))
    reals = draw(st.lists(st.integers(-6, 6), unique=True, min_size=0 if pairs else 1,
                          max_size=12 - 2 * len(pairs)))
    return reals, pairs, draw(st.integers(0, 2 ** 32 - 1))


def _similar_to_blocks(reals, pairs, seed):
    """Q diag(reals, [[a, b], [-b, a]] per pair) Q^T (halved grid values),
    Q a random orthogonal matrix, so the spectrum is known exactly."""
    n = len(reals) + 2 * len(pairs)
    d = np.zeros((n, n))
    d[range(len(reals)), range(len(reals))] = 0.5 * np.asarray(reals, float)
    for j, (re, im) in enumerate(pairs):
        i = len(reals) + 2 * j
        d[i:i + 2, i:i + 2] = 0.5 * np.array([[re, im], [-im, re]])
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))
    return q @ d @ q.T


@settings(max_examples=40, deadline=None)
@given(separated_spectra())
@example(([-6, -5, -3, 0], [(-6, 2), (-5, 4), (-3, 4), (-1, 4)], 0))
@example(([], [(-6, 1), (-5, 1), (-4, 1), (-3, 1), (-2, 1), (-1, 1)], 0))
def test_char_poly_and_eigenvalues_match_numpy(spectrum):
    # Faddeev-LeVerrier coefficients against np.poly (from LAPACK eigenvalues):
    # measured worst error 1e-13 of the largest coefficient, 1e-11 allowed.
    # Eigenvalues against np.linalg.eigvals, matched to the nearest: the root
    # error grows with the conditioning of the polynomial, 2e-10 at worst
    # over 1,500 examples but 3.9e-7 for the densest packings of twelve
    # eigenvalues on this grid; 1e-5 allowed. The two examples once stalled
    # the root iteration at the roundoff floor (ConvergenceError).
    a = _similar_to_blocks(*spectrum)
    want = np.poly(a)[::-1].real
    got = char_poly(a)
    assert np.max(np.abs(got - want)) <= 1e-11 * np.max(np.abs(want))
    ours = np.array(eigenvalues(a))
    for lam in np.linalg.eigvals(a):
        assert np.min(np.abs(ours - lam)) <= 1e-5


def test_ivp_validation():
    with pytest.raises(DomainError):
        IvpProblem(lambda t, x: x, [1.0], 1.0, 0.0)
    with pytest.raises(DomainError):
        rk4_solve(decay(), -0.1)


# ------------------------------------------- the shared march vs the old loops

def loop_euler(prob, dt):
    ts = odesolve._time_grid(prob.t0, prob.tf, dt)
    xs = np.empty((len(ts), len(prob.x0)))
    xs[0] = prob.x0
    for k in range(len(ts) - 1):
        h = ts[k + 1] - ts[k]
        xs[k + 1] = xs[k] + h * odesolve._eval_rhs(prob, ts[k], xs[k])
    return ts, xs


def loop_rk4(prob, dt):
    ts = odesolve._time_grid(prob.t0, prob.tf, dt)
    xs = np.empty((len(ts), len(prob.x0)))
    xs[0] = prob.x0
    for k in range(len(ts) - 1):
        t, x = ts[k], xs[k]
        h = ts[k + 1] - t
        k1 = odesolve._eval_rhs(prob, t, x)
        k2 = odesolve._eval_rhs(prob, t + 0.5 * h, x + 0.5 * h * k1)
        k3 = odesolve._eval_rhs(prob, t + 0.5 * h, x + 0.5 * h * k2)
        k4 = odesolve._eval_rhs(prob, t + h, x + h * k3)
        xs[k + 1] = x + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return ts, xs


@st.composite
def ivp_cases(draw):
    n = draw(st.integers(1, 3))
    entries = st.floats(-2.0, 2.0, allow_nan=False)
    a = np.array(draw(st.lists(entries, min_size=n * n, max_size=n * n))).reshape(n, n)
    x0 = draw(st.lists(entries | st.sampled_from([0.0, -0.0]), min_size=n, max_size=n))
    t0 = draw(st.floats(-1.0, 1.0))
    tf = t0 + draw(st.floats(0.05, 2.0))
    dt = draw(st.floats(0.01, 0.5))
    prob = IvpProblem(lambda t, x: a @ x + np.sin(t + x), x0, t0, tf)
    return prob, dt


@settings(max_examples=100, deadline=None)
@given(ivp_cases())
def test_march_equals_old_loops_bit_for_bit(case):
    prob, dt = case
    for solve, loop in ((euler_solve, loop_euler), (rk4_solve, loop_rk4)):
        sig = solve(prob, dt)
        ts, xs = loop(prob, dt)
        assert sig.t.tobytes() == ts.tobytes()
        assert sig.y.tobytes() == xs.tobytes()


@pytest.mark.parametrize("solve", [euler_solve, rk4_solve])
def test_march_bounds_the_state_record_not_just_the_grid(solve, monkeypatch):
    # 251 points pass a 1000-point grid budget, but 251 x 4 states do not
    monkeypatch.setattr(signals, "MAX_GRID_POINTS", 1000)
    dt = 2.0 ** -6
    assert len(solve(IvpProblem(lambda t, x: -x, np.ones(4), 0.0, 249 * dt), dt)) == 250
    with pytest.raises(DomainError, match="ODE state record needs 1004 points, over the budget"):
        solve(IvpProblem(lambda t, x: -x, np.ones(4), 0.0, 250 * dt), dt)


@pytest.mark.parametrize("solve", [euler_solve, rk4_solve])
def test_march_hands_its_records_over_without_a_copy(solve, monkeypatch):
    handed = []
    monkeypatch.setattr(odesolve, "SampledSignal",
                        lambda t, y: handed.append((t, y)) or signals.SampledSignal(t, y))
    sig = solve(IvpProblem(lambda t, x: -x, np.ones(3), 0.0, 1.0), 0.01)
    (t, y), = handed
    assert np.shares_memory(sig.t, t) and np.shares_memory(sig.y, y)


def test_a_solve_holds_its_record_about_once():
    # 200,001 steps of a 4-state decay make a 7.63 MiB record; a copy on
    # the hand-over would peak at 2 records, while the signal's own checks
    # of t and y take the adopted record to 1.25 (9.54 MiB measured)
    prob = IvpProblem(lambda t, x: -x, np.ones(4), 0.0, 2.0)
    tracemalloc.start()
    try:
        sig = euler_solve(prob, 1e-5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    record = sig.t.nbytes + sig.y.nbytes
    assert len(sig) == 200_001
    assert peak <= 1.3 * record
