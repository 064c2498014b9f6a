import math

import numpy as np
import pytest

from calckit import diffnum, lti, mech, odesolve, signals
from calckit.errors import ConvergenceError, DimensionError, DomainError
from calckit.lti import (PdGains, StateSpace, TransferFunction, dc_gain,
                         linearize, pd_pole_placement, pd_tf, poles,
                         precompensator, response_metrics, ss_to_tf,
                         step_response, subsystem, tf_to_ss, unity_feedback,
                         zeros)
from calckit.mech import cart_pole_segway, gymnast_bar, pendulum, planar_ballbot
from calckit.poly import _finish, _horner, as_poly, poly_add, poly_eval, poly_mul, roots_dk, trim
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


def test_as_poly_copies_and_refuses_what_is_not_a_finite_sequence():
    c = np.array([1.0, 2.0])
    p = as_poly(c)
    assert not np.shares_memory(p, c) and p.flags.writeable
    assert as_poly(3).tolist() == [3.0]
    for bad in ([], [[1.0, 2.0]]):
        with pytest.raises(DomainError, match="nonempty 1-D"):
            as_poly(bad)
    with pytest.raises(DomainError, match="must be finite"):
        as_poly([1.0, np.nan])


def test_trim_drops_high_powers_below_1e_12_relative():
    assert trim([1.0, 2.0, 1e-12, 0.0]).tolist() == [1.0, 2.0]
    assert trim([1.0, 2.0, 3e-12]).tolist() == [1.0, 2.0, 3e-12]
    assert trim([0.0, -0.0]).tolist() == [0.0]
    assert trim([0.0, 5e-324, 0.0]).tolist() == [0.0, 5e-324]


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


def _swept(coeffs, z, tol):
    """The roots as the sweep leaves them, sorted, without roots_dk's finish."""
    return sorted(z, key=lambda r: (r.real, r.imag))


def _roots_dk_delete_loop(p, tol=1e-12, max_iters=500, finish=_finish):
    """Reference: roots_dk with each Weierstrass denominator formed by its
    own np.delete loop, as before the pairwise-difference matrix; the swept
    roots then go through finish (roots_dk's own by default)."""
    p = trim(p)
    deg, lead = len(p) - 1, p[-1]
    ratios = np.abs(p[-2::-1] / lead)
    ratios[-1] /= 2.0
    radius = 2.0 * float(np.max(ratios ** (1.0 / np.arange(1, deg + 1))))
    z = radius * np.exp(1j * (2.0 * np.pi * np.arange(deg) / deg + 0.4))
    coeffs, magnitudes = p.astype(complex), np.abs(p)
    rounding = 2.0 * deg * np.finfo(float).eps
    stop = tol * min(1.0, radius)
    for _ in range(max_iters):
        values = np.array([_horner(coeffs, zi) for zi in z])
        noise = rounding * np.array([_horner(magnitudes, abs(zi)).real for zi in z])
        updates = np.zeros(deg, dtype=complex)
        for i in range(deg):
            diff = z[i] - np.delete(z, i)
            diff[diff == 0] = 1e-30
            updates[i] = values[i] / (lead * np.prod(diff))
        z = z - updates
        if np.max(np.abs(updates)) < stop or np.all(np.abs(values) <= noise):
            return finish(p.astype(complex).tolist(), list(map(complex, z)), tol)
    raise ConvergenceError("no convergence")


def test_roots_dk_equals_the_delete_loop_bit_for_bit():
    rng = np.random.default_rng(2024)
    for deg in range(1, 13):
        for _ in range(25):
            coeffs = rng.standard_normal(deg + 1) * 10.0 ** rng.integers(-3, 4, deg + 1)
            try:
                want = _roots_dk_delete_loop(coeffs)
            except ConvergenceError:
                with pytest.raises(ConvergenceError):
                    roots_dk(coeffs)
                continue
            assert roots_dk(coeffs) == want


def _roots_dk_array_sweep(p, tol=1e-12, max_iters=500, finish=_finish):
    """Reference: roots_dk as one numpy sweep over arrays, each Weierstrass
    denominator a row product of the pairwise-difference matrix, as before
    the sweep ran on Python scalars; the swept roots then go through finish
    (roots_dk's own by default)."""
    p = trim(p)
    deg, lead = len(p) - 1, p[-1]
    ratios = np.abs(p[-2::-1] / lead)
    ratios[-1] /= 2.0
    radius = 2.0 * float(np.max(ratios ** (1.0 / np.arange(1, deg + 1))))
    z = radius * np.exp(1j * (2.0 * np.pi * np.arange(deg) / deg + 0.4))
    coeffs, magnitudes = p.astype(complex), np.abs(p)
    rounding = 2.0 * deg * np.finfo(float).eps
    stop = tol * min(1.0, radius)
    for _ in range(max_iters):
        values = np.array([_horner(coeffs, zi) for zi in z])
        noise = rounding * np.array([_horner(magnitudes, abs(zi)).real for zi in z])
        diff = z[:, None] - z[None, :]
        np.fill_diagonal(diff, 1.0)
        diff[diff == 0] = 1e-30
        updates = values / (lead * np.prod(diff, axis=1))
        z = z - updates
        if np.max(np.abs(updates)) < stop or np.all(np.abs(values) <= noise):
            return finish(p.astype(complex).tolist(), list(map(complex, z)), tol)
    raise ConvergenceError(
        f"root iteration did not settle in {max_iters} iterations "
        f"(last update {np.max(np.abs(updates)):.3e})"
    )


def _bits(roots):
    """Each root's two parts exactly, signed zeros told apart."""
    return [(r.real.hex(), r.imag.hex()) for r in roots]


def _pd_closed_loops():
    for wn in np.linspace(1.0, 8.0, 15):
        for zeta in np.linspace(0.2, 1.0, 9):
            yield np.array([wn * wn, 2.0 * zeta * wn, 1.0])


def _third_order_step_plants():
    # the denominators of the bench's order-3 `control step` plants
    for wn in np.linspace(1.0, 4.0, 7):
        for zeta in np.linspace(0.2, 0.7, 6):
            for p in np.linspace(2.0, 6.0, 5):
                yield np.convolve([wn * wn, 2.0 * zeta * wn, 1.0], [p, 1.0])


def _degree_12_spectra():
    rng = np.random.default_rng(12)
    for _ in range(40):
        pairs = -rng.uniform(0.1, 3.0, 6) + 1j * rng.uniform(0.1, 3.0, 6)
        yield np.concatenate([pairs, pairs.conj()])


def _degree_12_stable_spectra():
    for spectrum in _degree_12_spectra():
        yield np.poly(spectrum).real[::-1]


@pytest.mark.parametrize("max_iters", [500, 1, 2, 3, 4, 5])
@pytest.mark.parametrize("family", [_pd_closed_loops, _third_order_step_plants,
                                    _degree_12_stable_spectra])
def test_roots_dk_equals_the_array_sweep_bit_for_bit(family, max_iters):
    for coeffs in family():
        try:
            want = _roots_dk_array_sweep(coeffs, max_iters=max_iters)
        except ConvergenceError as err:
            with pytest.raises(ConvergenceError) as got:
                roots_dk(coeffs, max_iters=max_iters)
            assert str(got.value) == str(err)
            continue
        got = roots_dk(coeffs, max_iters=max_iters)
        assert all(type(r) is complex for r in got)
        assert _bits(got) == _bits(want)


@pytest.mark.parametrize("alpha", [1e-6, 1e-8, 1e-10, 1e-12, 1e-14])
def test_tiny_roots_are_found_to_tol_relative(alpha):
    # p(s / alpha) has the roots of p scaled by alpha; an absolute stop at
    # tol would accept the first update once every root is below about tol.
    # The double roots (zeta = 1) keep the sqrt(eps) accuracy they have at
    # alpha = 1.
    families = (_pd_closed_loops, _third_order_step_plants)
    for coeffs in (c for family in families for c in family()):
        scaled = coeffs * alpha ** -np.arange(len(coeffs), dtype=float)
        want = np.roots(scaled[::-1])
        size = np.max(np.abs(want))
        spread = np.abs(want[:, None] - want[None, :]) + np.eye(len(want)) * size
        bound = 1e-12 if spread.min() > 1e-6 * size else 1e-7
        got = np.array(roots_dk(scaled))
        gaps = np.abs(got[:, None] - want[None, :]).min(axis=1)
        assert np.max(gaps) <= bound * size


def test_tiny_poles_are_those_of_numpy():
    got = poles(TransferFunction([1.0], [3e-26, 4e-13, 1.0]))
    assert np.allclose([r.real for r in got], [-3e-13, -1e-13], rtol=1e-12, atol=0.0)
    assert max(abs(r.imag) for r in got) <= 1e-12 * 1e-13


def test_roots_budget_exhaustion():
    with pytest.raises(ConvergenceError):
        roots_dk([1.0, 3.0, 3.0, 1.0], tol=1e-15, max_iters=20)


@pytest.mark.parametrize("max_iters", [0, -1])
def test_roots_refuse_an_empty_budget(max_iters):
    with pytest.raises(DomainError, match=f"at least 1, got {max_iters}"):
        roots_dk([1.0, 0.0, 1.0], max_iters=max_iters)


def _random_polynomials(seed, count):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        yield rng.standard_normal(int(rng.integers(2, 10)))


def _relative_moves(coeffs):
    """Each finished root's distance from the nearest swept root, relative
    to its own modulus."""
    swept = np.array(_roots_dk_array_sweep(coeffs, finish=_swept))
    finished = np.array(roots_dk(coeffs))
    return np.abs(finished[:, None] - swept[None, :]).min(axis=1) / np.abs(finished)


def test_finish_moves_simple_roots_by_at_most_1e_14_relative():
    # the Newton polish and the pairing move each root of these families,
    # all simple and well separated, by rounding only: 2.3e-15 at most
    simple = [c for c in _pd_closed_loops() if c[1] ** 2 < 3.99 * c[0]]
    for coeffs in [*simple, *_third_order_step_plants(), *_random_polynomials(33, 3000)]:
        try:
            moves = _relative_moves(coeffs)
        except ConvergenceError:
            continue
        assert np.max(moves) <= 1e-14


def _clustered_spectra():
    for wn in np.linspace(1.0, 8.0, 15):              # the zeta = 1 closed loops
        yield np.array([wn * wn, 2.0 * wn, 1.0]), np.array([-wn, -wn])
    for spectrum in _degree_12_spectra():
        yield np.poly(spectrum).real[::-1], spectrum


def test_finish_leaves_clustered_roots_no_farther_from_their_spectrum():
    # double roots and degree-12 clusters move by more than rounding (up to
    # 3e-8 of the largest root), because the polish keeps a Newton step
    # wherever it lowers |p|: it takes them toward the spectrum, or leaves
    # them within 1.5 times the sweep's own distance from it
    def gap(roots, spectrum):
        return np.abs(np.array(roots)[:, None] - spectrum[None, :]).min(axis=1).max()

    for coeffs, spectrum in _clustered_spectra():
        swept = _roots_dk_array_sweep(coeffs, finish=_swept)
        assert gap(roots_dk(coeffs), spectrum) <= 1.5 * gap(swept, spectrum)


def _routh_hurwitz_stable(c) -> bool:
    """Every root in the open left half-plane, read off the first column of
    the Routh array of the ascending coefficients c (Routh, 1877; Hurwitz,
    Math. Ann. 46, 1895)."""
    desc = [float(x) for x in reversed(trim(c))]
    rows = [desc[0::2], desc[1::2]]
    for _ in range(len(desc) - 2):
        top, bot = rows[-2], rows[-1] + [0.0]
        if bot[0] == 0.0:
            return False
        rows.append([(bot[0] * top[k + 1] - top[0] * bot[k + 1]) / bot[0]
                     for k in range(len(top) - 1)])
    first = [row[0] for row in rows]
    return all(f > 0 for f in first) or all(f < 0 for f in first)


def test_routh_hurwitz_oracle_on_hand_cases():
    assert _routh_hurwitz_stable([2.0, 3.0, 1.0])               # (s + 1)(s + 2)
    assert _routh_hurwitz_stable([-6.0, -11.0, -6.0, -1.0])     # -(s + 1)(s + 2)(s + 3)
    assert not _routh_hurwitz_stable([-1.0, 0.0, 1.0])          # s = +-1
    assert not _routh_hurwitz_stable([1.0, 0.0, 1.0])           # s = +-i
    assert not _routh_hurwitz_stable([5.0, 1.0, 1.0, 1.0])      # a2 a1 < a0 a3


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["stable", "unstable"])
@pytest.mark.parametrize("slow", [[1.0, 1.0], [1.0, 1.0, 1.0]], ids=["s+1", "s2+s+1"])
def test_mixed_scale_families_find_the_small_pole_and_the_routh_hurwitz_verdict(slow, sign):
    # (s + 1)(s + eps) and (s^2 + s + 1)(s + eps), and the same with -eps:
    # Durand-Kerner's error is relative to the largest root, so without the
    # polish the small root came back with either sign, or as 0
    for eps in np.geomspace(1e-6, 1e-300, 44):
        den = np.convolve(slow, [sign * eps, 1.0])
        ps = poles(TransferFunction([1.0], den))
        small = min(ps, key=abs)
        assert abs(small + sign * eps) <= 1e-12 * eps
        stable = all(p.real < -1e-9 * abs(p) for p in ps)       # response_metrics' rule
        assert stable == _routh_hurwitz_stable(den) == (sign > 0)


def test_roots_settle_on_a_subnormal_start_radius():
    # Fujiwara's radius is about 2e-320 here, so tol * radius was 0.0 and no
    # update could fall below it
    assert roots_dk([1e-160, 1e160]) == [complex(-(1e-160 / 1e160), 0.0)]


def test_roots_of_real_polynomials_come_back_as_exact_conjugate_pairs():
    # a pair shares its real part bit for bit, so (real, imag) order lists
    # -imag first; near-real roots (within tol |z|) come back on the axis
    families = [*_pd_closed_loops(), *_third_order_step_plants(),
                *_random_polynomials(34, 500), [2.0, 3.0, 1.0 + 1e-15]]
    for coeffs in families:
        try:
            roots = roots_dk(coeffs)
        except ConvergenceError:
            continue
        assert roots == sorted(roots, key=lambda r: (r.real, r.imag))
        rest = [r for r in roots if r.imag != 0.0]
        assert rest[0::2] == [r.conjugate() for r in rest[1::2]]
        assert all(r.imag < 0.0 for r in rest[0::2])
        assert all(abs(r.imag) > 1e-12 * abs(r) for r in rest)


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
    # without gravity the bar is a free particle: A = [[0, I], [0, 0]] exactly,
    # with no -0 for control linearize to print
    ss = linearize(gymnast_bar(gravity=0.0), [0.4, -1.0, 2.0], np.zeros(0))
    assert ss.A.shape == (6, 6) and ss.B.shape == (6, 0) and ss.D.shape == (3, 0)
    assert np.array_equal(ss.A, np.block([[np.zeros((3, 3)), np.eye(3)], [np.zeros((3, 6))]]))
    assert not np.signbit(ss.A).any()


def _linearize_two_jacobians(model, q_eq, torques_eq):
    """Reference: A and B as two Jacobians of two closures, as before the
    one Jacobian of (q, qdot, Gamma) -> (qdot, qddot)."""
    q_eq, torques_eq = np.asarray(q_eq, dtype=float), np.asarray(torques_eq, dtype=float)
    n = model.n_dof

    def dynamics(x):
        q, qd = x[:n], x[n:]
        return np.concatenate([qd, mech.forward_dynamics(model, q, qd, torques_eq)])

    def forced(u):
        return np.concatenate([np.zeros(n),
                               mech.forward_dynamics(model, q_eq, np.zeros(n), u)])

    cfg = diffnum.DiffConfig(h=1e-5, relative=False)
    return (diffnum.jacobian(dynamics, np.concatenate([q_eq, np.zeros(n)]), cfg),
            diffnum.jacobian(forced, torques_eq, cfg))


@pytest.mark.parametrize("model, q_eq, torques_eq", [
    (pendulum(), [math.pi], [0.0]),
    (cart_pole_segway(), [0.0, 0.0], [0.0]),
    (planar_ballbot(), [0.0, 0.0], [0.0]),
    (gymnast_bar(gravity=0.0), [0.0, 0.0, 0.0], []),
], ids=["pendulum", "segway", "ballbot", "gymnast_bar"])
def test_linearize_matches_the_two_jacobians_to_1e_8(model, q_eq, torques_eq):
    # the structured A and B against the differenced forward dynamics they
    # replaced, within that method's own error (about 1e-9)
    ss = linearize(model, q_eq, torques_eq)
    a, b = _linearize_two_jacobians(model, q_eq, torques_eq)
    assert np.max(np.abs(ss.A - a)) <= 1e-8 * np.max(np.abs(a))
    assert ss.B.shape == b.shape
    assert np.max(np.abs(ss.B - b), initial=0.0) <= 1e-8 * np.max(np.abs(b), initial=0.0)


def _closed_form(d, stiffness, input_map):
    """A = [[0, I], [-D^-1 dG/dq, 0]] and B = [0; D^-1 B_u] from a
    hand-derived D and dG/dq = d^2 V / dq^2, at an equilibrium where
    qddot_eq = 0, so the dD/dq term drops out."""
    n, m = input_map.shape
    a = np.block([[np.zeros((n, n)), np.eye(n)],
                  [-np.linalg.solve(d, stiffness), np.zeros((n, n))]])
    return a, np.vstack([np.zeros((n, m)), np.linalg.solve(d, input_map)])


def _assert_within(got, want, scale, rtol=1e-12):
    assert got.shape == want.shape
    assert np.max(np.abs(got - want), initial=0.0) <= rtol * scale


@pytest.mark.parametrize("q", [0.0, math.pi])
def test_linearize_pendulum_at_rest_and_inverted_is_exact(q):
    ss = linearize(pendulum(), [q], [0.0])
    _assert_within(ss.A, np.array([[0.0, 1.0], [-G * math.cos(q), 0.0]]), G)
    _assert_within(ss.B, np.array([[0.0], [1.0]]), 1.0)


def test_linearize_pendulum_held_at_an_angle_matches_the_closed_form():
    # A21 = -(g / l) cos q crosses zero, so its error is measured against
    # its amplitude g / l rather than against the entry itself
    rng = np.random.default_rng(22)
    for _ in range(50):
        mass, length = rng.uniform(0.2, 3.0, 2)
        gravity, q = rng.uniform(1.0, 15.0), rng.uniform(-math.pi, math.pi)
        hold = mass * gravity * length * math.sin(q)
        ss = linearize(pendulum(mass, length, gravity), [q], [hold])
        a, b = _closed_form(np.array([[mass * length ** 2]]),
                            np.array([[mass * gravity * length * math.cos(q)]]), np.eye(1))
        _assert_within(ss.A, a, max(1.0, gravity / length))
        _assert_within(ss.B, b, np.max(np.abs(b)))


def test_linearize_segway_and_ballbot_upright_match_the_closed_forms():
    rng = np.random.default_rng(23)
    for _ in range(50):
        cart, pole, ell, gravity = rng.uniform(0.5, 3.0, 3).tolist() + [rng.uniform(1.0, 15.0)]
        d = np.array([[cart + pole, pole * ell], [pole * ell, pole * ell ** 2]])
        a, b = _closed_form(d, np.diag([0.0, -pole * gravity * ell]), np.array([[1.0], [0.0]]))
        ss = linearize(cart_pole_segway(cart, pole, ell, gravity),
                       [rng.uniform(-2, 2), 0.0], [0.0])
        _assert_within(ss.A, a, np.max(np.abs(a)))
        _assert_within(ss.B, b, np.max(np.abs(b)))

        mb, r, torso, inertia, off = (rng.uniform(0.1, 1.0), rng.uniform(0.05, 0.3),
                                      rng.uniform(1.0, 10.0), rng.uniform(0.05, 0.5),
                                      rng.uniform(0.1, 0.6))
        d = np.array([[1.5 * mb * r ** 2 + torso * r ** 2, torso * r * off],
                      [torso * r * off, torso * off ** 2 + inertia]])
        a, b = _closed_form(d, np.diag([0.0, -torso * gravity * off]), np.array([[1.0], [-1.0]]))
        ss = linearize(planar_ballbot(mb, r, None, torso, inertia, off, gravity),
                       [rng.uniform(-3, 3), 0.0], [0.0])
        _assert_within(ss.A, a, np.max(np.abs(a)))
        _assert_within(ss.B, b, np.max(np.abs(b)))


@pytest.mark.parametrize("inputs", [0, 2])
def test_linearize_of_a_model_without_degrees_of_freedom_is_empty(inputs):
    model = mech.MechanicalModel(lambda q, qd: 0.5 * qd @ qd, lambda q: 0.0,
                                 np.zeros((0, inputs)))
    ss = linearize(model, [], np.zeros(inputs))
    assert ss.A.shape == (0, 0) and ss.B.shape == (0, inputs)
    assert ss.C.shape == (0, 0) and ss.D.shape == (0, inputs)


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
    metrics = response_metrics(sig, tf)
    assert metrics.rise_time == pytest.approx(math.log(9.0), rel=0.01)


def test_critically_damped_no_overshoot():
    tf = TransferFunction([1.0], [1.0, 2.0, 1.0])
    metrics = response_metrics(step_response(tf, 20.0, 1e-3), tf)
    assert metrics.overshoot < 1e-3


@pytest.mark.parametrize("zeta", [0.3, 0.5, 0.7])
def test_second_order_overshoot_formula(zeta):
    wn = 2.0
    tf = TransferFunction([wn * wn], [wn * wn, 2.0 * zeta * wn, 1.0])
    metrics = response_metrics(step_response(tf, 15.0, 1e-3), tf)
    expected = math.exp(-math.pi * zeta / math.sqrt(1.0 - zeta * zeta))
    assert abs(metrics.overshoot - expected) <= 0.005


def test_unstable_step_reports_blowup():
    tf = TransferFunction([1.0], [-60.0, 1.0])   # pole at +60: y = (exp(60 t) - 1) / 60
    with pytest.raises(DomainError, match="exceeds 1e150") as err:
        step_response(tf, 7.0, 1e-3)
    t_blow = float(str(err.value).split("t = ")[1].split()[0])
    assert t_blow == pytest.approx(math.log(6e151 + 1.0) / 60.0, abs=1e-3)


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


def test_step_response_bounds_the_state_record_not_just_the_grid(monkeypatch):
    # 251 points pass a 1000-point grid budget, but 251 x 4 states do not
    monkeypatch.setattr(signals, "MAX_GRID_POINTS", 1000)
    tf, dt = TransferFunction([1.0], [1.0, 4.0, 6.0, 4.0, 1.0]), 2.0 ** -6
    assert len(step_response(tf, 249 * dt, dt)) == 250
    with pytest.raises(DomainError, match="step response state record needs 1004 points"):
        step_response(tf, 250 * dt, dt)
    assert len(step_response(TransferFunction([2.0], [1.0]), 999 * dt, dt)) == 1000


@pytest.mark.parametrize("den", [[1.0], [2.0, 3.0, 1.0], [1.0, 4.0, 6.0, 4.0, 1.0]])
def test_step_response_hands_its_record_over_without_a_copy(den, monkeypatch):
    handed = []
    monkeypatch.setattr(lti, "SampledSignal",
                        lambda t, y: handed.append((t, y)) or SampledSignal(t, y))
    sig = step_response(TransferFunction([1.0], den), 2.0, 0.01)
    (t, y), = handed
    assert np.shares_memory(sig.t, t) and np.shares_memory(sig.y, y)


def test_metrics_without_a_dc_gain_refuse_an_unsettled_record():
    integrator = TransferFunction([1.0], [0.0, 1.0])
    ramp = step_response(integrator, 10.0, 1e-2)
    for tf in (None, integrator):            # a pole at the origin: the tail decides
        with pytest.raises(DomainError, match="not settled"):
            response_metrics(ramp, tf)
    slow = TransferFunction([4.0], [4.0, 0.2, 1.0])
    ringing = step_response(slow, 10.0, 1e-2)
    with pytest.raises(DomainError, match="not settled"):
        response_metrics(ringing)
    # its poles are stable, so with the transfer function the DC gain is final
    assert response_metrics(ringing, slow).steady_state == 1.0


@pytest.mark.parametrize("den", [
    [1.0, 0.0, 1.0],                     # poles at +-i
    [2.0, 1.0, 2.0, 1.0],                # (s^2 + 1)(s + 2): the axis pair at roundoff
    [-1.0, 1.0],                         # pole at +1
    [1.0, -0.1, 1.0],                    # a growing oscillation
], ids=["axis", "axis-roundoff", "right-real", "right-pair"])
def test_metrics_with_a_tf_refuse_a_pole_off_the_open_left_half_plane(den):
    tf = TransferFunction([1.0], den)
    sig = step_response(tf, 5.0, 1e-2)
    with pytest.raises(DomainError, match="is not in the open left half-plane"):
        response_metrics(sig, tf)


def test_steady_state_from_the_tail_matches_dc_gain():
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
    gain = TransferFunction([2.0], [1.0])
    m = response_metrics(step_response(gain, 10.0, 1e-3), gain)
    assert (m.rise_time, m.overshoot, m.settling_time, m.steady_state) == (0.0, 0.0, 0.0, 2.0)
    neg_gain = TransferFunction([-2.0], [1.0])
    neg = response_metrics(step_response(neg_gain, 1.0, 1e-3), neg_gain)
    assert (neg.rise_time, neg.settling_time) == (0.0, 0.0)
    # a first sample exactly on the level counts as reached, even if the next
    # stays there; the last two samples set the final value 1.0
    on_level = SampledSignal(np.linspace(0.0, 1.0, 11), np.append(np.full(9, 0.9), [1.0, 1.0]))
    assert response_metrics(on_level).rise_time == 0.0


def test_later_samples_on_a_level_reach_it_at_their_own_time():
    # y hits 0.1 at t = 0.2 and 0.9 at t = 0.5, each held one more sample
    t = np.linspace(0.0, 1.0, 11)
    y = np.array([0.0, 0.05, 0.1, 0.1, 0.5, 0.9, 0.9, 1.0, 1.0, 1.0, 1.0])
    for sign in (1.0, -1.0):
        m = response_metrics(SampledSignal(t, sign * y))
        assert m.rise_time == pytest.approx(0.3, abs=1e-12)


def test_direct_term_metrics_match_closed_form():
    # (s + 2)/(s + 1): y = 2 - e^-t starts at 1, past the 10% level 0.2, so
    # rise = t(1.8) - 0 = ln 5 and the 2% band |e^-t| <= 0.04 is entered at ln 25
    dt = 1e-3
    tf = TransferFunction([2.0, 1.0], [1.0, 1.0])
    m = response_metrics(step_response(tf, 10.0, dt), tf)
    assert m.rise_time == pytest.approx(math.log(5.0), abs=1e-6)
    assert math.log(25.0) - dt <= m.settling_time <= math.log(25.0)
    assert m.overshoot == 0.0 and m.steady_state == 2.0


# ------------------------------------- doubling vs per-step and blocked marches

def _full_steps(ts, dt):
    """Steps of length dt on the grid: all but a shortened final one."""
    short = abs((ts[-1] - ts[-2]) - dt) > 1e-9 * dt
    return len(ts) - 2 if short else len(ts) - 1


def _finish(ss, ts, dt, xs):
    """Shared tail of the references: a shortened final step with its own
    map, the output and the blow-up check."""
    with np.errstate(over="ignore", invalid="ignore"):
        if _full_steps(ts, dt) < len(ts) - 1:
            phi, gamma = lti._step_map(ss, ts[-1] - ts[-2])
            xs[-1] = phi @ xs[-2] + gamma
        y = xs @ ss.C[0] + ss.D[0, 0]
    blown = ~(np.abs(y) <= 1e150)
    if np.any(blown):
        t_blow = float(ts[int(np.argmax(blown))])
        raise DomainError(f"step response exceeds 1e150 at t = {t_blow} (overflow bound)")
    return SampledSignal(ts, y)


def _per_step_step_response(tf, T, dt):
    """The per-step march x_{k+1} = Phi x_k + Gamma, one product per step."""
    ss = tf_to_ss(tf)
    ts = odesolve._time_grid(0.0, T, dt)
    if ss.n_states == 0:
        return SampledSignal(ts, np.full_like(ts, float(ss.D[0, 0])))
    xs = np.zeros((len(ts), ss.n_states))
    phi, gamma = lti._step_map(ss, dt)
    x = xs[0]
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, _full_steps(ts, dt) + 1):
            x = xs[k] = phi @ x + gamma
    return _finish(ss, ts, dt, xs)


def _blocked_step_response(tf, T, dt, block=64):
    """The blocked march that recursive doubling replaced: with Phi^j and
    S_j = sum_{i<j} Phi^i Gamma for j = 1..block, x_{k+j} = Phi^j x_k + S_j,
    so one product fills a block from its last state."""
    ss = tf_to_ss(tf)
    ts = odesolve._time_grid(0.0, T, dt)
    n = ss.n_states
    xs = np.zeros((len(ts), n))
    phi, gamma = lti._step_map(ss, dt)
    powers, sums = np.empty((block, n, n)), np.empty((block, n))
    powers[0], sums[0] = phi, gamma
    for j in range(1, block):
        powers[j] = phi @ powers[j - 1]
        sums[j] = phi @ sums[j - 1] + gamma
    powers = powers.reshape(block * n, n)
    n_full = _full_steps(ts, dt)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(0, n_full, block):
            r = min(block, n_full - k)
            xs[k + 1:k + 1 + r] = (powers[:r * n] @ xs[k]).reshape(r, n) + sums[:r]
    return _finish(ss, ts, dt, xs)


def _seeded_tf(rng, n, sign=-1.0, light=False):
    """Real poles and conjugate pairs with real parts of the given sign;
    light: every pair, and at least one pair when n >= 2, has a real part of
    0.001-0.05 (lightly damped)."""
    roots = []
    while len(roots) < n:
        if n - len(roots) >= 2 and (light or rng.random() < 0.5):
            sigma, omega = rng.uniform(0.2, 3.0), rng.uniform(0.2, 5.0)
            if light:
                sigma = rng.uniform(0.001, 0.05)
            roots += [complex(sign * sigma, omega), complex(sign * sigma, -omega)]
        else:
            roots.append(sign * rng.uniform(0.2, 4.0))
    den = np.real(np.poly(roots))[::-1]
    num = rng.uniform(-1.0, 1.0, int(rng.integers(1, n + 2)))     # proper, maybe a D term
    return TransferFunction(num, den)


def _assert_close_to_references(tf, T, dt, samples=None):
    got = step_response(tf, T, dt)
    for reference in (_per_step_step_response, _blocked_step_response):
        want = reference(tf, T, dt)
        assert np.array_equal(got.t, want.t)
        if samples is not None:
            assert len(got.t) == samples
        scale = np.max(np.abs(want.y))
        assert np.max(np.abs(got.y - want.y)) <= 1e-12 * scale


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("samples", [2, 3, 4, 5, 9, 17, 64, 65, 66, 1025, 1026, 10_001])
def test_blocked_march_matches_the_per_step_march(n, samples):
    # the doubling against both older marches at its boundaries: N samples
    # are N - 1 steps, so at N = 2^m + 1 the last product is full and at
    # N = 2^m + 2 it fills one row
    rng = np.random.default_rng(100 * n + samples)
    dt = 2.0 ** -9                         # a binary step: T = (samples - 1) dt is exact
    for _ in range(3):
        _assert_close_to_references(_seeded_tf(rng, n), (samples - 1) * dt, dt, samples)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_doubling_matches_both_marches_on_lightly_damped_systems(n):
    rng = np.random.default_rng(60 + n)
    for _ in range(3):
        _assert_close_to_references(_seeded_tf(rng, n, light=True), 100.0, 1e-2, 10_001)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_blocked_march_with_a_shortened_final_step(n):
    rng = np.random.default_rng(40 + n)
    for _ in range(5):
        T, dt = rng.uniform(1.0, 12.0), float(rng.choice([1e-3, 2e-3, 1e-2]))
        grid = odesolve._time_grid(0.0, T, dt)
        assert abs((grid[-1] - grid[-2]) - dt) > 1e-9 * dt
        _assert_close_to_references(_seeded_tf(rng, n), T, dt)
    # a horizon shorter than one step is the shortened step alone
    _assert_close_to_references(_seeded_tf(rng, n), 4e-4, 1e-3, 2)


def _blow_up_message(fn, tf, T, dt):
    with pytest.raises(DomainError, match="exceeds 1e150") as err:
        fn(tf, T, dt)
    return str(err.value)


def test_doubling_raises_at_the_same_time_on_unstable_systems():
    rng = np.random.default_rng(77)
    for n in (1, 2, 3, 4):
        for _ in range(4):
            tf = _seeded_tf(rng, n, sign=1.0)         # e^(0.2 t) passes 1e150 near t = 1730
            assert (_blow_up_message(step_response, tf, 2000.0, 0.1)
                    == _blow_up_message(_per_step_step_response, tf, 2000.0, 0.1))


def test_fast_unstable_poles_raise_at_the_per_step_time():
    # up to 20 e-folds a step: the squared powers of Phi overflow, and the
    # output passes 1e150 within the first few products; at least 400
    # e-folds by t = 1
    rng = np.random.default_rng(9)
    for _ in range(40):
        n = int(rng.integers(1, 4))
        roots = rng.uniform(400.0, 2e3, n) * rng.choice([1.0, -1.0], n)
        roots[0] = abs(roots[0])
        tf = TransferFunction(rng.uniform(0.5, 2.0, n), np.real(np.poly(roots))[::-1])
        dt = 10.0 ** rng.uniform(-4, -2)
        assert (_blow_up_message(step_response, tf, 1.0, dt)
                == _blow_up_message(_per_step_step_response, tf, 1.0, dt))


@pytest.mark.parametrize("gain", [2.0, -0.5, 0.0])
def test_static_gain_path_is_the_per_step_one(gain):
    for T, dt in ((1.0, 0.3), (10.0, 1e-3)):
        got = step_response(TransferFunction([gain], [1.0]), T, dt)
        want = _per_step_step_response(TransferFunction([gain], [1.0]), T, dt)
        assert np.array_equal(got.t, want.t) and np.array_equal(got.y, want.y)


def _long_double_step_response(tf, T, dt):
    """The per-step march in np.longdouble on a grid without a shortened
    final step: the output as long doubles."""
    ss = tf_to_ss(tf)
    ts = odesolve._time_grid(0.0, T, dt)
    assert _full_steps(ts, dt) == len(ts) - 1
    phi, gamma = (x.astype(np.longdouble) for x in lti._step_map(ss, dt))
    xs = np.zeros((len(ts), ss.n_states), dtype=np.longdouble)
    for k in range(1, len(ts)):
        xs[k] = phi @ xs[k - 1] + gamma
    return xs @ ss.C[0].astype(np.longdouble) + ss.D[0, 0]


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="long double is float64 here")
def test_doubling_squares_the_powers_in_long_double():
    # lightly damped, n = 5, 23,001 samples: float64 squaring of Phi^k puts
    # the record 2.4e-13 off the long-double march, long-double squaring 7e-15
    tf = _seeded_tf(np.random.default_rng(4), 5, light=True)
    dt = 2.0 ** -7
    got = step_response(tf, 23_000 * dt, dt).y[:, 0]
    want = _long_double_step_response(tf, 23_000 * dt, dt)
    assert len(got) == 23_001
    assert float(np.max(np.abs(got - want)) / np.max(np.abs(want))) <= 1e-13


def test_segway_overshoot_doubling_against_per_step():
    # control pd --model segway --wn 3 --zeta 0.9: peak - final cancels, so
    # the overshoot carries the march's roundoff (about 2e-14 for the float64
    # per-step march). linearize gives the plant -1 / (s^2 - 19.62) to
    # roundoff (3e-14 relative), so kp prints -28.62, and the pinned value is
    # a long-double per-step march on the exact plant
    from calckit import cli

    _, plant = cli._design_plant("segway", None)
    loop = unity_feedback(plant, pd_tf(pd_pole_placement(plant, 3.0, 0.9)))
    closed = TransferFunction(precompensator(loop) * loop.num, loop.den)
    metrics = [response_metrics(fn(closed, 10.0, 1e-3), closed)
               for fn in (step_response, _per_step_step_response)]
    assert metrics[0].overshoot == pytest.approx(0.002190031608440447, abs=1e-15)
    assert abs(metrics[0].overshoot - metrics[1].overshoot) <= 1e-12


# ---------------------------------------------------- crossing-time search

def _crossing_time_loop(t, y, level):
    """The per-sample search the vectorized one replaced."""
    if (y[0] >= level) if level > 0 else (y[0] <= level):
        return float(t[0])
    for k in range(1, len(y)):
        y0, y1 = y[k - 1], y[k]
        if (y0 - level) * (y1 - level) <= 0 and y0 != y1:
            return float(t[k - 1] + (level - y0) / (y1 - y0) * (t[k] - t[k - 1]))
    raise DomainError(f"response never reaches level {level}")


def _outcome(fn, t, y, level):
    try:
        return fn(t, y, level)
    except DomainError as exc:
        return str(exc)


def test_crossing_time_equals_the_sample_loop_bit_for_bit():
    rng = np.random.default_rng(31)
    records = []
    for n in (1, 2, 3, 4):
        for _ in range(5):
            sig = step_response(_seeded_tf(rng, n), rng.uniform(2.0, 12.0), 1e-2)
            records += [(sig.t, sig.y[:, 0], frac * sig.y[-1, 0])
                        for frac in (0.1, 0.5, 0.9, 1.0, 1.5)]
    t = np.linspace(0.0, 1.0, 11)
    starts_at_level = np.array([0.5, 0.5, 0.7, 0.2, 0.9, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0])
    records += [(t, sign * starts_at_level, sign * level)
                for sign in (1.0, -1.0) for level in (0.5, 0.9, 1.0)]
    never = np.linspace(0.0, 0.8, 11)
    records += [(t, never, 0.9), (t, -never, -0.9)]
    outcomes = [(_outcome(lti._crossing_time, *rec), _outcome(_crossing_time_loop, *rec))
                for rec in records]
    assert all(got == want for got, want in outcomes)
    assert sum(isinstance(want, str) for _, want in outcomes) >= 2
    assert outcomes[-1][0] == "response never reaches level -0.9"
