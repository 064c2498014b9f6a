import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from calckit import funcexpr, quad, signals
from calckit.diffnum import DiffConfig, derivative
from calckit.errors import ConvergenceError, DimensionError, DomainError
from calckit.quad import (Interval, Lamina, antiderivative_numeric,
                          cumulative_trapezoid, darboux_bounds, improper_type1,
                          lamina_properties, path_length, riemann_sum, simpson,
                          trapezoid, trapezoid_sampled, volume_of_revolution)
from calckit.signals import MAX_GRID_POINTS, SampledSignal

UNIT = Interval(0.0, 1.0)


def test_interval_invariants():
    with pytest.raises(DomainError):
        Interval(1.0, 1.0)
    with pytest.raises(DomainError):
        Interval(0.0, math.inf)
    with pytest.raises(DomainError, match="width"):
        Interval(-1e308, 1e308)         # finite endpoints, b - a overflows


def test_riemann_left_identity_function():
    assert riemann_sum(lambda x: x, UNIT, 4, "left") == 0.375


def test_riemann_constant_any_scheme():
    iv = Interval(-1.0, 3.0)
    for scheme in ("left", "right", "midpoint"):
        for n in (1, 7, 100):
            assert riemann_sum(lambda x: 2.5, iv, n, scheme) == pytest.approx(10.0, abs=1e-12)


def test_riemann_midpoint_million_panels():
    # analytic antiderivative: integral of x^2 over [0,1] is 1/3
    assert riemann_sum(lambda x: x * x, UNIT, 10 ** 6, "midpoint") == pytest.approx(
        1.0 / 3.0, abs=1e-9)


def test_riemann_rejects_nonfinite_evaluations():
    with pytest.raises(DomainError):
        riemann_sum(lambda x: 1.0 / x, UNIT, 4, "left")


def test_riemann_rejects_an_unknown_scheme():
    with pytest.raises(DomainError, match="unknown scheme 'trapezoid'"):
        riemann_sum(lambda x: x, UNIT, 4, "trapezoid")


def ladder_riemann_nodes(iv, n, scheme):
    """Reference: the per-scheme node ladder that riemann_sum replaced."""
    h = iv.width / n
    if scheme == "left":
        return iv.a + h * np.arange(n)
    if scheme == "right":
        return iv.a + h * np.arange(1, n + 1)
    return iv.a + h * (np.arange(n) + 0.5)


@pytest.mark.parametrize("scheme", ["left", "right", "midpoint"])
def test_riemann_nodes_equal_the_per_scheme_ladder_bit_for_bit(scheme):
    rng = np.random.default_rng(29)
    for _ in range(300):
        a = float(rng.uniform(-1e3, 1e3) * 10.0 ** rng.integers(-6, 4))
        iv = Interval(a, a + float(10.0 ** rng.uniform(-8, 6)))
        n = int(rng.integers(1, 3000))
        seen = []

        def f(x):
            seen.append(x.copy())
            return np.sin(x)

        value = riemann_sum(f, iv, n, scheme)
        old = ladder_riemann_nodes(iv, n, scheme)
        assert seen[0].tobytes() == old.tobytes()
        assert value == float(iv.width / n * np.sin(old).sum())


SQUARE = Lamina(lambda x: 1.0 + 0.0 * x, lambda x: 0.0 * x, UNIT, 1.0, 1.0)


@pytest.mark.parametrize("rule", [
    lambda f: riemann_sum(f, UNIT, MAX_GRID_POINTS + 1, "midpoint"),
    lambda f: trapezoid(f, UNIT, MAX_GRID_POINTS),
    lambda f: simpson(f, UNIT, MAX_GRID_POINTS),
    lambda f: darboux_bounds(f, UNIT, MAX_GRID_POINTS // 2 + 1, 2),
    lambda f: lamina_properties(SQUARE, MAX_GRID_POINTS),
    lambda f: volume_of_revolution(f, UNIT, MAX_GRID_POINTS),
], ids=["riemann", "trapezoid", "simpson", "darboux", "lamina", "volume"])
def test_uniform_rules_refuse_grids_over_the_point_budget(rule):
    def never(x):
        raise AssertionError("integrand sampled past the budget")

    with pytest.raises(DomainError, match="over the budget"):
        rule(never)


def test_darboux_monotone_endpoint_extrema():
    lower, upper = darboux_bounds(lambda x: x, UNIT, 4, 2)
    assert lower == 0.375 and upper == 0.625


def test_darboux_constant_collapses():
    lower, upper = darboux_bounds(lambda x: 3.0, Interval(0.0, 2.0), 5, 4)
    assert lower == pytest.approx(6.0, abs=1e-12)
    assert upper == pytest.approx(6.0, abs=1e-12)


def test_darboux_brackets_true_value():
    lower, upper = darboux_bounds(lambda x: x * x, UNIT, 1000, 8)
    assert lower <= 1.0 / 3.0 <= upper
    assert lower <= upper


def test_darboux_sandwiches_simpson_for_monotone_f():
    for n in (2, 10, 50):
        lower, upper = darboux_bounds(math.exp, UNIT, n, 6)
        mid = simpson(math.exp, UNIT, n + n % 2)
        assert lower <= mid <= upper


def test_trapezoid_exact_for_affine():
    assert trapezoid(lambda x: 2.0 * x + 1.0, UNIT, 4) == 2.0


def test_simpson_exact_for_cubic():
    assert simpson(lambda x: x ** 3, UNIT, 2) == 0.25


def test_simpson_rejects_odd_panels():
    with pytest.raises(DomainError):
        simpson(lambda x: x, UNIT, 3)


def test_trapezoid_sine_accuracy():
    # analytic integral of sin over [0, pi] is 2; O(h^2) error bound
    assert trapezoid(math.sin, Interval(0.0, math.pi), 1000) == pytest.approx(2.0, abs=2e-6)


def test_order_of_accuracy_ratios():
    iv = Interval(0.0, math.pi)
    trap_errs = [abs(trapezoid(math.sin, iv, n) - 2.0) for n in (8, 16, 32, 64, 128)]
    simp_errs = [abs(simpson(math.sin, iv, n) - 2.0) for n in (8, 16, 32, 64, 128)]
    for a, b in zip(trap_errs, trap_errs[1:]):
        assert 3.5 <= a / b <= 4.5
    for a, b in zip(simp_errs, simp_errs[1:]):
        assert 14.0 <= a / b <= 18.0


def test_linearity_on_fixed_grid():
    rng = np.random.default_rng(5)
    iv = Interval(0.0, 2.0)
    f, g = math.sin, math.exp
    for _ in range(10):
        alpha, beta = rng.uniform(-3, 3, size=2)
        combined = simpson(lambda x: alpha * f(x) + beta * g(x), iv, 64)
        separate = alpha * simpson(f, iv, 64) + beta * simpson(g, iv, 64)
        assert abs(combined - separate) <= 1e-10


def test_trapezoid_sampled_constant():
    sig = SampledSignal([0.0, 1.0, 2.0], [1.0, 1.0, 1.0])
    assert trapezoid_sampled(sig) == 2.0


def test_trapezoid_sampled_nonuniform_hand_sum():
    # 0.5*(0+1)*1 + 0.5*(1+3)*2 = 4.5
    sig = SampledSignal([0.0, 1.0, 3.0], [0.0, 1.0, 3.0])
    assert trapezoid_sampled(sig) == 4.5


def test_trapezoid_sampled_single_interval():
    sig = SampledSignal([0.0, 2.0], [3.0, 5.0])
    assert trapezoid_sampled(sig) == 8.0


def test_trapezoid_sampled_bad_channel():
    sig = SampledSignal([0.0, 1.0], [1.0, 1.0])
    with pytest.raises(DimensionError):
        trapezoid_sampled(sig, channel=1)


def test_cumulative_constant():
    sig = SampledSignal([0.0, 1.0, 2.0], [1.0, 1.0, 1.0])
    out = cumulative_trapezoid(sig)
    assert np.array_equal(out.y[:, 0], [0.0, 1.0, 2.0])
    assert np.array_equal(out.t, sig.t)


def test_cumulative_last_sample_matches_total():
    rng = np.random.default_rng(11)
    t = np.sort(rng.uniform(0, 5, size=40))
    t[0], t[-1] = 0.0, 5.0
    sig = SampledSignal(t, rng.standard_normal(40))
    assert cumulative_trapezoid(sig).y[-1, 0] == pytest.approx(
        trapezoid_sampled(sig), abs=1e-12)


def test_cumulative_exact_on_affine():
    t = np.linspace(0.0, 3.0, 31)
    out = cumulative_trapezoid(SampledSignal(t, t.copy()))
    assert np.max(np.abs(out.y[:, 0] - t ** 2 / 2.0)) < 1e-13


def test_improper_unit_exponential():
    assert improper_type1(lambda x: math.exp(-x), 0.0, 1e-8, 12) == pytest.approx(
        1.0, abs=1e-7)


def test_improper_gaussian_split_at_zero():
    # analytic Gaussian integral over the whole line is sqrt(pi)
    total = 2.0 * improper_type1(lambda x: math.exp(-x * x), 0.0, 1e-8, 10)
    assert total == pytest.approx(math.sqrt(math.pi), abs=1e-6)


def test_improper_divergent_harmonic_tail():
    with pytest.raises(ConvergenceError):
        improper_type1(lambda x: 1.0 / x, 1.0, 1e-8, 10)


def test_improper_default_budget_on_divergent_tail():
    points = 0

    def harmonic(x):
        nonlocal points
        points += np.size(x)
        return 1.0 / x

    with pytest.raises(ConvergenceError):
        improper_type1(harmonic, 1.0)
    # 21 segments (max_doublings = 20) of _TAIL_PANELS Simpson panels each
    assert points <= 21 * (quad._TAIL_PANELS + 1)


@pytest.mark.parametrize("tol, max_doublings", [(0.0, 10), (1e-8, 0)])
def test_improper_rejects_empty_budget(tol, max_doublings):
    with pytest.raises(DomainError):
        improper_type1(math.exp, 0.0, tol, max_doublings)


def test_darboux_blocks_match_panel_loop_bit_for_bit(monkeypatch):
    f = lambda x: np.sin(3.0 * x) + x * x     # noqa: E731
    iv, n, m = Interval(-0.3, 2.2), 997, 7
    h = iv.width / n
    offsets = np.linspace(0.0, h, m)
    lower = upper = 0.0
    for k in range(n):
        ys = f(iv.a + k * h + offsets)
        lower += ys.min() * h
        upper += ys.max() * h
    for block in (1, 50, 1 << 16):
        monkeypatch.setattr(quad, "_BLOCK_POINTS", block)
        assert darboux_bounds(f, iv, n, m) == (lower, upper)


@pytest.mark.parametrize("rule", [
    quad.simpson, quad.trapezoid, lambda f, iv, n: quad.riemann_sum(f, iv, n, "midpoint"),
], ids=["simpson", "trapezoid", "midpoint"])
def test_fixed_grid_rules_sample_in_blocks_of_bounded_memory(rule):
    # the integrand sees one block of nodes at a time, and evaluate holds at
    # most 2 values of a chain besides x (its Sethi-Ullman number), so one
    # bound of a few blocks plus a few arrays of the grid (nodes, samples,
    # node arithmetic) holds at any depth; holding each left operand while
    # the right one evaluates took (depth + 3) blocks, and the whole grid at
    # once (depth + 3) x 1.1 MB here
    n = 140_000

    def power_chain(x, depth):
        s = np.sin(x)
        value = s
        for _ in range(depth - 1):
            value = s ** value
        return value

    for depth in (20, 400):
        for text, iv, want, rel in [
            ("x+(" * depth + "x" + ")" * depth, Interval(0.0, 1.0), 0.5 * (depth + 1), 1e-12),
            ("^".join(["sin(x)"] * depth), Interval(0.5, 1.0),
             rule(lambda x: power_chain(x, depth), Interval(0.5, 1.0), 2000), 1e-6),
        ]:
            ast = funcexpr.parse_text(text)
            tracemalloc.start()
            try:
                value = rule(lambda x: funcexpr.evaluate(ast, {"x": x}), iv, n)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert value == pytest.approx(want, rel=rel)
            assert peak <= 6 * quad._BLOCK_POINTS * 8 + 4 * (n + 1) * 8


def test_path_length_straight_line():
    assert path_length(lambda t: t, lambda t: 2.0 * t, 0.0, 1.0, 64) == pytest.approx(
        math.sqrt(5.0), abs=1e-9)


def test_path_length_unit_circle():
    got = path_length(math.cos, math.sin, 0.0, 2.0 * math.pi, 256)
    assert got == pytest.approx(2.0 * math.pi, abs=1e-6)


def test_path_length_parabola():
    # analytic: integral of sqrt(1 + 4 t^2) over [0,1]
    # = sqrt(5)/2 + asinh(2)/4 = 1.4789428575...
    exact = math.sqrt(5.0) / 2.0 + math.asinh(2.0) / 4.0
    assert exact == pytest.approx(1.4789428575, abs=1e-9)
    got = path_length(lambda t: t, lambda t: t * t, 0.0, 1.0, 256)
    assert got == pytest.approx(1.4789428575, abs=1e-6)


def old_path_length(fx, fy, t0, tf, n):
    """Reference: the speed formula path_length carried before it used diffnum."""
    n += n % 2
    h = (tf - t0) / (100.0 * n)

    def speed(t):
        dx = (fx(t + h) - fx(t - h)) / (2.0 * h)
        dy = (fy(t + h) - fy(t - h)) / (2.0 * h)
        return math.hypot(dx, dy)

    return simpson(speed, Interval(t0, tf), n)


CURVES = [
    (math.cos, math.sin),
    (lambda t: t, lambda t: t * t),
    (lambda t: 3.0 * math.cos(2.0 * t) + t, lambda t: math.exp(-0.1 * t) * math.sin(t)),
    (np.sin, lambda t: np.cos(t) ** 3),              # numpy functions, also on arrays
]


@settings(max_examples=60, deadline=None)
@given(st.floats(-50.0, 50.0), st.floats(1e-3, 20.0), st.integers(2, 64),
       st.sampled_from(range(len(CURVES))))
def test_path_length_equals_old_speed_formula_bit_for_bit(t0, width, n, k):
    fx, fy = CURVES[k]
    tf = t0 + width
    assert (np.float64(path_length(fx, fy, t0, tf, n)).tobytes()
            == np.float64(old_path_length(fx, fy, t0, tf, n)).tobytes())


def test_lamina_unit_square():
    lam = Lamina(lambda x: 1.0, lambda x: 0.0, UNIT, rho=1.0, h=1.0)
    props = lamina_properties(lam, 100)
    assert props.mass == pytest.approx(1.0, abs=1e-12)
    assert props.centroid_x == pytest.approx(0.5, abs=1e-12)
    assert props.centroid_y == pytest.approx(0.5, abs=1e-12)
    # analytic: integral of x^2 + 1/3 over [0,1] = 2/3
    assert props.Iz == pytest.approx(2.0 / 3.0, abs=1e-8)


def test_lamina_symmetric_centroid():
    lam = Lamina(lambda x: 1.0 - x * x, lambda x: 0.0, Interval(-1.0, 1.0), 2.0, 0.1)
    props = lamina_properties(lam, 200)
    assert abs(props.centroid_x) <= 1e-10


def test_lamina_density_scaling():
    f, g = (lambda x: 1.0 + 0.2 * math.sin(x)), (lambda x: 0.1 * x)
    iv = Interval(0.0, 2.0)
    base = lamina_properties(Lamina(f, g, iv, 1.0, 0.5), 128)
    doubled = lamina_properties(Lamina(f, g, iv, 2.0, 0.5), 128)
    assert doubled.mass == pytest.approx(2.0 * base.mass, rel=1e-14)
    assert doubled.Iz == pytest.approx(2.0 * base.Iz, rel=1e-14)
    assert doubled.centroid_x == pytest.approx(base.centroid_x, rel=1e-14)
    assert doubled.centroid_y == pytest.approx(base.centroid_y, rel=1e-14)


def test_lamina_rejects_crossing_boundaries():
    with pytest.raises(DomainError):
        Lamina(lambda x: x, lambda x: 1.0 - x, UNIT, 1.0, 1.0)


def test_volume_cylinder():
    assert volume_of_revolution(lambda x: 1.0, Interval(0.0, 2.0), 16) == pytest.approx(
        2.0 * math.pi, abs=1e-12)


def test_volume_cone():
    assert volume_of_revolution(lambda x: x, UNIT, 16) == pytest.approx(
        math.pi / 3.0, abs=1e-12)


def test_volume_sphere():
    got = volume_of_revolution(lambda x: math.sqrt(max(0.0, 1.0 - x * x)),
                               Interval(-1.0, 1.0), 2000)
    assert got == pytest.approx(4.0 * math.pi / 3.0, abs=1e-6)


def test_volume_rejects_negative_profile():
    with pytest.raises(DomainError):
        volume_of_revolution(lambda x: -1.0, UNIT, 4)


def _weighted_simpson(ys, iv: Interval, n: int) -> float:
    # reference: the rule as a dot product with the weights
    # h/3 [1, 4, 2, ..., 2, 4, 1]
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-2:2] = 2.0
    return float(w * (iv.width / n) / 3.0 @ ys)


def test_shared_simpson_sum_matches_the_weights_formula():
    rng = np.random.default_rng(8)
    for _ in range(100):
        a0, a1, k, b0, b1 = rng.uniform(0.1, 2.0, 5)
        f = lambda x: a0 + 4.0 + a1 * np.sin(k * x)
        g = lambda x: b0 * np.cos(b1 * x)
        lo = rng.uniform(-3.0, 1.0)
        iv, n = Interval(lo, lo + rng.uniform(0.5, 4.0)), 2 * int(rng.integers(1, 200))
        rho, h = rng.uniform(0.5, 3.0, 2)
        got = lamina_properties(Lamina(f, g, iv, rho, h), n)
        xs = np.linspace(iv.a, iv.b, n + 1)
        fs, gs = f(xs), g(xs)
        gap = fs - gs
        mass = rho * h * _weighted_simpson(gap, iv, n)
        want = [mass, rho * h * _weighted_simpson(xs * gap, iv, n) / mass,
                rho * h * _weighted_simpson(0.5 * (fs ** 2 - gs ** 2), iv, n) / mass,
                rho * h * _weighted_simpson(xs ** 2 * gap + (fs ** 3 - gs ** 3) / 3.0, iv, n)]
        scale = [mass, max(abs(iv.a), abs(iv.b)), np.max(np.abs(fs) + np.abs(gs)), want[3]]
        for value, ref, size in zip(
                (got.mass, got.centroid_x, got.centroid_y, got.Iz), want, scale):
            assert abs(value - ref) <= 1e-14 * size
        volume = volume_of_revolution(f, iv, n)
        assert abs(volume - math.pi * _weighted_simpson(fs ** 2, iv, n)) <= 4e-15 * volume
        assert simpson(f, iv, n) == pytest.approx(_weighted_simpson(fs, iv, n), rel=4e-15)


def test_antiderivative_of_cos_is_sin():
    F = antiderivative_numeric(math.cos, 0.0)
    assert F(math.pi / 2.0) == pytest.approx(1.0, abs=1e-9)
    assert F(-math.pi / 2.0) == pytest.approx(-1.0, abs=1e-9)


def test_antiderivative_at_base_point_is_zero():
    for f in (math.sin, math.exp, lambda x: x ** 5):
        assert antiderivative_numeric(f, 0.7)(0.7) == 0.0


def test_antiderivative_of_exp():
    F = antiderivative_numeric(math.exp, 0.0)
    assert F(1.0) == pytest.approx(math.e - 1.0, abs=1e-9)


def test_antiderivative_refuses_work_over_the_budget(monkeypatch):
    # sin(1e12 x) sends the refinement toward 2^40 panels; a converging call
    # gives the same bits with a budget of exactly the evaluations it makes
    calls = []

    def counted(f):
        return lambda x: calls.append(x) or f(x)

    monkeypatch.setattr(signals, "MAX_GRID_POINTS", 1000)
    with pytest.raises(ConvergenceError, match="needs more than 1,000 integrand evaluations"):
        antiderivative_numeric(counted(lambda x: math.sin(1e12 * x)), 0.0)(1.0)
    assert 990 < len(calls) <= 1000
    monkeypatch.undo()
    calls.clear()
    want = antiderivative_numeric(counted(math.cos), 0.0)(1.0)
    needed = len(calls)
    monkeypatch.setattr(signals, "MAX_GRID_POINTS", needed)
    assert antiderivative_numeric(math.cos, 0.0)(1.0) == want == pytest.approx(math.sin(1.0))
    monkeypatch.setattr(signals, "MAX_GRID_POINTS", needed - 1)
    with pytest.raises(ConvergenceError):
        antiderivative_numeric(math.cos, 0.0)(1.0)


def test_ftc_derivative_of_antiderivative_recovers_f():
    rng = np.random.default_rng(17)
    cfg = DiffConfig(h=1e-4, relative=False)
    cases = [(math.sin, 0.0), (math.exp, 0.0), (lambda x: x ** 3, 0.0)]
    for f, a in cases:
        F = antiderivative_numeric(f, a)
        for x in rng.uniform(a - 1.5, a + 1.5, size=100):
            assert derivative(F, float(x), cfg) == pytest.approx(f(float(x)), abs=1e-6)
