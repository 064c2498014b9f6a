import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from calckit.diffnum import (DiffConfig, derivative, gradient, hessian,
                             jacobian, one_sided_limit, partial_derivative)
from calckit.errors import ConvergenceError, DimensionError, DomainError


def test_sign_function_one_sided_limits():
    sign = lambda x: abs(x) / x
    assert one_sided_limit(sign, 0.0, "right") == 1.0
    assert one_sided_limit(sign, 0.0, "left") == -1.0


def test_sinc_limit_both_sides():
    f = lambda x: math.sin(x) / x
    assert one_sided_limit(f, 0.0, "right", tol=1e-9) == pytest.approx(1.0, abs=1e-8)
    assert one_sided_limit(f, 0.0, "left", tol=1e-9) == pytest.approx(1.0, abs=1e-8)


def test_reciprocal_diverges_from_the_right():
    with pytest.raises(ConvergenceError):
        one_sided_limit(lambda x: 1.0 / x, 0.0, "right")


def test_oscillation_fails_to_settle():
    with pytest.raises(ConvergenceError):
        one_sided_limit(lambda x: math.sin(1.0 / x), 0.0, "right", tol=1e-12)


def test_one_sided_never_evaluates_at_the_point():
    calls = []

    def probe(x):
        calls.append(x)
        return 1.0

    one_sided_limit(probe, 2.0, "right")
    assert all(x > 2.0 for x in calls)


# Derivative oracles for the elementary-function table: atan' = 1/(1+x^2),
# tan' = 1 + tan^2, ln' = 1/x, exp' = exp, sin' = cos.

def test_atan_derivative_at_one():
    assert derivative(math.atan, 1.0) == pytest.approx(0.5, abs=1e-8)


def test_tan_derivative_at_half():
    expected = 1.0 + math.tan(0.5) ** 2
    assert derivative(math.tan, 0.5) == pytest.approx(expected, abs=1e-7)


def test_constant_derivative_exactly_zero():
    assert derivative(lambda x: 4.25, 0.3) == 0.0


@pytest.mark.parametrize("f,fprime,lo,hi", [
    (math.atan, lambda x: 1.0 / (1.0 + x * x), -3.0, 3.0),
    (math.tan, lambda x: 1.0 + math.tan(x) ** 2, -1.2, 1.2),
    (math.log, lambda x: 1.0 / x, 0.2, 5.0),
    (math.exp, math.exp, -2.0, 2.0),
    (math.sin, math.cos, -3.0, 3.0),
])
def test_elementary_derivative_table(f, fprime, lo, hi):
    rng = np.random.default_rng(hash(f.__name__) % 2 ** 31)
    for x in rng.uniform(lo, hi, size=50):
        assert derivative(f, float(x)) == pytest.approx(fprime(float(x)), abs=1e-7)


def test_second_order_convergence_of_central_difference():
    cfg = lambda h: DiffConfig(h=h, relative=False)
    errs = [abs(derivative(math.sin, 1.0, cfg(h)) - math.cos(1.0))
            for h in (1e-3, 1e-4, 1e-5)]
    assert 80.0 <= errs[0] / errs[1] <= 120.0
    assert 80.0 <= errs[1] / errs[2] <= 120.0


def test_derivative_rejects_nonfinite_neighborhood():
    f = lambda x: math.sqrt(x) if x >= 0 else float("nan")
    with pytest.raises(DomainError):
        derivative(f, 0.0)


def test_partial_hand_case():
    F = lambda v: v[0] ** 2 * v[1]
    assert partial_derivative(F, [2.0, 3.0], 0) == pytest.approx(12.0, abs=1e-6)


def test_partial_of_independent_coordinate():
    F = lambda v: v[0] ** 2
    assert abs(partial_derivative(F, [1.0, 5.0], 1)) <= 1e-9


def test_partial_of_affine_is_one():
    F = lambda v: v[0] + v[1]
    for i in (0, 1):
        assert partial_derivative(F, [0.3, -2.0], i) == pytest.approx(1.0, abs=1e-10)


def test_partial_index_out_of_range():
    with pytest.raises(DimensionError):
        partial_derivative(lambda v: v[0], [1.0], 1)


def test_gradient_canonical_quadratic():
    F = lambda v: v[0] ** 2 + v[1] ** 2
    g = gradient(F, [1.0, 2.0])
    assert g == pytest.approx([2.0, 4.0], abs=1e-8)


def test_gradient_entries_equal_partials_exactly():
    F = lambda v: math.sin(v[0]) * v[1] + v[2] ** 3
    x0 = np.array([0.4, -1.1, 2.2])
    g = gradient(F, x0)
    for i in range(3):
        assert g[i] == partial_derivative(F, x0, i)


def test_jacobian_hand_case():
    G = lambda v: np.array([v[0] * v[1], v[0] + v[1]])
    J = jacobian(G, [2.0, 3.0])
    assert J == pytest.approx(np.array([[3.0, 2.0], [1.0, 1.0]]), abs=1e-7)


def test_jacobian_of_random_affine_maps():
    rng = np.random.default_rng(23)
    for _ in range(10):
        n, m = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        a = rng.standard_normal((m, n))
        b = rng.standard_normal(m)
        x0 = rng.standard_normal(n)
        J = jacobian(lambda v: a @ v + b, x0)
        assert np.max(np.abs(J - a)) <= 1e-9


def test_hessian_of_quadratic_form():
    q = np.array([[2.0, 1.0], [1.0, 4.0]])
    F = lambda v: 0.5 * v @ q @ v
    rng = np.random.default_rng(29)
    for _ in range(5):
        x0 = rng.uniform(-2, 2, size=2)
        assert np.max(np.abs(hessian(F, x0) - q)) <= 1e-4


def test_hessian_exactly_symmetric():
    F = lambda v: math.exp(v[0]) * math.sin(v[1]) + v[0] * v[1] ** 2
    H = hessian(F, [0.3, 0.7])
    assert np.array_equal(H, H.T)


def test_config_validation():
    with pytest.raises(DomainError):
        DiffConfig(h=0.0)
    with pytest.raises(DomainError):
        one_sided_limit(math.sin, 0.0, "right", tol=-1.0)
    with pytest.raises(DomainError):
        one_sided_limit(math.sin, 0.0, "up")


# ------------------------------------------- one stencil vs the old loops

def old_partial(F, x0, i, cfg):
    """Reference: the partial_derivative body that gradient used to loop over."""
    h = cfg.step(x0[i])
    step = np.zeros_like(x0)
    step[i] = h
    lo, hi = F(x0 - step), F(x0 + step)
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise DomainError(f"function not finite near coordinate {i}")
    return (hi - lo) / (2.0 * h)


def old_jacobian(G, x0, cfg):
    """Reference: the column loop jacobian used to carry."""
    n = len(x0)
    columns = []
    for i in range(n):
        h = cfg.step(x0[i])
        step = np.zeros(n)
        step[i] = h
        lo = np.atleast_1d(np.asarray(G(x0 - step), dtype=float))
        hi = np.atleast_1d(np.asarray(G(x0 + step), dtype=float))
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise DomainError(f"map not finite near coordinate {i}")
        columns.append((hi - lo) / (2.0 * h))
    return np.column_stack(columns)


def old_hessian(F, x0, cfg, hessian_h=1e-4):
    """Reference: the Hessian loop followed by the (H + H^T)/2 step."""
    n = len(x0)
    H = np.zeros((n, n))
    f0 = float(F(x0))
    steps = [hessian_h * max(1.0, abs(x0[i])) if cfg.relative else hessian_h
             for i in range(n)]
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = steps[i]
        fp, fm = float(F(x0 + ei)), float(F(x0 - ei))
        H[i, i] = (fp - 2.0 * f0 + fm) / steps[i] ** 2
        for j in range(i + 1, n):
            ej = np.zeros(n)
            ej[j] = steps[j]
            fpp, fpm = float(F(x0 + ei + ej)), float(F(x0 + ei - ej))
            fmp, fmm = float(F(x0 - ei + ej)), float(F(x0 - ei - ej))
            H[i, j] = H[j, i] = (fpp - fpm - fmp + fmm) / (4.0 * steps[i] * steps[j])
    return 0.5 * (H + H.T)


SCALAR_MAPS = [
    lambda v: float(np.sin(v) @ np.cos(v[::-1]) + 1e-3 * (v @ v)),     # Python float
    lambda v: np.tanh(v).prod() + v[0] * v[-1] ** 2,                   # numpy float64
    lambda v: math.atan(v[0]) - 0.5 * math.cos(v[-1]),                 # math on entries
]
VECTOR_MAPS = SCALAR_MAPS + [
    lambda v: np.array([np.sin(v).sum(), v[0] * v[-1], np.exp(-1e-6 * (v @ v))]),
    lambda v: [math.atan(v[-1]), float(v.sum())],                      # a list
    lambda v: np.cumsum(v ** 3),                                       # m = n
]

# entries of x0: +-0.0 or |x| between 1e-3 and 1e3, either sign
coords = (st.sampled_from([0.0, -0.0])
          | st.builds(lambda m, s: s * m, st.floats(1e-3, 1e3), st.sampled_from([1.0, -1.0])))
points = st.lists(coords, min_size=1, max_size=6).map(np.array)
configs = st.builds(DiffConfig, h=st.sampled_from([1e-5, 1e-4, 1e-7]), relative=st.booleans())


@settings(max_examples=150, deadline=None)
@given(points, configs, st.sampled_from(range(len(SCALAR_MAPS))))
def test_gradient_equals_old_partial_loop_bit_for_bit(x0, cfg, k):
    F = SCALAR_MAPS[k]
    want = np.array([old_partial(F, x0, i, cfg) for i in range(len(x0))])
    got = gradient(F, x0, cfg)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    for i in range(len(x0)):
        assert np.float64(partial_derivative(F, x0, i, cfg)).tobytes() == want[i].tobytes()


@settings(max_examples=150, deadline=None)
@given(points, configs, st.sampled_from(range(len(VECTOR_MAPS))))
def test_jacobian_equals_old_column_loop_bit_for_bit(x0, cfg, k):
    G = VECTOR_MAPS[k]
    want = old_jacobian(G, x0, cfg)
    got = jacobian(G, x0, cfg)
    assert got.shape == want.shape and got.flags.c_contiguous
    assert got.tobytes() == want.tobytes()


def old_derivative(f, x0, cfg):
    """Reference: the scalar stencil derivative kept before it ran on _central."""
    h = cfg.step(x0)
    lo, hi = f(x0 - h), f(x0 + h)
    return (hi - lo) / (2.0 * h)


SCALAR_FUNCTIONS = [math.sin, math.exp, lambda x: x ** 3 - 2.0 * x,
                    lambda x: math.log1p(x * x), math.atan]


@settings(max_examples=150, deadline=None)
@given(st.floats(-50.0, 50.0), configs, st.sampled_from(range(len(SCALAR_FUNCTIONS))))
def test_derivative_equals_old_scalar_formula_bit_for_bit(x0, cfg, k):
    f = SCALAR_FUNCTIONS[k]
    seen = []
    got = derivative(lambda x: seen.append(type(x)) or f(x), x0, cfg)
    want = old_derivative(f, x0, cfg)
    assert type(got) is float and seen == [float, float]
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


@settings(max_examples=100, deadline=None)
@given(points, configs, st.sampled_from(range(len(SCALAR_MAPS))))
def test_hessian_equals_old_symmetrized_loop_bit_for_bit(x0, cfg, k):
    F = SCALAR_MAPS[k]
    assert hessian(F, x0, cfg).tobytes() == old_hessian(F, x0, cfg).tobytes()


@pytest.mark.parametrize("diff", [gradient, jacobian, hessian,
                                  lambda F, x0: partial_derivative(F, x0, 1)])
def test_nonfinite_values_raise_domain_error(diff):
    F = lambda v: math.inf if v[1] > 0.5 else float(v @ v)
    with pytest.raises(DomainError, match="not finite"):
        diff(F, [0.2, 0.5])


def test_diff_config_has_one_step():
    assert [f.name for f in dataclasses.fields(DiffConfig)] == ["h", "relative"]
