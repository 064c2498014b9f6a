"""Initial-value-problem integrators (Euler, classic RK4), the matrix
exponential by scaling and squaring, and eigenvalues of small matrices via
the Faddeev-LeVerrier characteristic polynomial.

Euler and RK4 share one march on one time grid and supply only a step;
the grid ends exactly at tf, shortening the final step if needed.

The eigenvalue route is deliberately polynomial-based and size-capped at
n <= 12, where the conditioning of the characteristic polynomial is still
honest at desk scale; QR iteration is out of scope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import poly
from .errors import DimensionError, DomainError
from .linalg import as_mat, norm_inf
from .signals import SampledSignal, check_grid_size

_EIG_MAX_N = 12


@dataclass(frozen=True)
class IvpProblem:
    rhs: Callable[[float, np.ndarray], np.ndarray]
    x0: np.ndarray
    t0: float
    tf: float

    def __post_init__(self):
        object.__setattr__(self, "x0", np.atleast_1d(np.asarray(self.x0, dtype=float)))
        if not self.tf > self.t0:
            raise DomainError(f"need tf > t0, got [{self.t0}, {self.tf}]")


def _eval_rhs(prob: IvpProblem, t: float, x: np.ndarray) -> np.ndarray:
    dx = np.atleast_1d(np.asarray(prob.rhs(t, x), dtype=float))
    if dx.shape != x.shape:
        raise DimensionError(
            f"rhs returned shape {dx.shape}, state has shape {x.shape}"
        )
    if not np.isfinite(dx).all():
        raise DomainError(f"rhs is not finite at t = {t} (state blow-up)")
    return dx


def _time_grid(t0: float, tf: float, dt: float) -> np.ndarray:
    if dt <= 0:
        raise DomainError("step size must be positive")
    check_grid_size((tf - t0) / dt + 1.0, "time grid")
    n_full = int(math.floor((tf - t0) / dt + 1e-12))
    ts = t0 + dt * np.arange(n_full + 1)
    # the last grid point snaps onto tf within 1e-12; t0 itself never does
    if n_full == 0 or ts[-1] < tf - 1e-12 * max(1.0, abs(tf)):
        ts = np.append(ts, tf)   # shortened final step lands exactly on tf
    else:
        ts[-1] = tf
    return ts


def _march(prob: IvpProblem, dt: float, step) -> SampledSignal:
    """The one marching loop: x_{k+1} = step(t_k, x_k, t_{k+1} - t_k), with
    numpy's floating-point warnings off; _eval_rhs refuses a non-finite rhs,
    and one check after the loop a state that overflowed in a step's own
    arithmetic (the last step's, or one whose rhs stays finite)."""
    ts = _time_grid(prob.t0, prob.tf, dt)
    check_grid_size(len(ts) * len(prob.x0), "ODE state record")
    xs = np.empty((len(ts), len(prob.x0)))
    xs[0] = prob.x0
    with np.errstate(all="ignore"):
        for k in range(len(ts) - 1):
            xs[k + 1] = step(ts[k], xs[k], ts[k + 1] - ts[k])
    finite = np.isfinite(xs).all(axis=1)
    if not finite.all():
        raise DomainError(f"state is not finite at t = {ts[finite.argmin()]} (state blow-up)")
    for record in (ts, xs):             # adopted by the signal as they are
        record.setflags(write=False)
    return SampledSignal(ts, xs)


def euler_solve(prob: IvpProblem, dt: float) -> SampledSignal:
    """Forward-Euler march from t0 to tf."""
    return _march(prob, dt, lambda t, x, h: x + h * _eval_rhs(prob, t, x))


def rk4_solve(prob: IvpProblem, dt: float) -> SampledSignal:
    """Classic fourth-order Runge-Kutta march from t0 to tf."""
    def step(t, x, h):
        k1 = _eval_rhs(prob, t, x)
        k2 = _eval_rhs(prob, t + 0.5 * h, x + 0.5 * h * k1)
        k3 = _eval_rhs(prob, t + 0.5 * h, x + 0.5 * h * k2)
        k4 = _eval_rhs(prob, t + h, x + h * k3)
        return x + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return _march(prob, dt, step)


def matrix_exponential(a, t: float = 1.0) -> np.ndarray:
    """exp(A t) by scaling and squaring with an adaptively truncated Taylor
    series: the scaled series is summed until a term falls below 1e-16 of
    the partial sum, then squared back up."""
    a = as_mat(a)
    n = a.shape[0]
    if n != a.shape[1]:
        raise DimensionError(f"matrix exponential needs a square matrix, got {a.shape}")
    at = a * float(t)
    norm = norm_inf(at)
    s = max(0, int(math.ceil(math.log2(norm))) + 1) if norm > 0 else 0
    scaled = at / 2.0 ** s
    result = np.eye(n)
    term = np.eye(n)
    for k in range(1, 64):
        term = term @ scaled / k
        result = result + term
        if norm_inf(term) < 1e-16 * norm_inf(result):
            break
    for _ in range(s):
        result = result @ result
    return result


def faddeev(a):
    """Faddeev-LeVerrier recursion.

    Returns (coeffs, resolvent) where coeffs are the ascending coefficients
    of the monic characteristic polynomial det(sI - A) and resolvent[k] is
    the matrix weighting s^(n-1-k) in the adjugate expansion of (sI - A)^-1.
    """
    a = as_mat(a)
    n = a.shape[0]
    if n != a.shape[1]:
        raise DimensionError("characteristic polynomial needs a square matrix")
    if n > _EIG_MAX_N:
        raise DimensionError(f"polynomial eigen-pipeline is capped at n <= {_EIG_MAX_N}")
    coeffs = np.zeros(n + 1)
    coeffs[n] = 1.0
    b = np.eye(n)
    resolvent = [b]
    for k in range(1, n + 1):
        ab = a @ b
        c = -np.trace(ab) / k
        coeffs[n - k] = c
        b = ab + c * np.eye(n)
        if k < n:
            resolvent.append(b)
    return coeffs, resolvent


def char_poly(a) -> np.ndarray:
    """Monic characteristic polynomial, ascending coefficients c0..cn."""
    coeffs, _ = faddeev(a)
    return coeffs


def eigenvalues(a) -> list[complex]:
    """Roots of the characteristic polynomial, as poly.roots_dk returns them."""
    return poly.roots_dk(char_poly(a))
