"""Numerical limits and derivatives.

Everything differentiates by central (symmetric) differences; one-sided
evaluation appears only inside one_sided_limit, which realizes the limit
from the right/left as an infinite limit in eta through x0 + s/eta, never
touching x0 itself. Steps are scaled relative to |x| by default to tame
cancellation at large arguments.
derivative, partial_derivative, gradient and jacobian share one
per-coordinate stencil, _central. hessian's base step is 1e-4.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DimensionError, DomainError

_DIVERGENCE_LIMIT = 1e12
_HESSIAN_H = 1e-4


@dataclass(frozen=True)
class DiffConfig:
    """Step size for finite differencing.

    h is the base step for first derivatives; with relative=True the step
    at coordinate x is h * max(1, |x|).
    """

    h: float = 1e-5
    relative: bool = True

    def __post_init__(self):
        if self.h <= 0:
            raise DomainError("finite-difference steps must be positive")

    def step(self, x: float) -> float:
        return self.h * max(1.0, abs(x)) if self.relative else self.h


def one_sided_limit(f, x0: float, side: str = "right", tol: float = 1e-9) -> float:
    """Limit of f at x0 from the given side.

    Evaluates f(x0 + s / eta) for eta = 2^k, k = 4..48, with s = +1 (right)
    or -1 (left), and returns the latest value once three consecutive
    evaluations agree within tol. Divergence (|f| > 1e12) or failure to
    settle raises ConvergenceError.
    """
    if tol <= 0:
        raise DomainError("tolerance must be positive")
    if side == "right":
        s = 1.0
    elif side == "left":
        s = -1.0
    else:
        raise DomainError(f"side must be 'left' or 'right', got {side!r}")
    window: list[float] = []
    for k in range(4, 49):
        value = float(f(x0 + s / 2.0 ** k))
        if not np.isfinite(value) or abs(value) > _DIVERGENCE_LIMIT:
            raise ConvergenceError(f"one-sided values diverge near x0 = {x0}")
        window.append(value)
        if len(window) >= 3 and max(window[-3:]) - min(window[-3:]) <= tol:
            return value
    raise ConvergenceError(f"one-sided values failed to settle within tol = {tol}")


def derivative(f, x0: float, cfg: DiffConfig | None = None) -> float:
    """Central-difference first derivative at x0: the stencil _central on a
    one-element vector; f is called on Python floats."""
    return float(_central(lambda x: f(float(x[0])), np.array([x0], dtype=float), 0,
                          cfg or DiffConfig()))


def _central(G, x0: np.ndarray, i: int, cfg: DiffConfig):
    """(G(x0 + h e_i) - G(x0 - h e_i)) / 2h, the lower point evaluated first."""
    h = cfg.step(x0[i])
    step = np.zeros(len(x0))
    step[i] = h
    lo, hi = G(x0 - step), G(x0 + step)
    if not np.isfinite((lo, hi)).all():
        raise DomainError(f"function not finite near coordinate {i}")
    return (hi - lo) / (2.0 * h)


def partial_derivative(F, x0, i: int, cfg: DiffConfig | None = None) -> float:
    """Central difference of F along the i-th natural basis direction."""
    x0 = np.asarray(x0, dtype=float)
    if not 0 <= i < len(x0):
        raise DimensionError(f"index {i} out of range for dimension {len(x0)}")
    return _central(F, x0, i, cfg or DiffConfig())


def gradient(F, x0, cfg: DiffConfig | None = None) -> np.ndarray:
    """Gradient of a scalar function, one central difference per coordinate."""
    cfg = cfg or DiffConfig()
    x0 = np.asarray(x0, dtype=float)
    return np.array([_central(F, x0, i, cfg) for i in range(len(x0))])


def jacobian(G, x0, cfg: DiffConfig | None = None) -> np.ndarray:
    """m x n Jacobian of a vector map, one central difference per column; an
    empty x0 gives m x 0, with m from one evaluation of G at x0."""
    cfg = cfg or DiffConfig()
    x0 = np.asarray(x0, dtype=float)

    def vec(x):
        return np.atleast_1d(np.asarray(G(x), dtype=float))

    if not len(x0):
        return np.zeros((len(vec(x0)), 0))
    return np.column_stack([_central(vec, x0, i, cfg) for i in range(len(x0))])


def hessian(F, x0, cfg: DiffConfig | None = None) -> np.ndarray:
    """Second-difference Hessian; H[i, j] and H[j, i] are one value. Of cfg it
    reads only ``relative``: the base step is fixed at 1e-4, whatever cfg.h."""
    cfg = cfg or DiffConfig()
    x0 = np.asarray(x0, dtype=float)
    n = len(x0)
    H = np.zeros((n, n))
    f0 = float(F(x0))
    if not np.isfinite(f0):
        raise DomainError("function not finite at the base point")
    steps = [_HESSIAN_H * max(1.0, abs(x)) if cfg.relative else _HESSIAN_H for x in x0]
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = steps[i]
        fp, fm = float(F(x0 + ei)), float(F(x0 - ei))
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise DomainError(f"function not finite near coordinate {i}")
        H[i, i] = (fp - 2.0 * f0 + fm) / steps[i] ** 2
        for j in range(i + 1, n):
            ej = np.zeros(n)
            ej[j] = steps[j]
            fpp = float(F(x0 + ei + ej))
            fpm = float(F(x0 + ei - ej))
            fmp = float(F(x0 - ei + ej))
            fmm = float(F(x0 - ei - ej))
            if not all(np.isfinite(v) for v in (fpp, fpm, fmp, fmm)):
                raise DomainError(f"function not finite near coordinates ({i}, {j})")
            H[i, j] = H[j, i] = (fpp - fpm - fmp + fmm) / (4.0 * steps[i] * steps[j])
    return H
