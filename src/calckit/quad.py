"""Definite integration: Riemann/Darboux sums, trapezoid, Simpson, sampled
records, improper integrals, and the geometric applications built on them
(path length, planar-lamina mass properties, volumes of revolution).

Darboux panel inf/sup are approximated by a min/max scan over endpoint
inclusive subsamples, which is exact whenever the integrand is monotone on
the panel. Improper (Type-I) integrals add doubling segments until a new
segment contributes less than the tolerance; divergence is reported, never
silently truncated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import diffnum, signals
from .errors import ConvergenceError, DomainError
from .signals import SampledSignal, check_grid_size

__all__ = [
    "Interval", "Lamina", "riemann_sum", "darboux_bounds",
    "trapezoid", "simpson", "trapezoid_sampled", "cumulative_trapezoid",
    "improper_type1", "path_length", "lamina_properties", "LaminaProperties",
    "volume_of_revolution", "antiderivative_numeric",
]


@dataclass(frozen=True)
class Interval:
    a: float
    b: float

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise DomainError("interval endpoints must be finite")
        if not self.a < self.b:
            raise DomainError(f"need a < b, got [{self.a}, {self.b}]")
        if not math.isfinite(self.b - self.a):
            raise DomainError(f"interval width b - a overflows on [{self.a}, {self.b}]")

    @property
    def width(self) -> float:
        return self.b - self.a


@dataclass(frozen=True)
class Lamina:
    """Planar body between curves g <= f over an interval, with area density
    rho and thickness h. The ordering f >= g is spot-checked on a 1000-point
    grid at construction."""

    f: Callable[[float], float]
    g: Callable[[float], float]
    interval: Interval
    rho: float
    h: float

    def __post_init__(self):
        if self.rho <= 0 or self.h <= 0:
            raise DomainError("density and thickness must be positive")
        xs = np.linspace(self.interval.a, self.interval.b, 1000)
        fs = _sample(self.f, xs)
        gs = _sample(self.g, xs)
        if np.any(fs < gs):
            raise DomainError("upper boundary dips below lower boundary")


_BLOCK_POINTS = 1 << 16       # _sample evaluates at most this many points at once
_TAIL_PANELS = 256            # Simpson panels per doubling segment in improper_type1
_RIEMANN_OFFSETS = {"left": 0.0, "right": 1.0, "midpoint": 0.5}   # node k: a + h (k + offset)


def _sample(f, xs: np.ndarray) -> np.ndarray:
    """Evaluate f on a grid, vectorized when f supports it, in blocks of about
    _BLOCK_POINTS nodes along axis 0, so an integrand's temporaries stay
    bounded in size whatever the grid's."""
    ys = np.empty(xs.shape)
    rows = max(1, _BLOCK_POINTS * len(xs) // xs.size)
    with np.errstate(all="ignore"):
        for start in range(0, len(xs), rows):
            block = xs[start:start + rows]
            try:
                out = np.asarray(f(block), dtype=float)
                if out.shape != block.shape:
                    raise TypeError
            except Exception:
                out = np.fromiter((float(f(float(x))) for x in block.flat), dtype=float,
                                  count=block.size).reshape(block.shape)
            ys[start:start + rows] = out
    if not np.all(np.isfinite(ys)):
        bad = xs[~np.isfinite(ys)][0]
        raise DomainError(f"integrand is not finite at x = {bad}")
    return ys


def riemann_sum(f, iv: Interval, n: int, scheme: str = "left") -> float:
    """Riemann sum on n uniform panels; scheme in {left, right, midpoint}."""
    if n < 1:
        raise DomainError("need n >= 1 panels")
    check_grid_size(n, "riemann sum")
    if scheme not in _RIEMANN_OFFSETS:
        raise DomainError(f"unknown scheme {scheme!r}")
    h = iv.width / n
    xs = iv.a + h * (np.arange(n) + _RIEMANN_OFFSETS[scheme])
    return float(h * _sample(f, xs).sum())


def darboux_bounds(f, iv: Interval, n: int, m: int) -> tuple[float, float]:
    """Lower/upper Darboux estimates with per-panel extrema approximated by
    min/max over m uniform subsamples including both panel endpoints.

    Panels are sampled in blocks of about _BLOCK_POINTS points, and their
    extrema are summed in panel order (the running sum goes first into each
    block's cumsum), so the result does not depend on the block size.
    """
    if n < 1:
        raise DomainError("need n >= 1 panels")
    if m < 2:
        raise DomainError("need m >= 2 subsamples per panel")
    check_grid_size(n * m, "darboux sampling")
    h = iv.width / n
    lower = upper = 0.0
    offsets = np.linspace(0.0, h, m)
    panels = max(1, _BLOCK_POINTS // m)
    for start in range(0, n, panels):
        ks = np.arange(start, min(n, start + panels))
        ys = _sample(f, (iv.a + ks * h)[:, None] + offsets)
        lower = float(np.cumsum(np.append(lower, ys.min(axis=1) * h))[-1])
        upper = float(np.cumsum(np.append(upper, ys.max(axis=1) * h))[-1])
    return lower, upper


def _nodes(iv: Interval, n: int, what: str) -> tuple[np.ndarray, float]:
    """The n + 1 nodes of n uniform panels on iv, and the panel width."""
    if n < 1:
        raise DomainError("need n >= 1 panels")
    check_grid_size(n + 1, what)
    return np.linspace(iv.a, iv.b, n + 1), iv.width / n


def trapezoid(f, iv: Interval, n: int) -> float:
    """Composite trapezoid rule on a uniform grid; exact for affine f."""
    xs, h = _nodes(iv, n, "trapezoid rule")
    ys = _sample(f, xs)
    return float(h * (0.5 * ys[0] + ys[1:-1].sum() + 0.5 * ys[-1]))


def simpson(f, iv: Interval, n: int) -> float:
    """Composite Simpson rule (n even); exact through cubic polynomials."""
    if n >= 1 and n % 2:
        raise DomainError("Simpson's rule needs an even panel count")
    xs, h = _nodes(iv, n, "Simpson's rule")
    return float(_simpson_sum(_sample(f, xs), h))


def _simpson_sum(ys: np.ndarray, h: float):
    """Composite Simpson sum along axis 0 of samples on an even-panel grid of step h."""
    return h / 3.0 * (ys[0] + ys[-1] + 4.0 * ys[1:-1:2].sum(axis=0)
                      + 2.0 * ys[2:-2:2].sum(axis=0))


def trapezoid_sampled(sig: SampledSignal, channel: int = 0) -> float:
    """Trapezoid integral of one channel over the full (possibly nonuniform)
    record."""
    y = sig.channel(channel)
    dt = np.diff(sig.t)
    return float(np.sum(0.5 * (y[:-1] + y[1:]) * dt))


def cumulative_trapezoid(sig: SampledSignal, channel: int = 0) -> SampledSignal:
    """Running trapezoid integral on the same timestamps; sample 0 is 0."""
    y = sig.channel(channel)
    dt = np.diff(sig.t)
    out = np.concatenate([[0.0], np.cumsum(0.5 * (y[:-1] + y[1:]) * dt)])
    return SampledSignal(sig.t, out)


def improper_type1(f, a: float, tol: float = 1e-8, max_doublings: int = 20) -> float:
    """Integral of f over [a, inf) by interval doubling.

    The k-th doubling adds the Simpson integral over [a + 2^(k-1), a + 2^k]
    (over [a, a + 1] for k = 0) on _TAIL_PANELS panels to the running total,
    and the total is returned as soon as a new segment adds less than tol.
    The work is at most (max_doublings + 1) * (_TAIL_PANELS + 1) points.
    Raises ConvergenceError when the budget runs out, which signals
    divergence or decay too slow to capture.
    """
    if tol <= 0:
        raise DomainError("tolerance must be positive")
    if max_doublings < 1:
        raise DomainError("need max_doublings >= 1")
    total, lo = 0.0, a
    for k in range(max_doublings + 1):
        hi = a + 2.0 ** k
        segment = simpson(f, Interval(lo, hi), _TAIL_PANELS)
        total += segment
        if k > 0 and abs(segment) < tol:
            return total
        lo = hi
    raise ConvergenceError(
        f"tail integral did not settle within {max_doublings} doublings "
        f"(running total {total:.6e}, last segment {segment:.6e})"
    )


def path_length(fx, fy, t0: float, tf: float, n: int) -> float:
    """Length of the planar path (fx(t), fy(t)) for t in [t0, tf].

    The speed integrand is assembled from diffnum.derivative of fx and fy
    on the absolute step (tf-t0)/(100 n) and integrated with Simpson's rule
    on n panels (n is rounded up to even).
    """
    if n < 2:
        raise DomainError("need n >= 2 panels")
    n += n % 2
    iv = Interval(t0, tf)
    cfg = diffnum.DiffConfig(h=iv.width / (100.0 * n), relative=False)

    def speed(t):
        return math.hypot(diffnum.derivative(fx, t, cfg), diffnum.derivative(fy, t, cfg))

    return simpson(speed, iv, n)


@dataclass(frozen=True)
class LaminaProperties:
    mass: float
    centroid_x: float
    centroid_y: float
    Iz: float


def lamina_properties(lam: Lamina, n: int) -> LaminaProperties:
    """Mass, centroid, and moment of inertia about the z-axis of a lamina.

    The Iz integrand is x^2 (f - g) + (f^3 - g^3)/3 scaled by rho*h, which
    folds the through-thickness integration of point masses into a single
    1-D integral.
    """
    xs, h = _nodes(lam.interval, n + n % 2, "lamina integrals")
    fs = _sample(lam.f, xs)
    gs = _sample(lam.g, xs)
    if np.any(fs < gs):
        raise DomainError("upper boundary dips below lower boundary on the grid")
    gap = fs - gs
    moments = np.column_stack([gap, xs * gap, 0.5 * (fs ** 2 - gs ** 2),
                               xs ** 2 * gap + (fs ** 3 - gs ** 3) / 3.0])
    mass, mx, my, iz = map(float, lam.rho * lam.h * _simpson_sum(moments, h))
    if mass <= 0:
        raise DomainError("lamina has zero area on the integration grid")
    return LaminaProperties(mass, mx / mass, my / mass, iz)


def volume_of_revolution(f, iv: Interval, n: int) -> float:
    """Disk-method volume of f rotated about the x-axis (Simpson on f^2)."""
    xs, h = _nodes(iv, n + n % 2, "volume of revolution")
    ys = _sample(f, xs)
    if np.any(ys < 0):
        raise DomainError("profile must be nonnegative for the disk method")
    return float(math.pi * _simpson_sum(ys ** 2, h))


def antiderivative_numeric(f, a: float) -> Callable[[float], float]:
    """Antiderivative F of f with F(a) = 0, via adaptive Simpson refinement
    (absolute target 1e-10 per evaluation). One evaluation of F that needs
    more than signals.MAX_GRID_POINTS evaluations of f raises
    ConvergenceError."""

    def F(x: float) -> float:
        if x == a:
            return 0.0
        lo, hi, sign = (a, x, 1.0) if x > a else (x, a, -1.0)
        return sign * _adaptive_simpson(f, lo, hi, 1e-10)

    return F


def _eval_point(f, x: float) -> float:
    y = float(f(x))
    if not math.isfinite(y):
        raise DomainError(f"integrand is not finite at x = {x}")
    return y


def _adaptive_simpson(f, a: float, b: float, tol: float) -> float:
    fa, fm, fb = _eval_point(f, a), _eval_point(f, 0.5 * (a + b)), _eval_point(f, b)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return _refine(f, a, b, fa, fm, fb, whole, tol, 48, [signals.MAX_GRID_POINTS - 3])


def _refine(f, a, b, fa, fm, fb, whole, tol, depth, budget):
    """One panel's refinement; budget[0] is what is left of the evaluations."""
    budget[0] -= 2
    if budget[0] < 0:
        raise ConvergenceError(f"adaptive Simpson refinement needs more than "
                               f"{signals.MAX_GRID_POINTS:,} integrand evaluations")
    m = 0.5 * (a + b)
    flm = _eval_point(f, 0.5 * (a + m))
    frm = _eval_point(f, 0.5 * (m + b))
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    if abs(left + right - whole) <= 15.0 * tol:
        return left + right + (left + right - whole) / 15.0
    if depth <= 0:
        raise ConvergenceError("adaptive Simpson refinement stalled")
    return (_refine(f, a, m, fa, flm, fm, left, tol / 2.0, depth - 1, budget)
            + _refine(f, m, b, fm, frm, fb, right, tol / 2.0, depth - 1, budget))
