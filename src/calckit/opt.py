"""Root finding, one descent for minimization with or without equality
constraints, Lagrange stationary points, and the projectile scenario stack
(free throw, bar gymnast, platform diver).

Each descent iteration restores feasibility with one minimum-norm Newton
step on the constraints, then line-searches (Armijo) along a
Levenberg-damped Newton (SQP) step on the KKT system, falling back to the
projected negative gradient where that step fails. Without constraints
(m = 0) the restoration is empty and the step is damped Newton. The descent
stops at 1e-8 on the projected gradient and on the constraint violation;
the iteration budget max_iters is its only setting. Multipliers use the
convention grad f + J^T lambda = 0. The Lagrange solver cross-checks the
same problems by Newton iteration on the stationarity system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from . import diffnum
from .errors import ConvergenceError, DimensionError, DomainError, SingularityError
from .linalg import lu_solve

_FD = diffnum.DiffConfig()
_ARMIJO_BETA = 0.5      # armijo halving factor
_ARMIJO_C = 1e-4        # armijo sufficient-decrease constant
_STOP_TOL = 1e-8        # descent stops below this on ||d||_inf (||g||_inf) and ||h||_inf


# ---------------------------------------------------------------- roots

def bisection(f, a: float, b: float, tol: float = 1e-10, max_iters: int = 200) -> float:
    """Bracketed root by interval halving; returns the final midpoint.

    The sign-change invariant is maintained every iteration, so the result
    is within tol of a root. Raises DomainError without a sign change and
    ConvergenceError only when max_iters cannot cover the required
    ceil(log2((b - a) / tol)) halvings.
    """
    if tol <= 0:
        raise DomainError("tolerance must be positive")
    if not a < b:
        raise DomainError(f"need a < b, got [{a}, {b}]")
    fa, fb = f(a), f(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if fa * fb > 0:
        raise DomainError(f"no sign change on [{a}, {b}]")
    for _ in range(max_iters):
        if b - a <= tol:
            return 0.5 * (a + b)
        m = 0.5 * (a + b)
        fm = f(m)
        if fm == 0.0:
            return m
        if fa * fm < 0:
            b, fb = m, fm
        else:
            a, fa = m, fm
    if b - a <= tol:
        return 0.5 * (a + b)
    raise ConvergenceError(
        f"bracket width {b - a:.3e} still above tol after {max_iters} iterations"
    )


def newton_root(F, x0, tol: float = 1e-10, max_iters: int = 50) -> np.ndarray:
    """Newton iteration on F(x) = 0 with a central-difference Jacobian.

    Stops when ||F(x)||_inf < tol; the linear solve raises SingularityError
    on a rank-deficient Jacobian.
    """
    if tol <= 0:
        raise DomainError("tolerance must be positive")
    x = np.atleast_1d(np.asarray(x0, dtype=float))
    for _ in range(max_iters):
        fx = np.atleast_1d(np.asarray(F(x), dtype=float))
        if len(fx) != len(x):
            raise DimensionError("Newton needs a square system (output dim = input dim)")
        if np.max(np.abs(fx)) < tol:
            return x
        jac = diffnum.jacobian(F, x, _FD)
        x = x - lu_solve(jac, fx)
    fx = np.atleast_1d(np.asarray(F(x), dtype=float))
    if np.max(np.abs(fx)) < tol:
        return x
    raise ConvergenceError(
        f"||F||_inf = {np.max(np.abs(fx)):.3e} after {max_iters} Newton iterations"
    )


# ---------------------------------------------------------------- descent

def _line_step(f, x, d, g_dot_d) -> np.ndarray:
    fx = f(x)
    t = 1.0
    while t > 1e-16:
        trial = x + t * d
        if f(trial) <= fx + _ARMIJO_C * t * g_dot_d:
            return trial
        t *= _ARMIJO_BETA
    return x + t * d


@dataclass(frozen=True)
class ConstrainedProblem:
    """Objective f: R^n -> R with equality constraints h: R^n -> R^m,
    0 <= m < n; with m = 0 (no constraints) h returns an empty array."""

    objective: Callable[[np.ndarray], float]
    constraints: Callable[[np.ndarray], np.ndarray]
    n: int
    m: int

    def __post_init__(self):
        if not 0 <= self.m < self.n:
            raise DimensionError(f"need 0 <= m < n, got m={self.m}, n={self.n}")

    def h(self, x) -> np.ndarray:
        hx = np.atleast_1d(np.asarray(self.constraints(x), dtype=float))
        if len(hx) != self.m:
            raise DimensionError(f"constraint map returned {len(hx)} values, declared m={self.m}")
        return hx


@dataclass(frozen=True)
class ConstrainedResult:
    x: np.ndarray
    lam: np.ndarray
    iterations: int
    converged: bool


def _multiplier_solve(jac: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    gram = jac @ jac.T
    try:
        return lu_solve(gram, rhs)
    except SingularityError:
        raise SingularityError(
            "constraint Jacobian is rank deficient (J J^T singular)"
        ) from None


def _kkt_direction(prob: ConstrainedProblem, x, g, jac, lam, mu: float):
    """Damped Newton direction p from [[H + mu I, J^T], [J, 0]] [p; nu] = [-g; 0],
    H the Hessian of the Lagrangian f + lam . h at x; None unless p is a
    finite descent direction (g . p < 0) of a nonsingular system."""
    hess = diffnum.hessian(lambda v: prob.objective(v) + lam @ prob.h(v), x, _FD)
    kkt = np.block([[hess + mu * np.eye(prob.n), jac.T],
                    [jac, np.zeros((prob.m, prob.m))]])
    try:
        p = lu_solve(kkt, np.concatenate([-g, np.zeros(prob.m)]))[: prob.n]
    except SingularityError:
        return None
    if not np.all(np.isfinite(p)) or not g @ p < 0:
        return None
    return p


def constrained_descent(prob: ConstrainedProblem, x0, *,
                        max_iters: int = 50_000) -> ConstrainedResult:
    """Feasibility restoration plus a damped Newton step in the null space.

    Each iteration restores feasibility, then forms the gradient g, the
    constraint Jacobian J, the multipliers lambda = -(J J^T)^-1 J g and the
    projected gradient d = -(g + J^T lambda). It stops when
    ||d||_inf < 1e-8 and ||h||_inf < 1e-8, and reports lambda at that point.

    Otherwise it line-searches (Armijo) along the damped KKT Newton
    direction p of [[H + mu I, J^T], [J, 0]] [p; nu] = [-g; 0], H the
    Hessian of the Lagrangian f + lambda . h. The damping mu = ||d||_inf is
    proportional to the residual (Fan & Yuan, Computing 74, 2005): it
    bounds steps along flat directions and vanishes at a solution, where the
    steps become Newton steps. Where the KKT matrix is singular, p is not
    finite or g . p >= 0 (an indefinite H, as near a constrained maximum),
    the line search runs along d instead.

    With m = 0 the restoration and the multipliers are empty and d = -g:
    the step is Levenberg-damped Newton on f.

    Evaluations per iteration, n = prob.n, in this order: for the
    restoration and d, 4n + 2 of h (h at x, its Jacobian, h after the
    restoration, the Jacobian there) and 2n of f; one Lagrangian Hessian,
    1 + 2n + 2n(n - 1) of f and of h; 1 + at most 54 of f for the line
    search. The converging iteration stops before the Hessian and the line
    search.
    """
    if max_iters < 1:
        raise DomainError(f"descent iteration budget must be at least 1, got {max_iters}")
    x = np.atleast_1d(np.asarray(x0, dtype=float))
    if len(x) != prob.n:
        raise DimensionError(f"x0 has dimension {len(x)}, problem declares n={prob.n}")
    f = prob.objective
    for k in range(max_iters):
        hx = prob.h(x)
        jac = diffnum.jacobian(prob.h, x, _FD)
        x = x - jac.T @ _multiplier_solve(jac, hx)      # minimum-norm Newton step
        violation = float(np.max(np.abs(prob.h(x)), initial=0.0))

        g = diffnum.gradient(f, x, _FD)
        if not np.all(np.isfinite(g)):
            raise DomainError("gradient is not finite at an iterate")
        jac = diffnum.jacobian(prob.h, x, _FD)
        lam = -_multiplier_solve(jac, jac @ g)
        d = -(g + jac.T @ lam)                          # null-space projection
        if np.max(np.abs(d)) < _STOP_TOL and violation < _STOP_TOL:
            return ConstrainedResult(x, lam, k, True)
        p = _kkt_direction(prob, x, g, jac, lam, float(np.max(np.abs(d))))
        if p is None:
            x = _line_step(f, x, d, float(-(d @ d)))
        else:
            x = _line_step(f, x, p, float(g @ p))
    jac = diffnum.jacobian(prob.h, x, _FD)
    lam = -_multiplier_solve(jac, jac @ diffnum.gradient(f, x, _FD))
    return ConstrainedResult(x, lam, max_iters, False)


@dataclass(frozen=True)
class LagrangeResult:
    x: np.ndarray
    lam: np.ndarray


def lagrange_solve(prob: ConstrainedProblem, x0, lam0=None,
                   tol: float = 1e-9, max_iters: int = 200) -> LagrangeResult:
    """Newton iteration on the stationarity system [grad f + J^T lam; h] = 0.

    Converges to whichever stationary point the basin of (x0, lam0) selects;
    from a start far from the constraint set that may be the constrained
    maximum, which is reported as-is, not as an error.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    lam0 = np.zeros(prob.m) if lam0 is None else np.atleast_1d(np.asarray(lam0, dtype=float))
    if len(x0) != prob.n or len(lam0) != prob.m:
        raise DimensionError("start point dimensions do not match the problem")

    def stationarity(z):
        x, lam = z[: prob.n], z[prob.n:]
        g = diffnum.gradient(prob.objective, x, _FD)
        jac = diffnum.jacobian(prob.h, x, _FD)
        return np.concatenate([g + jac.T @ lam, prob.h(x)])

    z = newton_root(stationarity, np.concatenate([x0, lam0]), tol=tol, max_iters=max_iters)
    return LagrangeResult(z[: prob.n], z[prob.n:])


# ---------------------------------------------------------------- free throw

def _check_finite(record) -> None:
    """DomainError naming the scenario record and its first non-finite field."""
    for f in fields(record):
        value = getattr(record, f.name)
        if not np.isfinite(value).all():
            raise DomainError(f"{type(record).__name__} {f.name} must be finite, got {value}")


@dataclass(frozen=True)
class FreeThrowParams:
    """Release point, hoop position, gravity. The hoop must sit downrange."""

    p0: np.ndarray
    p_h: np.ndarray
    g: float = 9.81

    def __post_init__(self):
        object.__setattr__(self, "p0", np.asarray(self.p0, dtype=float))
        object.__setattr__(self, "p_h", np.asarray(self.p_h, dtype=float))
        _check_finite(self)
        if self.p0.shape != (2,) or self.p_h.shape != (2,):
            raise DimensionError("p0 and p_h must be planar points")
        if not self.p_h[0] > self.p0[0]:
            raise DomainError("hoop must lie downrange of the release point")
        if self.g <= 0:
            raise DomainError("gravity must be positive")

    def ballistic(self, v, t):
        v = np.asarray(v, dtype=float)
        return self.p0 + v * t - np.array([0.0, 0.5 * self.g * t * t])


def freethrow_linear(params: FreeThrowParams, tf: float) -> np.ndarray:
    """Initial velocity hitting the hoop at exactly t = tf (2x2 linear solve)."""
    if tf <= 0:
        raise DomainError("time of flight must be positive")
    a = np.array([[tf, 0.0], [0.0, tf]])
    b = params.p_h - params.p0 + np.array([0.0, 0.5 * params.g * tf * tf])
    return lu_solve(a, b)


@dataclass(frozen=True)
class FreeThrowResult:
    v: np.ndarray
    tf: float
    miss_distance: float
    iterations: int
    converged: bool


def freethrow_opt(params: FreeThrowParams, mode: str = "free", *,
                  tf: float | None = None, speed: float | None = None,
                  max_iters: int = 50_000) -> FreeThrowResult:
    """Minimize the squared miss distance over (vx, vy, tf) by constrained
    descent from the throw that hits the hoop at tf = 1 (at the given tf in
    mode "fixed_tf").

    mode "free" has no constraints (m = 0); "fixed_tf" pins the flight time
    and "fixed_speed" pins vx^2 + vy^2 = speed^2. An infeasible fixed speed
    that leaves the miss above 1e-3 m raises DomainError rather than
    returning silently.
    """
    def objective(z):
        miss = params.ballistic(z[:2], z[2]) - params.p_h
        return float(miss @ miss)

    constraints = {
        "free": lambda z: np.empty(0),
        "fixed_tf": lambda z: np.array([z[2] - tf]),
        "fixed_speed": lambda z: np.array([z[0] ** 2 + z[1] ** 2 - speed ** 2]),
    }
    if mode not in constraints:
        raise DomainError(f"unknown mode {mode!r}")
    if mode == "fixed_tf" and (tf is None or tf <= 0):
        raise DomainError("fixed_tf mode needs a positive tf")
    if mode == "fixed_speed" and (speed is None or speed <= 0):
        raise DomainError("fixed_speed mode needs a positive speed")
    tf0 = tf if mode == "fixed_tf" else 1.0
    x0 = np.concatenate([freethrow_linear(params, tf0), [tf0]])
    prob = ConstrainedProblem(objective, constraints[mode], 3, 0 if mode == "free" else 1)
    res = constrained_descent(prob, x0, max_iters=max_iters)
    v, tof = res.x[:2], float(res.x[2])

    miss = float(np.linalg.norm(params.ballistic(v, tof) - params.p_h))
    if mode == "fixed_speed" and miss > 1e-3:
        raise DomainError(
            f"fixed speed {speed} cannot reach the hoop (miss {miss:.4f} m)"
        )
    return FreeThrowResult(v, tof, miss, res.iterations, res.converged)


# ---------------------------------------------------------------- gymnast

@dataclass(frozen=True)
class GymnastModel:
    """Bar with two end point masses as a planar floating body.

    The bar spans 2 * half_length with masses m1, m2 at the tips; launch
    orientation is 0 by convention. Landing is constrained by the target
    center-of-mass point and orientation.
    """

    half_length: float
    m1: float
    m2: float
    p0: np.ndarray
    p_land: np.ndarray
    theta_land: float
    g: float = 9.81

    def __post_init__(self):
        object.__setattr__(self, "p0", np.asarray(self.p0, dtype=float))
        object.__setattr__(self, "p_land", np.asarray(self.p_land, dtype=float))
        _check_finite(self)
        if self.half_length <= 0 or self.m1 <= 0 or self.m2 <= 0:
            raise DomainError("bar half length and masses must be positive")
        if self.p0.shape != (2,) or self.p_land.shape != (2,):
            raise DimensionError("p0 and p_land must be planar points")

    @property
    def inertia(self) -> float:
        """Rotational inertia about the center of mass (equal-arm bar)."""
        return (self.m1 + self.m2) * self.half_length ** 2


@dataclass(frozen=True)
class GymnastResult:
    """residual is max |h| of the landing constraints at the returned launch."""

    v0: np.ndarray
    omega: float
    tf: float
    objective: float
    residual: float
    iterations: int
    converged: bool


def gymnast_optimize(model: GymnastModel, *, max_iters: int = 50_000) -> GymnastResult:
    """Cheapest launch (v0x, v0y, omega, tf) landing on the target posture.

    Flight is ballistic for the center of mass with free planar rotation at
    constant rate; the landing constraints are CoM(tf) = p_land and
    omega * tf = theta_land. The objective is the effort form
    ||v0||^2 / 2 + I omega^2 / 2. Its minimum has the closed form
    tf = (4A / g^2)^(1/4) and value g (sqrt(A) + dy) / 2, with
    A = dx^2 + dy^2 + I theta^2 and (dx, dy) = p_land - p0.
    """
    delta = model.p_land - model.p0
    inertia = model.inertia

    def objective(z):
        return 0.5 * (z[0] ** 2 + z[1] ** 2) + 0.5 * inertia * z[2] ** 2

    def constraints(z):
        vx, vy, om, tf = z
        return np.array([
            vx * tf - delta[0],
            vy * tf - 0.5 * model.g * tf * tf - delta[1],
            om * tf - model.theta_land,
        ])

    tf0 = max(0.3, math.sqrt(2.0 * abs(delta[1]) / model.g) if delta[1] else 1.0)
    x0 = np.array([
        delta[0] / tf0,
        (delta[1] + 0.5 * model.g * tf0 ** 2) / tf0,
        model.theta_land / tf0,
        tf0,
    ])
    prob = ConstrainedProblem(objective, constraints, 4, 3)
    res = constrained_descent(prob, x0, max_iters=max_iters)
    return GymnastResult(res.x[:2].copy(), float(res.x[2]), float(res.x[3]),
                         float(objective(res.x)), float(np.max(np.abs(prob.h(res.x)))),
                         res.iterations, res.converged)


# ---------------------------------------------------------------- diver

@dataclass(frozen=True)
class DiverModel:
    """Two-shape diver: open and tucked inertias with angular momentum
    conserved in flight. k counts required half rotations before vertical
    entry; d_min is the horizontal clearance at entry."""

    i_open: float
    i_tuck: float
    k: int
    d_min: float
    platform_height: float = 10.0

    def __post_init__(self):
        _check_finite(self)
        if not 0 < self.i_tuck < self.i_open:
            raise DomainError("need 0 < I_tuck < I_open")
        if isinstance(self.k, bool) or not isinstance(self.k, (int, np.integer)) or self.k < 1:
            raise DomainError(f"DiverModel k must be an integer >= 1, got {self.k!r}")
        if self.d_min <= 0 or self.platform_height <= 0:
            raise DomainError("clearance and platform height must be positive")


def diver_entry_time(v0y: float, g: float = 9.81, height: float = 10.0) -> float:
    """Positive root of height + v0y t - g t^2 / 2 = 0."""
    return (v0y + math.sqrt(v0y * v0y + 2.0 * g * height)) / g


def diver_entry_orientation(L: float, t1: float, t2: float, t_entry: float,
                            i_open: float, i_tuck: float) -> float:
    """Orientation at entry for a tuck window [t1, t2] (clamped into
    [0, t_entry]) under conserved angular momentum L."""
    t1 = min(max(t1, 0.0), t_entry)
    t2 = min(max(t2, t1), t_entry)
    return L * (t1 / i_open + (t2 - t1) / i_tuck + (t_entry - t2) / i_open)


@dataclass(frozen=True)
class DiverResult:
    """residual is max |h| of the entry-angle and clearance constraints at
    the returned launch."""

    v0: np.ndarray
    L: float
    t_tuck_start: float
    t_tuck_end: float
    entry_time: float
    residual: float
    iterations: int
    converged: bool


def diver_optimize(model: DiverModel, *, max_iters: int = 50_000) -> DiverResult:
    """Minimum-effort launch (v0x, v0y, L, t1, t2) with vertical entry after
    k half rotations and horizontal clearance d_min at entry.

    The tuck window is clamped into [0, t_entry] before every evaluation, so
    iterates may park just outside the box; reported times are clamped. The
    effort objective ||v0||^2 / 2 + eps L^2 / 2 uses eps = 1e-3.
    """
    g = 9.81
    eps = 1e-3
    target = model.k * math.pi

    def constraints(z):
        v0x, v0y, L, t1, t2 = z
        te = diver_entry_time(v0y, g, model.platform_height)
        theta = diver_entry_orientation(L, t1, t2, te, model.i_open, model.i_tuck)
        return np.array([theta - target, v0x * te - model.d_min])

    def objective(z):
        return 0.5 * (z[0] ** 2 + z[1] ** 2) + 0.5 * eps * z[2] ** 2

    v0y0 = 1.0
    te0 = diver_entry_time(v0y0, g, model.platform_height)
    t10, t20 = 0.1 * te0, 0.9 * te0
    tau0 = t10 / model.i_open + (t20 - t10) / model.i_tuck + (te0 - t20) / model.i_open
    x0 = np.array([model.d_min / te0, v0y0, target / tau0, t10, t20])
    prob = ConstrainedProblem(objective, constraints, 5, 2)
    res = constrained_descent(prob, x0, max_iters=max_iters)

    v0x, v0y, L, t1, t2 = res.x
    te = diver_entry_time(v0y, g, model.platform_height)
    t1c = min(max(t1, 0.0), te)
    t2c = min(max(t2, t1c), te)
    return DiverResult(np.array([v0x, v0y]), float(L), float(t1c), float(t2c), float(te),
                       float(np.max(np.abs(prob.h(res.x)))), res.iterations, res.converged)
