"""Transfer functions, state-space models, and PD feedback design.

Rational functions in the Laplace variable are stored as ascending real
coefficient arrays. Nothing here ever cancels pole/zero pairs automatically:
cancellation tolerances hide bugs, verbose output does not. Ideal PD
controllers are improper in isolation, so closed loops are always formed
symbolically (polynomial arithmetic) before any simulation; step responses
march a controllable-canonical realization with its exact discrete-time map
(one matrix exponential per step size), never a numerical inverse Laplace
transform. The march is the linear recurrence x_{k+1} = Phi x_k + Gamma
from rest, solved by recursive doubling (Kogge & Stone, IEEE Trans.
Computers C-22(8), 1973): each matrix product doubles the record, so N
samples take ceil(log2 N) products. response_metrics alone decides whether
a step response has a steady state. ss_to_tf converts a SISO state-space
model only; restrict a larger one with subsystem first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg, mech, odesolve
from .errors import DimensionError, DomainError
from .poly import (degree, format_poly, poly_add, poly_eval, poly_mul,
                   roots_dk, trim)
from .signals import SampledSignal, check_grid_size

__all__ = [
    "TransferFunction", "StateSpace", "StepMetrics", "PdGains",
    "poles", "zeros", "pd_tf", "unity_feedback", "dc_gain", "precompensator",
    "tf_to_ss", "ss_to_tf", "step_response", "response_metrics",
    "pd_pole_placement", "linearize", "subsystem",
]

_COUPLING_TOL = 1e-9    # subsystem: largest A/C entry still counted as decoupled
_DELTA = 1e-3           # linearize: step of the fourth-order stencil on G


@dataclass(frozen=True)
class TransferFunction:
    """num / den with ascending coefficients; den must be nonzero."""

    num: np.ndarray
    den: np.ndarray

    def __post_init__(self):
        num = trim(self.num)
        den = trim(self.den)
        if len(den) == 1 and den[0] == 0.0:
            raise DomainError("transfer function denominator is identically zero")
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @property
    def proper(self) -> bool:
        return degree(self.num) <= degree(self.den)

    def __call__(self, s) -> complex:
        return poly_eval(self.num, s) / poly_eval(self.den, s)

    def __str__(self) -> str:
        return f"{format_poly(self.num)} / {format_poly(self.den)}"


@dataclass(frozen=True)
class StateSpace:
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray

    def __post_init__(self):
        a = np.atleast_2d(np.asarray(self.A, dtype=float))
        b = np.atleast_2d(np.asarray(self.B, dtype=float))
        c = np.atleast_2d(np.asarray(self.C, dtype=float))
        d = np.atleast_2d(np.asarray(self.D, dtype=float))
        n = a.shape[0]
        if a.shape != (n, n):
            raise DimensionError(f"A must be square, got {a.shape}")
        if b.shape[0] != n:
            raise DimensionError(f"B must have {n} rows, got {b.shape}")
        if c.shape[1] != n:
            raise DimensionError(f"C must have {n} columns, got {c.shape}")
        if d.shape != (c.shape[0], b.shape[1]):
            raise DimensionError(
                f"D must be {c.shape[0]} x {b.shape[1]}, got {d.shape}")
        for name, m in (("A", a), ("B", b), ("C", c), ("D", d)):
            object.__setattr__(self, name, m)

    @property
    def n_states(self) -> int:
        return self.A.shape[0]


@dataclass(frozen=True)
class StepMetrics:
    rise_time: float        # 10% -> 90% of the final value
    overshoot: float        # (peak - final) / |final|, floored at 0
    settling_time: float    # last exit from the +-2% band
    steady_state: float


@dataclass(frozen=True)
class PdGains:
    kp: float
    kd: float

    def __post_init__(self):
        if not (math.isfinite(self.kp) and math.isfinite(self.kd)):
            raise DomainError("PD gains must be finite")


def poles(tf: TransferFunction) -> list[complex]:
    return roots_dk(tf.den)


def zeros(tf: TransferFunction) -> list[complex]:
    if degree(tf.num) < 1:
        return []
    return roots_dk(tf.num)


def pd_tf(gains: PdGains) -> TransferFunction:
    """(kd s + kp) / 1. Improper alone; combine it in a closed loop."""
    return TransferFunction(np.array([gains.kp, gains.kd]), np.array([1.0]))


def unity_feedback(plant: TransferFunction, controller: TransferFunction,
                   precomp: float = 1.0) -> TransferFunction:
    """precomp * P C / (1 + P C), formed polynomially and required proper."""
    open_num = poly_mul(plant.num, controller.num)
    closed_den = poly_add(poly_mul(plant.den, controller.den), open_num)
    closed = TransferFunction(precomp * open_num, closed_den)
    if not closed.proper:
        raise DomainError("closed loop is improper; the plant must roll off")
    return closed


def dc_gain(tf: TransferFunction) -> float:
    den0 = float(tf.den[0])
    if den0 == 0.0:
        raise DomainError("pole at the origin; DC gain undefined")
    return float(tf.num[0]) / den0


def precompensator(tf: TransferFunction) -> float:
    """Static reference gain making the compensated DC gain exactly 1."""
    gain = dc_gain(tf)
    if gain == 0.0:
        raise DomainError("zero at the origin; cannot normalize DC gain")
    return 1.0 / gain


def tf_to_ss(tf: TransferFunction) -> StateSpace:
    """Controllable canonical realization of a proper transfer function."""
    if not tf.proper:
        raise DomainError("only proper transfer functions have a state-space form")
    den = tf.den / tf.den[-1]              # monic
    num = tf.num / tf.den[-1]
    n = len(den) - 1
    if n == 0:
        return StateSpace(np.zeros((0, 0)), np.zeros((0, 1)),
                          np.zeros((1, 0)), np.array([[num[0]]]))
    b = np.zeros(n + 1)
    b[: len(num)] = num
    d = b[n]
    a = np.zeros((n, n))
    a[:-1, 1:] = np.eye(n - 1)
    a[-1, :] = -den[:-1]
    c = (b[:n] - d * den[:-1])[None, :]
    bcol = np.zeros((n, 1))
    bcol[-1, 0] = 1.0
    return StateSpace(a, bcol, c, np.array([[d]]))


def ss_to_tf(ss: StateSpace) -> TransferFunction:
    """Transfer function of a SISO (A, B, C, D) via the Faddeev resolvent.

    den is the characteristic polynomial; num = C N(s) B + D den with N the
    adjugate expansion of (sI - A)^-1. Common factors are reported, never
    cancelled.
    """
    if ss.D.shape != (1, 1):
        raise DimensionError(f"ss_to_tf needs one input and one output, got {ss.D.shape[1]} "
                             f"inputs and {ss.D.shape[0]} outputs; restrict with subsystem first")
    den, resolvent = odesolve.faddeev(ss.A)
    n = ss.n_states
    num = np.zeros(n + 1)
    for k, mat in enumerate(resolvent):      # mat weights s^(n-1-k)
        num[n - 1 - k] = ss.C[0] @ mat @ ss.B[:, 0]
    num = num + ss.D[0, 0] * den
    return TransferFunction(num, den)


def subsystem(ss: StateSpace, states, outputs=None) -> StateSpace:
    """Exact structural restriction to a subset of states, all inputs kept.

    Valid only when the kept states evolve independently of the dropped ones
    (the corresponding A block is zero within _COUPLING_TOL, relative to
    1 + max |A|) and the kept outputs do not read them; anything else raises
    DomainError. This is a structure check, not a pole-zero cancellation.
    """
    states = list(states)
    outputs = list(range(ss.C.shape[0])) if outputs is None else list(outputs)
    dropped = [i for i in range(ss.n_states) if i not in states]
    scale = 1.0 + float(np.max(np.abs(ss.A))) if ss.A.size else 1.0
    if dropped:
        coupling = np.max(np.abs(ss.A[np.ix_(states, dropped)]))
        if coupling > _COUPLING_TOL * scale:
            raise DomainError(
                f"kept states couple to dropped states (|A| = {coupling:.3e})")
        if np.max(np.abs(ss.C[np.ix_(outputs, dropped)])) > _COUPLING_TOL:
            raise DomainError("kept outputs read dropped states")
    return StateSpace(ss.A[np.ix_(states, states)], ss.B[states],
                      ss.C[np.ix_(outputs, states)], ss.D[outputs])


def linearize(model: mech.MechanicalModel, q_eq, torques_eq) -> StateSpace:
    """Linear state-variable model about an equilibrium (q_eq, 0, Gamma_eq).

    States are x = (q, qdot), C selects q, D = 0. K is quadratic in qdot, so
    A = [[0, I], [A21, 0]] and B = [0; D^-1 B_u] exactly, column k of A21
    being -D^-1 (dG/dq_k + dD/dq_k qddot_eq) with D, dD/dq_k and qddot_eq
    exact from mech. Only dG/dq is differenced: fourth-order central at
    _DELTA on the exact G (Fornberg, Math. Comp. 51, 1988). The point must be
    an equilibrium: the residual qddot_eq is checked against 1e-6.
    """
    q_eq = np.atleast_1d(np.asarray(q_eq, dtype=float))
    torques_eq = np.atleast_1d(np.asarray(torques_eq, dtype=float))
    n, m = model.n_dof, model.n_inputs
    qdd_eq = mech.forward_dynamics(model, q_eq, np.zeros(n), torques_eq)
    residual = float(np.max(np.abs(qdd_eq), initial=0.0))
    if residual > 1e-6:
        raise DomainError(
            f"(q_eq, 0) is not an equilibrium: ||qddot||_inf = {residual:.3e}")
    rhs = list(model.input_map.T)
    for e in np.eye(n):
        g = [mech.gravity_vector(model, q_eq + j * _DELTA * e) for j in (2, 1, -1, -2)]
        rhs.append((g[0] - 8 * g[1] + 8 * g[2] - g[3]) / (12 * _DELTA)
                   - mech.mass_matrix_rate(model, q_eq, e) @ qdd_eq)
    d = mech.mass_matrix(model, q_eq)
    x = np.array([linalg.cholesky_solve(d, col) for col in rhs]).reshape(m + n, n).T
    a = np.block([[np.zeros((n, n)), np.eye(n)], [x[:, m:], np.zeros((n, n))]])
    b = np.vstack([np.zeros((n, m)), x[:, :m]])
    return StateSpace(a, b, np.hstack([np.eye(n), np.zeros((n, n))]), np.zeros((n, m)))


def step_response(tf: TransferFunction, T: float, dt: float) -> SampledSignal:
    """Unit-step output of the canonical realization on odesolve's time grid.

    Under a constant input the state obeys x_{k+1} = Phi x_k + Gamma exactly,
    where exp([[A, B], [0, 0]] h) = [[Phi, Gamma], [0, 1]] (Van Loan, IEEE TAC
    23(3), 1978). One matrix exponential serves every full step of length dt;
    a shortened final step gets its own. From rest, x_k = sum_{i<k} Phi^i Gamma,
    so x_{k+j} = Phi^k x_j + x_k: one product fills rows k+1..2k from rows
    1..k, and Phi^2k = (Phi^k)^2 (recursive doubling, Kogge & Stone, IEEE
    Trans. Computers C-22(8), 1973). N steps take ceil(log2 N) products with
    the record at every order, a static gain included. The powers are squared
    in np.longdouble, which keeps their roundoff far below float64's, and each
    is cast to float64 for its record product. An output beyond 1e150 in
    magnitude, where the metrics' arithmetic would overflow, raises DomainError
    with the time it happened; stability is response_metrics' verdict.
    """
    if T <= 0:
        raise DomainError("horizon must be positive")
    ss = tf_to_ss(tf)
    ts = odesolve._time_grid(0.0, T, dt)
    n = ss.n_states
    check_grid_size(len(ts) * n, "step response state record")
    xs = np.zeros((len(ts), n))
    phi, gamma = _step_map(ss, dt)
    last = ts[-1] - ts[-2]
    short = abs(last - dt) > 1e-9 * dt
    n_full = len(ts) - 2 if short else len(ts) - 1
    with np.errstate(over="ignore", invalid="ignore"):
        xs[1] = gamma
        power, k = phi.astype(np.longdouble), 1
        while k < n_full:
            r = min(k, n_full - k)
            rows = np.matmul(xs[1:1 + r], power.T.astype(float), out=xs[k + 1:k + 1 + r])
            rows += xs[k]
            power, k = power @ power, 2 * k
        if short:
            phi, gamma = _step_map(ss, last)
            xs[-1] = phi @ xs[-2] + gamma
        y = np.empty((len(ts), 1))      # a 1-D y would reach the signal as a view
        np.matmul(xs, ss.C[0], out=y[:, 0])
        y += ss.D[0, 0]
    blown = ~(np.abs(y) <= 1e150)        # also catches overflow to inf/nan
    if np.any(blown):
        t_blow = float(ts[int(np.argmax(blown))])
        raise DomainError(f"step response exceeds 1e150 at t = {t_blow} (overflow bound)")
    for record in (ts, y):              # adopted by the signal as they are
        record.setflags(write=False)
    return SampledSignal(ts, y)


def _step_map(ss: StateSpace, h: float) -> tuple[np.ndarray, np.ndarray]:
    """(Phi, Gamma) for one step of length h under a unit step input."""
    n = ss.n_states
    block = np.zeros((n + 1, n + 1))
    block[:n, :n] = ss.A
    block[:n, n] = ss.B[:, 0]
    expm = odesolve.matrix_exponential(block, h)
    return expm[:n, :n], expm[:n, n]


def _crossing_time(t: np.ndarray, y: np.ndarray, level: float) -> float:
    """First time y reaches the level: t[0], or linearly interpolated."""
    if (y[0] >= level) if level > 0 else (y[0] <= level):
        return float(t[0])
    off = y - level
    hits = np.nonzero((off[:-1] * off[1:] <= 0) & (y[:-1] != y[1:]))[0]
    if not len(hits):
        raise DomainError(f"response never reaches level {level}")
    k = int(hits[0]) + 1
    y0, y1 = y[k - 1], y[k]
    return float(t[k - 1] + (level - y0) / (y1 - y0) * (t[k] - t[k - 1]))


def response_metrics(sig: SampledSignal, tf: TransferFunction | None = None) -> StepMetrics:
    """Rise (10-90%), overshoot, 2% settling time, and the steady state.

    Given tf, the transfer function behind sig, with a DC gain, that gain is
    the final value, and a least damped pole with Re p >= -1e-9 |p| (an axis
    pole's computed real part has either sign at roundoff) raises DomainError:
    the record has no steady state. Otherwise the final value is the average
    over the last 5% of the record, and that stretch must lie within the 2%
    band around its average; a record that has not settled (a ramp, a slow
    drift) raises DomainError.
    """
    t = sig.t
    y = sig.channel(0)
    if tf is not None and tf.den[0] != 0.0:
        final = dc_gain(tf)
        if len(tf.den) > 1:                  # a static gain has no pole
            pole = max(poles(tf), key=lambda p: p.real / abs(p))
            if pole.real >= -1e-9 * abs(pole):
                raise DomainError(f"pole {pole:.6g} is not in the open left half-plane "
                                  "(Re >= -1e-9 |p|): the step response has no steady state")
    else:
        tail = y[-max(2, int(0.05 * len(y))):]
        final = float(np.mean(tail))
        if np.any(np.abs(tail - final) > 0.02 * abs(final)):
            raise DomainError("response has not settled: the last 5% of the record "
                              "leaves the 2% band around its average")
    if final == 0.0:
        raise DomainError("zero final value; metrics are undefined")
    t10 = _crossing_time(t, y, 0.1 * final)
    t90 = _crossing_time(t, y, 0.9 * final)
    peak = float(np.max(y)) if final > 0 else float(np.min(y))
    overshoot = max(0.0, (peak - final) / abs(final) * (1.0 if final > 0 else -1.0))
    outside = np.abs(y - final) > 0.02 * abs(final)
    settling = float(t[int(np.nonzero(outside)[0][-1])]) if np.any(outside) else float(t[0])
    return StepMetrics(max(0.0, t90 - t10), overshoot, settling, final)


def pd_pole_placement(plant: TransferFunction, wn: float, zeta: float) -> PdGains:
    """PD gains putting the unity-feedback poles of b / (s^2 + a1 s + a0) at
    the roots of s^2 + 2 zeta wn s + wn^2."""
    if wn <= 0 or zeta <= 0:
        raise DomainError("need wn > 0 and zeta > 0")
    if degree(plant.den) != 2 or degree(plant.num) != 0:
        raise DomainError(
            "pole placement needs a plant of the exact form b / (s^2 + a1 s + a0)")
    lead = plant.den[2]
    a0, a1 = plant.den[0] / lead, plant.den[1] / lead
    b = plant.num[0] / lead
    if b == 0.0:
        raise DomainError("plant gain is zero")
    return PdGains(kp=(wn ** 2 - a0) / b, kd=(2.0 * zeta * wn - a1) / b)
