"""Numerical Euler-Lagrange engine.

A model is its kinetic and potential energy functions K(q, qdot) and V(q)
and its input map B_u, whose rows give the degrees of freedom. The robot
equations come from energy evaluations alone. K is assumed quadratic in
qdot, K = qdot^T D(q) qdot / 2 (true of every model in the zoo), so D comes
by polarization with no step size: D_ii = 2 K(q, e_i) and
D_ij = K(q, e_i + e_j) - K(q, e_i) - K(q, e_j). Every derivative is a
complex step (Squire & Trapp, SIAM Review 40(1), 1998; Martins, Sturdza &
Alonso, ACM TOMS 29(3), 2003): for f analytic in q, Im f(q + i h v) / h is
the derivative of f along v with no difference to cancel, exact to roundoff
at h = 1e-30. K polarized at q + i h qdot gives D (real part) and h Ddot
(imaginary part), and dL/dq_k = Im (K - V)(q + i h e_k) / h, so
forward_dynamics solves d/dt(D qdot) - dL/dq = B_u Gamma by Cholesky on D at
n(n + 1)/2 + 2n energy evaluations, without forming C or G; coriolis_matrix
and gravity_vector give the textbook D qddot + C qdot + G = B_u Gamma.

A MechanicalModel checks its energies once, when it is built, so every
function below sees a checked model: at a fixed probe (q, v),
K(0, v) = v^T D(0) v / 2, D(0) is positive definite and the complex-step
gradients of K and V equal a central difference, which refuses an energy
built on np.abs, float() or math functions. Each check raises DomainError
naming the model, and so does any energy value not finite in its real or
imaginary part.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DimensionError, DomainError, SingularityError
from .linalg import _cholesky_solve_rows, is_positive_definite
from .odesolve import IvpProblem, rk4_solve
from .signals import SampledSignal

_H = 1e-30              # complex step: the O(h^2) error is far below roundoff
_PROBE_FD_H = 1e-5      # central-difference step of the construction probe
_PROBE_RTOL = 1e-6


@dataclass(frozen=True)
class MechanicalModel:
    """Energies K(q, qdot), V(q) and the actuator input map B_u, whose
    n_dof x n_inputs shape fixes both sizes.

    Construction raises DomainError unless K(0, v) = v^T D(0) v / 2 at a
    probe velocity v, D(0) is positive definite and K and V are analytic in
    q at a fixed probe: n(n + 1)/2 + 1 + 3n evaluations of K and 3n of V."""

    kinetic: Callable[[np.ndarray, np.ndarray], float]
    potential: Callable[[np.ndarray], float]
    input_map: np.ndarray    # n_dof x n_inputs, torques -> generalized forces
    name: str = "model"

    def __post_init__(self):
        b = np.asarray(self.input_map, dtype=float)
        if b.ndim != 2:
            raise DimensionError(f"input map must be n_dof x n_inputs, got shape {b.shape}")
        object.__setattr__(self, "input_map", b)
        _check_energies(self)

    @property
    def n_dof(self) -> int:
        return self.input_map.shape[0]

    @property
    def n_inputs(self) -> int:
        return self.input_map.shape[1]

    def energy(self, q, qd) -> float:
        return float(self.kinetic(q, qd)) + float(self.potential(q))


def _not_positive_definite(model: MechanicalModel, q: np.ndarray) -> DomainError:
    return DomainError(f"mass matrix of {model.name} is not positive definite at q = {q}")


def _not_finite(what: str, model: MechanicalModel, q: np.ndarray) -> DomainError:
    return DomainError(f"{what} of {model.name} not finite at q = {q}")


def _check_q(model: MechanicalModel, q) -> np.ndarray:
    q = np.atleast_1d(np.asarray(q, dtype=float))
    if len(q) != model.n_dof:
        raise DimensionError(f"configuration has {len(q)} coordinates, model has {model.n_dof}")
    return q


def _polarized(model: MechanicalModel, z: np.ndarray) -> list[list[complex]]:
    """K(z, .) polarized into rows of Python complex numbers, n(n + 1)/2
    evaluations. For real z = q this is D(q); for z = q + i h v the real
    part is D(q) and the imaginary part h times the derivative of D along v."""
    n = len(z)
    eye = np.eye(n)
    k = [complex(model.kinetic(z, e)) for e in eye]
    rows = [[0j] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = 2.0 * k[i]
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = complex(model.kinetic(z, eye[i] + eye[j])) - k[i] - k[j]
    if not all(cmath.isfinite(x) for row in rows for x in row):
        raise _not_finite("kinetic energy", model, z.real)
    return rows


def _along_axes(model: MechanicalModel, f, q: np.ndarray, what: str) -> list[complex]:
    """f(q + i h e_k) for k = 1..n, n evaluations: the real parts are f(q)
    and the imaginary parts h df/dq_k. DomainError unless every value is
    finite in both parts."""
    values = [complex(f(z)) for z in q + 1j * _H * np.eye(len(q))]
    if not all(map(cmath.isfinite, values)):
        raise _not_finite(what, model, q)
    return values


def mass_matrix(model: MechanicalModel, q) -> np.ndarray:
    """D(q), the Hessian of K in the velocities, by polarization of the
    quadratic K: n(n + 1)/2 evaluations, exact to roundoff."""
    q = _check_q(model, q)
    n = len(q)
    return np.array([[x.real for x in row] for row in _polarized(model, q)]).reshape(n, n)


def _check_energies(model: MechanicalModel) -> None:
    """DomainError unless, at the probe q_k = 0.3 k, qdot_k = 0.5 (-1)^k:
    K(0, qdot) = qdot^T D(0) qdot / 2 to 1e-9 of its terms' magnitude, D(0)
    is positive definite, and the complex-step gradients of K(., qdot) and V
    match a central difference to 1e-6 of max(|gradient|, |energy|). An
    energy that raises TypeError or casts a complex q to real is refused."""
    n = model.n_dof
    q0 = np.zeros(n)
    q = 0.3 * np.arange(1, n + 1)
    qd = 0.5 * (-1.0) ** np.arange(n)
    d = mass_matrix(model, q0)
    k = float(model.kinetic(q0, qd))
    if not math.isfinite(k):
        raise _not_finite("kinetic energy", model, q0)
    form = 0.5 * qd @ d @ qd
    if abs(k - form) > 1e-9 * max(abs(k), 0.5 * np.abs(qd) @ np.abs(d) @ np.abs(qd)):
        raise DomainError(f"kinetic energy of {model.name} is not quadratic in the velocities: "
                          f"K(0, v) = {k:.12g} != v^T D(0) v / 2 = {form:.12g} at v = {qd}")
    if not is_positive_definite(d):
        raise _not_positive_definite(model, q0)
    steps = _PROBE_FD_H * np.eye(n)
    for what, f in (("kinetic energy", lambda v: model.kinetic(v, qd)),
                    ("potential energy", model.potential)):
        with warnings.catch_warnings():
            warnings.simplefilter("error", np.exceptions.ComplexWarning)
            try:
                values = np.array(_along_axes(model, f, q, what))
            except (TypeError, np.exceptions.ComplexWarning) as exc:
                raise DomainError(f"{what} of {model.name} is not analytic in q: "
                                  f"a complex q gave {type(exc).__name__}: {exc}") from None
        central = np.array([float(f(q + s)) - float(f(q - s)) for s in steps]) / (2 * _PROBE_FD_H)
        if not np.isfinite(central).all():
            raise _not_finite(what, model, q)
        error = np.max(np.abs(values.imag / _H - central), initial=0.0)
        scale = np.max(np.abs(np.concatenate([central, values.real])), initial=0.0)
        if error > _PROBE_RTOL * scale:
            raise DomainError(f"{what} of {model.name} is not analytic in q: its "
                              f"complex-step gradient is off the central difference by "
                              f"{error:.3g} at q = {q}")


def gravity_vector(model: MechanicalModel, q) -> np.ndarray:
    """G(q) = grad V, by complex step: n evaluations of V."""
    q = _check_q(model, q)
    return np.array([v.imag / _H
                     for v in _along_axes(model, model.potential, q, "potential energy")])


def mass_matrix_rate(model: MechanicalModel, q, qd) -> np.ndarray:
    """dD/dt = sum_k dD/dq_k qdot_k, Im D(q + i h qdot) / h: one
    polarization."""
    q, qd = _check_q(model, q), _check_q(model, qd)
    n = len(q)
    rows = _polarized(model, q + 1j * _H * qd)
    return np.array([[x.imag / _H for x in row] for row in rows]).reshape(n, n)


def coriolis_matrix(model: MechanicalModel, q, qd) -> np.ndarray:
    """C = (Ddot + M - M^T) / 2 with M = d(D qdot)/dq: the Christoffel sum
    C_ij = sum_k (dD_ij/dq_k + dD_ik/dq_j - dD_jk/dq_i) qdot_k / 2 regrouped,
    so Ddot - 2C = M^T - M is skew by construction. Column k of M is
    dD/dq_k qdot, one complex step along e_k."""
    q, qd = _check_q(model, q), _check_q(model, qd)
    m = np.array([mass_matrix_rate(model, q, e) @ qd for e in np.eye(len(q))]).T
    return 0.5 * (mass_matrix_rate(model, q, qd) + m - m.T)


def forward_dynamics(model: MechanicalModel, q, qd, torques) -> np.ndarray:
    """qddot = D^-1 (B_u Gamma - Ddot qdot + dL/dq), with L = K - V.

    One call costs n(n + 1)/2 + 2n energy evaluations, all by complex step
    with h = 1e-30 and exact to roundoff: K polarized once at q + i h qdot
    gives D (real part) and Ddot (imaginary part over h), and K - V at
    q + i h e_k gives dL/dq_k. Both need K quadratic in qdot and K, V
    analytic in q, which the model checked when it was built. D is solved by
    Cholesky on Python floats; a D that is not positive definite at q (a
    model checked only at q = 0) raises DomainError "mass matrix of <name>
    is not positive definite at q = ...", and non-finite torques or
    generalized forces raise DomainError."""
    q, qd = _check_q(model, q), _check_q(model, qd)
    torques = np.atleast_1d(np.asarray(torques, dtype=float))
    if len(torques) != model.n_inputs:
        raise DimensionError(f"expected {model.n_inputs} torques, got {len(torques)}")
    d = _polarized(model, q + 1j * _H * qd)
    dl = _along_axes(model, lambda z: model.kinetic(z, qd) - model.potential(z), q, "energy")
    v = qd.tolist()
    rhs = [f - sum(x.imag * vj for x, vj in zip(row, v)) / _H + g.imag / _H
           for row, f, g in zip(d, (model.input_map @ torques).tolist(), dl)]
    if not all(map(math.isfinite, rhs)):
        raise DomainError(f"generalized forces of {model.name} not finite at q = {q}")
    try:
        return np.array(_cholesky_solve_rows([[x.real for x in row] for row in d], rhs))
    except SingularityError:
        raise _not_positive_definite(model, q) from None


def simulate(model: MechanicalModel, controller, q0, qd0, T: float, dt: float) -> SampledSignal:
    """RK4 simulation of the full nonlinear model; states are [q; qdot].

    The controller (t, q, qdot) -> torques is sampled at every RK4 stage.
    None means zero input. Non-finite states abort with the blow-up time.
    """
    q0, qd0 = _check_q(model, q0), _check_q(model, qd0)
    n = model.n_dof
    zero = np.zeros(model.n_inputs)

    def rhs(t, x):
        q, qd = x[:n], x[n:]
        torques = zero if controller is None else controller(t, q, qd)
        return np.concatenate([qd, forward_dynamics(model, q, qd, torques)])

    prob = IvpProblem(rhs, np.concatenate([q0, qd0]), 0.0, T)
    return rk4_solve(prob, dt)


# ---------------------------------------------------------------- model zoo

def pendulum(mass: float = 1.0, length: float = 1.0, gravity: float = 9.81) -> MechanicalModel:
    """Point-mass pendulum; q = angle from the hanging position."""

    def kinetic(q, qd):
        return 0.5 * mass * length ** 2 * qd[0] ** 2

    def potential(q):
        return mass * gravity * length * (1.0 - np.cos(q[0]))

    return MechanicalModel(kinetic, potential, np.array([[1.0]]), name="pendulum")


def cart_pole_segway(cart_mass: float = 1.0, pole_mass: float = 1.0,
                     length: float = 1.0, gravity: float = 9.81) -> MechanicalModel:
    """Cart with an inverted point-mass pole; q = (cart position, lean angle),
    lean measured from upright. The single input is the horizontal force on
    the cart, the planar stand-in for a wheel torque."""

    def kinetic(q, qd):
        x_dot, th_dot = qd[0], qd[1]
        return (0.5 * (cart_mass + pole_mass) * x_dot ** 2
                + pole_mass * length * x_dot * th_dot * np.cos(q[1])
                + 0.5 * pole_mass * length ** 2 * th_dot ** 2)

    def potential(q):
        return pole_mass * gravity * length * np.cos(q[1])

    return MechanicalModel(kinetic, potential, np.array([[1.0], [0.0]]), name="segway")


def planar_ballbot(ball_mass: float = 0.6, ball_radius: float = 0.12,
                   ball_inertia: float | None = None, torso_mass: float = 8.0,
                   torso_inertia: float = 0.24, com_offset: float = 0.3,
                   gravity: float = 9.81) -> MechanicalModel:
    """Torso balancing on a rolling ball; q = (ball angle, torso lean).

    The ball rolls without slipping (x = r * phi); the torso pivots about
    the ball center with its center of mass com_offset above it. One torque
    acts between torso and ball with the (+1, -1) reaction convention.
    Defaults are a documented test fixture, not measured hardware.
    """
    if ball_inertia is None:
        ball_inertia = 0.5 * ball_mass * ball_radius ** 2
    r, ell = ball_radius, com_offset

    def kinetic(q, qd):
        phi_dot, th_dot = qd[0], qd[1]
        vx_ball = r * phi_dot
        vx_t = r * phi_dot + ell * th_dot * np.cos(q[1])
        vy_t = -ell * th_dot * np.sin(q[1])
        return (0.5 * ball_mass * vx_ball ** 2 + 0.5 * ball_inertia * phi_dot ** 2
                + 0.5 * torso_mass * (vx_t ** 2 + vy_t ** 2)
                + 0.5 * torso_inertia * th_dot ** 2)

    def potential(q):
        return torso_mass * gravity * ell * np.cos(q[1])

    return MechanicalModel(kinetic, potential, np.array([[1.0], [-1.0]]), name="ballbot")


def gymnast_bar(m1: float = 30.0, m2: float = 30.0, half_length: float = 0.9,
                gravity: float = 9.81) -> MechanicalModel:
    """Free-floating bar with tip masses; q = (x, y, orientation).

    Unactuated: flight-phase dynamics only. Its rotational inertia
    (m1 + m2) * half_length^2 is the one the launch optimizer prices.
    """
    total = m1 + m2
    inertia = total * half_length ** 2

    def kinetic(q, qd):
        return 0.5 * total * (qd[0] ** 2 + qd[1] ** 2) + 0.5 * inertia * qd[2] ** 2

    def potential(q):
        return total * gravity * q[1]

    return MechanicalModel(kinetic, potential, np.zeros((3, 0)), name="gymnast_bar")


MODEL_ZOO = {
    "pendulum": pendulum,
    "segway": cart_pole_segway,
    "ballbot": planar_ballbot,
    "gymnast_bar": gymnast_bar,
}
