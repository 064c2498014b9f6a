"""Numerical Euler-Lagrange engine.

A model is its kinetic and potential energy functions K(q, qdot) and V(q)
and its input map B_u, whose rows give the degrees of freedom. The robot
equations come from energy evaluations alone. K is assumed quadratic in
qdot, K = qdot^T D(q) qdot / 2 (true of every model in the zoo), so D comes
by polarization with no step size: D_ii = 2 K(q, e_i) and
D_ij = K(q, e_i + e_j) - K(q, e_i) - K(q, e_j). A MechanicalModel checks
its energies once, when it is built: K(0, 2 e_i) = 4 K(0, e_i) and D(0)
positive definite, else DomainError, so every function below sees a checked
model. Ddot qdot is one central difference of D along qdot, and dL/dq
is the diffnum.gradient of L = K - V. forward_dynamics solves
d/dt(D qdot) - dL/dq = B_u Gamma without forming C or G; coriolis_matrix and
gravity_vector give the textbook D qddot + C qdot + G = B_u Gamma.
Finite-difference steps are fixed at 1e-4; the zoo energies are smooth
trig/polynomials at desk scale. Every energy value is checked for
finiteness (DomainError).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import diffnum
from .errors import DimensionError, DomainError
from .linalg import is_positive_definite, lu_solve
from .odesolve import IvpProblem, rk4_solve
from .signals import SampledSignal

_ENERGY_FD = diffnum.DiffConfig(h=1e-4, relative=False)


@dataclass(frozen=True)
class MechanicalModel:
    """Energies K(q, qdot), V(q) and the actuator input map B_u, whose
    n_dof x n_inputs shape fixes both sizes.

    Construction raises DomainError unless K is quadratic in qdot and D is
    positive definite at q = 0: 2n + n(n + 1)/2 evaluations of K."""

    kinetic: Callable[[np.ndarray, np.ndarray], float]
    potential: Callable[[np.ndarray], float]
    input_map: np.ndarray    # n_dof x n_inputs, torques -> generalized forces
    name: str = "model"

    def __post_init__(self):
        b = np.asarray(self.input_map, dtype=float)
        if b.ndim != 2:
            raise DimensionError(f"input map must be n_dof x n_inputs, got shape {b.shape}")
        object.__setattr__(self, "input_map", b)
        q0 = np.zeros(self.n_dof)
        _check_quadratic_kinetic(self, q0)
        if not is_positive_definite(_mass_matrix(self, q0)):
            raise DomainError(f"mass matrix of {self.name} is not positive definite at q = {q0}")

    @property
    def n_dof(self) -> int:
        return self.input_map.shape[0]

    @property
    def n_inputs(self) -> int:
        return self.input_map.shape[1]

    def energy(self, q, qd) -> float:
        return float(self.kinetic(q, qd)) + float(self.potential(q))


def _check_q(model: MechanicalModel, q) -> np.ndarray:
    q = np.atleast_1d(np.asarray(q, dtype=float))
    if len(q) != model.n_dof:
        raise DimensionError(f"configuration has {len(q)} coordinates, model has {model.n_dof}")
    return q


def _mass_matrix(model: MechanicalModel, q: np.ndarray) -> np.ndarray:
    """D(q) by polarization of the quadratic K, n(n + 1)/2 evaluations, exact
    to roundoff; q is already checked."""
    eye = np.eye(model.n_dof)
    k = [float(model.kinetic(q, e)) for e in eye]
    d = np.diag(2.0 * np.array(k))
    for i in range(model.n_dof):
        for j in range(i + 1, model.n_dof):
            d[i, j] = d[j, i] = float(model.kinetic(q, eye[i] + eye[j])) - k[i] - k[j]
    if not np.isfinite(d).all():
        raise DomainError(f"kinetic energy of {model.name} not finite at q = {q}")
    return d


def mass_matrix(model: MechanicalModel, q) -> np.ndarray:
    """D(q), the Hessian of K in the velocities, by polarization."""
    return _mass_matrix(model, _check_q(model, q))


def _check_quadratic_kinetic(model: MechanicalModel, q: np.ndarray) -> None:
    """DomainError unless K(q, 2 e_i) = 4 K(q, e_i) to 1e-9 relative for
    every i: the homogeneity that the polarized D relies on."""
    eye = np.eye(model.n_dof)
    k1 = np.array([4.0 * float(model.kinetic(q, e)) for e in eye])
    k2 = np.array([float(model.kinetic(q, 2.0 * e)) for e in eye])
    if not np.isfinite((k1, k2)).all():
        raise DomainError(f"kinetic energy of {model.name} not finite at q = {q}")
    bad = np.flatnonzero(np.abs(k2 - k1) > 1e-9 * np.maximum(np.abs(k1), np.abs(k2)))
    if len(bad):
        raise DomainError(f"kinetic energy of {model.name} is not quadratic in the "
                          f"velocities: K(q, 2 e_i) != 4 K(q, e_i) at q = {q}, "
                          f"i = {bad.tolist()}")


def gravity_vector(model: MechanicalModel, q) -> np.ndarray:
    """G(q) = grad V."""
    return diffnum.gradient(model.potential, _check_q(model, q), _ENERGY_FD)


def mass_matrix_rate(model: MechanicalModel, q, qd) -> np.ndarray:
    """dD/dt = sum_k dD/dq_k qdot_k: one central difference of D along qdot."""
    q, qd = _check_q(model, q), _check_q(model, qd)
    h = _ENERGY_FD.h
    return (_mass_matrix(model, q + h * qd) - _mass_matrix(model, q - h * qd)) / (2 * h)


def coriolis_matrix(model: MechanicalModel, q, qd) -> np.ndarray:
    """C = (Ddot + M - M^T) / 2 with M = d(D qdot)/dq: the Christoffel sum
    C_ij = sum_k (dD_ij/dq_k + dD_ik/dq_j - dD_jk/dq_i) qdot_k / 2 regrouped,
    so Ddot - 2C = M^T - M is skew by construction."""
    q, qd = _check_q(model, q), _check_q(model, qd)
    m = diffnum.jacobian(lambda qq: _mass_matrix(model, qq) @ qd, q, _ENERGY_FD)
    return 0.5 * (mass_matrix_rate(model, q, qd) + m - m.T)


def forward_dynamics(model: MechanicalModel, q, qd, torques) -> np.ndarray:
    """qddot = D^-1 (B_u Gamma - Ddot qdot + dL/dq), with L = K - V.

    One call costs 3n(n + 1)/2 + 4n energy evaluations: three polarized D's
    at n(n + 1)/2 evaluations of K each (at q and at q -/+ h qdot), plus 2n
    each of K and V for dL/dq. Polarization assumes K quadratic in qdot,
    which the model checked when it was built."""
    q, qd = _check_q(model, q), _check_q(model, qd)
    torques = np.atleast_1d(np.asarray(torques, dtype=float))
    if len(torques) != model.n_inputs:
        raise DimensionError(f"expected {model.n_inputs} torques, got {len(torques)}")
    dldq = diffnum.gradient(lambda v: model.kinetic(v, qd) - model.potential(v), q, _ENERGY_FD)
    rhs = model.input_map @ torques - mass_matrix_rate(model, q, qd) @ qd + dldq
    return lu_solve(_mass_matrix(model, q), rhs)


def simulate(model: MechanicalModel, controller, q0, qd0, T: float, dt: float) -> SampledSignal:
    """RK4 simulation of the full nonlinear model; states are [q; qdot].

    The controller (t, q, qdot) -> torques is sampled at every RK4 stage.
    None means zero input. Non-finite states abort with the blow-up time.
    """
    q0 = _check_q(model, q0)
    qd0 = _check_q(model, qd0)
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
