"""Robot equations straight from energies, no symbolic algebra.

Write K(q, qdot) and V(q), and the mass matrix, Coriolis matrix, and
gravity vector fall out of complex-step differentiation. The demo checks the
classic structural properties and simulates the planar ballbot; the
simulation solves the Euler-Lagrange equation without forming C.
"""

import math

import numpy as np

from calckit import mech

print("== cart-pole from its energies ==")
model = mech.cart_pole_segway(cart_mass=1.0, pole_mass=1.0, length=1.0)
q = np.array([0.0, math.pi / 4.0])
qd = np.array([0.2, 1.0])
C = mech.coriolis_matrix(model, q, qd)
print(f"  D(q) =\n{mech.mass_matrix(model, q)}")
print(f"  C(q, qd) =\n{C}")
print(f"  G(q) = {mech.gravity_vector(model, q)}")

skew = mech.mass_matrix_rate(model, q, qd) - 2.0 * C
print(f"  || (Ddot - 2C) + (Ddot - 2C)^T ||_inf = {np.max(np.abs(skew + skew.T)):.2e}"
      "   (skew by construction of coriolis_matrix)")

print("\n== pendulum: conservation over 10 s of RK4 ==")
pend = mech.pendulum()
e0 = pend.energy([1.0], [0.0])
sig = mech.simulate(pend, None, [1.0], [0.0], 10.0, 1e-3)
eT = pend.energy(sig.y[-1, :1], sig.y[-1, 1:])
print(f"  relative energy drift: {abs(eT - e0) / abs(e0):.2e}")

print("\n== planar ballbot: torque between torso and ball ==")
bot = mech.planar_ballbot()
qdd = mech.forward_dynamics(bot, [0.0, 0.0], [0.0, 0.0], [1.0])
print(f"  unit torque at upright: ball spins {qdd[0]:+.3f}, torso reacts {qdd[1]:+.3f}")
push = mech.simulate(bot, None, [0.0, 0.02], [0.0, 0.0], 1.0, 1e-3)
print(f"  open loop from a 0.02 rad lean, 1 s later: lean = {push.y[-1, 1]:.3f} rad"
      "   (falls; see the feedback demo)")
