"""Constrained optimization, from a free throw to gymnastics and diving.

The free throw starts as a 2x2 linear solve, is re-posed as a minimization,
then gains equality constraints (fixed flight time, fixed launch speed).
The same null-space descent machinery then launches a rotating bar onto a
landing posture and schedules a diver's tuck for a vertical entry.
"""

import math

import numpy as np

from calckit import opt

print("== free throw: release at (0, 2), hoop at (4.6, 3.05) ==")
params = opt.FreeThrowParams([0.0, 2.0], [4.6, 3.05])
v = opt.freethrow_linear(params, tf=1.0)
print(f"  linear solve, tf = 1 s:  v0 = ({v[0]:.4f}, {v[1]:.4f}) m/s")

fixed = opt.freethrow_opt(params, "fixed_tf", tf=1.0)
print(f"  descent, tf pinned:      v0 = ({fixed.v[0]:.4f}, {fixed.v[1]:.4f})"
      f"  miss {fixed.miss_distance:.2e} m")

free = opt.freethrow_opt(params, "free")
print(f"  free (vx, vy, tf):       v0 = ({free.v[0]:.4f}, {free.v[1]:.4f})"
      f"  tf = {free.tf:.4f}  miss {free.miss_distance:.2e} m")

speed = opt.freethrow_opt(params, "fixed_speed", speed=9.0)
print(f"  speed pinned at 9 m/s:   v0 = ({speed.v[0]:.4f}, {speed.v[1]:.4f})"
      f"  |v0| = {math.hypot(*speed.v):.6f}")

print("\n== gymnast bar: land 1 m downrange, half rotation in the air ==")
model = opt.GymnastModel(half_length=0.5, m1=5.0, m2=5.0, p0=[0.0, 3.0],
                         p_land=[1.0, 0.0], theta_land=math.pi)
g = opt.gymnast_optimize(model)
land = model.p0 + g.v0 * g.tf - np.array([0.0, 0.5 * 9.81 * g.tf ** 2])
print(f"  launch v0 = ({g.v0[0]:.4f}, {g.v0[1]:.4f}) m/s, spin {g.omega:.4f} rad/s,"
      f" flight {g.tf:.4f} s")
print(f"  lands at ({land[0]:.6f}, {land[1]:.6f}) with {g.omega * g.tf / math.pi:.6f}"
      f" half-rotations")

print("\n== heavy bar: 1.8 m, 30 + 30 kg, land at (1.2, 2.0) with 2.5 rad ==")
heavy = opt.GymnastModel(half_length=0.9, m1=30.0, m2=30.0, p0=[0.0, 3.0],
                         p_land=[1.2, 2.0], theta_land=2.5)
h = opt.gymnast_optimize(heavy)
dx, dy = heavy.p_land - heavy.p0
area = dx * dx + dy * dy + heavy.inertia * heavy.theta_land ** 2
closed = 9.81 * (math.sqrt(area) + dy) / 2.0
print(f"  descent: {h.iterations} iterations, converged {h.converged}")
print(f"  objective {h.objective:.12f} against the closed form {closed:.12f}"
      f" (tf {h.tf:.6f} vs {(4.0 * area / 9.81 ** 2) ** 0.25:.6f} s)")

print("\n== diver: 10 m platform, one half rotation, 1 m clearance ==")
diver = opt.DiverModel(i_open=1.0, i_tuck=0.4, k=1, d_min=1.0)
d = opt.diver_optimize(diver)
print(f"  launch v0 = ({d.v0[0]:.4f}, {d.v0[1]:.4f}) m/s, momentum L = {d.L:.4f}")
print(f"  tuck window [{d.t_tuck_start:.3f}, {d.t_tuck_end:.3f}] s of"
      f" {d.entry_time:.3f} s flight")
print(f"  constraint residual {d.residual:.2e}; tucking lets a"
      f" smaller L satisfy the same rotation")
