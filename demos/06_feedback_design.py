"""Feedback design for the balancing robot, linear model to nonlinear test.

Linearize about upright, extract the lean subsystem as a transfer function,
place the closed-loop poles with a PD controller plus pre-compensator, read
the transient metrics, then drive the full nonlinear model with the same
gains. Writes the closed-loop step response as an SVG.
"""

import pathlib

import numpy as np

from calckit import lti, mech, odesolve, svgplot

OUT = pathlib.Path(__file__).parent / "output"
OUT.mkdir(exist_ok=True)

model = mech.cart_pole_segway()
ss = lti.linearize(model, [0.0, 0.0], [0.0])
eigs = odesolve.eigenvalues(ss.A)
print("== the upright model is unstable ==")
print("  open-loop eigenvalues:", ", ".join(f"{v.real:+.3f}{v.imag:+.3f}j" for v in eigs))

plant = lti.ss_to_tf(lti.subsystem(ss, [1, 3], outputs=[1]))
print(f"  lean plant: {plant}")

gains = lti.pd_pole_placement(plant, wn=3.0, zeta=0.9)
closed = lti.unity_feedback(plant, lti.pd_tf(gains))
pre = lti.precompensator(closed)
closed = lti.unity_feedback(plant, lti.pd_tf(gains), precomp=pre)
print(f"\n== PD placement at wn = 3, zeta = 0.9 ==")
print(f"  kp = {gains.kp:.4f}, kd = {gains.kd:.4f}, precompensator = {pre:.6f}")
print("  closed-loop poles:", ", ".join(f"{p.real:+.3f}{p.imag:+.3f}j"
                                        for p in lti.poles(closed)))
print(f"  closed-loop DC gain: {lti.dc_gain(closed):.12f}")

step = lti.step_response(closed, 4.0, 1e-3)
metrics = lti.response_metrics(step, closed)
print(f"  rise {metrics.rise_time:.3f} s, overshoot {100 * metrics.overshoot:.1f}%,"
      f" settling {metrics.settling_time:.3f} s")
svgplot.line_chart(OUT / "segway_step.svg", "closed-loop lean step response",
                   step.t, [("lean", step.y[:, 0])])
print(f"  wrote {OUT / 'segway_step.svg'}")

print("\n== same gains on the full nonlinear model ==")


def controller(t, q, qd):
    return np.array([-gains.kp * q[1] - gains.kd * qd[1]])


traj = mech.simulate(model, controller, [0.0, 0.05], [0.0, 0.0], 5.0, 2e-3)
lean = traj.y[:, 1]
print(f"  initial lean 0.05 rad; |lean| at t = 5 s: {abs(lean[-1]):.2e} rad")
print(f"  peak force during recovery: {np.max(np.abs(-gains.kp * traj.y[:, 1] - gains.kd * traj.y[:, 3])):.2f} N")
