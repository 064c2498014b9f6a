"""Dead reckoning from accelerometer records, with an optional two-gain
velocity/bias correction.

Velocity comes from running trapezoid integration of acceleration, position
from integrating the velocity estimate. The correction consumes external
velocity measurements (motion capture and the like): at each measurement,
snapped to the nearest trace sample, the innovation e = v_meas - v_hat feeds
a Luenberger-style update

    v_hat <- v_hat + l1 * e        b_hat <- b_hat - l2 * e

applied per axis; between events the accelerometer bias estimate b_hat is
subtracted before integrating. The measurement source, its rate, and the
two-gain form are design choices of this package, not dictated by the data.

There is one integrator and one Odometry record; plain dead reckoning is
the corrected integrator with no measurements and zero bias, and its record
has no bias history. It integrates one segment per measurement event: inside
a segment b_hat is constant, so velocity and position are each one
``np.cumsum`` that starts from the carried value, which forms every sum in
the order of a sample-by-sample loop and so gives the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError
from .signals import SampledSignal, read_csv, write_csv

# An ImuTrace is a SampledSignal whose channels are acceleration axes
# (1 to 3 of them, fixed across the record).
ImuTrace = SampledSignal

AXIS_NAMES = ("x", "y", "z")


def _check_trace(trace: SampledSignal) -> int:
    if trace.dim not in (1, 2, 3):
        raise DimensionError(f"IMU trace must have 1..3 axes, got {trace.dim}")
    return trace.dim


@dataclass(frozen=True)
class VelMeasurement:
    t: float
    v: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "v", np.atleast_1d(np.asarray(self.v, dtype=float)))


@dataclass(frozen=True)
class FilterGains:
    """l1 corrects velocity (dimensionless per event), l2 leaks the
    innovation into the bias estimate (1/s per event)."""

    l1: float
    l2: float

    def __post_init__(self):
        if not 0.0 <= self.l1 <= 2.0:
            raise DomainError(f"l1 must lie in [0, 2], got {self.l1}")
        if not 0.0 <= self.l2 < np.inf:
            raise DomainError(f"l2 must be finite and nonnegative, got {self.l2}")


@dataclass(frozen=True)
class Odometry:
    v: SampledSignal
    p: SampledSignal
    bias_history: SampledSignal | None = None

    @property
    def final_bias(self) -> np.ndarray:
        """Last bias estimate; zeros for plain dead reckoning."""
        return np.zeros(self.v.dim) if self.bias_history is None else self.bias_history.y[-1]


def dead_reckon(trace: ImuTrace, v0, p0) -> Odometry:
    """Integrate acceleration twice: v = v0 + int a, p = p0 + int v.

    This is bias_corrected_odometry without measurements or bias."""
    zero = np.zeros(trace.dim)
    out = bias_corrected_odometry(trace, (), FilterGains(0.0, 0.0), v0, p0, zero)
    return Odometry(out.v, out.p)


def _nearest_samples(t: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Index of the sample of ``t`` nearest each of ``times`` (all within
    [t[0], t[-1]]), with ``np.argmin(np.abs(t - time))``'s tie-break: a time
    exactly halfway between two samples goes to the earlier one."""
    j = np.searchsorted(t, times)                 # first t[j] >= time
    i = np.maximum(j - 1, 0)
    return np.where(np.abs(t[i] - times) <= np.abs(t[j] - times), i, j)


def bias_corrected_odometry(trace: ImuTrace, measurements, gains: FilterGains,
                            v0, p0, b0) -> Odometry:
    """Dead reckoning with bias-compensated acceleration and measurement
    corrections at the nearest trace samples.

    Measurements must be sorted by time and lie inside the trace span.
    Each snaps to its nearest sample; one exactly halfway between two
    samples goes to the earlier one.
    """
    d = _check_trace(trace)
    v0 = np.atleast_1d(np.asarray(v0, dtype=float))
    p0 = np.atleast_1d(np.asarray(p0, dtype=float))
    b0 = np.atleast_1d(np.asarray(b0, dtype=float))
    if not len(v0) == len(p0) == len(b0) == d:
        raise DimensionError(f"v0/p0/b0 must have dimension {d}")

    times, values = [], []
    for m in measurements:
        if times and m.t < times[-1]:
            raise DomainError("measurements must be sorted by time")
        if not trace.t[0] <= m.t <= trace.t[-1]:
            raise DomainError(f"measurement at t = {m.t} lies outside the trace span")
        if len(m.v) != d:
            raise DimensionError(f"measurement dimension {len(m.v)} != trace dimension {d}")
        times.append(m.t)
        values.append(m.v)
    events: dict[int, list[np.ndarray]] = {}
    for k, v_meas in zip(_nearest_samples(trace.t, np.array(times, dtype=float)), values):
        events.setdefault(int(k), []).append(v_meas)

    n = len(trace)
    t, a = trace.t, trace.y
    v = np.empty((n, d))
    p = np.empty((n, d))
    bias = np.empty((n, d))
    v_hat, p_hat, b_hat = v0.copy(), p0.copy(), b0.copy()
    starts = sorted(events.keys() | {0})
    for s, e in zip(starts, starts[1:] + [n]):
        for v_meas in events.get(s, ()):
            innovation = v_meas - v_hat
            v_hat = v_hat + gains.l1 * innovation
            b_hat = b_hat - gains.l2 * innovation
        # segment [s, e): b_hat is constant, steps k = s .. hi-1 reach sample k+1;
        # rows s .. hi hold the carry, then the increments, then their sums
        # (row e, if any, is rewritten by the next segment)
        hi = min(e, n - 1)
        w, q = v[s:hi + 1], p[s:hi + 1]
        dt = np.diff(t[s:hi + 1])[:, None]
        w[0], q[0] = v_hat, p_hat
        np.multiply(0.5 * ((a[s:hi] - b_hat) + (a[s + 1:hi + 1] - b_hat)), dt, out=w[1:])
        np.cumsum(w, axis=0, out=w)
        np.multiply(0.5 * (w[:-1] + w[1:]), dt, out=q[1:])
        np.cumsum(q, axis=0, out=q)
        bias[s:e] = b_hat
        v_hat, p_hat = w[-1].copy(), q[-1].copy()
    for record in (v, p, bias):         # adopted as they are, with the trace's t
        record.setflags(write=False)
    return Odometry(SampledSignal(t, v), SampledSignal(t, p), SampledSignal(t, bias))


@dataclass(frozen=True)
class AccelProfile:
    """Ground-truth acceleration profile for the synthetic trace generator."""

    kind: str                 # constant | sinusoid
    alpha: float = 0.0        # constant acceleration level
    amplitude: float = 0.0    # sinusoid amplitude
    omega: float = 0.0        # sinusoid angular rate

    @classmethod
    def rest(cls) -> "AccelProfile":
        return cls.constant(0.0)

    @classmethod
    def constant(cls, alpha: float) -> "AccelProfile":
        return cls("constant", alpha=alpha)

    @classmethod
    def sinusoid(cls, amplitude: float, omega: float) -> "AccelProfile":
        if omega <= 0:
            raise DomainError("sinusoid rate must be positive")
        return cls("sinusoid", amplitude=amplitude, omega=omega)

    def truth(self, t: np.ndarray):
        """Analytic (a, v, p) starting from rest at the origin."""
        if self.kind == "constant":
            a = np.full_like(t, self.alpha)
            return a, self.alpha * t, 0.5 * self.alpha * t ** 2
        if self.kind == "sinusoid":
            amp, om = self.amplitude, self.omega
            a = amp * np.sin(om * t)
            v = amp / om * (1.0 - np.cos(om * t))
            p = amp / om * t - amp / om ** 2 * np.sin(om * t)
            return a, v, p
        raise DomainError(f"unknown profile kind {self.kind!r}")


@dataclass(frozen=True)
class SyntheticTrace:
    trace: ImuTrace
    truth_v: SampledSignal
    truth_p: SampledSignal


def synth_imu(profile: AccelProfile, bias, noise_std: float, dt: float, T: float,
              seed: int = 0) -> SyntheticTrace:
    """Deterministic synthetic IMU record: measured a = true a + bias + noise.

    The same profile drives every axis; truth signals are integrated
    analytically. Identical seeds reproduce bit-identical traces.
    """
    if dt <= 0:
        raise DomainError("dt must be positive")
    if T < dt:
        raise DomainError("record length must cover at least one step")
    bias = np.atleast_1d(np.asarray(bias, dtype=float))
    d = len(bias)
    if d not in (1, 2, 3):
        raise DimensionError("bias dimension fixes the axis count and must be 1..3")
    n = int(round(T / dt))
    t = dt * np.arange(n + 1)
    a_true, v_true, p_true = profile.truth(t)
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal((n + 1, d)) * noise_std if noise_std > 0 else np.zeros((n + 1, d))
    measured = a_true[:, None] + bias[None, :] + noise
    return SyntheticTrace(
        SampledSignal(t, measured),
        SampledSignal(t, np.tile(v_true[:, None], (1, d))),
        SampledSignal(t, np.tile(p_true[:, None], (1, d))),
    )


def axis_headers(prefix: str, d: int) -> list[str]:
    """Column names ``<prefix>x[, <prefix>y[, <prefix>z]]`` for d axes."""
    return [prefix + AXIS_NAMES[i] for i in range(d)]


def _read_axes_csv(path, prefix: str, what: str) -> SampledSignal:
    """Peek at line 1 for the axis count d, then parse the file once against
    the exact header ``t,<prefix>x[,<prefix>y[,<prefix>z]]``."""
    with open(path, "r", encoding="utf-8") as fh:
        header = (fh.readline().splitlines() or [""])[0]
    d = header.count(",")
    if d not in (1, 2, 3):
        raise DomainError(f"{path}: line 1: {what} must have 1..3 axes")
    return read_csv(path, expected_headers=axis_headers(prefix, d))


def read_imu_csv(path) -> ImuTrace:
    """Read a trace with header ``t,ax[,ay[,az]]``."""
    return _read_axes_csv(path, "a", "IMU trace")


def read_measurements_csv(path) -> list[VelMeasurement]:
    """Read measurements with header ``t,vx[,vy[,vz]]``."""
    sig = _read_axes_csv(path, "v", "measurements")
    return [VelMeasurement(float(sig.t[k]), sig.y[k].copy()) for k in range(len(sig))]


def write_imu_csv(trace: ImuTrace, path) -> None:
    write_csv(trace, path, headers=axis_headers("a", _check_trace(trace)))


def write_measurements_csv(measurements, path) -> None:
    """Measurements CSV requires >= 2 rows, matching the signal contract."""
    ts = np.array([m.t for m in measurements])
    vs = np.array([m.v for m in measurements])
    write_csv(SampledSignal(ts, vs), path, headers=axis_headers("v", vs.shape[1]))


def write_odometry_csv(result, path) -> None:
    """Write ``t,vx,..,px,..[,bx,..]``, the b columns if there is a bias history."""
    d = result.v.dim
    more = [result.p]
    headers = axis_headers("v", d) + axis_headers("p", d)
    if result.bias_history is not None:
        more.append(result.bias_history)
        headers += axis_headers("b", d)
    write_csv(result.v, path, headers, *more)
