import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from calckit import odo
from calckit.errors import DimensionError, DomainError
from calckit.odo import (AccelProfile, FilterGains, VelMeasurement,
                         bias_corrected_odometry, dead_reckon, read_imu_csv,
                         read_measurements_csv, synth_imu, write_imu_csv,
                         write_measurements_csv, write_odometry_csv)
from calckit.signals import SampledSignal, read_csv


def constant_measurements(value, times, d=1):
    return [VelMeasurement(float(t), [value] * d) for t in times]


def test_coasting_at_constant_velocity():
    t = np.linspace(0.0, 2.0, 17)   # dt = 0.125 is exact in binary
    trace = SampledSignal(t, np.zeros_like(t))
    out = dead_reckon(trace, [3.0], [0.0])
    assert out.p.y[-1, 0] == 6.0
    assert np.all(out.v.y == 3.0)


def test_unit_acceleration_exact_parabola():
    t = np.linspace(0.0, 2.0, 201)
    trace = SampledSignal(t, np.ones_like(t))
    out = dead_reckon(trace, [0.0], [0.0])
    # trapezoid is exact for the affine velocity, so p = t^2/2 exactly
    assert out.v.y[-1, 0] == pytest.approx(2.0, abs=1e-13)
    assert out.p.y[-1, 0] == pytest.approx(2.0, abs=1e-12)
    assert np.max(np.abs(out.p.y[:, 0] - t ** 2 / 2.0)) < 1e-12


def test_axes_integrate_independently():
    t = np.linspace(0.0, 1.0, 11)
    a = np.column_stack([np.zeros_like(t), np.ones_like(t)])
    out = dead_reckon(SampledSignal(t, a), [0.0, 0.0], [5.0, 0.0])
    assert np.all(out.p.y[:, 0] == 5.0)
    assert out.p.y[-1, 1] > 0.0


def test_dead_reckon_dimension_check():
    t = np.linspace(0.0, 1.0, 5)
    trace = SampledSignal(t, np.zeros_like(t))
    with pytest.raises(DimensionError):
        dead_reckon(trace, [0.0, 0.0], [0.0])


def test_zero_gains_match_dead_reckoning():
    synth = synth_imu(AccelProfile.sinusoid(1.0, 2.0), [0.0], 0.0, 0.01, 5.0, seed=3)
    naive = dead_reckon(synth.trace, [0.0], [0.0])
    meas = constant_measurements(0.0, np.arange(0.5, 5.0, 0.5))
    filtered = bias_corrected_odometry(synth.trace, meas, FilterGains(0.0, 0.0),
                                       [0.0], [0.0], [0.0])
    assert np.array_equal(filtered.v.y, naive.v.y)
    assert np.array_equal(filtered.p.y, naive.p.y)


def test_bias_scenario_converges():
    # ground truth at rest, accelerometer reads the 0.1 bias; perfect
    # velocity measurements at 2 Hz with gains 0.5/0.5
    synth = synth_imu(AccelProfile.rest(), [0.1], 0.0, 0.01, 20.0, seed=0)
    meas = constant_measurements(0.0, np.arange(0.5, 20.0 + 1e-9, 0.5))
    out = bias_corrected_odometry(synth.trace, meas, FilterGains(0.5, 0.5),
                                  [0.0], [0.0], [0.0])
    assert abs(out.final_bias[0] - 0.1) <= 0.01
    assert abs(out.v.y[-1, 0]) <= 0.02


def test_uncorrected_drift_is_bias_times_time():
    synth = synth_imu(AccelProfile.rest(), [0.1], 0.0, 0.01, 20.0, seed=0)
    out = dead_reckon(synth.trace, [0.0], [0.0])
    assert out.v.y[-1, 0] == pytest.approx(2.0, abs=1e-9)


def test_correction_strictly_improves_position_error():
    synth = synth_imu(AccelProfile.rest(), [0.1], 0.0, 0.01, 20.0, seed=0)
    meas = constant_measurements(0.0, np.arange(0.5, 20.0 + 1e-9, 0.5))
    off = bias_corrected_odometry(synth.trace, meas, FilterGains(0.0, 0.0),
                                  [0.0], [0.0], [0.0])
    on = bias_corrected_odometry(synth.trace, meas, FilterGains(0.5, 0.5),
                                 [0.0], [0.0], [0.0])
    err_off = abs(off.p.y[-1, 0] - synth.truth_p.y[-1, 0])
    err_on = abs(on.p.y[-1, 0] - synth.truth_p.y[-1, 0])
    assert err_on < err_off


def test_measurement_outside_trace_rejected():
    synth = synth_imu(AccelProfile.rest(), [0.0], 0.0, 0.1, 1.0, seed=0)
    with pytest.raises(DomainError):
        bias_corrected_odometry(synth.trace, constant_measurements(0.0, [2.0]),
                                FilterGains(0.5, 0.5), [0.0], [0.0], [0.0])


def test_odometry_records_share_the_trace_timestamps():
    syn = synth_imu(AccelProfile.constant(0.2), [0.05, 0.1], 0.01, 0.01, 2.0, seed=2)
    zero = np.zeros(2)
    out = bias_corrected_odometry(syn.trace, constant_measurements(0.2, [1.0], 2),
                                  FilterGains(0.5, 0.5), zero, zero, zero)
    for sig in (out.v, out.p, out.bias_history):
        assert sig.t is syn.trace.t and not sig.y.flags.writeable


def test_gain_validation():
    with pytest.raises(DomainError):
        FilterGains(-0.1, 0.0)
    with pytest.raises(DomainError):
        FilterGains(2.5, 0.0)
    with pytest.raises(DomainError):
        FilterGains(0.5, -1.0)


@pytest.mark.parametrize("l2", [math.nan, math.inf, -math.inf])
def test_nonfinite_l2_is_rejected(l2):
    with pytest.raises(DomainError, match="l2"):
        FilterGains(0.5, l2)


def test_synth_rest_profile_is_silent():
    synth = synth_imu(AccelProfile.rest(), [0.0], 0.0, 0.1, 1.0, seed=9)
    assert np.all(synth.trace.y == 0.0)
    assert np.all(synth.truth_p.y == 0.0)


def test_synth_rest_equals_the_zero_truth_bit_for_bit():
    # reference: the "rest" branch of AccelProfile.truth before rest() became
    # constant(0.0), zeros for a, v and p
    bias, noise_std, dt, seed = np.array([0.1, -0.2, 0.3]), 0.2, 0.01, 5
    synth = synth_imu(AccelProfile.rest(), bias, noise_std, dt, 3.0, seed)
    zero = np.zeros(301)
    noise = np.random.default_rng(seed).standard_normal((301, 3)) * noise_std
    assert synth.trace.t.tobytes() == (dt * np.arange(301)).tobytes()
    assert synth.trace.y.tobytes() == (zero[:, None] + bias[None, :] + noise).tobytes()
    assert synth.truth_v.y.tobytes() == synth.truth_p.y.tobytes() == np.zeros((301, 3)).tobytes()


def test_synth_constant_accel_truth():
    synth = synth_imu(AccelProfile.constant(2.0), [0.0], 0.0, 0.01, 3.0, seed=1)
    assert np.array_equal(synth.truth_v.y[:, 0], 2.0 * synth.trace.t)


def test_synth_same_seed_bit_identical():
    a = synth_imu(AccelProfile.sinusoid(1.0, 3.0), [0.05], 0.02, 0.01, 2.0, seed=42)
    b = synth_imu(AccelProfile.sinusoid(1.0, 3.0), [0.05], 0.02, 0.01, 2.0, seed=42)
    assert np.array_equal(a.trace.y, b.trace.y)
    c = synth_imu(AccelProfile.sinusoid(1.0, 3.0), [0.05], 0.02, 0.01, 2.0, seed=43)
    assert not np.array_equal(a.trace.y, c.trace.y)


def test_dead_reckon_position_error_is_second_order_in_dt():
    profile = AccelProfile.sinusoid(1.0, 2.0)

    def max_err(dt):
        synth = synth_imu(profile, [0.0], 0.0, dt, 4.0, seed=0)
        out = dead_reckon(synth.trace, [0.0], [0.0])
        return np.max(np.abs(out.p.y - synth.truth_p.y))

    ratio = max_err(0.02) / max_err(0.01)
    assert 3.5 <= ratio <= 4.5


def test_csv_round_trip(tmp_path):
    synth = synth_imu(AccelProfile.sinusoid(0.5, 1.0), [0.1, -0.1], 0.01, 0.05, 2.0, seed=5)
    imu_path = tmp_path / "trace.csv"
    write_imu_csv(synth.trace, imu_path)
    back = read_imu_csv(imu_path)
    assert np.array_equal(back.t, synth.trace.t)
    assert np.array_equal(back.y, synth.trace.y)

    meas = [VelMeasurement(0.5, [0.1, 0.2]), VelMeasurement(1.0, [0.3, 0.4])]
    meas_path = tmp_path / "meas.csv"
    write_measurements_csv(meas, meas_path)
    back_meas = read_measurements_csv(meas_path)
    assert [m.t for m in back_meas] == [0.5, 1.0]
    assert np.array_equal(back_meas[1].v, [0.3, 0.4])


def test_odometry_csv_headers(tmp_path):
    synth = synth_imu(AccelProfile.rest(), [0.1], 0.0, 0.1, 1.0, seed=0)
    meas = constant_measurements(0.0, [0.5])
    out = bias_corrected_odometry(synth.trace, meas, FilterGains(0.5, 0.5),
                                  [0.0], [0.0], [0.0])
    path = tmp_path / "odo.csv"
    write_odometry_csv(out, path)
    header = path.read_text().splitlines()[0]
    assert header == "t,vx,px,bx"
    sig = read_csv(path)
    assert sig.dim == 3


def test_imu_csv_header_is_enforced(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,q0\n0.0,1.0\n0.1,1.0\n")
    with pytest.raises(DomainError):
        read_imu_csv(path)


def test_malformed_csv_reports_line_number(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,ax\n0.0,1.0\n0.1\n")
    with pytest.raises(DomainError, match="line 3"):
        read_imu_csv(path)


def test_read_imu_csv_peeks_axis_count(tmp_path):
    path = tmp_path / "four.csv"
    path.write_text("t,ax,ay,az,aw\n0.0,1,2,3,4\n0.1,1,2,3,4\n")
    with pytest.raises(DomainError, match="line 1: IMU trace must have 1..3 axes"):
        read_imu_csv(path)
    path.write_text("t,vx,vy\n0.0,1,2\n0.1,1,2\n")
    with pytest.raises(DomainError, match="expected header t,ax,ay"):
        read_imu_csv(path)
    assert len(read_measurements_csv(path)) == 2


# ------------------------------------------- segment-wise odometry vs the loop

def loop_odometry(trace, measurements, gains, v0, p0, b0):
    """Reference: the sample-by-sample loop with argmin snapping."""
    events = {}
    for m in measurements:
        k = int(np.argmin(np.abs(trace.t - m.t)))
        events.setdefault(k, []).append(m.v)
    n, d = trace.y.shape
    a = trace.y
    v, p, bias = np.empty((n, d)), np.empty((n, d)), np.empty((n, d))
    v_hat, p_hat, b_hat = (np.array(x, dtype=float) for x in (v0, p0, b0))
    for k in range(n):
        for v_meas in events.get(k, ()):
            innovation = v_meas - v_hat
            v_hat = v_hat + gains.l1 * innovation
            b_hat = b_hat - gains.l2 * innovation
        v[k], p[k], bias[k] = v_hat, p_hat, b_hat
        if k + 1 < n:
            dt = trace.t[k + 1] - trace.t[k]
            v_next = v_hat + 0.5 * ((a[k] - b_hat) + (a[k + 1] - b_hat)) * dt
            p_hat = p_hat + 0.5 * (v_hat + v_next) * dt
            v_hat = v_next
    return v, p, bias


def test_final_bias_is_the_last_row_of_the_history_and_zero_without_one():
    trace = synth_imu(AccelProfile.constant(0.5), [0.1, 0.2], 0.0, 0.01, 1.0).trace
    plain = dead_reckon(trace, [0.0, 0.0], [0.0, 0.0])
    assert plain.bias_history is None
    assert np.array_equal(plain.final_bias, np.zeros(2))
    meas = constant_measurements(0.25, [0.3, 0.6, 0.9], d=2)
    out = bias_corrected_odometry(trace, meas, FilterGains(0.5, 0.5), [0.0] * 2, [0.0] * 2,
                                  [0.0] * 2)
    assert out.final_bias.tobytes() == out.bias_history.y[-1].tobytes()
    assert np.all(out.final_bias != 0.0)


def assert_matches_loop(trace, meas, gains, v0, p0, b0):
    out = bias_corrected_odometry(trace, meas, gains, v0, p0, b0)
    v, p, bias = loop_odometry(trace, meas, gains, v0, p0, b0)
    assert np.array_equal(out.v.y, v)
    assert np.array_equal(out.p.y, p)
    assert np.array_equal(out.bias_history.y, bias)
    assert np.array_equal(out.final_bias, bias[-1])


finite = st.floats(-10.0, 10.0, allow_nan=False)
# where a fix lands between samples k and k+1: on k, halfway, or anywhere
fractions = st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0)


@st.composite
def odometry_cases(draw):
    d = draw(st.integers(1, 3))
    n = draw(st.integers(2, 40))
    t = np.cumsum([0.0] + draw(st.lists(st.floats(1e-3, 1.0), min_size=n - 1,
                                        max_size=n - 1)))
    a = np.array(draw(st.lists(finite, min_size=n * d, max_size=n * d))).reshape(n, d)
    picks = draw(st.lists(st.tuples(st.integers(0, n - 1), fractions), max_size=12))
    times = sorted(min(t[k] + f * (t[min(k + 1, n - 1)] - t[k]), t[-1]) for k, f in picks)
    meas = [VelMeasurement(float(tm), draw(st.lists(finite, min_size=d, max_size=d)))
            for tm in times]
    gains = FilterGains(draw(st.floats(0.0, 2.0)), draw(st.floats(0.0, 5.0)))
    v0, p0, b0 = (draw(st.lists(finite, min_size=d, max_size=d)) for _ in range(3))
    return SampledSignal(t, a), meas, gains, v0, p0, b0


@settings(max_examples=150, deadline=None)
@given(odometry_cases())
def test_segmented_odometry_equals_loop_bit_for_bit(case):
    assert_matches_loop(*case)


@pytest.mark.parametrize("fix_times", [
    [],                                  # no measurements: one segment
    [0.0, 0.0, 2.0],                     # events at sample 0, one snapped twice
    [2.0, 2.0],                          # both at the last sample
    [0.0, 0.5, 0.625, 1.0, 1.03, 2.0],   # first, halfway, exact and last samples
])
def test_segment_edges_equal_loop(fix_times):
    synth = synth_imu(AccelProfile.sinusoid(1.0, 2.0), [0.1, -0.2, 0.05], 0.02,
                      0.25, 2.0, seed=11)
    meas = [VelMeasurement(tm, [0.3 * i, -0.1, 0.2]) for i, tm in enumerate(fix_times)]
    assert_matches_loop(synth.trace, meas, FilterGains(0.7, 0.9),
                        [0.1, 0.2, 0.3], [1.0, -1.0, 0.5], [0.0, 0.01, -0.02])


def test_odometry_accepts_a_generator_of_measurements():
    synth = synth_imu(AccelProfile.rest(), [0.1], 0.0, 0.1, 2.0, seed=0)
    meas = constant_measurements(0.0, [0.5, 1.0, 1.5])
    listed = bias_corrected_odometry(synth.trace, meas, FilterGains(0.5, 0.5),
                                     [0.0], [0.0], [0.0])
    streamed = bias_corrected_odometry(synth.trace, iter(meas), FilterGains(0.5, 0.5),
                                       [0.0], [0.0], [0.0])
    assert np.array_equal(listed.v.y, streamed.v.y)


def test_measurement_checks_keep_their_messages():
    synth = synth_imu(AccelProfile.rest(), [0.0, 0.0], 0.0, 0.1, 1.0, seed=0)
    run = lambda meas: bias_corrected_odometry(synth.trace, meas, FilterGains(0.5, 0.5),
                                               [0.0, 0.0], [0.0, 0.0], [0.0, 0.0])
    with pytest.raises(DomainError, match="sorted by time"):
        run([VelMeasurement(0.5, [0, 0]), VelMeasurement(0.4, [0, 0])])
    with pytest.raises(DomainError, match="t = -0.1 lies outside the trace span"):
        run([VelMeasurement(-0.1, [0, 0])])
    with pytest.raises(DomainError, match="t = nan lies outside the trace span"):
        run([VelMeasurement(float("nan"), [0, 0])])
    with pytest.raises(DimensionError, match="measurement dimension 1 != trace dimension 2"):
        run([VelMeasurement(0.5, [0])])


# ------------------------------------------- snapping vs the argmin formula

def argmin_snap(t, times):
    return np.array([int(np.argmin(np.abs(t - tm))) for tm in times], dtype=int)


def test_snap_matches_argmin_on_edges():
    t = 0.25 * np.arange(9)              # dyadic: halfway points are exact
    times = np.array([0.0, 0.125, 0.25, 0.3, 0.375, 0.375, 1.0, 1.875, 1.9, 2.0])
    got = odo._nearest_samples(t, times)
    assert np.array_equal(got, argmin_snap(t, times))
    # halfway goes to the earlier sample; 0.3 and 0.375 both snap to sample 1
    assert list(got) == [0, 0, 1, 1, 1, 1, 4, 7, 8, 8]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=30),
       st.lists(st.tuples(st.integers(0, 30), fractions), max_size=20))
def test_snap_matches_argmin(dts, picks):
    t = np.cumsum([0.0] + dts)
    n = len(t)
    k = np.minimum([k for k, _ in picks], n - 1).astype(int)
    f = np.array([f for _, f in picks])
    times = np.sort(np.minimum(t[k] + f * (t[np.minimum(k + 1, n - 1)] - t[k]), t[-1]))
    assert np.array_equal(odo._nearest_samples(t, times), argmin_snap(t, times))


# ------------------------------------- dead reckoning vs its old cumsum formula

def formula_dead_reckon(trace, v0, p0):
    """Reference: the separate trapezoid integrator dead_reckon used to have."""
    dt = np.diff(trace.t)
    a = trace.y
    v = np.empty_like(a)
    v[0] = v0
    v[1:] = v0 + np.cumsum(0.5 * (a[:-1] + a[1:]) * dt[:, None], axis=0)
    p = np.empty_like(a)
    p[0] = p0
    p[1:] = p0 + np.cumsum(0.5 * (v[:-1] + v[1:]) * dt[:, None], axis=0)
    return v, p


@settings(max_examples=150, deadline=None)
@given(odometry_cases())
def test_dead_reckon_matches_old_formula(case):
    trace, _, _, v0, p0, _ = case
    zero = np.zeros(trace.dim)
    out = dead_reckon(trace, zero, zero)
    v, p = formula_dead_reckon(trace, zero, zero)
    assert out.v.y.tobytes() == v.tobytes()
    assert out.p.y.tobytes() == p.tobytes()
    # nonzero starts only change the order of the additions: bound the
    # roundoff by the same formula run on absolute values
    out = dead_reckon(trace, v0, p0)
    v, p = formula_dead_reckon(trace, v0, p0)
    v_abs, p_abs = formula_dead_reckon(SampledSignal(trace.t, np.abs(trace.y)),
                                       np.abs(v0), np.abs(p0))
    assert np.all(np.abs(out.v.y - v) <= 1e-12 * v_abs)
    assert np.all(np.abs(out.p.y - p) <= 1e-12 * p_abs)
