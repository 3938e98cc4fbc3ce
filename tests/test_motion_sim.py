"""Forward motion model: line following, encoder totals, pivots, free arcs."""

import hashlib
import math
import statistics

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linemaze import motion_sim
from linemaze.errors import MotionDivergenceError
from linemaze.motion_sim import (EncoderLog, MotionParams, radius_from_ratio,
                                 simulate_segment)
from oracles import step_loop_integrate


def polyline_length(points):
    return sum(math.hypot(b[0] - a[0], b[1] - a[1])
               for a, b in zip(points, points[1:]))


# ------------------------------------------------------------ exact cases

def test_perfect_robot_rolls_exactly_the_segment():
    p = MotionParams(alpha=0.0, speed_ratio=1.0)
    log = simulate_segment(10.0, p)
    assert log.wl_total == 10.0
    assert log.wr_total == 10.0
    assert log.turn_count == 0
    assert log.trajectory == ((0.0, 0.0), (10.0, 0.0))
    assert log.true_length == 10.0


def test_kernel_wheel_accounting_without_pivot_charges():
    # With pivot charges zeroed the wheel totals are exactly the per-wheel
    # factors times the midpoint path, so their ratio equals fr/fl.
    p = MotionParams(alpha=0.0, speed_ratio=2.5,
                     pivot_arc_left=0.0, pivot_lin_left=0.0,
                     pivot_arc_right=0.0, pivot_lin_right=0.0,
                     inner_rot_const=0.0)
    fl, fr = p.wheel_factors()
    log = simulate_segment(10.0, p)
    assert log.turn_count > 0
    assert log.wr_total / log.wl_total == pytest.approx(fr / fl, rel=1e-12)


def test_radius_from_ratio():
    assert radius_from_ratio(1.1, 10.0) == pytest.approx(100.0, rel=1e-12)
    assert radius_from_ratio(1.2, 12.0) == pytest.approx(60.0, rel=1e-12)
    assert radius_from_ratio(1.0, 10.0) == math.inf
    # Left-faster robots curve the other way: signed, negative radius.
    assert radius_from_ratio(0.9, 10.0) == pytest.approx(-100.0, rel=1e-12)


def test_kappa_and_wheel_factors():
    p = MotionParams()
    rho = p.speed_ratio
    assert p.kappa == pytest.approx(
        2.0 * (rho - 1.0) / (p.wheel_base * (rho + 1.0)), rel=1e-15)
    fl, fr = p.wheel_factors()
    assert fr / fl == pytest.approx(rho, rel=1e-12)
    assert fl + fr == pytest.approx(2.0, rel=1e-15)
    assert MotionParams(speed_ratio=1.0).kappa == 0.0


# ------------------------------------------------------ noisy wheel totals

def test_wheel_readout_overestimates_at_defaults():
    p = MotionParams()
    log = simulate_segment(10.0, p, seed=0)
    assert 10.1 <= log.wl_total <= 10.4
    assert 10.1 <= log.wr_total <= 10.4

    wls = [simulate_segment(10.0, p, seed=s).wl_total for s in range(100)]
    assert 10.1 <= statistics.median(wls) <= 10.4
    # Every draw overestimates: zigzag plus pivot charges only add length.
    assert all(w > 10.0 for w in wls)


def test_wheel_readout_overestimates_with_matched_wheels():
    p = MotionParams(speed_ratio=1.0)
    for s in range(100):
        log = simulate_segment(10.0, p, seed=s)
        assert log.wl_total > 10.0
        assert log.wr_total > 10.0


def test_zigzag_path_length_matches_sawtooth_model():
    # Matched wheels and a thin line band: the midpoint path is a sawtooth
    # of straight legs tilted by the pivot exit angle, so the polyline is
    # length/cos(theta) long.
    p = MotionParams(h=0.02, alpha=math.radians(10.0), theta=math.radians(10.0),
                     speed_ratio=1.0)
    log = simulate_segment(10.0, p, seed=0)
    expected = 10.0 / math.cos(math.radians(10.0))
    assert polyline_length(log.trajectory) == pytest.approx(expected, rel=1e-2)
    assert log.turn_count > 30


def test_endpoint_lands_on_the_stop_marker():
    p = MotionParams()
    for s in range(50):
        log = simulate_segment(14.0, p, seed=s)
        x_end, y_end = log.trajectory[-1]
        assert x_end == 14.0
        assert abs(y_end) <= p.h + p.step


def test_trajectory_shape():
    p = MotionParams()
    log = simulate_segment(10.0, p, seed=3)
    assert log.trajectory[0] == (0.0, 0.0)
    assert log.trajectory[-1][0] == 10.0
    assert len(log.trajectory) == log.turn_count + 2
    # Pivot points sit on the band edges.
    for x, y in log.trajectory[1:-1]:
        assert 0.0 < x < 10.0
        assert abs(y) == pytest.approx(p.h, abs=p.step)


def test_all_turns_on_one_side_when_only_drift_bends_the_path():
    # No initial tilt, strong wheel mismatch: the robot always drifts the
    # same way, so every pivot is a right turn.
    p = MotionParams(alpha=0.0, speed_ratio=2.5)
    log = simulate_segment(10.0, p)
    assert log.n_left == 0
    assert log.n_right > 0
    assert log.turn_count == abs(log.n_right - log.n_left)


def test_determinism_and_seed_defaulting():
    p = MotionParams(seed=7)
    a = simulate_segment(10.0, p)
    b = simulate_segment(10.0, p)
    c = simulate_segment(10.0, p, seed=7)
    assert a == b == c
    d = simulate_segment(10.0, p, seed=8)
    assert d != a


def test_ideal_mode_ignores_seed():
    p = MotionParams(alpha=0.0, speed_ratio=1.0)
    assert simulate_segment(10.0, p, seed=1) == simulate_segment(10.0, p, seed=2)


# ------------------------------------------------------------ exact output

# (length, MotionParams overrides): defaults over a range of lengths, plus
# the edge cases matched wheels, strong drift, no tilt and a thin band.
KERNEL_CASES = [
    (0.7, {}), (3.0, {}), (8.0, {}), (10.0, {}), (14.0, {}), (25.0, {}),
    (10.0, dict(speed_ratio=1.0)),
    (10.0, dict(speed_ratio=2.5)),
    (10.0, dict(alpha=0.0)),
    (25.0, dict(h=0.02)),
]
KERNEL_SEEDS = range(20)
# Any change to a float, a pivot or the divergence message moves the digest,
# which pins the leg-jump kernel's output across processes bit for bit.
# Re-record only for a change meant to alter the kernel's output:
# ``PYTHONPATH=src python tests/test_motion_sim.py``
KERNEL_DIGEST = (
    "39efdb7951b1ede13a6ec3005d4a716cf2468b1ce8185c4ba63bda9034e84b99")


def kernel_digest():
    lines = []
    for length, overrides in KERNEL_CASES:
        p = MotionParams(**overrides)
        for s in KERNEL_SEEDS:
            lines.append(repr(simulate_segment(length, p, seed=s)))
    try:
        simulate_segment(200.0, MotionParams(h=200.0, alpha=0.0,
                                             speed_ratio=1.1))
    except MotionDivergenceError as exc:
        lines.append(str(exc))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_kernel_output_is_bit_identical_to_the_recorded_digest():
    assert kernel_digest() == KERNEL_DIGEST


def test_kernel_backend_is_pure_python():
    assert motion_sim.KERNEL_BACKEND == "pure"


# ------------------------------------------------ against the step loop

def simulate_both(length, p, seed):
    """``simulate_segment`` with the leg-jump kernel and with the step loop.

    Each side is the EncoderLog, or the divergence message if it raised.
    """
    out = []
    for kernel in (motion_sim._integrate, step_loop_integrate):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(motion_sim, "_integrate", kernel)
            try:
                out.append(simulate_segment(length, p, seed=seed))
            except MotionDivergenceError as exc:
                out.append(str(exc))
    return out


def assert_same_run(jumped, stepped, length):
    """Same decisions (pivots, their sides, divergence); floats that differ
    only by rounding: wheel totals and pivot coordinates within 1e-9
    relative. The end point's lateral offset can sit near 0, so it gets
    an absolute tolerance that grows with the distance travelled."""
    if isinstance(stepped, str):
        assert jumped == stepped
        return
    assert (jumped.n_right, jumped.n_left, len(jumped.trajectory)) == \
        (stepped.n_right, stepped.n_left, len(stepped.trajectory))
    assert jumped.wl_total == pytest.approx(stepped.wl_total, rel=1e-9)
    assert jumped.wr_total == pytest.approx(stepped.wr_total, rel=1e-9)
    for a, b in zip(jumped.trajectory[:-1], stepped.trajectory[:-1]):
        assert (math.isclose(a[0], b[0], rel_tol=1e-9)
                and math.isclose(a[1], b[1], rel_tol=1e-9)), (a, b)
    assert jumped.trajectory[-1][0] == stepped.trajectory[-1][0] == length
    assert jumped.trajectory[-1][1] == pytest.approx(
        stepped.trajectory[-1][1], rel=1e-9, abs=1e-12 * length)


PARITY_PARAMS = [
    {}, dict(speed_ratio=1.0), dict(speed_ratio=2.5), dict(speed_ratio=0.97),
    dict(alpha=0.0), dict(h=0.02), dict(h=0.3, theta=0.3),
]
PARITY_LENGTHS = [0.7, 2.0, 5.0, 10.0, 30.0, 100.0, 300.0, 1000.0]


@pytest.mark.parametrize("overrides", PARITY_PARAMS)
def test_leg_jumps_match_the_step_loop(overrides):
    p = MotionParams(**overrides)
    for length in PARITY_LENGTHS:
        for s in range(20):
            assert_same_run(*simulate_both(length, p, s), length)


@settings(max_examples=40, deadline=None)
@given(length=st.floats(min_value=0.5, max_value=200.0),
       speed_ratio=st.floats(min_value=0.8, max_value=2.5),
       h=st.floats(min_value=0.01, max_value=0.5),
       theta=st.floats(min_value=0.05, max_value=1.2),
       seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_leg_jumps_match_the_step_loop_property(length, speed_ratio, h, theta,
                                                seed):
    p = MotionParams(speed_ratio=speed_ratio, h=h, theta=theta)
    assert_same_run(*simulate_both(length, p, seed), length)


def kernel_args(length, p, seed=0):
    """``_integrate``'s arguments as ``simulate_segment`` passes them, with
    the step budget left off."""
    calls = []
    kernel = motion_sim._integrate

    def spy(*args):
        calls.append(args[:-1])
        return kernel(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(motion_sim, "_integrate", spy)
        try:
            simulate_segment(length, p, seed=seed)
        except MotionDivergenceError:
            pass
    return calls[0]


def least_budget(kernel, args):
    """The smallest step budget with which ``kernel`` finishes the segment."""
    lo, hi = 0, 10 * int(args[0] / args[-1])
    assert kernel(*args, hi)[-1]
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if kernel(*args, mid)[-1]:
            hi = mid
        else:
            lo = mid
    return hi


@pytest.mark.parametrize("length,overrides,seed", [
    (10.0, {}, 0),
    (10.0, dict(speed_ratio=2.5, alpha=0.0), 0),
    (30.0, dict(h=0.3, theta=0.3), 1),
])
def test_no_jump_skips_the_step_budget(length, overrides, seed):
    # One step less than the step loop needs fails in both kernels, and
    # every budget from that need on passes in both. A failing run stops
    # after exactly the budgeted steps, so its partial totals agree too.
    args = kernel_args(length, MotionParams(**overrides), seed)
    need = least_budget(step_loop_integrate, args)
    for budget in (0, 1, 7, 8, 9, need // 2, need - 1, need, need + 1):
        jumped = motion_sim._integrate(*args, budget)
        stepped = step_loop_integrate(*args, budget)
        assert jumped[-1] == stepped[-1] == (budget >= need), budget
        assert jumped[2:4] == stepped[2:4], budget
        assert jumped[0] == pytest.approx(stepped[0], rel=1e-9), budget


def test_a_whole_number_of_steps_can_end_one_step_sooner():
    # A perfect robot on 10 cm: 1,000 steps of 0.01 cm reach the end in
    # exact arithmetic. The step loop's running sum of x falls about 2e-13
    # short, so it takes a 1,001st step of that length; the jump's product
    # does not fall short, so its 1,000th step is the end step. The totals
    # agree; only a budget of exactly 1,000 steps tells the two apart.
    args = kernel_args(10.0, MotionParams(alpha=0.0, speed_ratio=1.0))
    assert least_budget(motion_sim._integrate, args) == 1000
    assert least_budget(step_loop_integrate, args) == 1001
    jumped = motion_sim._integrate(*args, 1001)
    stepped = step_loop_integrate(*args, 1001)
    assert jumped[:2] == stepped[:2] == (10.0, 10.0)


@pytest.mark.parametrize("speed_ratio", [1.1, 0.9])
def test_no_jump_crosses_a_right_angle_heading(speed_ratio):
    # The band never recaptures the robot, so its heading curls onto +-90
    # degrees with the budget to spare: both kernels stop there.
    p = MotionParams(h=200.0, alpha=0.0, speed_ratio=speed_ratio)
    args = kernel_args(200.0, p)
    budget = int(40.0 * 200.0 / p.step) + 10000
    jumped = motion_sim._integrate(*args, budget)
    stepped = step_loop_integrate(*args, budget)
    assert jumped[-1] is stepped[-1] is False
    assert jumped[2:4] == stepped[2:4] == (0, 0)
    assert jumped[0] == pytest.approx(stepped[0], rel=1e-9)
    a, b = simulate_both(200.0, p, 0)
    assert a == b and "failed to traverse" in a


# ---------------------------------------------------------------- free arc

def test_free_arc_exact_ratio():
    # With no line to follow, the wheels cover distance in the speed ratio.
    fl, fr = MotionParams(speed_ratio=1.3).wheel_factors()
    assert fr / fl == pytest.approx(1.3, rel=1e-12)


def test_free_arc_matched_wheels():
    assert MotionParams(speed_ratio=1.0).wheel_factors() == (1.0, 1.0)


# ------------------------------------------------------------------ errors

def test_divergence_when_band_is_wider_than_the_drift_radius():
    # The band never recaptures the robot: the wheel mismatch curls the
    # heading past 90 degrees long before any pivot can fire.
    p = MotionParams(h=200.0, alpha=0.0, speed_ratio=1.1)
    with pytest.raises(MotionDivergenceError, match="failed to traverse"):
        simulate_segment(200.0, p)


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
def test_bad_length_rejected(bad):
    with pytest.raises(ValueError, match="length must be positive"):
        simulate_segment(bad, MotionParams())


@pytest.mark.parametrize("kwargs,msg", [
    (dict(h=0.0), "h must be positive"),
    (dict(h=math.inf), "h must be positive"),
    (dict(alpha=-0.1), "alpha must lie"),
    (dict(alpha=math.pi / 2), "alpha must lie"),
    (dict(theta=0.0), "theta must lie"),
    (dict(theta=math.pi / 2), "theta must lie"),
    (dict(speed_ratio=0.0), "speed_ratio must be positive"),
    (dict(wheel_base=0.0), "wheel_base must be positive"),
    (dict(pivot_arc_left=-0.1), "pivot_arc_left must be non-negative"),
    (dict(pivot_lin_right=-0.1), "pivot_lin_right must be non-negative"),
    (dict(inner_rot_const=-0.1), "inner_rot_const must be non-negative"),
    (dict(step=0.0), "step must be positive"),
])
def test_bad_params_rejected(kwargs, msg):
    with pytest.raises(ValueError, match=msg):
        MotionParams(**kwargs)


# ------------------------------------------------------------- properties

@settings(max_examples=60, deadline=None)
@given(length=st.floats(min_value=0.5, max_value=30.0,
                        allow_nan=False, allow_infinity=False),
       seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_segment_simulation_invariants(length, seed):
    p = MotionParams()
    log = simulate_segment(length, p, seed=seed)
    assert isinstance(log, EncoderLog)
    assert log.wl_total > 0.0 and log.wr_total > 0.0
    assert log.n_right >= 0 and log.n_left >= 0
    assert log.trajectory[0] == (0.0, 0.0)
    assert log.trajectory[-1][0] == length
    assert abs(log.trajectory[-1][1]) <= p.h + p.step
    assert log == simulate_segment(length, p, seed=seed)


if __name__ == "__main__":
    print(kernel_digest())
