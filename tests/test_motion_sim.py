"""Forward motion model: line following, encoder totals, pivots, free arcs."""

import hashlib
import math
import statistics

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from linemaze import motion_sim
from linemaze.errors import MotionDivergenceError
from linemaze.motion_sim import EncoderLog, MotionParams, simulate_segment
from conftest import float_pin_note
from oracles import fresh_heading, step_loop_integrate


def polyline_length(points):
    return sum(math.hypot(b[0] - a[0], b[1] - a[1])
               for a, b in zip(points, points[1:]))


# ------------------------------------------------------------ exact cases

def test_perfect_robot_rolls_exactly_the_segment():
    p = MotionParams(alpha=0.0, speed_ratio=1.0)
    log = simulate_segment(10.0, p, seed=0)
    assert log.wl_total == 10.0
    assert log.wr_total == 10.0
    assert log.n_right + log.n_left == 0
    assert log.trajectory == ((0.0, 0.0), (10.0, 0.0))
    assert log.true_length == 10.0


def test_kernel_wheel_accounting_without_pivot_charges():
    # With pivot charges zeroed the wheel totals are exactly the per-wheel
    # factors times the midpoint path, so their ratio equals fr/fl.
    p = MotionParams(alpha=0.0, speed_ratio=2.5,
                     pivot_left=0.0, pivot_right=0.0, inner_rot_const=0.0)
    fl, fr = p.wheel_factors()
    log = simulate_segment(10.0, p, seed=0)
    assert log.n_right + log.n_left > 0
    assert log.wr_total / log.wl_total == pytest.approx(fr / fl, rel=1e-12)


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
    assert log.n_right + log.n_left > 30


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
    assert len(log.trajectory) == log.n_right + log.n_left + 2
    # Pivot points sit on the band edges.
    for x, y in log.trajectory[1:-1]:
        assert 0.0 < x < 10.0
        assert abs(y) == pytest.approx(p.h, abs=p.step)


def test_the_log_is_an_encoder_log_with_a_tuple_trajectory():
    log = simulate_segment(30.0, MotionParams(), seed=4)
    assert type(log) is EncoderLog
    assert type(log.trajectory) is tuple and len(log.trajectory) > 2
    assert all(type(v) is tuple and len(v) == 2 for v in log.trajectory)
    assert log == EncoderLog(*log)


def test_all_turns_on_one_side_when_only_drift_bends_the_path():
    # No initial tilt, strong wheel mismatch: the robot always drifts the
    # same way, so every pivot is a right turn.
    p = MotionParams(alpha=0.0, speed_ratio=2.5)
    log = simulate_segment(10.0, p, seed=0)
    assert log.n_left == 0
    assert log.n_right > 0
    assert log.n_right + log.n_left == abs(log.n_right - log.n_left)


def test_same_seed_same_run():
    p = MotionParams()
    a = simulate_segment(10.0, p, seed=7)
    assert a == simulate_segment(10.0, p, seed=7)
    assert a != simulate_segment(10.0, p, seed=8)


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
# which pins the leg-jump kernel's output across processes bit for bit. It
# runs under ``fresh_heading``'s fixed start headings, so a change to how a
# jitter key becomes a heading moves JITTER_DIGEST instead.
# Re-record only for a change meant to alter the kernel's output:
# ``PYTHONPATH=src python tests/test_motion_sim.py``
KERNEL_DIGEST = (
    "6236c8ca5ca81a327d68431dab8f8f7c569801c37d15825233541d7e1d83dd92")
KERNEL_DIGEST_PLATFORM = "CPython 3.11.7, glibc 2.36, x86_64"


def kernel_digest():
    lines = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(motion_sim, "_initial_heading", fresh_heading)
        for length, overrides in KERNEL_CASES:
            p = MotionParams(**overrides)
            for s in KERNEL_SEEDS:
                lines.append(repr(simulate_segment(length, p, seed=s)))
        try:
            simulate_segment(200.0, MotionParams(h=200.0, alpha=0.0,
                                                 speed_ratio=1.1), seed=0)
        except MotionDivergenceError as exc:
            lines.append(str(exc))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_kernel_output_is_bit_identical_to_the_recorded_digest():
    assert kernel_digest() == KERNEL_DIGEST, \
        float_pin_note(KERNEL_DIGEST_PLATFORM)


def test_kernel_backend_is_pure_python():
    assert motion_sim.KERNEL_BACKEND == "pure"


# ------------------------------------------------------- the pivot table

def test_the_pivot_table_changes_no_log():
    # A warm table, shared by consecutive calls and rebuilt when the robot
    # changes, gives each log bit for bit as a call after a cleared one.
    robots = (MotionParams(), MotionParams(speed_ratio=2.5))
    lengths = sorted({length for length, _ in KERNEL_CASES}) + [100.0, 1000.0]
    cases = [(length, p, s) for length in lengths for p in robots
             for s in KERNEL_SEEDS]
    fresh = []
    for length, p, s in cases:
        motion_sim._pivot_table.cache_clear()
        fresh.append(repr(simulate_segment(length, p, seed=s)))
    motion_sim._pivot_table.cache_clear()
    warm = [repr(simulate_segment(length, p, seed=s))
            for length, p, s in cases]
    assert warm == fresh
    info = motion_sim._pivot_table.cache_info()
    assert (info.misses, info.hits) == (
        2 * len(lengths), len(cases) - 2 * len(lengths))


def test_the_pivot_table_is_bounded_by_the_longest_jump():
    # A jump from a pivot heading ends inside the band it crosses, at most
    # 2h plus one step wide, and each of its steps rises at least
    # step*sin(theta - J*|b|): that bounds J, here to 122.
    p = MotionParams()
    motion_sim._pivot_table.cache_clear()
    for s in KERNEL_SEEDS:
        simulate_segment(1000.0, p, seed=s)
    b = p.kappa * p.step
    table = motion_sim._pivot_table(p.theta, b, p.step, *p.wheel_factors())
    assert motion_sim._pivot_table.cache_info().misses == 1
    j_max = max(j for j in range(1000) if j * p.step * math.sin(
        p.theta - j * abs(b)) < 2.0 * p.h + p.step)
    assert j_max == 122
    for sign in (1.0, -1.0):
        solve, legs = table[sign]
        assert solve is not None
        assert 0 < len(legs) and all(0 <= j <= j_max for j in legs)


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


def test_a_step_below_the_end_margin_matches_the_step_loop():
    # With a step shorter than a jump's 1e-9 cm end margin, a leg that
    # starts inside the margin solves its end for minus several steps;
    # the kernel jumps none of them and takes the end step.
    for overrides in ({}, dict(speed_ratio=1.0), dict(speed_ratio=2.5)):
        p = MotionParams(step=1e-10, h=1e-9, **overrides)
        for length in (1e-8, 2.5e-8):
            for s in range(5):
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


# A case the property above can draw: the jump kernel's end point lies
# 1.94e-10 cm from the step loop's, outside the test's 1.91e-10 bound; the
# step loop's own end y is off by up to 1.5e-10 cm against a double-double
# reference. It is keyed by the start heading it was found with, not by a
# seed, so a change to the jitter cannot hide it.
STEP_LOOP_BOUND_DEFECT = pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="the end-point bound grows with length, the rounding with legs")
RECORDED_ALPHA0 = -0.15942473113620448


@STEP_LOOP_BOUND_DEFECT
def test_leg_jumps_match_the_step_loop_at_the_recorded_heading():
    p = MotionParams(speed_ratio=1.3883701437769478, h=0.01,
                     theta=1.19921875)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(motion_sim, "_initial_heading",
                   lambda alpha, seed, index: RECORDED_ALPHA0)
        assert_same_run(*simulate_both(191.0, p, 0), 191.0)


@pytest.mark.parametrize("speed_ratio", [0.5, 2.0])
def test_leg_jumps_match_the_step_loop_when_the_heading_changes_sign(
        speed_ratio):
    # A shallow pivot exit and strong drift: the drift turns the heading
    # back through zero within every leg after a pivot, before the robot
    # reaches the far band edge, so every pivot after the first is on one
    # side (left for a clockwise drift, b < 0; right for a
    # counter-clockwise one, b > 0).
    p = MotionParams(speed_ratio=speed_ratio, theta=0.05)
    for length in (0.7, 5.0, 30.0, 100.0):
        for s in range(10):
            jumped, stepped = simulate_both(length, p, s)
            assert_same_run(jumped, stepped, length)
            if length >= 5.0:
                same_side = (jumped.n_left if speed_ratio < 1.0
                             else jumped.n_right)
                assert same_side >= max(
                    2, jumped.n_right + jumped.n_left - 1)


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


def least_budget(kernel, args, reached=lambda out: out[-1]):
    """The smallest step budget with which ``kernel``'s output is
    ``reached``; by default, with which it finishes the segment."""
    lo, hi = 0, 10 * int(args[0] / args[-1])
    assert reached(kernel(*args, hi))
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if reached(kernel(*args, mid)):
            hi = mid
        else:
            lo = mid
    return hi


def pivot_steps(args, count):
    """The steps on which the step loop makes its first ``count`` pivots."""
    return [least_budget(step_loop_integrate, args,
                         lambda out, i=i: out[2] + out[3] >= i)
            for i in range(1, count + 1)]


@pytest.mark.parametrize("length,overrides,seed", [
    (10.0, {}, 0),
    (10.0, dict(speed_ratio=2.5, alpha=0.0), 0),
    (30.0, dict(h=0.3, theta=0.3), 1),
])
def test_no_jump_skips_the_step_budget(length, overrides, seed):
    # One step less than the step loop needs fails in both kernels, and
    # every budget from that need on passes in both. A failing run stops
    # after exactly the budgeted steps, so its partial totals agree too.
    # A leg's jump ends on the step before its pivot, so a budget of that
    # many steps ends exactly on a jump boundary.
    args = kernel_args(length, MotionParams(**overrides), seed)
    need = least_budget(step_loop_integrate, args)
    jump_ends = [k - 1 for k in pivot_steps(args, 3)]
    budgets = [0, 1, 7, 8, 9, need // 2, need - 1, need, need + 1]
    for budget in budgets + [k + d for k in jump_ends for d in (-1, 0, 1)]:
        jumped = motion_sim._integrate(*args, budget)
        stepped = step_loop_integrate(*args, budget)
        assert jumped[-1] == stepped[-1] == (budget >= need), budget
        assert jumped[2:4] == stepped[2:4], budget
        assert jumped[0] == pytest.approx(stepped[0], rel=1e-9), budget


@pytest.mark.parametrize("alpha0", [0.17, -0.17])
@pytest.mark.parametrize("n", [57, 100])
def test_a_jump_solved_within_rounding_of_its_trigger(alpha0, n):
    # The band edge is placed so that the first leg's trigger margin falls
    # on the closed-form end point of step n, give or take a few ulps: the
    # solved jump then lands within rounding of the trigger, and rounding
    # decides whether it ends after step n or n - 1. Either way both
    # kernels pivot on the same steps.
    args = list(kernel_args(10.0, MotionParams()))
    b = args[4] * args[-1]
    chord = args[-1] * math.sin(0.5 * n * b) / math.sin(0.5 * b)
    edge = abs(chord * math.sin(alpha0 + 0.5 * (n - 1) * b)) + 1e-9
    args[2] = alpha0
    budget = 40 * 1000
    for ulps in range(-4, 5):
        h = edge
        for _ in range(abs(ulps)):
            h = math.nextafter(h, math.copysign(math.inf, ulps))
        args[1] = h
        jumped = motion_sim._integrate(*args, budget)
        stepped = step_loop_integrate(*args, budget)
        assert jumped[2:4] == stepped[2:4] and jumped[-1] is stepped[-1], ulps
        assert jumped[0] == pytest.approx(stepped[0], rel=1e-9), ulps
        for a, c in zip(jumped[4], stepped[4]):
            assert a == pytest.approx(c, rel=1e-9), ulps


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
        simulate_segment(200.0, p, seed=0)


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf, 1e308, 1e9])
def test_bad_length_rejected(bad):
    with pytest.raises(ValueError, match="length must be positive"):
        simulate_segment(bad, MotionParams(), seed=0)


def test_uncountable_step_budget_rejected():
    # 40 * 1e4 cm / 1e-305 cm overflows to inf: no step count fits.
    with pytest.raises(ValueError) as err:
        simulate_segment(1e4, MotionParams(step=1e-305), seed=0)
    assert str(err.value) == (
        "length must be positive and small enough to count its steps; "
        "10000 cm at a 1e-305 cm step is not")


@pytest.mark.parametrize("kwargs,msg", [
    (dict(h=0.0), "h must be positive"),
    (dict(h=math.inf), "h must be positive"),
    (dict(alpha=-0.1), "alpha must lie"),
    (dict(alpha=math.pi / 2), "alpha must lie"),
    (dict(theta=0.0), "theta must lie"),
    (dict(theta=math.pi / 2), "theta must lie"),
    (dict(speed_ratio=0.0), "speed_ratio must be positive"),
    (dict(wheel_base=0.0), "wheel_base must be positive"),
    (dict(pivot_left=-0.1), "pivot_left must be non-negative"),
    (dict(pivot_right=-0.1), "pivot_right must be non-negative"),
    (dict(inner_rot_const=-0.1), "inner_rot_const must be non-negative"),
    (dict(step=0.0), "step must be positive"),
    (dict(pivot_left=math.nan), "pivot_left must be non-negative"),
    (dict(pivot_left=math.inf), "pivot_left must be non-negative"),
    (dict(pivot_right=math.nan), "pivot_right must be non-negative"),
    (dict(pivot_right=math.inf), "pivot_right must be non-negative"),
    (dict(inner_rot_const=math.nan), "inner_rot_const must be non-negative"),
    (dict(inner_rot_const=math.inf), "inner_rot_const must be non-negative"),
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


# ------------------------------------------------------------------ jitter

JITTER_ALPHAS = (MotionParams().alpha, math.radians(6.0), 0.0)
JITTER_KEYS = [0, 1, 2, 3, 7, 10, 1000, 2 ** 31 - 1, 2 ** 32, 2 ** 63,
               2 ** 64 - 1]
# Pins how a jitter key (seed, index) becomes a start heading, bit for bit.
# Re-record only for a change meant to alter every noisy output:
# ``PYTHONPATH=src python tests/test_motion_sim.py``
JITTER_DIGEST = (
    "e23fa1f30155926496d4a8e6cdd7631b7b662c55de95a64095b1d20f109d6b5f")


def jitter_digest():
    lines = [repr(motion_sim._initial_heading(alpha, seed, index))
             for alpha in JITTER_ALPHAS
             for seed in JITTER_KEYS for index in JITTER_KEYS]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_jitter_is_bit_identical_to_the_recorded_digest():
    assert jitter_digest() == JITTER_DIGEST


def test_jitter_is_uniform_with_an_independent_sign():
    alpha = MotionParams().alpha
    headings = [motion_sim._initial_heading(alpha, seed, index)
                for seed in range(100) for index in range(100)]
    assert len(set(headings)) == len(headings)
    share = [(abs(a) / alpha - motion_sim.JITTER_LO)
             / (motion_sim.JITTER_HI - motion_sim.JITTER_LO) for a in headings]
    assert all(0.9 * alpha <= abs(a) <= alpha for a in headings)
    assert stats.kstest(share, "uniform").pvalue > 0.01
    # 10,000 fair signs have a standard deviation of 0.005 in their share.
    negative = [a < 0.0 for a in headings]
    assert abs(statistics.mean(negative) - 0.5) < 0.02
    for low in (True, False):
        half = [n for n, u in zip(negative, share) if (u < 0.5) is low]
        assert abs(statistics.mean(half) - 0.5) < 0.03


def test_jitter_keys_are_one_to_one_in_seed_and_in_index():
    # Adjacent and far-apart keys, on both axes and on the diagonal.
    alpha = MotionParams().alpha
    keys = [(s, i) for s in JITTER_KEYS for i in JITTER_KEYS]
    keys += [(s + 1, i - 1) for s, i in keys if 0 < i and s < 2 ** 64 - 1]
    headings = {motion_sim._initial_heading(alpha, s, i) for s, i in keys}
    assert len(headings) == len(set(keys))


@pytest.mark.parametrize("seed,index", [
    (-1, 0), (2 ** 64, 0), (0, -1), (0, 2 ** 64), (-7, 3), (2 ** 64 + 1, 1),
    (1.5, 0), (0, 1.5), (2.0, 0)])
@pytest.mark.parametrize("alpha", [MotionParams().alpha, 0.0])
def test_jitter_keys_outside_64_bits_are_rejected(seed, index, alpha):
    # Masking would fold seed s + 2**64 onto s; the key is refused instead,
    # whether or not the robot draws any jitter. A key that is not an
    # integer is refused the same way.
    with pytest.raises(ValueError) as err:
        simulate_segment(3.0, MotionParams(alpha=alpha), seed, index)
    assert str(err.value) == (
        "seed and index must lie in [0, 2**64), got %r, %r" % (seed, index))


def test_the_index_defaults_to_zero_and_moves_the_jitter():
    p = MotionParams()
    assert simulate_segment(10.0, p, 4) == simulate_segment(10.0, p, 4, 0)
    assert simulate_segment(10.0, p, 4, 1) != simulate_segment(10.0, p, 4, 0)


jitter_calls = st.lists(st.tuples(st.sampled_from(JITTER_ALPHAS),
                                  st.integers(min_value=0, max_value=2),
                                  st.integers(min_value=0, max_value=2),
                                  st.sampled_from((1.0, 3.0, 10.0))),
                        min_size=1, max_size=12)


@settings(max_examples=40, deadline=None)
@given(calls=jitter_calls, order=st.randoms(use_true_random=False))
def test_any_interleaving_of_keys_gives_the_same_logs(calls, order):
    # Repeated, alternating and shared keys: each call's log depends on its
    # own arguments only, so the calls replayed one by one in another order
    # give the same logs.
    def one(call):
        alpha, seed, index, length = call
        return simulate_segment(length, MotionParams(alpha=alpha), seed,
                                index)

    got = [one(call) for call in calls]
    shuffled = list(range(len(calls)))
    order.shuffle(shuffled)
    again = {k: one(calls[k]) for k in shuffled}
    assert got == [again[k] for k in range(len(calls))]


if __name__ == "__main__":
    print(kernel_digest())
    print(jitter_digest())
