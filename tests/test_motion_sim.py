"""Forward motion model: line following, encoder totals, pivots, free arcs."""

import ast
import collections
import hashlib
import inspect
import math
import statistics
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from linemaze import motion_sim
from linemaze.errors import ArgumentError, MotionDivergenceError
from linemaze.motion_sim import (EncoderLog, MotionParams, segment_trajectory,
                                 simulate_segment)
from oracles import fresh_heading, record, step_loop_integrate, use_headings
from pins import check


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
    assert segment_trajectory(10.0, p, seed=0) == ((0.0, 0.0), (10.0, 0.0))
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
    assert polyline_length(segment_trajectory(10.0, p, seed=0)) == \
        pytest.approx(expected, rel=1e-2)
    assert log.n_right + log.n_left > 30


def test_endpoint_lands_on_the_stop_marker():
    p = MotionParams()
    for s in range(50):
        x_end, y_end = segment_trajectory(14.0, p, seed=s)[-1]
        assert x_end == 14.0
        assert abs(y_end) <= p.h + p.step


def test_trajectory_shape():
    p = MotionParams()
    log = simulate_segment(10.0, p, seed=3)
    trajectory = segment_trajectory(10.0, p, seed=3)
    assert trajectory[0] == (0.0, 0.0)
    assert trajectory[-1][0] == 10.0
    assert len(trajectory) == log.n_right + log.n_left + 2
    # Pivot points sit on the band edges.
    for x, y in trajectory[1:-1]:
        assert 0.0 < x < 10.0
        assert abs(y) == pytest.approx(p.h, abs=p.step)


def test_the_log_is_an_encoder_log_with_a_tuple_trajectory():
    # The log is the encoder readout and the true length; the polyline is
    # segment_trajectory's, a tuple of (x, y) tuples.
    log = simulate_segment(30.0, MotionParams(), seed=4)
    assert type(log) is EncoderLog
    assert EncoderLog._fields == (
        "wl_total", "wr_total", "n_right", "n_left", "true_length")
    assert log == EncoderLog(*log)
    trajectory = segment_trajectory(30.0, MotionParams(), seed=4)
    assert type(trajectory) is tuple and len(trajectory) > 2
    assert all(type(v) is tuple and len(v) == 2 for v in trajectory)


def test_a_log_allocates_nothing_per_pivot():
    # The log is five numbers and the kernel keeps no pivot position it is
    # not asked for, so a warm call's peak does not grow with its pivots.
    # A polyline of this run's 875 pivots would take about 63 KB.
    p = MotionParams()
    log = simulate_segment(1000.0, p, seed=0)  # warms the robot's record
    assert log.n_right + log.n_left == 875
    tracemalloc.start()
    try:
        simulate_segment(1000.0, p, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4096


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
# jitter key becomes a heading moves the ``jitter`` pin instead. Each line
# is a log's repr with the run's polyline as a last ``trajectory`` field,
# so that the pin covers every pivot position as well.


def kernel_digest():
    lines = []
    with pytest.MonkeyPatch.context() as mp:
        use_headings(mp, fresh_heading)
        for length, overrides in KERNEL_CASES:
            p = MotionParams(**overrides)
            for s in KERNEL_SEEDS:
                lines.append("%s, trajectory=%r)" % (
                    repr(simulate_segment(length, p, seed=s))[:-1],
                    segment_trajectory(length, p, seed=s)))
        try:
            simulate_segment(200.0, MotionParams(h=200.0, alpha=0.0,
                                                 speed_ratio=1.1), seed=0)
        except MotionDivergenceError as exc:
            lines.append(str(exc))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_kernel_output_is_bit_identical_to_the_recorded_digest():
    check("kernel", kernel_digest())


def test_kernel_backend_is_pure_python():
    assert motion_sim.KERNEL_BACKEND == "pure"


# ------------------------------------------------------ the robot record

def run_of(length, p, s):
    """The log's repr and the polyline of one run: two reads of the record."""
    return (repr(simulate_segment(length, p, seed=s)),
            segment_trajectory(length, p, seed=s))


def test_the_pivot_table_changes_no_log():
    # A warm pivot table, filled by consecutive calls and rebuilt with the
    # record when the robot changes, gives each log and polyline bit for
    # bit as a call after a cleared one.
    robots = (MotionParams(), MotionParams(speed_ratio=2.5))
    lengths = sorted({length for length, _ in KERNEL_CASES}) + [100.0, 1000.0]
    cases = [(length, p, s) for length in lengths for p in robots
             for s in KERNEL_SEEDS]
    fresh = []
    for length, p, s in cases:
        motion_sim._robot.cache_clear()
        fresh.append(run_of(length, p, s))
    motion_sim._robot.cache_clear()
    warm = [run_of(length, p, s) for length, p, s in cases]
    assert warm == fresh
    assert any(motion_sim._robot(robots[-1]).table[sign][1]
               for sign in (1.0, -1.0))
    info = motion_sim._robot.cache_info()
    assert (info.misses, info.hits) == (
        2 * len(lengths), 2 * len(cases) - 2 * len(lengths) + 1)


def test_the_robot_record_changes_no_log():
    # The one per-robot record, warm, shared by consecutive calls and
    # rebuilt when the robot changes, gives each log bit for bit as a call
    # after a cleared cache. Past an equal copy of the default, each robot
    # moves one field and sits between two defaults, so a record that some
    # field does not key serves that robot, or the next, a stale record.
    default = MotionParams()
    robots = [default, MotionParams(*default)]
    for name, value in (("h", 0.3), ("alpha", 0.1), ("theta", 0.3),
                        ("speed_ratio", 2.5), ("wheel_base", 12.0),
                        ("pivot_left", 0.03), ("pivot_right", 0.03),
                        ("inner_rot_const", 0.01), ("step", 0.02)):
        robots += [default._replace(**{name: value}), default]
    assert robots[1] == default and robots[1] is not default
    assert [f for p in robots[2::2] for f in MotionParams._fields
            if getattr(p, f) != getattr(default, f)] == \
        list(MotionParams._fields)
    lengths = sorted({length for length, _ in KERNEL_CASES}) + [100.0, 1000.0]
    cases = [(length, p, s) for length in lengths for p in robots
             for s in range(5)]

    def cold(length, p, s):
        motion_sim._robot.cache_clear()
        return run_of(length, p, s)

    fresh = [cold(*case) for case in cases]
    motion_sim._robot.cache_clear()
    warm = [run_of(*case) for case in cases]
    assert warm == fresh
    # One miss per change of robot. Neither the equal copy nor the next
    # length's first robot, the default again, is a change.
    sequence = [p for _, p, _ in cases]
    changes = 1 + sum(a != b for a, b in zip(sequence, sequence[1:]))
    assert changes == 1 + len(lengths) * (len(robots) - 2)
    info = motion_sim._robot.cache_info()
    assert (info.misses, info.hits) == (changes, 2 * len(cases) - changes)


def test_both_kernels_unpack_the_robot_record_by_its_field_names():
    # Each kernel reads the record by position, in one statement and
    # never by index. A name out of place there reads another field, which
    # the default robot can hide: its pivot_left + inner_rot_const equals
    # its step.
    for kernel in (motion_sim._integrate, step_loop_integrate):
        tree = ast.parse(inspect.getsource(kernel))
        reads = [node for node in ast.walk(tree)
                 if isinstance(node, ast.Name) and node.id == "robot"
                 and isinstance(node.ctx, ast.Load)]
        unpacks = [node.targets[0] for node in ast.walk(tree)
                   if isinstance(node, ast.Assign) and node.value in reads]
        assert len(reads) == len(unpacks) == 1, kernel.__name__
        assert [name.id.lstrip("_") for name in unpacks[0].elts] == \
            list(motion_sim._Robot._fields), kernel.__name__


def test_the_pivot_table_is_bounded_by_the_longest_jump():
    # A jump from a pivot heading ends inside the band it crosses, at most
    # 2h plus one step wide, and each of its steps rises at least
    # step*sin(theta - J*|b|): that bounds J, here to 122.
    p = MotionParams()
    motion_sim._robot.cache_clear()
    for s in KERNEL_SEEDS:
        simulate_segment(1000.0, p, seed=s)
    robot = motion_sim._robot(p)
    assert motion_sim._robot.cache_info().misses == 1
    j_max = max(j for j in range(1000) if j * p.step * math.sin(
        p.theta - j * abs(robot.b)) < 2.0 * p.h + p.step)
    assert j_max == 122
    for sign in (1.0, -1.0):
        solve, legs = robot.table[sign]
        assert solve is not None
        assert 0 < len(legs) and all(0 <= j <= j_max for j in legs)


# ------------------------------------------------ against the step loop

# One run as simulate_both reports it: the log of the driver both entry
# points share, the end point's y, and the pivots the kernel appended.
Run = collections.namedtuple(
    "Run", "wl_total wr_total n_right n_left y pivots")


def simulate_both(length, p, seed):
    """One run with the leg-jump kernel and one with the step loop.

    Each side is a ``Run``, or the divergence message if it raised.
    """
    out = []
    for kernel in (motion_sim._integrate, step_loop_integrate):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(motion_sim, "_integrate", kernel)
            pivots = []
            try:
                log = motion_sim._driver(p, seed)(length, 0, pivots)
                out.append(Run(*log[:4], pivots.pop()[1], pivots))
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
    assert (jumped.n_right, jumped.n_left, len(jumped.pivots)) == \
        (stepped.n_right, stepped.n_left, len(stepped.pivots))
    assert jumped.wl_total == pytest.approx(stepped.wl_total, rel=1e-9)
    assert jumped.wr_total == pytest.approx(stepped.wr_total, rel=1e-9)
    for a, b in zip(jumped.pivots, stepped.pivots):
        assert (math.isclose(a[0], b[0], rel_tol=1e-9)
                and math.isclose(a[1], b[1], rel_tol=1e-9)), (a, b)
    assert jumped.y == pytest.approx(stepped.y, rel=1e-9, abs=1e-12 * length)


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
        use_headings(mp, lambda alpha, seed, index: RECORDED_ALPHA0)
        assert_same_run(*simulate_both(191.0, p, 0), 191.0)


# A second drawn case, without drift (speed_ratio 1, so b == 0), a branch
# the case above does not reach: over 566 pivots the two end points lie
# 1.52e-10 cm apart, outside the 1.38e-10 bound.
RECORDED_DRIFT_FREE_ALPHA0 = -0.16544516889662317


@STEP_LOOP_BOUND_DEFECT
def test_leg_jumps_match_the_step_loop_at_the_recorded_drift_free_heading():
    p = MotionParams(speed_ratio=1.0, h=0.25, theta=1.125)
    with pytest.MonkeyPatch.context() as mp:
        use_headings(mp, lambda alpha, seed, index:
                     RECORDED_DRIFT_FREE_ALPHA0)
        assert_same_run(*simulate_both(138.0, p, 1), 138.0)


# A third, found by a sweep of long thin-band steep runs: over 13,981
# pivots the two end points lie 1.98e-10 cm apart, outside the 1.58e-10
# bound. Against a double-double evaluation of the step recurrence the
# step loop is 4.2e-10 off here and the jump kernel 2.2e-10, so the
# kernel's own rounding crosses the bound as well.
RECORDED_THIN_BAND_ALPHA0 = 0.1665896541958268


@STEP_LOOP_BOUND_DEFECT
def test_leg_jumps_match_the_step_loop_at_the_recorded_thin_band_heading():
    length = 158.10099173916808
    p = MotionParams(speed_ratio=1.0, h=0.01317889522671795,
                     theta=1.1845018901697055)
    with pytest.MonkeyPatch.context() as mp:
        use_headings(mp, lambda alpha, seed, index:
                     RECORDED_THIN_BAND_ALPHA0)
        assert_same_run(*simulate_both(length, p, 0), length)


# A fourth drawn case, drift-free like the second, at the smallest heading
# the jitter draws (key (0, 0)): over 481 pivots the two end points lie
# 1.081e-10 cm apart, outside the 1.080e-10 bound.
RECORDED_LEAST_JITTER_ALPHA0 = 0.15707963267948966


@STEP_LOOP_BOUND_DEFECT
def test_leg_jumps_match_the_step_loop_at_the_recorded_least_jitter_heading():
    p = MotionParams(speed_ratio=1.0, h=0.25, theta=1.15625)
    with pytest.MonkeyPatch.context() as mp:
        use_headings(mp, lambda alpha, seed, index:
                     RECORDED_LEAST_JITTER_ALPHA0)
        assert_same_run(*simulate_both(108.0, p, 0), 108.0)


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
    the step budget and the pivot list left off."""
    with pytest.MonkeyPatch.context() as mp:
        calls = record(mp, motion_sim, "_integrate", lambda *args: args[:-2])
        try:
            simulate_segment(length, p, seed=seed)
        except MotionDivergenceError:
            pass
    return calls[0]


def least_budget(kernel, args, reached=lambda out: out[-1]):
    """The smallest step budget with which ``kernel``'s output is
    ``reached``; by default, with which it finishes the segment."""
    lo, hi = 0, 10 * int(args[0] / args[-1].step)
    assert reached(kernel(*args, hi, []))
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if reached(kernel(*args, mid, [])):
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
        jumped = motion_sim._integrate(*args, budget, [])
        stepped = step_loop_integrate(*args, budget, [])
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
    p = MotionParams()
    b = motion_sim._robot(p).b
    chord = p.step * math.sin(0.5 * n * b) / math.sin(0.5 * b)
    edge = abs(chord * math.sin(alpha0 + 0.5 * (n - 1) * b)) + 1e-9
    budget = 40 * 1000
    for ulps in range(-4, 5):
        h = edge
        for _ in range(abs(ulps)):
            h = math.nextafter(h, math.copysign(math.inf, ulps))
        args = (10.0, alpha0, motion_sim._robot(p._replace(h=h)))
        jumped_pivots, stepped_pivots = [], []
        jumped = motion_sim._integrate(*args, budget, jumped_pivots)
        stepped = step_loop_integrate(*args, budget, stepped_pivots)
        assert jumped[2:4] == stepped[2:4] and jumped[-1] is stepped[-1], ulps
        assert jumped[0] == pytest.approx(stepped[0], rel=1e-9), ulps
        assert len(jumped_pivots) == len(stepped_pivots) > 0, ulps
        for a, c in zip(jumped_pivots, stepped_pivots):
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
    jumped = motion_sim._integrate(*args, 1001, [])
    stepped = step_loop_integrate(*args, 1001, [])
    assert jumped[:2] == stepped[:2] == (10.0, 10.0)


@pytest.mark.parametrize("speed_ratio", [1.1, 0.9])
def test_no_jump_crosses_a_right_angle_heading(speed_ratio):
    # The band never recaptures the robot, so its heading curls onto +-90
    # degrees with the budget to spare: both kernels stop there.
    p = MotionParams(h=200.0, alpha=0.0, speed_ratio=speed_ratio)
    args = kernel_args(200.0, p)
    budget = int(40.0 * 200.0 / p.step) + 10000
    jumped = motion_sim._integrate(*args, budget, [])
    stepped = step_loop_integrate(*args, budget, [])
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

def refusal(error, *args):
    """The message with which both entry points, ``simulate_segment`` and
    ``segment_trajectory``, refuse ``args``: each raises ``error``, and
    both raise the same class with the same message."""
    seen = set()
    for entry in (simulate_segment, segment_trajectory):
        with pytest.raises(error) as err:
            entry(*args)
        seen.add((type(err.value), str(err.value)))
    assert len(seen) == 1, seen
    return seen.pop()[1]


def test_divergence_when_band_is_wider_than_the_drift_radius():
    # The band never recaptures the robot: the wheel mismatch curls the
    # heading past 90 degrees long before any pivot can fire.
    p = MotionParams(h=200.0, alpha=0.0, speed_ratio=1.1)
    assert "failed to traverse" in refusal(MotionDivergenceError, 200.0, p, 0)


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf, 1e308, 1e9])
def test_bad_length_rejected(bad):
    assert refusal(ValueError, bad, MotionParams(), 0).startswith(
        "length must be positive")


@pytest.mark.parametrize("params", [
    tuple(MotionParams())[:8] + (0.0,), (-1.0,) + tuple(MotionParams())[1:],
    tuple(MotionParams())], ids=["zero-step", "negative-h", "last-robot"])
def test_params_that_are_not_motion_params_rejected(params):
    # A plain tuple skips MotionParams' checks: a zero step divided by
    # zero, and h = -1 drove 10 cm through 1,015 pivots. The cache compares
    # keys by value, so a tuple equal to the last robot is refused too.
    simulate_segment(10.0, MotionParams(), seed=0)
    assert refusal(ValueError, 10.0, params, 0) == \
        "params must be a MotionParams, got tuple"


def test_uncountable_step_budget_rejected():
    # 40 * 1e4 cm / 1e-305 cm overflows to inf: no step count fits.
    assert refusal(ValueError, 1e4, MotionParams(step=1e-305), 0) == (
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
    trajectory = segment_trajectory(length, p, seed=seed)
    assert trajectory[0] == (0.0, 0.0)
    assert trajectory[-1][0] == length
    assert abs(trajectory[-1][1]) <= p.h + p.step
    assert log == simulate_segment(length, p, seed=seed)


# The last robot is the recorded thin-band one above, whose legs run a
# few steps each.
SHARED_LEG_ROBOTS = (
    MotionParams(), MotionParams(speed_ratio=1.0),
    MotionParams(speed_ratio=0.8), MotionParams(speed_ratio=1.5),
    MotionParams(step=0.05),
    MotionParams(speed_ratio=1.0, h=0.01317889522671795,
                 theta=1.1845018901697055))


@st.composite
def length_lists(draw):
    """1-6 lengths in any order, some repeated, some below one step."""
    lengths = draw(st.lists(st.one_of(
        st.floats(min_value=1e-4, max_value=0.06),
        st.floats(min_value=0.06, max_value=40.0),
        st.integers(min_value=1, max_value=40).map(float)),
        min_size=1, max_size=6))
    lengths += draw(st.lists(st.sampled_from(lengths),
                             max_size=6 - len(lengths)))
    return draw(st.permutations(lengths))


def outcome(run):
    """``run()``'s repr, or the class and message of what it raised."""
    try:
        return repr(run())
    except (ValueError, MotionDivergenceError) as exc:
        return type(exc), str(exc)


@settings(max_examples=80, deadline=None)
@given(lengths=length_lists(), p=st.sampled_from(SHARED_LEG_ROBOTS),
       seed=st.integers(min_value=0, max_value=2**64 - 1),
       count=st.integers(min_value=1, max_value=4),
       index=st.integers(min_value=0, max_value=3))
@example(lengths=[1.0, 3.0, 10.0], p=MotionParams(), seed=3, count=4,
         index=0)
@example(lengths=[100.0, 1000.0], p=MotionParams(), seed=7, count=2,
         index=0)
@example(lengths=[5.0, 300.0, 50.0, 200.0],
         p=MotionParams(h=200.0, alpha=0.0, speed_ratio=1.1), seed=0,
         count=2, index=0)
@example(lengths=[2.0, 0.5], p=MotionParams(), seed=2**64 - 1, count=4,
         index=3)
def test_simulate_lengths_is_one_call_per_length(lengths, p, seed, count,
                                                 index):
    # _simulate_lengths drives a window of seeds. For each seed it runs
    # each length once, shortest first, continuing the legs of the one
    # before; it yields or raises, seed by seed and length by length, what
    # simulate_segment does.
    start = min(seed, 2**64 - count)  # the window ends at 2**64 at most
    seeds = range(start, start + count)
    assert outcome(lambda: list(motion_sim._simulate_lengths(
        lengths, p, seeds, index))) == outcome(
        lambda: [simulate_segment(x, p, s, index)
                 for s in seeds for x in lengths])


def test_simulate_lengths_refuses_up_front_and_raises_a_failed_run_in_turn():
    # Every length of a seed runs once, before its first log is yielded,
    # but a failed run is raised, from its own result, only when the
    # lengths given before it have been yielded, so a consumer meets the
    # failures in the order given.
    p = MotionParams(h=100.0, speed_ratio=3.0)
    first = simulate_segment(1.0, p, 3)
    with pytest.MonkeyPatch.context() as mp:
        lengths = record(mp, motion_sim, "_integrate", lambda *args: args[0])
        logs = motion_sim._simulate_lengths([1.0, 50.0, 5.0], p, range(3, 4),
                                            0)
        assert next(logs) == first
        with pytest.raises(MotionDivergenceError, match="a 50 cm segment"):
            next(logs)
    assert lengths == [1.0, 5.0, 50.0]
    # A jitter key outside [0, 2**64), at either end of the window, is
    # refused before the first seed's log.
    for seeds in (range(-1, 1), range(2**64 - 1, 2**64 + 1)):
        with pytest.raises(ArgumentError, match="seed and index must lie"):
            next(motion_sim._simulate_lengths([1.0], p, seeds, 0))


def test_simulate_lengths_resumes_the_longer_length_from_the_shorter():
    # The 10 cm run starts from the leg-start state that the 1 cm run
    # handed back, 59 steps in at seed 3 on the default robot, not from
    # the start of the segment.
    with pytest.MonkeyPatch.context() as mp:
        calls = record(mp, motion_sim, "_integrate",
                       lambda *args: (args[0], list(args[5])))
        logs = list(motion_sim._simulate_lengths((1.0, 10.0), MotionParams(),
                                                 range(3, 4), 0))
    assert [length for length, _resume in calls] == [1.0, 10.0]
    assert calls[0][1][7] == 0 < calls[1][1][7]
    assert logs == [simulate_segment(x, MotionParams(), 3) for x in (1, 10)]


# ------------------------------------------------------------------ jitter

JITTER_ALPHAS = (MotionParams().alpha, math.radians(6.0), 0.0)
JITTER_KEYS = [0, 1, 2, 3, 7, 10, 1000, 2 ** 31 - 1, 2 ** 32, 2 ** 63,
               2 ** 64 - 1]
# Pins how a jitter key (seed, index) becomes a start heading, bit for bit.


def jitter_digest():
    lines = [repr(motion_sim._initial_heading(alpha, seed, index))
             for alpha in JITTER_ALPHAS
             for seed in JITTER_KEYS for index in JITTER_KEYS]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_jitter_is_bit_identical_to_the_recorded_digest():
    check("jitter", jitter_digest())


def test_jitter_is_uniform_with_an_independent_sign():
    from scipy import stats
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
    assert refusal(ValueError, 3.0, MotionParams(alpha=alpha), seed,
                   index) == (
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
