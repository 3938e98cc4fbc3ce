"""Inverse odometry: calibration, arc/chord geometry, length correction."""

import hashlib
import math
import random
import statistics
from itertools import chain

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from linemaze.errors import (ArcDomainError, CalibrationError,
                             InconsistencyError)
from linemaze.motion_sim import EncoderLog, MotionParams, simulate_segment
from linemaze.odometry import (CalibConstants, arc_len_from_height,
                               calibration_from_motion, chord_from_arc,
                               estimate_length, linearize_arc, linearize_basic,
                               predict_without_encoder, residual_arc)
from oracles import (fresh_heading, reference_estimate,
                     reference_linearize_arc, reference_linearize_basic,
                     reference_residual_arc, use_headings)
from pins import check


def unit_cal(radius=math.inf, h=0.5):
    """Identity calibration: no pivot charges, no projection shrink."""
    return CalibConstants(c=1.0, c_left=1.0, c_right=1.0, f_lc=0.0, f_rc=0.0,
                          k=0.0, h=h, radius=radius)


def log_of(wl, wr, n_right=0, n_left=0, true_length=1.0):
    return EncoderLog(wl_total=wl, wr_total=wr, n_right=n_right,
                      n_left=n_left, true_length=true_length)


# ------------------------------------------------------------- calibration

def test_default_calibration_values(default_params, default_cal):
    cal = default_cal
    assert cal.c == pytest.approx(0.9855466772747197, rel=1e-12)
    assert cal.c_left == pytest.approx(0.9954021440474669, rel=1e-12)
    assert cal.c_right == pytest.approx(0.975884454948497, rel=1e-12)
    assert cal.f_lc == 0.008 and cal.f_rc == 0.008
    assert cal.k == 0.002
    assert cal.h == pytest.approx(0.5758770483143635, rel=1e-12)
    assert cal.radius == pytest.approx(505.0, rel=1e-12)


def test_calibration_matched_wheels_infinite_radius():
    cal = calibration_from_motion(MotionParams(speed_ratio=1.0))
    assert cal.radius == math.inf
    assert cal.c_left == cal.c_right == pytest.approx(cal.c, rel=1e-15)


def test_calibration_inner_wheel_constant_can_exceed_one():
    # A small initial-error angle pushes c above the slow wheel's factor.
    # The inner wheel of the drift circle rolls less than the midpoint
    # travels, so its constant divides out its factor uncapped.
    params = MotionParams(alpha=math.radians(4.0))
    fl, fr = params.wheel_factors()
    cal = calibration_from_motion(params)
    assert cal.c_left == pytest.approx(cal.c / fl, rel=1e-15)
    assert cal.c_left > 1.0
    assert 0.0 < cal.c_right < 1.0


def test_calibration_left_faster_robot():
    cal = calibration_from_motion(MotionParams(speed_ratio=0.98))
    assert cal.radius > 0.0  # magnitude, not signed
    assert cal.c_right == pytest.approx(cal.c / (1.0 + MotionParams(
        speed_ratio=0.98).kappa * 10.0 / 2.0), rel=1e-12)


@pytest.mark.parametrize("kwargs,msg", [
    (dict(c=0.0), "c must lie"),
    (dict(c=1.5), "c must lie"),
    (dict(c_left=-0.1), "c_left must lie"),
    (dict(c_right=math.inf), "c_right must lie"),
    (dict(f_lc=-1.0), "f_lc must be non-negative"),
    (dict(k=-0.1), "k must be non-negative"),
    (dict(h=0.0), "h must be positive"),
    (dict(h=math.inf), "h must be positive"),
    (dict(f_rc=-1.0), "f_rc must be non-negative"),
    (dict(radius=0.0), "radius must be positive"),
    (dict(radius=-5.0), "radius must be positive"),
    (dict(c_left=math.nan), "c_left must lie"),
    (dict(f_lc=math.nan), "f_lc must be non-negative"),
    (dict(f_lc=math.inf), "f_lc must be non-negative"),
    (dict(f_rc=math.nan), "f_rc must be non-negative"),
    (dict(f_rc=math.inf), "f_rc must be non-negative"),
    (dict(k=math.nan), "k must be non-negative"),
    (dict(k=math.inf), "k must be non-negative"),
])
def test_calibration_validation(kwargs, msg):
    base = dict(c=1.0, c_left=1.0, c_right=1.0, f_lc=0.0, f_rc=0.0, k=0.0,
                h=0.5, radius=math.inf)
    base.update(kwargs)
    with pytest.raises(CalibrationError, match=msg):
        CalibConstants(**base)


def test_calibration_rejects_band_wider_than_radius():
    with pytest.raises(CalibrationError, match="2\\*h <= radius"):
        unit_cal(radius=0.8, h=0.5)


def test_calibration_refuses_params_that_are_not_motion_params():
    # A plain tuple equal to the stock robot would skip MotionParams'
    # checks; it gets simulate_segment's message, not an AttributeError.
    with pytest.raises(ValueError) as err:
        calibration_from_motion(tuple(MotionParams()))
    assert str(err.value) == "params must be a MotionParams, got tuple"


# ---------------------------------------------------------- arc and chord

def test_arc_len_direct_oracle():
    assert arc_len_from_height(0.0, 100.0) == 0.0
    assert arc_len_from_height(10.0, 100.0) == pytest.approx(
        10.016742116155979, rel=1e-12)
    assert arc_len_from_height(20.0, 100.0) == pytest.approx(
        20.135792079033074, rel=1e-12)


def test_full_stretch_is_two_half_stretches_bit_for_bit():
    # A full oscillation stretch rises by 2h and ends at the lateral offset
    # it started from; its closed forms 2R*asin(2h/2R) and 2R*sin(S/2R)
    # equal two tangent-start half stretches exactly, not just to rounding.
    rng = random.Random(0)
    for _ in range(2000):
        radius = math.exp(rng.uniform(math.log(0.1), math.log(1e8)))
        height = rng.uniform(0.0, radius / 2.0)
        s_h = arc_len_from_height(height, radius)
        s_full = 2.0 * radius * math.asin(2.0 * height / (2.0 * radius))
        assert s_full == 2.0 * s_h
        x_full = 2.0 * radius * math.sin(s_full / (2.0 * radius))
        assert x_full == 2.0 * chord_from_arc(s_h, radius)


def test_chord_oracle_values():
    assert chord_from_arc(0.0, 100.0) == 0.0
    # Quarter circle spans the chord's domain boundary exactly.
    assert chord_from_arc(100.0 * math.pi / 2.0, 100.0) == pytest.approx(
        100.0, rel=1e-12)
    assert chord_from_arc(10.0, 1000.0) == pytest.approx(
        9.999833334166664, rel=1e-12)


def test_infinite_radius_identities():
    assert arc_len_from_height(5.0, math.inf) == 5.0
    assert chord_from_arc(5.0, math.inf) == 5.0


def test_chord_never_exceeds_arc():
    for radius in (10.0, 100.0, 10000.0):
        for s in (0.0, 0.1, 1.0, radius * 0.5, radius * 1.5):
            chord = chord_from_arc(s, radius)
            assert chord <= s
            if s > 0.0:
                assert chord < s
    assert chord_from_arc(7.0, math.inf) == 7.0


def test_chord_taylor_small_angle():
    for radius in (10.0, 100.0, 10000.0):
        for frac in (1e-3, 5e-3, 9.9e-3):
            s = frac * radius
            taylor = s * (1.0 - s * s / (6.0 * radius * radius))
            err = abs(chord_from_arc(s, radius) - taylor) / s
            assert err < 1e-6


def circle_arc_by_integration(height, radius):
    # Arc length of x -> sqrt(R^2 - x^2) risen by `height`, integrated
    # adaptively; library-independent check of the closed form.
    from scipy.integrate import quad
    val, _ = quad(lambda x: math.sqrt(1.0 + x * x / (radius * radius - x * x)),
                  0.0, height, epsabs=0.0, epsrel=1e-12, limit=200)
    return val


def test_arc_len_matches_adaptive_integration():
    for radius in (10.0, 1000.0):
        for frac in (0.05, 0.5, 0.99):
            height = frac * radius
            expected = circle_arc_by_integration(height, radius)
            got = arc_len_from_height(height, radius)
            assert abs(got - expected) / expected < 1e-9


@pytest.mark.parametrize("call", [
    lambda: arc_len_from_height(-1.0, 10.0),
    lambda: arc_len_from_height(1.0, -5.0),
    lambda: arc_len_from_height(1.0, 0.0),
    lambda: arc_len_from_height(11.0, 10.0),
    lambda: arc_len_from_height(1.0, math.nan),
    lambda: chord_from_arc(1.0, -5.0),
    lambda: chord_from_arc(-1.0, 10.0),
    lambda: chord_from_arc(1.0, 0.0),
    lambda: chord_from_arc(16.0, 10.0),
    # Just past the quarter circle, where the chord stops growing.
    lambda: chord_from_arc(math.nextafter(10.0 * math.pi / 2.0, 20.0), 10.0),
    # NaN fails every domain check, on a finite and on an infinite radius.
    lambda: arc_len_from_height(math.nan, 10.0),
    lambda: arc_len_from_height(math.nan, math.inf),
    lambda: chord_from_arc(math.nan, 10.0),
    lambda: chord_from_arc(math.nan, math.inf),
])
def test_arc_domain_errors(call):
    with pytest.raises(ArcDomainError):
        call()


# ------------------------------------------------------- basic linearization

def test_basic_hand_computed_value():
    cal = CalibConstants(c=0.995, c_left=0.995, c_right=0.995, f_lc=2.0,
                         f_rc=2.0, k=0.5, h=0.5, radius=math.inf)
    log = log_of(120.0, 120.0, n_right=3, n_left=2)
    assert linearize_basic(log, cal, "left") == pytest.approx(108.455, abs=1e-12)


def test_basic_identity_configuration():
    log = log_of(37.25, 37.25)
    assert linearize_basic(log, unit_cal(), "left") == 37.25
    assert linearize_basic(log, unit_cal(), "right") == 37.25


def test_basic_right_wheel_mirror():
    # Right wheel pairs k with right turns.
    cal = CalibConstants(c=1.0, c_left=1.0, c_right=0.5, f_lc=1.0, f_rc=3.0,
                         k=0.5, h=0.5, radius=math.inf)
    log = log_of(100.0, 100.0, n_right=2, n_left=1)
    expected = (100.0 - 3.0 * 3 - 0.5 * 2) * 0.5
    assert linearize_basic(log, cal, "right") == pytest.approx(expected, abs=1e-12)


def test_bracket_negative_raises():
    log = log_of(0.01, 0.01, n_right=3, n_left=2)
    cal = calibration_from_motion(MotionParams())
    with pytest.raises(CalibrationError, match="pivot charges exceed"):
        linearize_basic(log, cal, "left")


def test_nan_wheel_total_is_a_calibration_error(default_cal):
    # A NaN total leaves no roll distance to correct: both corrected modes
    # raise instead of returning nan (basic) or a finite guess (arc).
    for wl, wr in ((math.nan, math.nan), (14.2, math.nan)):
        log = log_of(wl, wr, n_right=6, n_left=6, true_length=14.0)
        for mode in ("basic", "arc"):
            with pytest.raises(CalibrationError, match="total is not a number"):
                estimate_length(log, default_cal, mode)


def test_wheel_argument_checked(default_cal):
    with pytest.raises(ValueError, match="wheel must be"):
        linearize_basic(log_of(10.0, 10.0), default_cal, "center")


def test_basic_correction_beats_raw_reading(default_params, default_cal):
    for seed in range(50):
        log = simulate_segment(10.0, default_params, seed=seed)
        d = linearize_basic(log, default_cal, "left")
        assert abs(d - 10.0) < abs(log.wl_total - 10.0)


# ------------------------------------------------------------ residual arc

def test_residual_zero_when_roll_is_exactly_the_first_stretch():
    cal = unit_cal(radius=100.0)
    s_h = arc_len_from_height(cal.h, cal.radius)
    log = log_of(s_h, s_h, n_right=1, n_left=0)
    assert residual_arc(log, cal, "left") == pytest.approx(0.0, abs=1e-12)


def test_residual_zero_on_exact_multiples_with_charges():
    cal = CalibConstants(c=1.0, c_left=1.0, c_right=1.0, f_lc=0.008,
                         f_rc=0.008, k=0.002, h=0.5, radius=100.0)
    # Four turns: three full stretches plus the first, 2*4 - 1 half stretches.
    s_h = arc_len_from_height(cal.h, cal.radius)
    wl = 7.0 * s_h + cal.f_lc * 4 + cal.k * 2
    log = log_of(wl, wl, n_right=2, n_left=2)
    assert residual_arc(log, cal, "left") == pytest.approx(0.0, abs=1e-12)


def test_residual_requires_a_turn(default_cal):
    with pytest.raises(ValueError, match="at least one pivot turn"):
        residual_arc(log_of(10.0, 10.0), default_cal, "left")


def test_residual_negative_is_a_calibration_error():
    cal = unit_cal(radius=100.0)
    s_h = arc_len_from_height(cal.h, cal.radius)
    log = log_of(0.5 * s_h, 0.5 * s_h, n_right=1, n_left=0)
    with pytest.raises(CalibrationError, match="modeled stretches exceed"):
        residual_arc(log, cal, "left")


def test_residual_bounded_by_one_stretch(default_params, default_cal):
    s_2h = 2.0 * arc_len_from_height(default_cal.h, default_cal.radius)
    for seed in range(100):
        log = simulate_segment(14.0, default_params, seed=seed)
        s_d = residual_arc(log, default_cal, "left")
        assert 0.0 <= s_d < s_2h + default_cal.h


# -------------------------------------------------------- arc linearization

def test_arc_identity_configuration():
    log = log_of(10.0, 10.0)
    assert linearize_arc(log, unit_cal(), "left") == 10.0


def test_arc_zero_turn_fallback_uses_single_arc():
    cal = unit_cal(radius=100.0)
    log = log_of(10.0, 10.0)
    expected = chord_from_arc(10.0, 100.0)
    assert linearize_arc(log, cal, "left") == pytest.approx(expected, rel=1e-15)


def test_arc_inverts_synthetic_log_exactly():
    # A log composed of exact model arcs plus exact pivot charges must come
    # back as exactly the sum of the matching chords: three turns make two
    # full stretches plus the first, five half stretches, then the residual.
    cal = unit_cal(radius=100.0)
    s_h = arc_len_from_height(cal.h, cal.radius)
    s_d = 0.6 * s_h
    wl = 5.0 * s_h + s_d
    log = log_of(wl, wl, n_right=2, n_left=1)
    expected = (5.0 * chord_from_arc(s_h, cal.radius)
                + chord_from_arc(s_d, cal.radius))
    got = linearize_arc(log, cal, "left")
    assert abs(got - expected) / expected < 1e-6
    assert got == pytest.approx(expected, rel=1e-12)


def test_arc_hand_built_chord_sum():
    cal = CalibConstants(c=0.99, c_left=0.99, c_right=0.99, f_lc=0.01,
                         f_rc=0.01, k=0.005, h=0.5, radius=100.0)
    s_h = arc_len_from_height(0.5, 100.0)
    s_d = 0.6
    wl = 5.0 * s_h + s_d + cal.f_lc * 3 + cal.k * 1
    log = log_of(wl, wl, n_right=2, n_left=1)
    expected = (5.0 * chord_from_arc(s_h, 100.0)
                + chord_from_arc(s_d, 100.0)) * 0.99
    assert linearize_arc(log, cal, "left") == pytest.approx(expected, rel=1e-12)


def test_arc_estimate_never_exceeds_basic(default_params, default_cal):
    # Chords are shorter than their arcs, so the arc-aware estimate can only
    # shave distance off the piecewise-linear one.
    for seed in range(50):
        log = simulate_segment(10.0, default_params, seed=seed)
        for wheel in ("left", "right"):
            arc = linearize_arc(log, default_cal, wheel)
            basic = linearize_basic(log, default_cal, wheel)
            assert arc < basic


def test_arc_correction_beats_raw_reading(default_params, default_cal):
    for seed in range(50):
        log = simulate_segment(10.0, default_params, seed=seed)
        d = linearize_arc(log, default_cal, "left")
        assert abs(d - 10.0) < abs(log.wl_total - 10.0)


# -------------------------------------------------- encoder-free prediction

def test_predict_single_turn(default_cal):
    s_h = arc_len_from_height(default_cal.h, default_cal.radius)
    expected = chord_from_arc(s_h, default_cal.radius) * default_cal.c
    assert predict_without_encoder(1, 0, default_cal) == pytest.approx(
        expected, rel=1e-15)


def test_predict_within_ten_percent(default_params, default_cal):
    for seed in range(100):
        log = simulate_segment(14.0, default_params, seed=seed)
        d = predict_without_encoder(log.n_right, log.n_left, default_cal)
        assert abs(d - 14.0) / 14.0 < 0.10


def test_predict_monotone_in_turns(default_cal):
    values = [predict_without_encoder(n, 0, default_cal) for n in range(1, 21)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_predict_requires_a_turn(default_cal):
    with pytest.raises(ValueError, match="at least one pivot turn"):
        predict_without_encoder(0, 0, default_cal)


# ------------------------------------------------------------ mode dispatch

def test_estimate_length_modes(default_params, default_cal):
    log = simulate_segment(10.0, default_params, seed=0)
    assert estimate_length(log, default_cal, "ideal") == 10.0
    assert estimate_length(log, default_cal, "raw") == pytest.approx(
        (log.wl_total + log.wr_total) / 2.0, rel=1e-15)
    assert estimate_length(log, default_cal, "basic") == pytest.approx(
        (linearize_basic(log, default_cal, "left")
         + linearize_basic(log, default_cal, "right")) / 2.0, rel=1e-15)
    assert estimate_length(log, default_cal, "arc") == pytest.approx(
        (linearize_arc(log, default_cal, "left")
         + linearize_arc(log, default_cal, "right")) / 2.0, rel=1e-15)


def test_raw_estimate_does_not_overflow(default_cal):
    # The wheel totals' sum overflows; their mean does not.
    log = log_of(1.5e308, 1.5e308, true_length=1.5e308)
    assert estimate_length(log, default_cal, "raw") == 1.5e308


def test_estimate_length_unknown_mode(default_cal):
    with pytest.raises(ValueError, match="mode must be"):
        estimate_length(log_of(10.0, 10.0), default_cal, "psychic")


# ------------------------------------------------------- bit-for-bit pin

ESTIMATOR_ROBOTS = (dict(), dict(speed_ratio=1.0), dict(speed_ratio=0.98),
                    dict(speed_ratio=1.05), dict(h=0.3))
ESTIMATOR_LENGTHS = (2.0, 7.0, 14.0, 60.0)
ESTIMATOR_SEEDS = range(8)
HAND_BUILT_SEEDS = range(2000)
# Any change to an estimate, a residual, a prediction or the type of error
# one of them raises moves a digest, which pins the estimators' output bit
# for bit. One digest covers the raw and basic estimates, the other arc,
# residual_arc and predict_without_encoder, so a change to the arc model
# shows that it left raw and basic alone.


def _outcome(fn, *args):
    try:
        return repr(fn(*args))
    except (ValueError, InconsistencyError) as exc:
        return type(exc).__name__


def _estimator_lines(log, cal):
    """The case's outcomes: (raw and basic lines, arc lines)."""
    linear = [_outcome(estimate_length, log, cal, mode)
              for mode in ("raw", "basic")]
    arc = [_outcome(estimate_length, log, cal, "arc"),
           _outcome(predict_without_encoder, log.n_right, log.n_left, cal)]
    arc += [_outcome(residual_arc, log, cal, wheel)
            for wheel in ("left", "right")]
    return linear, arc


def _hand_built_case(seed):
    """A random log and calibration; the arc model rejects about half."""
    rng = random.Random(seed)
    h = rng.uniform(0.05, 2.0)
    radius = rng.choice((math.inf, 2.0 * h * math.exp(rng.uniform(0.0, 12.0))))
    f_lc, f_rc, k = (rng.choice((0.0, rng.uniform(0.0, 0.5)))
                     for _ in range(3))
    cal = CalibConstants(c=rng.uniform(0.5, 1.0),
                         c_left=rng.uniform(0.5, 1.5),
                         c_right=rng.uniform(0.5, 1.5),
                         f_lc=f_lc, f_rc=f_rc, k=k, h=h, radius=radius)
    wl = rng.uniform(0.0, 80.0)
    wr = rng.choice((wl, rng.uniform(0.0, 80.0)))
    log = log_of(wl, wr, n_right=rng.randint(0, 12), n_left=rng.randint(0, 12))
    return log, cal


def estimator_digests():
    cases = []
    # Fixed start headings, so that only the estimators move the digests.
    with pytest.MonkeyPatch.context() as mp:
        use_headings(mp, fresh_heading)
        for overrides in ESTIMATOR_ROBOTS:
            params = MotionParams(**overrides)
            cal = calibration_from_motion(params)
            for length in ESTIMATOR_LENGTHS:
                for seed in ESTIMATOR_SEEDS:
                    cases.append(_estimator_lines(
                        simulate_segment(length, params, seed=seed), cal))
    cases += [_estimator_lines(*_hand_built_case(seed))
              for seed in HAND_BUILT_SEEDS]
    linear, arc = zip(*cases)
    return {name: hashlib.sha256(
                "\n".join(chain.from_iterable(lines)).encode()).hexdigest()
            for name, lines in (("raw+basic", linear), ("arc", arc))}


def test_estimators_are_bit_identical_to_the_recorded_digest():
    check("estimator", estimator_digests())


# --------------------------------------------- against the per-wheel calls

def _result(fn, *args):
    """What a call gives: its value's repr, or its error's class and
    message."""
    try:
        return repr(fn(*args))
    except (ValueError, InconsistencyError) as exc:
        return type(exc), str(exc)


def _same_as_the_reference(log, cal):
    for mode in ("raw", "basic", "arc"):
        assert _result(estimate_length, log, cal, mode) == \
            _result(reference_estimate, log, cal, mode), mode
    for fn, ref in ((linearize_basic, reference_linearize_basic),
                    (residual_arc, reference_residual_arc),
                    (linearize_arc, reference_linearize_arc)):
        for wheel in ("left", "right", "both"):
            assert _result(fn, log, cal, wheel) == \
                _result(ref, log, cal, wheel), (fn.__name__, wheel)


# Wheel totals as _hand_built_case draws them, and the ones no simulated
# log has: negative, zero, not a number, infinite, near the float maximum.
wheel_totals = st.one_of(
    st.floats(min_value=0.0, max_value=80.0),
    st.sampled_from((-1.0, 0.0, math.nan, math.inf, 1.5e308)))
charges = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=0.5))


@st.composite
def hand_built_cases(draw):
    """A log and calibration drawn like ``_hand_built_case``'s."""
    h = draw(st.floats(min_value=0.05, max_value=2.0))
    radius = draw(st.one_of(
        st.just(math.inf),
        st.floats(min_value=0.0, max_value=12.0).map(
            lambda e: 2.0 * h * math.exp(e))))
    cal = CalibConstants(
        c=draw(st.floats(min_value=0.5, max_value=1.0)),
        c_left=draw(st.floats(min_value=0.5, max_value=1.5)),
        c_right=draw(st.floats(min_value=0.5, max_value=1.5)),
        f_lc=draw(charges), f_rc=draw(charges), k=draw(charges), h=h,
        radius=radius)
    wl = draw(wheel_totals)
    wr = draw(st.one_of(st.just(wl), wheel_totals))
    counts = st.integers(min_value=0, max_value=12)
    return log_of(wl, wr, n_right=draw(counts), n_left=draw(counts)), cal


@settings(max_examples=400, deadline=None)
@given(hand_built_cases())
@example((log_of(0.5 - 5e-10, 0.5 + 5e-10, n_right=1), unit_cal()))
@example((log_of(math.nan, -1.0, n_right=1), unit_cal()))
def test_estimates_match_the_reference_on_hand_built_logs(case):
    # Bit for bit where the per-wheel calls return; where they raise, the
    # same error class with the same message, the left wheel's first. In
    # the first example the left roll falls short of the first stretch by
    # less than the residual's tolerance; in the second both wheels fail.
    _same_as_the_reference(*case)


@settings(max_examples=100, deadline=None)
@given(speed_ratio=st.floats(min_value=0.8, max_value=1.5),
       h=st.floats(min_value=0.02, max_value=0.5),
       length=st.floats(min_value=0.5, max_value=1000.0),
       seed=st.integers(min_value=0, max_value=2 ** 64 - 1))
def test_estimates_match_the_reference_on_simulated_logs(speed_ratio, h,
                                                         length, seed):
    # Long runs on the tighter drift circles raise ArcDomainError in arc.
    params = MotionParams(speed_ratio=speed_ratio, h=h)
    _same_as_the_reference(simulate_segment(length, params, seed),
                           calibration_from_motion(params))


# ------------------------------------------------------- statistical bands

def seeded_errors(length, params, cal, mode, seeds=range(100)):
    errs = []
    for seed in seeds:
        log = simulate_segment(length, params, seed=seed)
        d = estimate_length(log, cal, mode)
        errs.append((d - length) / length)
    return errs


@pytest.mark.parametrize("length", [8.0, 10.0, 14.0])
def test_error_bands_per_length(length, default_params, default_cal):
    raw = seeded_errors(length, default_params, default_cal, "raw")
    arc = seeded_errors(length, default_params, default_cal, "arc")
    basic = seeded_errors(length, default_params, default_cal, "basic")
    med_raw = statistics.median(abs(e) for e in raw)
    med_arc = statistics.median(abs(e) for e in arc)
    med_basic = statistics.median(abs(e) for e in basic)
    assert 0.01 <= med_raw <= 0.03
    assert med_arc <= 0.005
    assert med_arc < med_raw
    # The wheels are mismatched by default, so the arc model's chord
    # shrinkage buys a real (if small) improvement over the linear model.
    assert med_arc < med_basic


def test_arc_beats_basic_clearly_on_small_error_angles():
    # With a small initial-error angle the linear model's single cosine
    # overshoots; the arc decomposition absorbs most of that.
    params = MotionParams(alpha=math.radians(4.0))
    cal = calibration_from_motion(params)
    for seed in range(100):
        log = simulate_segment(10.0, params, seed=seed)
        arc = estimate_length(log, cal, "arc")
        basic = estimate_length(log, cal, "basic")
        assert abs(arc - 10.0) < abs(basic - 10.0)


# --------------------------------------------- across the speed-ratio range

ENVELOPE_SEEDS = range(20)
ENVELOPE_LENGTHS = (14.0, 100.0)
# Left-faster robots (below 1) drift the other way. At 2.0 the drift
# circle's radius is 15 cm and arc reads 2.8% off on 100 cm, so the
# envelope stops at 1.5.
SPEED_RATIOS = [0.8, 0.9, 1.0, 1.02, 1.05, 1.1, 1.2, 1.3, 1.5]


@pytest.mark.parametrize("speed_ratio", SPEED_RATIOS)
def test_basic_holds_across_the_speed_ratio_envelope(speed_ratio):
    # Each wheel's constant divides out that wheel's share of the drift
    # circle, so basic stays within 0.1% wherever the wheels are matched
    # or 50% apart, and no run reads further off than the raw mean.
    params = MotionParams(speed_ratio=speed_ratio)
    cal = calibration_from_motion(params)
    for length in ENVELOPE_LENGTHS:
        basic, raw = [], []
        for seed in ENVELOPE_SEEDS:
            log = simulate_segment(length, params, seed=seed)
            basic.append(abs(estimate_length(log, cal, "basic") - length))
            raw.append(abs(estimate_length(log, cal, "raw") - length))
        assert statistics.median(basic) <= 1e-3 * length, length
        assert all(b <= r for b, r in zip(basic, raw)), length


@pytest.mark.parametrize("speed_ratio", SPEED_RATIOS)
def test_arc_across_the_speed_ratio_envelope(speed_ratio):
    # Arc reads each wheel's roll in midpoint units, so the inner wheel of
    # the drift circle, which rolls less than the midpoint travels, leaves
    # as much for the modelled stretches as the outer one.
    params = MotionParams(speed_ratio=speed_ratio)
    cal = calibration_from_motion(params)
    for length in ENVELOPE_LENGTHS:
        arc, raw = [], []
        for seed in ENVELOPE_SEEDS:
            log = simulate_segment(length, params, seed=seed)
            arc.append(abs(estimate_length(log, cal, "arc") - length))
            raw.append(abs(estimate_length(log, cal, "raw") - length))
        assert statistics.median(arc) <= 1e-3 * length, length
        assert all(a <= r for a, r in zip(arc, raw)), length


@pytest.mark.parametrize("speed_ratio", SPEED_RATIOS)
def test_arc_reads_no_longer_than_basic(speed_ratio):
    # Arc swaps each stretch of the midpoint roll for its chord, and a chord
    # is no longer than its arc. Per wheel, with S_h the half stretch's arc
    # and r the residual, basic - arc = c*[(2N-1)(S_h - h) + r - R*sin(r/R)];
    # with no pivot (the 0.5 cm runs) it is c*(roll - R*sin(roll/R)).
    params = MotionParams(speed_ratio=speed_ratio)
    cal = calibration_from_motion(params)
    s_h = arc_len_from_height(cal.h, cal.radius)
    for length in (0.5,) + ENVELOPE_LENGTHS:
        for seed in ENVELOPE_SEEDS:
            log = simulate_segment(length, params, seed=seed)
            n = log.n_right + log.n_left
            for wheel in ("left", "right"):
                basic = linearize_basic(log, cal, wheel)
                if n:
                    half_stretches = (2 * n - 1) * (s_h - cal.h)
                    r = residual_arc(log, cal, wheel)
                else:
                    half_stretches, r = 0.0, basic / cal.c
                chord = chord_from_arc(r, cal.radius)
                gap = cal.c * (half_stretches + r - chord)
                assert gap >= 0.0
                arc = linearize_arc(log, cal, wheel)
                assert basic - arc == pytest.approx(gap, abs=1e-12 * length), (
                    length, seed, wheel)


# The residual is the roll left after the modelled stretches, so it should
# stay under one full stretch; it grows with length instead. At a speed
# ratio of 1.5 (R = 25 cm) it reaches 33 full stretches at 800 cm, where
# arc reads 1.6% short, and past R*pi/2 at 850 cm, where the chord of every
# seed's residual raises ArcDomainError. Basic stays within 0.002%.
ARC_RESIDUAL_GROWTH_DEFECT = pytest.mark.xfail(
    strict=True, raises=(ArcDomainError, AssertionError),
    reason="arc's residual grows with length; no leg model bounds it yet")


@ARC_RESIDUAL_GROWTH_DEFECT
def test_arc_holds_on_long_segments_at_a_tight_drift_circle():
    params = MotionParams(speed_ratio=1.5)
    cal = calibration_from_motion(params)
    errors = [estimate_length(simulate_segment(1000.0, params, seed=seed),
                              cal, "arc") / 1000.0 - 1.0
              for seed in ENVELOPE_SEEDS]
    assert abs(statistics.median(errors)) <= 5e-3
