"""Inverse odometry: calibration, arc/chord geometry, length correction."""

import math
import statistics

import pytest
from scipy.integrate import quad

from linemaze.errors import ArcDomainError, CalibrationError
from linemaze.motion_sim import EncoderLog, MotionParams, simulate_segment
from linemaze.odometry import (CalibConstants, arc_len_from_height,
                               arc_len_from_height_chord_form,
                               calibration_from_motion, chord_from_arc,
                               estimate_length, linearize_arc, linearize_basic,
                               predict_without_encoder, residual_arc)


def unit_cal(radius=math.inf, h=0.5):
    """Identity calibration: no pivot charges, no projection shrink."""
    return CalibConstants(c=1.0, c_left=1.0, c_right=1.0, f_lc=0.0, f_rc=0.0,
                          k=0.0, h=h, wheel_base=10.0, radius=radius)


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
    assert cal.h == pytest.approx(0.5643595073480762, rel=1e-12)
    assert cal.wheel_base == 10.0
    assert cal.radius == pytest.approx(500.0, rel=1e-12)


def test_calibration_matched_wheels_infinite_radius():
    cal = calibration_from_motion(MotionParams(speed_ratio=1.0))
    assert cal.radius == math.inf
    assert cal.c_left == cal.c_right == pytest.approx(cal.c, rel=1e-15)


def test_calibration_caps_wheel_constants_at_one():
    # A small initial-error angle pushes c above the slow wheel's factor;
    # the per-wheel constant must cap at 1 (a wheel cannot be credited with
    # more track than it rolled).
    cal = calibration_from_motion(MotionParams(alpha=math.radians(4.0)))
    assert cal.c_left == 1.0
    assert 0.0 < cal.c_right < 1.0


def test_calibration_left_faster_robot():
    cal = calibration_from_motion(MotionParams(speed_ratio=0.98))
    assert cal.radius > 0.0  # magnitude, not signed
    assert cal.c_right == pytest.approx(min(1.0, cal.c / (1.0 + MotionParams(
        speed_ratio=0.98).kappa * 10.0 / 2.0)), rel=1e-12)


@pytest.mark.parametrize("kwargs,msg", [
    (dict(c=0.0), "c must lie"),
    (dict(c=1.5), "c must lie"),
    (dict(c_left=-0.1), "c_left must lie"),
    (dict(c_right=2.0), "c_right must lie"),
    (dict(f_lc=-1.0), "f_lc must be non-negative"),
    (dict(k=-0.1), "k must be non-negative"),
    (dict(h=0.0), "h must be positive"),
    (dict(h=math.inf), "h must be positive"),
    (dict(wheel_base=0.0), "wheel_base must be positive"),
    (dict(radius=0.0), "radius must be positive"),
    (dict(radius=-5.0), "radius must be positive"),
])
def test_calibration_validation(kwargs, msg):
    base = dict(c=1.0, c_left=1.0, c_right=1.0, f_lc=0.0, f_rc=0.0, k=0.0,
                h=0.5, wheel_base=10.0, radius=math.inf)
    base.update(kwargs)
    with pytest.raises(CalibrationError, match=msg):
        CalibConstants(**base)


def test_calibration_rejects_band_wider_than_radius():
    with pytest.raises(CalibrationError, match="2\\*h <= radius"):
        unit_cal(radius=0.8, h=0.5)


# ---------------------------------------------------------- arc and chord

def test_arc_len_direct_oracle():
    assert arc_len_from_height(0.0, 100.0) == 0.0
    assert arc_len_from_height(10.0, 100.0) == pytest.approx(
        10.016742116155979, rel=1e-12)
    assert arc_len_from_height(20.0, 100.0) == pytest.approx(
        20.135792079033074, rel=1e-12)


def test_arc_len_chord_form_is_exact_inverse_of_full_chord():
    for radius in (10.0, 100.0, 5000.0):
        for frac in (0.01, 0.3, 0.9, 1.7):
            height = frac * radius
            s = arc_len_from_height_chord_form(height, radius)
            assert chord_from_arc(s, radius, "full") == pytest.approx(
                height, rel=1e-12)


def test_two_arc_forms_agree_for_shallow_arcs():
    # The forms differ at third order, so their relative gap is bounded by
    # the squared height/radius ratio.
    for radius in (10.0, 100.0, 1000.0):
        for frac in (0.001, 0.01, 0.1, 0.3):
            height = frac * radius
            direct = arc_len_from_height(height, radius)
            chordf = arc_len_from_height_chord_form(height, radius)
            assert abs(direct - chordf) / direct <= frac * frac


def test_chord_oracle_values():
    assert chord_from_arc(0.0, 100.0, "full") == 0.0
    assert chord_from_arc(0.0, 100.0, "half") == 0.0
    # Quarter circle spans the half-chord domain boundary exactly.
    assert chord_from_arc(100.0 * math.pi / 2.0, 100.0, "half") == pytest.approx(
        100.0, rel=1e-12)
    assert chord_from_arc(10.0, 1000.0, "half") == pytest.approx(
        9.999833334166664, rel=1e-12)


def test_infinite_radius_identities():
    assert arc_len_from_height(5.0, math.inf) == 5.0
    assert arc_len_from_height_chord_form(5.0, math.inf) == 5.0
    assert chord_from_arc(5.0, math.inf, "full") == 5.0
    assert chord_from_arc(5.0, math.inf, "half") == 5.0


def test_chord_never_exceeds_arc():
    for radius in (10.0, 100.0, 10000.0):
        for s in (0.0, 0.1, 1.0, radius * 0.5, radius * 1.5):
            for span in ("full", "half"):
                if span == "half" and s / radius > math.pi / 2.0:
                    continue
                chord = chord_from_arc(s, radius, span)
                assert chord <= s
                if s > 0.0:
                    assert chord < s
    assert chord_from_arc(7.0, math.inf, "full") == 7.0


def test_chord_taylor_small_angle():
    for radius in (10.0, 100.0, 10000.0):
        for frac in (1e-3, 5e-3, 9.9e-3):
            s = frac * radius
            taylor = s * (1.0 - s * s / (6.0 * radius * radius))
            err = abs(chord_from_arc(s, radius, "half") - taylor) / s
            assert err < 1e-6


def circle_arc_by_integration(height, radius):
    # Arc length of x -> sqrt(R^2 - x^2) risen by `height`, integrated
    # adaptively; library-independent check of the closed form.
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
    lambda: arc_len_from_height_chord_form(-1.0, 10.0),
    lambda: arc_len_from_height_chord_form(25.0, 10.0),
    lambda: chord_from_arc(-1.0, 10.0, "half"),
    lambda: chord_from_arc(1.0, 0.0, "half"),
    lambda: chord_from_arc(16.0, 10.0, "half"),
    lambda: chord_from_arc(32.0, 10.0, "full"),
])
def test_arc_domain_errors(call):
    with pytest.raises(ArcDomainError):
        call()


def test_chord_span_argument_checked():
    with pytest.raises(ValueError, match="span must be"):
        chord_from_arc(1.0, 10.0, "quarter")


# ------------------------------------------------------- basic linearization

def test_basic_hand_computed_value():
    cal = CalibConstants(c=0.995, c_left=0.995, c_right=0.995, f_lc=2.0,
                         f_rc=2.0, k=0.5, h=0.5, wheel_base=10.0,
                         radius=math.inf)
    log = log_of(120.0, 120.0, n_right=3, n_left=2)
    assert linearize_basic(log, cal, "left") == pytest.approx(108.455, abs=1e-12)


def test_basic_identity_configuration():
    log = log_of(37.25, 37.25)
    assert linearize_basic(log, unit_cal(), "left") == 37.25
    assert linearize_basic(log, unit_cal(), "right") == 37.25


def test_basic_right_wheel_mirror():
    # Right wheel pairs k with right turns.
    cal = CalibConstants(c=1.0, c_left=1.0, c_right=0.5, f_lc=1.0, f_rc=3.0,
                         k=0.5, h=0.5, wheel_base=10.0, radius=math.inf)
    log = log_of(100.0, 100.0, n_right=2, n_left=1)
    expected = (100.0 - 3.0 * 3 - 0.5 * 2) * 0.5
    assert linearize_basic(log, cal, "right") == pytest.approx(expected, abs=1e-12)


def test_bracket_negative_raises():
    log = log_of(0.01, 0.01, n_right=3, n_left=2)
    cal = calibration_from_motion(MotionParams())
    with pytest.raises(CalibrationError, match="pivot charges exceed"):
        linearize_basic(log, cal, "left")


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
                         f_rc=0.008, k=0.002, h=0.5, wheel_base=10.0,
                         radius=100.0)
    s_2h = arc_len_from_height_chord_form(2.0 * cal.h, cal.radius)
    s_h = arc_len_from_height(cal.h, cal.radius)
    wl = 3.0 * s_2h + s_h + cal.f_lc * 4 + cal.k * 2
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
    s_2h = arc_len_from_height_chord_form(2.0 * default_cal.h,
                                          default_cal.radius)
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
    expected = chord_from_arc(10.0, 100.0, "half")
    assert linearize_arc(log, cal, "left") == pytest.approx(expected, rel=1e-15)


def test_arc_inverts_synthetic_log_exactly():
    # A log composed of exact model arcs plus exact pivot charges must come
    # back as exactly the sum of the matching chords.
    cal = unit_cal(radius=100.0)
    s_2h = arc_len_from_height_chord_form(2.0 * cal.h, cal.radius)
    s_h = arc_len_from_height(cal.h, cal.radius)
    s_d = 0.3 * s_2h
    wl = 2.0 * s_2h + s_h + s_d
    log = log_of(wl, wl, n_right=2, n_left=1)
    expected = (2.0 * chord_from_arc(s_2h, cal.radius, "full")
                + chord_from_arc(s_h, cal.radius, "half")
                + chord_from_arc(s_d, cal.radius, "half"))
    got = linearize_arc(log, cal, "left")
    assert abs(got - expected) / expected < 1e-6
    assert got == pytest.approx(expected, rel=1e-12)


def test_arc_hand_built_chord_sum():
    cal = CalibConstants(c=0.99, c_left=0.99, c_right=0.99, f_lc=0.01,
                         f_rc=0.01, k=0.005, h=0.5, wheel_base=10.0,
                         radius=100.0)
    s_2h = arc_len_from_height_chord_form(1.0, 100.0)
    s_h = arc_len_from_height(0.5, 100.0)
    s_d = 0.6
    wl = 2.0 * s_2h + s_h + s_d + cal.f_lc * 3 + cal.k * 1
    log = log_of(wl, wl, n_right=2, n_left=1)
    expected = (2.0 * chord_from_arc(s_2h, 100.0, "full")
                + chord_from_arc(s_h, 100.0, "half")
                + chord_from_arc(s_d, 100.0, "half")) * 0.99
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
    expected = chord_from_arc(s_h, default_cal.radius, "half") * default_cal.c
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


def test_estimate_length_unknown_mode(default_cal):
    with pytest.raises(ValueError, match="mode must be"):
        estimate_length(log_of(10.0, 10.0), default_cal, "psychic")


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
