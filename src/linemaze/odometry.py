"""Inverse odometry: recover a straight segment's length from an encoder log.

A line follower's wheels roll farther than the segment is long: the path
zigzags around the line, and every corrective pivot adds wheel travel that
moves the robot nowhere. Given the calibration constants of the robot, the
functions here undo both effects at two levels of fidelity:

* piecewise-linear (``linearize_basic``): strip the per-pivot wheel charges,
  then project the remaining roll distance onto the track with a constant
  mean-cosine factor.
* arc-aware (``linearize_arc``): convert the stripped roll distance to the
  midpoint's path length, decompose it into the stretches the controller
  geometry implies, replace each stretch (an arc of the midpoint's drift
  circle) by its along-track chord, and project with the one cosine ``c``.
  N pivots give 2N-1 tangent-start half stretches, each advancing ``h``:
  the first one, then two for each of the N-1 full oscillations between
  pivots. What is left is the residual stretch before the segment end.

Both levels evaluate a wheel in one private function; ``estimate_length``
calls it once per wheel, left first, and the per-wheel functions by the
wheel's name, so each check runs and raises alike from every entry point.

``predict_without_encoder`` estimates length from pivot counts alone — no
encoder readings at all — which works because the controller makes the robot
oscillate with a fixed lateral period.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import NamedTuple

from .errors import ArcDomainError, ArgumentError, CalibrationError
from .motion_sim import (JITTER_HI, JITTER_LO, EncoderLog, MotionParams,
                         _check_count, _check_params)

__all__ = [
    "CalibConstants",
    "calibration_from_motion",
    "arc_len_from_height",
    "chord_from_arc",
    "linearize_basic",
    "residual_arc",
    "linearize_arc",
    "predict_without_encoder",
    "estimate_length",
    "ODOMETRY_MODES",
]

ODOMETRY_MODES = ("ideal", "raw", "basic", "arc")


class _CalibFields(NamedTuple):
    c: float
    c_left: float
    c_right: float
    f_lc: float
    f_rc: float
    k: float
    h: float
    radius: float


class CalibConstants(_CalibFields):
    """Correction constants describing one robot's line-following gait.

    c: mean along-track projection (cosine) of the oscillating heading.
    c_left/c_right: per-wheel variants of ``c`` (the outer wheel of the drift
        circle rolls farther per cm of track, the inner one less).
    f_lc/f_rc: left/right wheel distance charged per pivot turn (cm).
    k: extra distance charged to the inner wheel of each pivot (cm).
    h: along-track advance (chord) of a half stretch, the leg that rises
        from the line to the lateral trigger distance (cm).
    radius: the midpoint's drift-circle radius 1/|kappa| (cm): 505 cm for the
        default robot, ``math.inf`` for a perfectly matched drive.
    """

    # No __slots__: the cached property below lives in the instance dict,
    # which it fills directly, so no attribute can be assigned.
    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to CalibConstants.%s" % name)

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not (0.0 < self.c <= 1.0):
            raise CalibrationError("c must lie in (0, 1], got %r" % (self.c,))
        for name in ("c_left", "c_right"):
            v = getattr(self, name)
            if not (0.0 < v < math.inf):
                raise CalibrationError("%s must lie in (0, inf), got %r"
                                       % (name, v))
        for name in ("f_lc", "f_rc", "k"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise CalibrationError("%s must be non-negative and finite"
                                       % name)
        if not (self.h > 0.0 and math.isfinite(self.h)):
            raise CalibrationError("h must be positive and finite")
        if not self.radius > 0.0:
            raise CalibrationError("radius must be positive (math.inf allowed)")
        if math.isfinite(self.radius) and 2.0 * self.h > self.radius:
            raise CalibrationError(
                "need 2*h <= radius for the arc model (2*%g > %g)"
                % (self.h, self.radius))
        return self

    # _replace builds through _make, so both must run the checks above;
    # the base's _make checks the length.
    _make = classmethod(
        lambda cls, iterable: cls(*_CalibFields._make(iterable)))

    @cached_property
    def _half_stretch(self):
        """Model arc length S_h of a tangent-start half stretch.

        Its chord is ``h`` itself, which ``arc_len_from_height`` inverts. A
        full oscillation stretch is two half stretches, so its arc is 2*S_h
        and its chord 2*h; doubling is exact in floating point. Computed once
        per calibration, on first use.
        """
        return arc_len_from_height(self.h, self.radius)


def calibration_from_motion(params: MotionParams) -> CalibConstants:
    """Derive the correction constants that match the simulated robot.

    The simulator and this inverse model share ground truth, so the constants
    are computed, not estimated:

    * each per-turn pivot charge is the simulator's ``pivot_left`` or
      ``pivot_right``, so the subtraction in the brackets is exact.
    * ``c`` averages the heading cosine over the two regimes a leg sees: just
      after a departure the heading sits at the (jittered) initial error, and
      between corrections it sits near the pivot exit angle.
    * per-wheel factors divide out each wheel's share of the drift circle.
      The inner wheel of the circle rolls less than the midpoint travels,
      so its constant can exceed 1.
    * ``h`` converts the lateral trigger threshold into the straight-running
      distance between corrective turns (divide by the sine of the exit
      angle), and ``radius`` is the midpoint's drift radius 1/|kappa|.
    """
    _check_params(params)
    jitter_mean = (JITTER_LO + JITTER_HI) / 2.0
    c = (math.cos(jitter_mean * params.alpha) + math.cos(params.theta)) / 2.0
    fl, fr = params.wheel_factors()
    kappa = params.kappa
    return CalibConstants(
        c=c,
        c_left=c / fl,
        c_right=c / fr,
        f_lc=params.pivot_left,
        f_rc=params.pivot_right,
        k=params.inner_rot_const,
        h=params.h / math.sin(params.theta),
        radius=1.0 / abs(kappa) if kappa else math.inf,
    )


def arc_len_from_height(height: float, radius: float) -> float:
    """Arc length that advances a drift-circle path by ``height``.

    Direct inverse-sine form: ``S = R * asin(height / R)``; an infinite
    radius degenerates to ``S = height``.
    """
    if not height >= 0.0:
        raise ArcDomainError("height must be non-negative, got %r" % height)
    if not radius > 0.0:
        raise ArcDomainError("radius must be positive, got %r" % radius)
    if math.isinf(radius):
        return height
    if not height <= radius:
        raise ArcDomainError(
            "height/radius = %g exceeds 1; no such arc" % (height / radius))
    return radius * math.asin(height / radius)


def chord_from_arc(s: float, radius: float) -> float:
    """Along-track projection (chord) of a tangent-start arc of length ``s``.

    ``R sin(s/R)`` for a stretch that starts parallel to the track. A full
    oscillation stretch, whose endpoints sit at the same lateral offset, is
    two of these end to end. Infinite radius returns ``s`` unchanged.
    """
    if not s >= 0.0:
        raise ArcDomainError("arc length must be non-negative, got %r" % s)
    if not radius > 0.0:
        raise ArcDomainError("radius must be positive, got %r" % radius)
    if math.isinf(radius):
        return s
    ratio = s / radius
    if not ratio <= math.pi / 2.0:
        raise ArcDomainError(
            "s/radius = %g exceeds pi/2; chord is not monotone there" % ratio)
    return radius * math.sin(ratio)


def _wheel_estimate(total, f_c, n_inner, c_wheel, n, cal, wheel, model):
    """One wheel's ``model`` estimate, "basic", "arc" or "residual" (what
    ``residual_arc`` returns), from the numbers ``_wheel`` reads for it."""
    bracket = total - f_c * n - cal.k * n_inner
    if not bracket >= 0.0:
        if math.isnan(total):
            raise CalibrationError(
                "the %s wheel's total is not a number (%r); the log cannot "
                "be corrected" % (wheel, total))
        raise CalibrationError(
            "pivot charges exceed the %s wheel's roll distance "
            "(%g for %d turns); calibration inconsistent with the log"
            % (wheel, total, n))
    if model == "basic":
        return bracket * c_wheel
    roll = bracket * c_wheel / cal.c
    if n == 0:
        return chord_from_arc(roll, cal.radius) * cal.c
    s_h = cal._half_stretch
    s_d = roll - (n - 1) * (2.0 * s_h) - s_h
    if s_d < -1e-9:
        raise CalibrationError(
            "modeled stretches exceed the %s wheel's midpoint roll by %g; "
            "calibration inconsistent with the log" % (wheel, -s_d))
    s_d = max(0.0, s_d)
    if model == "residual":
        return s_d
    d_d = chord_from_arc(s_d, cal.radius)
    return (_stretch_chords(n, cal.h) + d_d) * cal.c


def _wheel(log, cal, wheel, model):
    """``_wheel_estimate`` of the wheel named ``wheel``."""
    n = log.n_right + log.n_left
    if n < 1 and model == "residual":
        raise ArgumentError(
            "residual_arc needs at least one pivot turn; "
            "pivot-free logs take the single-arc fallback")
    if wheel == "left":
        return _wheel_estimate(log.wl_total, cal.f_lc, log.n_left, cal.c_left,
                               n, cal, wheel, model)
    if wheel == "right":
        return _wheel_estimate(log.wr_total, cal.f_rc, log.n_right,
                               cal.c_right, n, cal, wheel, model)
    raise ArgumentError("wheel must be 'left' or 'right', got %r" % (wheel,))


def linearize_basic(log: EncoderLog, cal: CalibConstants, wheel: str) -> float:
    """Piecewise-linear length estimate from one wheel's encoder total.

    Strips the per-pivot wheel charges and projects the rest onto the track
    with the wheel's mean-cosine constant. The inner-wheel charge ``k`` pairs
    with the same-side turn count (the left wheel is the inner wheel of a
    left turn).
    """
    return _wheel(log, cal, wheel, "basic")


def _stretch_chords(n: int, h: float) -> float:
    """Chord sum of the (N-1) full stretches and the first half stretch."""
    return (n - 1) * (2.0 * h) + h


def residual_arc(log: EncoderLog, cal: CalibConstants, wheel: str) -> float:
    """Arc length of the midpoint roll that the modeled stretches leave.

    Subtracts the modeled stretches — (N-1) full oscillation arcs of two
    half stretches each, plus the initial half stretch — from the midpoint
    roll the wheel reads, which is its basic estimate before the cosine (for
    a derived calibration, the stripped roll over the wheel's path factor).
    The model reads what is left as the last, incomplete stretch; on the
    simulated robot it grows with the segment's length instead.
    """
    return _wheel(log, cal, wheel, "residual")


def linearize_arc(log: EncoderLog, cal: CalibConstants, wheel: str) -> float:
    """Arc-aware length estimate from one wheel's encoder total.

    Decomposes the midpoint roll the wheel reads into (N-1) full oscillation
    arcs, the initial half stretch, and a residual arc; replaces every arc by
    its along-track chord and projects with the cosine constant ``c``. With
    no pivots at all the whole midpoint roll is treated as a single
    tangent-start arc.
    """
    return _wheel(log, cal, wheel, "arc")


def predict_without_encoder(n_right: int, n_left: int,
                            cal: CalibConstants) -> float:
    """Length estimate from pivot counts alone (no encoder readings).

    The oscillation period is fixed by the geometry, so N turns pin down
    (N-1) full stretches plus the initial one; the unknown residual stretch
    is dropped. Each count must be a non-negative integer, and they must
    sum to at least one; ``ArgumentError`` otherwise.
    """
    _check_count("n_right", n_right)
    _check_count("n_left", n_left)
    n = n_right + n_left
    if n < 1:
        raise ArgumentError("need at least one pivot turn to predict a length")
    return _stretch_chords(n, cal.h) * cal.c


def estimate_length(log: EncoderLog, cal: CalibConstants, mode: str) -> float:
    """Segment length according to one odometry mode.

    ideal: ground truth from the log (bypasses the encoders).
    raw: mean of the two wheel totals, uncorrected.
    basic: mean of the two wheels' piecewise-linear estimates.
    arc: mean of the two wheels' arc-aware estimates.
    """
    if mode == "ideal":
        return log.true_length
    if mode == "raw":
        mean = (log.wl_total + log.wr_total) / 2.0
        if math.isinf(mean):
            # Two totals near the float maximum overflow their sum; halving
            # each first is exact for totals that large.
            mean = log.wl_total / 2.0 + log.wr_total / 2.0
        return mean
    if mode == "basic" or mode == "arc":
        n = log.n_right + log.n_left
        return (_wheel_estimate(log.wl_total, cal.f_lc, log.n_left,
                                cal.c_left, n, cal, "left", mode)
                + _wheel_estimate(log.wr_total, cal.f_rc, log.n_right,
                                  cal.c_right, n, cal, "right", mode)) / 2.0
    raise ArgumentError("mode must be one of %r, got %r" % (ODOMETRY_MODES, mode))
