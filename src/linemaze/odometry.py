"""Inverse odometry: recover a straight segment's length from an encoder log.

A line follower's wheels roll farther than the segment is long: the path
zigzags around the line, and every corrective pivot adds wheel travel that
moves the robot nowhere. Given the calibration constants of the robot, the
functions here undo both effects at two levels of fidelity:

* piecewise-linear (``linearize_basic``): strip the per-pivot wheel charges,
  then project the remaining roll distance onto the track with a constant
  mean-cosine factor.
* arc-aware (``linearize_arc``): additionally decompose the stripped roll
  distance into the per-oscillation stretches the controller geometry
  implies, and replace each stretch (an arc of the drift circle) by its
  along-track chord.

``predict_without_encoder`` estimates length from pivot counts alone — no
encoder readings at all — which works because the controller makes the robot
oscillate with a fixed lateral period.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ArcDomainError, CalibrationError
from .motion_sim import (JITTER_HI, JITTER_LO, EncoderLog, MotionParams,
                         radius_from_ratio)

__all__ = [
    "CalibConstants",
    "calibration_from_motion",
    "arc_len_from_height",
    "arc_len_from_height_chord_form",
    "chord_from_arc",
    "linearize_basic",
    "residual_arc",
    "linearize_arc",
    "predict_without_encoder",
    "estimate_length",
    "ODOMETRY_MODES",
]

# Fraction of the nominal inter-turn gap the arc model allocates per stretch.
# Slightly under 1 so the residual stretch stays non-negative for any jitter
# draw: allocating a hair less than the mean leaves the slack to the residual
# term instead of driving it negative.
_H_SCALE = 0.98

ODOMETRY_MODES = ("ideal", "raw", "basic", "arc")


@dataclass(frozen=True)
class CalibConstants:
    """Correction constants describing one robot's line-following gait.

    c: mean along-track projection (cosine) of the oscillating heading.
    c_left/c_right: per-wheel variants of ``c`` (the outer wheel of the drift
        circle rolls farther per cm of track, the inner one less).
    f_lc/f_rc: left/right wheel distance charged per pivot turn (cm).
    k: extra distance charged to the inner wheel of each pivot (cm).
    h: straight-equivalent half-gap of the lateral oscillation (cm) — the
        model's period parameter, not necessarily the sensor threshold.
    wheel_base: distance between the wheels (cm).
    radius: magnitude of the drift-circle radius (cm); ``math.inf`` for a
        perfectly matched drive.
    """

    c: float
    c_left: float
    c_right: float
    f_lc: float
    f_rc: float
    k: float
    h: float
    wheel_base: float
    radius: float

    def __post_init__(self) -> None:
        for name in ("c", "c_left", "c_right"):
            v = getattr(self, name)
            if not (0.0 < v <= 1.0):
                raise CalibrationError("%s must lie in (0, 1], got %r" % (name, v))
        for name in ("f_lc", "f_rc", "k"):
            if getattr(self, name) < 0.0:
                raise CalibrationError("%s must be non-negative" % name)
        if not (self.h > 0.0 and math.isfinite(self.h)):
            raise CalibrationError("h must be positive and finite")
        if not (self.wheel_base > 0.0 and math.isfinite(self.wheel_base)):
            raise CalibrationError("wheel_base must be positive and finite")
        if not self.radius > 0.0:
            raise CalibrationError("radius must be positive (math.inf allowed)")
        if math.isfinite(self.radius) and 2.0 * self.h > self.radius:
            raise CalibrationError(
                "need 2*h <= radius for the arc model (2*%g > %g)"
                % (self.h, self.radius))


def calibration_from_motion(params: MotionParams) -> CalibConstants:
    """Derive the correction constants that match the simulated robot.

    The simulator and this inverse model share ground truth, so the constants
    are computed, not estimated:

    * each per-turn pivot charge is the turn plus its straight creep
      (``pivot_arc_* + pivot_lin_*``), because the simulator always charges
      them together; the subtraction in the brackets is then exact.
    * ``c`` averages the heading cosine over the two regimes a leg sees: just
      after a departure the heading sits at the (jittered) initial error, and
      between corrections it sits near the pivot exit angle.
    * per-wheel factors divide out each wheel's share of the drift circle,
      capped at 1 to respect the model's contract that projection never
      credits a wheel with more track than roll.
    * ``h`` converts the lateral trigger threshold into the straight-running
      distance between corrective turns (divide by the sine of the exit
      angle), scaled by a safety factor so the residual term stays
      non-negative under jitter.
    """
    jitter_mean = (JITTER_LO + JITTER_HI) / 2.0
    c = (math.cos(jitter_mean * params.alpha) + math.cos(params.theta)) / 2.0
    fl, fr = params.wheel_factors()
    return CalibConstants(
        c=c,
        c_left=min(1.0, c / fl),
        c_right=min(1.0, c / fr),
        f_lc=params.pivot_arc_left + params.pivot_lin_left,
        f_rc=params.pivot_arc_right + params.pivot_lin_right,
        k=params.inner_rot_const,
        h=_H_SCALE * params.h / math.sin(params.theta),
        wheel_base=params.wheel_base,
        radius=abs(radius_from_ratio(params.speed_ratio, params.wheel_base)),
    )


def arc_len_from_height(height: float, radius: float) -> float:
    """Arc length that advances a drift-circle path by ``height``.

    Direct inverse-sine form: ``S = R * asin(height / R)``; an infinite
    radius degenerates to ``S = height``.
    """
    if height < 0.0:
        raise ArcDomainError("height must be non-negative, got %r" % height)
    if not radius > 0.0:
        raise ArcDomainError("radius must be positive, got %r" % radius)
    if math.isinf(radius):
        return height
    if height > radius:
        raise ArcDomainError(
            "height/radius = %g exceeds 1; no such arc" % (height / radius))
    return radius * math.asin(height / radius)


def arc_len_from_height_chord_form(height: float, radius: float) -> float:
    """Arc length whose full-span *chord* is ``height``.

    Chord-consistent form: ``S = 2R * asin(height / 2R)`` — the exact inverse
    of ``chord_from_arc(S, R, "full")``. Agrees with ``arc_len_from_height``
    to first order when ``height`` is small against ``radius``; the two
    differ at third order because one treats ``height`` as a coordinate
    advance and the other as a chord.
    """
    if height < 0.0:
        raise ArcDomainError("height must be non-negative, got %r" % height)
    if not radius > 0.0:
        raise ArcDomainError("radius must be positive, got %r" % radius)
    if math.isinf(radius):
        return height
    if height > 2.0 * radius:
        raise ArcDomainError(
            "height/(2*radius) = %g exceeds 1; no such arc"
            % (height / (2.0 * radius)))
    return 2.0 * radius * math.asin(height / (2.0 * radius))


def chord_from_arc(s: float, radius: float, span: str) -> float:
    """Along-track projection (chord) of an arc of length ``s``.

    span="full": chord of the whole arc, ``2R sin(s/2R)`` — an oscillation
    stretch whose endpoints sit at the same lateral offset.
    span="half": tangent-start projection, ``R sin(s/R)`` — a stretch that
    starts parallel to the track (first leg, residual leg).
    Infinite radius returns ``s`` unchanged.
    """
    if s < 0.0:
        raise ArcDomainError("arc length must be non-negative, got %r" % s)
    if not radius > 0.0:
        raise ArcDomainError("radius must be positive, got %r" % radius)
    if math.isinf(radius):
        return s
    if span == "full":
        ratio = s / (2.0 * radius)
        if ratio > math.pi / 2.0:
            raise ArcDomainError(
                "s/(2*radius) = %g exceeds pi/2; chord is not monotone there"
                % ratio)
        return 2.0 * radius * math.sin(ratio)
    if span == "half":
        ratio = s / radius
        if ratio > math.pi / 2.0:
            raise ArcDomainError(
                "s/radius = %g exceeds pi/2; chord is not monotone there"
                % ratio)
        return radius * math.sin(ratio)
    raise ValueError("span must be 'full' or 'half', got %r" % (span,))


def _wheel_view(log: EncoderLog, cal: CalibConstants, wheel: str):
    """Per-wheel constants: (total, per-turn charge, inner count, c).

    The inner-wheel charge ``k`` pairs with the same-side turn count (the
    left wheel is the inner wheel of a left turn).
    """
    if wheel == "left":
        return log.wl_total, cal.f_lc, log.n_left, cal.c_left
    if wheel == "right":
        return log.wr_total, cal.f_rc, log.n_right, cal.c_right
    raise ValueError("wheel must be 'left' or 'right', got %r" % (wheel,))


def _bracket(log: EncoderLog, cal: CalibConstants, wheel: str) -> float:
    """Wheel roll distance with all pivot charges stripped."""
    total, f_c, n_inner, _ = _wheel_view(log, cal, wheel)
    n = log.n_right + log.n_left
    bracket = total - f_c * n - cal.k * n_inner
    if bracket < 0.0:
        raise CalibrationError(
            "pivot charges exceed the %s wheel's roll distance "
            "(%g for %d turns); calibration inconsistent with the log"
            % (wheel, total, n))
    return bracket


def linearize_basic(log: EncoderLog, cal: CalibConstants, wheel: str) -> float:
    """Piecewise-linear length estimate from one wheel's encoder total.

    Strips the per-pivot wheel charges and projects the rest onto the track
    with the wheel's mean-cosine constant.
    """
    _, _, _, c_wheel = _wheel_view(log, cal, wheel)
    return _bracket(log, cal, wheel) * c_wheel


def _stretch_arcs(cal: CalibConstants):
    """Model arc lengths (S_2h, S_h) of a full oscillation stretch and of a
    tangent-start half stretch."""
    s_2h = arc_len_from_height_chord_form(2.0 * cal.h, cal.radius)
    s_h = arc_len_from_height(cal.h, cal.radius)
    return s_2h, s_h


def residual_arc(log: EncoderLog, cal: CalibConstants, wheel: str) -> float:
    """Arc length of the final partial stretch before the segment end.

    Subtracts the modeled full stretches — (N-1) oscillation arcs plus the
    initial tangent-start arc — from the stripped roll distance; what is
    left is the last, incomplete stretch.
    """
    n = log.n_right + log.n_left
    if n < 1:
        raise ValueError(
            "residual_arc needs at least one pivot turn; "
            "pivot-free logs take the single-arc fallback")
    s_2h, s_h = _stretch_arcs(cal)
    s_d = _bracket(log, cal, wheel) - (n - 1) * s_2h - s_h
    if s_d < -1e-9:
        raise CalibrationError(
            "modeled stretches exceed the %s wheel's roll distance by %g; "
            "calibration inconsistent with the log" % (wheel, -s_d))
    return max(0.0, s_d)


def linearize_arc(log: EncoderLog, cal: CalibConstants, wheel: str) -> float:
    """Arc-aware length estimate from one wheel's encoder total.

    Decomposes the stripped roll distance into (N-1) full oscillation arcs,
    one tangent-start arc, and a residual arc; replaces every arc by its
    along-track chord and projects with the wheel's cosine constant. With no
    pivots at all the whole stripped distance is treated as a single
    tangent-start arc.
    """
    _, _, _, c_wheel = _wheel_view(log, cal, wheel)
    n = log.n_right + log.n_left
    if n == 0:
        chord = chord_from_arc(_bracket(log, cal, wheel), cal.radius, "half")
        return chord * c_wheel
    s_2h, s_h = _stretch_arcs(cal)
    x_2h = chord_from_arc(s_2h, cal.radius, "full")
    x_h = chord_from_arc(s_h, cal.radius, "half")
    d_d = chord_from_arc(residual_arc(log, cal, wheel), cal.radius, "half")
    return ((n - 1) * x_2h + x_h + d_d) * c_wheel


def predict_without_encoder(n_right: int, n_left: int,
                            cal: CalibConstants) -> float:
    """Length estimate from pivot counts alone (no encoder readings).

    The oscillation period is fixed by the geometry, so N turns pin down
    (N-1) full stretches plus the initial one; the unknown residual stretch
    is dropped.
    """
    n = n_right + n_left
    if n < 1:
        raise ValueError("need at least one pivot turn to predict a length")
    s_2h, s_h = _stretch_arcs(cal)
    x_2h = chord_from_arc(s_2h, cal.radius, "full")
    x_h = chord_from_arc(s_h, cal.radius, "half")
    return ((n - 1) * x_2h + x_h) * cal.c


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
        return (log.wl_total + log.wr_total) / 2.0
    if mode == "basic":
        return (linearize_basic(log, cal, "left")
                + linearize_basic(log, cal, "right")) / 2.0
    if mode == "arc":
        return (linearize_arc(log, cal, "left")
                + linearize_arc(log, cal, "right")) / 2.0
    raise ValueError("mode must be one of %r, got %r" % (ODOMETRY_MODES, mode))
