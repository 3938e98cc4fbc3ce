"""Forward simulation of a differential-drive line follower on a straight segment.

The robot tracks a taped line with a bang-bang controller: it drives in
straight-ish arcs (one wheel slightly faster, so the heading drifts) and,
whenever it strays a lateral distance ``h`` from the line while diverging,
snaps its heading back toward the line with a pivot turn. Wheel encoders
accumulate the per-wheel path length, including the extra wheel travel spent
inside pivot turns.

The forward model is an Euler step loop of ``MotionParams.step`` cm.
Between pivots the heading turns by the same angle every step, so the
kernel (``_integrate``) moves through each straight leg in one closed-form
jump and takes single steps only where the loop decides something: at a
pivot, at the end of the segment, near a right-angle heading and at the
step budget. The jump changes results only by rounding (about 1e-12
relative); ``tests/oracles.py`` keeps the step loop to compare against.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from math import cos, sin
from typing import Optional, Tuple

from .errors import MotionDivergenceError

__all__ = [
    "JITTER_LO",
    "JITTER_HI",
    "KERNEL_BACKEND",
    "MotionParams",
    "EncoderLog",
    "simulate_segment",
    "radius_from_ratio",
]

# Start-of-segment heading jitter: |alpha0| is drawn uniformly from
# [JITTER_LO * alpha, JITTER_HI * alpha], with a random sign.
JITTER_LO = 0.9
JITTER_HI = 1.0

# The leg-jump kernel below is the only kernel, in pure Python; the name
# stays because benchmark runs record it in their identity.
KERNEL_BACKEND = "pure"

# Fewest steps worth a jump; a shorter run of steps is stepped.
_MIN_JUMP = 8
# Steps held back from a jump's first guess, which is taken at the current
# heading; curvature can bring the trigger a step or two closer.
_SPARE_STEPS = 2
# Headings a jump may span: cos stays near 1e-6 or above, far from the
# 1e-12 at which a step reports divergence.
_MAX_JUMP_HEADING = math.pi / 2 - 1e-6


@dataclass(frozen=True)
class MotionParams:
    """Physical parameters of the simulated robot.

    Distances are in centimetres, angles in radians.

    h: lateral deviation from the line that triggers a corrective pivot.
    alpha: nominal magnitude of the heading error right after a junction
        departure (the actual value gets per-segment jitter and sign).
    theta: heading magnitude the robot aims back at the line after a pivot.
    speed_ratio: right/left wheel speed ratio (1.0 = perfectly straight).
    wheel_base: distance between the two wheels.
    pivot_arc_left/right: wheel distance spent turning during one pivot.
    pivot_lin_left/right: wheel distance spent rolling straight during one
        pivot (entry/exit creep).
    inner_rot_const: extra distance charged to the inner wheel of a pivot.
    step: integration step along the robot path.
    seed: seeds the per-segment heading jitter.
    """

    h: float = 0.1
    alpha: float = math.radians(10.0)
    theta: float = math.radians(10.0)
    speed_ratio: float = 1.02
    wheel_base: float = 10.0
    pivot_arc_left: float = 0.006
    pivot_lin_left: float = 0.002
    pivot_arc_right: float = 0.006
    pivot_lin_right: float = 0.002
    inner_rot_const: float = 0.002
    step: float = 0.01
    seed: int = 0

    def __post_init__(self) -> None:
        if not (self.h > 0.0 and math.isfinite(self.h)):
            raise ValueError("h must be positive and finite")
        if not (0.0 <= self.alpha < math.pi / 2):
            raise ValueError("alpha must lie in [0, pi/2)")
        if not (0.0 < self.theta < math.pi / 2):
            raise ValueError("theta must lie in (0, pi/2)")
        if not (self.speed_ratio > 0.0 and math.isfinite(self.speed_ratio)):
            raise ValueError("speed_ratio must be positive and finite")
        if not (self.wheel_base > 0.0 and math.isfinite(self.wheel_base)):
            raise ValueError("wheel_base must be positive and finite")
        for name in ("pivot_arc_left", "pivot_lin_left", "pivot_arc_right",
                     "pivot_lin_right", "inner_rot_const"):
            if getattr(self, name) < 0.0:
                raise ValueError("%s must be non-negative" % name)
        if not (self.step > 0.0 and math.isfinite(self.step)):
            raise ValueError("step must be positive and finite")

    @property
    def kappa(self) -> float:
        """Curvature (rad/cm) of the midpoint path from the wheel mismatch."""
        rho = self.speed_ratio
        if rho == 1.0:
            return 0.0
        return 2.0 * (rho - 1.0) / (self.wheel_base * (rho + 1.0))

    def wheel_factors(self) -> Tuple[float, float]:
        """Per-wheel path-length factors (fl, fr) relative to midpoint travel."""
        half = self.kappa * self.wheel_base / 2.0
        return 1.0 - half, 1.0 + half


@dataclass(frozen=True)
class EncoderLog:
    """Encoder readout and ground truth for one traversed segment.

    wl_total/wr_total: accumulated left/right wheel distances.
    n_right/n_left: number of right/left pivot turns executed.
    true_length: actual segment length (ground truth, not robot knowledge).
    trajectory: polyline of the robot midpoint in segment-local coordinates
        (x along the line from the start node, y lateral); vertices are the
        start point, every pivot location, and the end point. None when the
        simulation does not produce one.
    """

    wl_total: float
    wr_total: float
    n_right: int
    n_left: int
    true_length: float
    trajectory: Optional[Tuple[Tuple[float, float], ...]] = field(default=None)

    @property
    def turn_count(self) -> int:
        return self.n_right + self.n_left


def radius_from_ratio(speed_ratio: float, wheel_base: float) -> float:
    """Turning radius of the *left wheel* path implied by the speed ratio.

    Positive for a right-faster robot (counter-clockwise drift), negative for
    a left-faster one, ``math.inf`` when the ratio is exactly 1.
    """
    if speed_ratio == 1.0:
        return math.inf
    return wheel_base / (speed_ratio - 1.0)


def simulate_segment(length: float, params: MotionParams,
                     seed: Optional[int] = None) -> EncoderLog:
    """Drive one straight taped segment of ``length`` and log the encoders.

    ``seed`` overrides ``params.seed`` for the heading jitter draw.

    Raises MotionDivergenceError if the controller fails to make progress
    (the heading collapses onto +-90 degrees or the step budget runs out).
    """
    if not (length > 0.0 and math.isfinite(length)):
        raise ValueError("length must be positive and finite")
    rng = random.Random(params.seed if seed is None else seed)
    if params.alpha > 0.0:
        magnitude = params.alpha * rng.uniform(JITTER_LO, JITTER_HI)
        alpha0 = magnitude if rng.random() < 0.5 else -magnitude
    else:
        alpha0 = 0.0

    fl, fr = params.wheel_factors()
    k = params.inner_rot_const
    # Pivot charges: the turn itself plus straight creep, with the extra
    # rotation cost charged to the inner wheel of the turn.
    rp_l = params.pivot_arc_left + params.pivot_lin_left
    rp_r = params.pivot_arc_right + params.pivot_lin_right + k
    lp_l = params.pivot_arc_left + params.pivot_lin_left + k
    lp_r = params.pivot_arc_right + params.pivot_lin_right
    max_steps = int(40.0 * length / params.step) + 10000

    wl, wr, n_right, n_left, pivots, y_final, ok = _integrate(
        length, params.h, alpha0, params.theta, params.kappa, fl, fr,
        rp_l, rp_r, lp_l, lp_r, params.step, max_steps)
    if not ok:
        raise MotionDivergenceError(
            "line follower failed to traverse a %g cm segment "
            "(heading diverged or step budget exhausted)" % length)

    trajectory = ((0.0, 0.0),) + tuple(pivots) + ((length, y_final),)
    return EncoderLog(wl_total=wl, wr_total=wr, n_right=n_right,
                      n_left=n_left, true_length=length, trajectory=trajectory)


def _integrate(length, h, alpha0, theta, kappa, fl, fr,
               rp_l, rp_r, lp_l, lp_r, step, max_steps):
    """Integrate one segment; returns (wl, wr, n_right, n_left, pivots, y, ok).

    length: along-track distance to cover.
    h: lateral deviation that triggers a corrective pivot.
    alpha0: signed initial heading (rad) relative to the line.
    theta: heading magnitude set by a pivot, pointing back at the line.
    kappa: curvature from the wheel-speed mismatch (rad/cm, +ccw).
    fl/fr: per-wheel path-length factors for midpoint travel.
    rp_*/lp_*: wheel-distance charges of a right/left pivot.

    The model is an Euler step loop: each step of ``step`` cm moves the
    robot along its heading, then turns the heading by b = kappa*step and
    tests the pivot triggers. Between pivots the headings of successive
    steps form an arithmetic progression, so J steps from heading phi move
    the robot by step*sin(J*b/2)/sin(b/2) along the mean heading
    phi + (J-1)*b/2 (by J*step along phi when b = 0), roll the wheels by
    J*step*fl and J*step*fr, and turn the heading by J*b. The loop jumps
    such runs of steps in one go and takes the other steps one at a time.

    A jump of J steps is taken only when bounds over its heading range
    [phi, phi + J*b], widened by 1e-12 rad, show that the step loop would
    make no decision inside it: along-track motion is at most ``step`` per
    step, so x + (J+1)*step stays below ``length`` and no end step falls
    inside; lateral motion per step lies between step*sin(lo) and
    step*sin(hi), so no trigger (y >= h heading up, y <= -h heading down)
    is within 1e-9 cm of firing; the headings stay 1e-6 rad clear of
    +-pi/2, so no step can diverge; and J fits in the step budget. J is
    first guessed from the current heading and halved until the bounds
    hold; below _MIN_JUMP steps the loop steps instead. Every pivot, the
    end step, the divergence test and the budget test therefore run as
    single steps, and a jump of J steps spends J steps of the budget.

    The result equals the step loop's up to rounding: the jumped sums round
    differently, so coordinates and wheel totals differ by about 1e-12
    relative. A decision taken within that distance of its threshold can
    fall on a different step than in the step loop: a trigger near +-h, a
    heading sign near 0, or the end step. The last one is seen: with no
    drift, on a length that is a whole number of steps, the step loop's
    running sum of x falls about 2e-13 cm short and takes one more,
    near-zero step, which only an exactly sized budget could notice. No
    changed trigger has been seen. ``tests/oracles.step_loop_integrate``
    keeps the step loop, and the tests compare the two on pivot counts,
    pivot coordinates, wheel totals and the step budget.
    """
    x = 0.0
    y = 0.0
    phi = alpha0
    wl = 0.0
    wr = 0.0
    n_right = 0
    n_left = 0
    pivots = []
    steps = 0
    b = kappa * step
    sin_half_b = sin(0.5 * b)
    while x < length:
        jump = (length - x) / step
        lateral = step * sin(phi)
        if lateral > 0.0:
            jump = min(jump, (h - y) / lateral)
        elif lateral < 0.0:
            jump = min(jump, (h + y) / -lateral)
        jump = min(int(jump) - _SPARE_STEPS, max_steps - steps)
        while jump >= _MIN_JUMP:
            span = jump * step
            end = phi + jump * b
            lo = min(phi, end) - 1e-12
            hi = max(phi, end) + 1e-12
            if (-_MAX_JUMP_HEADING < lo and hi < _MAX_JUMP_HEADING
                    and x + span + step < length - 1e-9
                    and not (hi > 0.0 and y + span * sin(hi) >= h - 1e-9)
                    and not (lo < 0.0 and y + span * sin(lo) <= 1e-9 - h)):
                break
            jump //= 2
        if jump >= _MIN_JUMP:  # span and end are this jump's
            if b == 0.0:
                chord = span
                mid = phi
            else:
                chord = step * sin(0.5 * jump * b) / sin_half_b
                mid = phi + 0.5 * (jump - 1) * b
            x += chord * cos(mid)
            y += chord * sin(mid)
            wl += span * fl
            wr += span * fr
            phi = end
            steps += jump
            continue
        if steps >= max_steps:
            return wl, wr, n_right, n_left, pivots, y, False
        steps += 1
        c = cos(phi)
        if c <= 1e-12:
            return wl, wr, n_right, n_left, pivots, y, False
        remaining = length - x
        if step * c >= remaining:
            d = remaining / c
            x = length
            y += d * sin(phi)
            wl += d * fl
            wr += d * fr
            break
        d = step
        x += d * c
        y += d * sin(phi)
        wl += d * fl
        wr += d * fr
        phi += kappa * d
        if y >= h and phi > 0.0:
            phi = -theta
            wl += rp_l
            wr += rp_r
            n_right += 1
            pivots.append((x, y))
        elif y <= -h and phi < 0.0:
            phi = theta
            wl += lp_l
            wr += lp_r
            n_left += 1
            pivots.append((x, y))
    return wl, wr, n_right, n_left, pivots, y, True
