"""Forward simulation of a differential-drive line follower on a straight segment.

The robot tracks a taped line with a bang-bang controller: it drives in
straight-ish arcs (one wheel slightly faster, so the heading drifts) and,
whenever it strays a lateral distance ``h`` from the line while diverging,
snaps its heading back toward the line with a pivot turn. Wheel encoders
accumulate the per-wheel path length, including the extra wheel travel spent
inside pivot turns.

The forward model is an Euler step loop of ``MotionParams.step`` cm.
Between pivots the heading turns by the same angle every step, so the
position after J steps has a closed form. The kernel (``_integrate``)
inverts it to solve for the number of steps a straight leg runs before the
loop must decide something, moves through them in one jump, and takes the
deciding step singly: a pivot, the end of the segment, divergence or the
step budget. A jump stops 1e-9 cm short of the trigger and of the end, and
1e-6 rad short of a right-angle heading; it never turns the heading through
zero. At the default robot each leg costs one jump and one step. The jump
changes results only by rounding (about 1e-12 relative); ``tests/oracles.py``
keeps the step loop to compare against. The kernel keeps each pivot's
position only in a ``pivots`` list its caller gives it.

The kernel reads a robot from one record, ``_robot(params)``, kept for the
last robot seen. A leg after a pivot starts at exactly +-theta, so all it
computes but its position bounds depends only on the robot, the side and
J; the record's table keeps those floats, computed once, and the result
stays bit for bit.

One driver, ``_driver(params, seed)``, checks a run's robot and mixes its
seed once; explorations, commands and ``simulate_segment`` drive their
segments through one. A run can also start from a saved leg-start state and
hands back the state at the start of its first leg that reads the length, a
valid start for any longer length: ``_simulate_lengths`` checks a
``tableone`` table's lengths once, then drives each seed's lengths so,
shortest first.
"""

from __future__ import annotations

import collections
import functools
import math
import operator
from math import atan2, cos, sin, sqrt
from typing import NamedTuple, Tuple

from .errors import ArgumentError, MotionDivergenceError

__all__ = [
    "JITTER_LO",
    "JITTER_HI",
    "KERNEL_BACKEND",
    "MAX_SEGMENT_LENGTH",
    "MotionParams",
    "EncoderLog",
    "simulate_segment",
    "segment_trajectory",
]

# Start-of-segment heading jitter: |alpha0| is uniform on
# [JITTER_LO * alpha, JITTER_HI * alpha], with a random sign, keyed by
# (run seed, segment index), two integers in [0, 2**64).
JITTER_LO = 0.9
JITTER_HI = 1.0
_MASK64 = (1 << 64) - 1

# Longest segment simulate_segment drives, in cm: a bound on time, as a
# log's size does not grow with the length. At the default robot a call
# costs about 5 us, a segment inside a run 3.4 us, plus 0.8 us per cm
# (best of 25 runs of 20 seeds at 0.5 to 1,000 cm, shared 2-core Xeon,
# Python 3.11; 1e6 cm took 1.2 s). A polyline costs ~145 B a pivot.
MAX_SEGMENT_LENGTH = 1e6

# The leg-jump kernel below is the only kernel, in pure Python; the name
# stays because benchmark runs record it in their identity.
KERNEL_BACKEND = "pure"

# What a run that fails to traverse its segment raises.
_DIVERGED = ("line follower failed to traverse a %g cm segment "
             "(heading diverged or step budget exhausted)")

# Headings a jump may span: cos stays near 1e-6 or above, far from the
# 1e-12 at which a step reports divergence.
_MAX_JUMP_HEADING = math.pi / 2 - 1e-6


class _MotionFields(NamedTuple):
    h: float = 0.1
    alpha: float = math.radians(10.0)
    theta: float = math.radians(10.0)
    speed_ratio: float = 1.02
    wheel_base: float = 10.0
    pivot_left: float = 0.008
    pivot_right: float = 0.008
    inner_rot_const: float = 0.002
    step: float = 0.01


class MotionParams(_MotionFields):
    """Physical parameters of the simulated robot.

    Distances are in centimetres, angles in radians.

    h: lateral deviation from the line that triggers a corrective pivot.
    alpha: nominal magnitude of the heading error right after a junction
        departure (the actual value gets per-segment jitter and sign).
    theta: heading magnitude the robot aims back at the line after a pivot.
    speed_ratio: right/left wheel speed ratio (1.0 = perfectly straight).
    wheel_base: distance between the two wheels.
    pivot_left/right: wheel distance charged to each wheel per pivot turn
        (the turn itself plus its entry/exit creep).
    inner_rot_const: extra distance charged to the inner wheel of a pivot.
    step: integration step along the robot path.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not (self.h > 0.0 and math.isfinite(self.h)):
            raise ArgumentError("h must be positive and finite")
        if not (0.0 <= self.alpha < math.pi / 2):
            raise ArgumentError("alpha must lie in [0, pi/2)")
        if not (0.0 < self.theta < math.pi / 2):
            raise ArgumentError("theta must lie in (0, pi/2)")
        if not (self.speed_ratio > 0.0 and math.isfinite(self.speed_ratio)):
            raise ArgumentError("speed_ratio must be positive and finite")
        if not (self.wheel_base > 0.0 and math.isfinite(self.wheel_base)):
            raise ArgumentError("wheel_base must be positive and finite")
        for name in ("pivot_left", "pivot_right", "inner_rot_const"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ArgumentError("%s must be non-negative and finite" % name)
        if not (self.step > 0.0 and math.isfinite(self.step)):
            raise ArgumentError("step must be positive and finite")
        return self

    # _replace builds through _make, so both must run the checks above;
    # the base's _make checks the length.
    _make = classmethod(
        lambda cls, iterable: cls(*_MotionFields._make(iterable)))

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


class EncoderLog(NamedTuple):
    """Encoder readout and ground truth for one traversed segment.

    wl_total/wr_total: accumulated left/right wheel distances.
    n_right/n_left: number of right/left pivot turns executed.
    true_length: actual segment length (ground truth, not robot knowledge).
    """

    wl_total: float
    wr_total: float
    n_right: int
    n_left: int
    true_length: float


def _mix64(z: int) -> int:
    """splitmix64's finalizer: a bijection of the integers in [0, 2**64)."""
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
    return z ^ (z >> 31)


def _jitter_key(seed: int, index: int) -> Tuple[int, int]:
    """The key as ints; ArgumentError unless both are integers in [0, 2**64)."""
    try:
        seed, index = operator.index(seed), operator.index(index)
        if 0 <= seed <= _MASK64 and 0 <= index <= _MASK64:
            return seed, index
    except TypeError:
        pass
    raise ArgumentError("seed and index must lie in [0, 2**64), got %r, %r"
                        % (seed, index))


def _initial_heading(alpha: float, seed: int, index: int) -> float:
    """Signed start heading of segment ``index`` of a run seeded ``seed``.

    z = mix(mix(seed) + G*index) mod 2**64, G odd, is one to one in each
    key with the other fixed; its top 53 bits set the size, bit 0 the sign.
    """
    if not (type(seed) is int and type(index) is int
            and 0 <= seed <= _MASK64 and 0 <= index <= _MASK64):
        seed, index = _jitter_key(seed, index)
    return _heading(alpha, _mix64(seed), index)


def _heading(alpha: float, mixed: int, index: int) -> float:
    """``_initial_heading`` after its seed's mix, ``mixed = mix(seed)``."""
    if not alpha > 0.0:
        return 0.0
    z = _mix64(mixed + index * 0x9E3779B97F4A7C15 & _MASK64)
    u = (z >> 11) * 2.0 ** -53
    magnitude = alpha * (JITTER_LO + (JITTER_HI - JITTER_LO) * u)
    return -magnitude if z & 1 else magnitude


def simulate_segment(length: float, params: MotionParams, seed: int,
                     index: int = 0) -> EncoderLog:
    """Drive one straight taped segment of ``length`` and log the encoders.

    The start heading's jitter is keyed by ``seed`` and ``index``, so
    segment ``index`` of a run seeded ``seed`` replays alone in one call.

    Raises ArgumentError for ``params`` that are not a ``MotionParams``, a
    length that is not positive or exceeds ``MAX_SEGMENT_LENGTH`` or a seed
    or index outside [0, 2**64), and
    MotionDivergenceError if the controller fails to make progress (the
    heading collapses onto +-90 degrees or the step budget runs out).
    """
    return _driver(params, seed)(length, index)


def segment_trajectory(length: float, params: MotionParams, seed: int,
                       index: int = 0) -> Tuple[Tuple[float, float], ...]:
    """The midpoint's polyline on the run ``simulate_segment`` logs with the
    same arguments, and raising as it does: the start, each pivot and the
    end, in segment-local (x along the line, y lateral) coordinates."""
    trajectory = [(0.0, 0.0)]
    _driver(params, seed)(length, index, trajectory)
    return tuple(trajectory)


def _check_params(params: MotionParams) -> MotionParams:
    """``params``, or ArgumentError unless it is a MotionParams: a plain tuple
    of its fields skips the constructor's checks, and one equal to the last
    robot would get that robot's cached record."""
    if not isinstance(params, MotionParams):
        raise ArgumentError("params must be a MotionParams, got %s"
                            % type(params).__name__)
    return params


def _max_steps(length, robot):
    """A ``length`` cm segment's step budget; ArgumentError if refused."""
    if not 0.0 < length <= MAX_SEGMENT_LENGTH:
        raise ArgumentError("length must be positive and at most %g cm, got %r"
                            % (MAX_SEGMENT_LENGTH, length))
    budget = 40.0 * length / robot.step
    if not math.isfinite(budget):
        raise ArgumentError("length must be positive and small enough to count "
                            "its steps; %g cm at a %g cm step is not"
                            % (length, robot.step))
    return int(budget) + 10000


def _driver(params, seed, lengths=()):
    """A run's driver: ``drive(length, index, pivots=None)`` logs or raises
    as ``simulate_segment(length, params, seed, index)`` does. ``pivots``
    is as in ``_integrate``, which each call reads afresh, and gets the end
    point last. The params, then ``lengths``, are checked here; a call
    checks its length, then its key."""
    robot = _robot(_check_params(params))
    alpha = params.alpha
    budgets = {x: _max_steps(x, robot) for x in dict.fromkeys(lengths)}
    mixed = _mix64(seed) if type(seed) is int and 0 <= seed <= _MASK64 else None

    def drive(length, index, pivots=None):
        max_steps = budgets.get(length) or budgets.setdefault(
            length, _max_steps(length, robot))
        alpha0 = (_heading(alpha, mixed, index) if mixed is not None
                  and type(index) is int and 0 <= index <= _MASK64
                  else _initial_heading(alpha, seed, index))  # or refuse
        wl, wr, n_right, n_left, y, ok = _integrate(
            length, alpha0, robot, max_steps, pivots)
        if not ok:
            raise MotionDivergenceError(_DIVERGED % length)
        if pivots is not None:
            pivots.append((length, y))
        # tuple.__new__ skips the record's Python-level __new__, as _make does.
        return tuple.__new__(EncoderLog, (wl, wr, n_right, n_left, length))

    return drive


def _simulate_lengths(lengths, params, seeds, index):
    """``simulate_segment(length, params, seed, index)`` for each seed of
    the range ``seeds``, then each of ``lengths``: yields its log, or raises
    what it raises. The params, every length and the window's jitter keys
    are checked once per table, before any run. For each seed the kernel
    runs each distinct length once, shortest first, from the state the last
    finished run handed back; a failed run's error is raised in its turn.
    """
    robot = _robot(_check_params(params))
    runs = sorted({x: _max_steps(x, robot) for x in lengths}.items())
    if seeds:
        _jitter_key(seeds[0], index), _jitter_key(seeds[-1], index)
    for seed in seeds:
        alpha0 = _initial_heading(params.alpha, seed, index)
        state, outs = [0.0, 0.0, alpha0, 0.0, 0.0, 0, 0, 0], {}
        for length, max_steps in runs:
            resume = state[:]
            outs[length] = out = _integrate(length, alpha0, robot, max_steps,
                                            None, resume)
            state = resume if out[5] else state
        for length in lengths:
            out = outs[length]
            if not out[5]:
                raise MotionDivergenceError(_DIVERGED % length)
            yield tuple.__new__(EncoderLog, (*out[:4], length))


def _integrate(length, alpha0, robot, max_steps, pivots, resume=None):
    """Integrate one segment; returns (wl, wr, n_right, n_left, y, ok).

    length: along-track distance to cover.
    alpha0: signed initial heading (rad) relative to the line.
    robot: the robot's record, ``_robot(params)`` (see ``_Robot``).
    max_steps: the step budget.
    pivots: a list to append each pivot's (x, y) to, or None.
    resume: None, or a list of a leg-start state (x, y, phi, wl, wr,
        n_right, n_left, steps) to start from, overwritten with the state
        at the start of the first leg that reads the length.

    The model is an Euler step loop: each step of ``step`` cm moves the
    robot along its heading, then turns the heading by b = kappa*step and
    tests the pivot triggers. Between pivots the headings of successive
    steps form an arithmetic progression, so J steps from heading phi end
    at

        x_J = x + g*(sin(phi + (J - 1/2)*b) - sin(phi - b/2))
        y_J = y + g*(cos(phi - b/2) - cos(phi + (J - 1/2)*b))

    with g = step/(2*sin(b/2)) (J*step*cos(phi) and J*step*sin(phi) when
    b = 0), roll the wheels by J*step*fl and J*step*fr, and turn the
    heading by J*b. Each pass of the loop below moves through one such run
    in a single jump and then takes one step of the step loop, the one
    that decides something: a pivot, the end step, divergence or the
    budget.

    The jump's J is solved from the closed form, not searched for. It is
    the largest J that keeps x_J below ``length - 1e-9`` and y_J inside
    the trigger it heads for by 1e-9 cm; that keeps the heading 1e-6 rad
    clear of +-pi/2 and from crossing zero, so y moves one way only and
    the end point bounds every step inside the jump; and that fits in the
    step budget. The two position bounds are inverted in tangent
    half-angle form, which has no cancellation at small b. The end point
    of the solved J is then computed exactly as the jump will move, and J
    steps back by one while rounding leaves it on the wrong side of a
    bound. A jump therefore makes none of the step loop's decisions: every
    pivot, the end step, the divergence test and the budget test run as
    single steps, and a jump of J steps spends J steps of the budget. At
    the default robot each leg between pivots costs one jump and one
    step; a leg whose heading changes sign costs two of each.

    A leg reads the length, through x_stop, only in the x cap and the end
    step, and only if its J before the x cap reaches within two steps of
    x_stop. The legs before the first such one run alike for any longer
    length, whose x_stop and budget are larger, unless the budget binds;
    then too few steps remain to cover the two and the run fails. So a
    finished run hands back a valid start for any longer length.

    A leg that starts at a pivot heading, exactly +-theta, reads from the
    record's table the solve's constants and, for its J, every float the
    jump and its deciding step compute. The table computed them the first
    time it met that J, with the same expressions on the same operands in
    the same order, so the leg is bit for bit the one computed afresh; it
    solves only its position bounds, which depend on where it starts.

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
    (h, theta, kappa, fl, fr, rp_l, rp_r, lp_l, lp_r, step, b, sin_half_b,
     step_fl, step_fr, y_stop, table) = robot
    x, y, phi, wl, wr, n_right, n_left, steps = (
        resume or (0.0, 0.0, alpha0, 0.0, 0.0, 0, 0, 0))
    x_stop = length - 1e-9
    x_near = x_stop - 2.0 * step if resume else x_stop
    while x < length:
        # Solve the jump in a frame mirrored so that the heading is
        # non-negative: y rises, and only the trigger at +h can fire.
        sign = 1.0 if phi > 0.0 or (phi == 0.0 and b >= 0.0) else -1.0
        p = sign * phi
        room = y_stop - sign * y
        jump = max_steps - steps
        known = table[sign] if phi == sign * theta else None
        if room <= 0.0 or p >= _MAX_JUMP_HEADING:
            jump = 0
        elif b == 0.0:
            if p > 0.0:
                cap = room / (step * sin(p))
                if cap < jump:
                    jump = cap
        else:
            solve = known[0] if known else None
            if solve is None:
                bm = sign * b
                a = p - 0.5 * bm
                solve = (bm, sin(a), cos(a), 2.0 * sign * sin_half_b / step,
                         (_MAX_JUMP_HEADING - p) / bm if bm > 0.0
                         else p / -bm)
                if known:
                    known[0] = solve
            bm, sa, ca, inv_g, cap = solve
            if cap < jump:
                jump = cap
            # g*(cos(a) - cos(a + t)) = room, with a = p - bm/2, t = J*bm
            # and tau = tan(t/2), is the quadratic
            # (2cos(a) - q)*tau^2 + 2sin(a)*tau - q = 0, q = room/g.
            q = room * inv_g
            disc = sa * sa + q * (2.0 * ca - q)
            if disc >= 0.0:
                r = sqrt(disc)
                if sa > 0.0:
                    cap = 2.0 * atan2(q, sa + r) / bm
                else:  # the same root, without cancelling sa against r
                    cap = 2.0 * atan2(r - sa, 2.0 * ca - q) / bm
                if cap < jump:
                    jump = cap
        if jump * step >= x_near - x:  # a leg that reads the length
            if x_near != x_stop:
                resume[:] = x, y, phi, wl, wr, n_right, n_left, steps
                x_near = x_stop
            if jump > 0 and jump * step >= x_stop - x:
                if b == 0.0:
                    cap = (x_stop - x) / (step * cos(p))
                else:  # g*(sin(a + t) - sin(a)) = x_stop - x, as for y
                    q = (x_stop - x) * inv_g
                    disc = ca * ca - q * (q + 2.0 * sa)
                    cap = (2.0 * atan2(q, ca + sqrt(disc)) / bm
                           if disc >= 0.0 else jump)
                if cap < jump:
                    jump = cap
        jump = int(jump) if jump > 0 else 0
        while True:
            leg = known[1].get(jump) if known else None
            if leg is None:
                end = phi + jump * b
                if b == 0.0 or not jump:  # J = 0 is the step alone
                    chord = jump * step
                    mid = phi
                else:
                    chord = step * sin(0.5 * jump * b) / sin_half_b
                    mid = phi + 0.5 * (jump - 1) * b
                c = cos(end)
                s = sin(end)
                span = jump * step
                leg = (end, chord * cos(mid), chord * sin(mid),
                       0.0 <= sign * end < _MAX_JUMP_HEADING, span * fl,
                       span * fr, c, step * c, s, step * s, end + kappa * step)
                if known:
                    known[1][jump] = leg
            end, dx, dy, fits, dwl, dwr, c, step_c, s, step_s, turned = leg
            x_end = x + dx
            y_end = y + dy
            if not jump or (x_end < x_stop and sign * y_end < y_stop
                            and fits):
                break
            jump -= 1
        if jump:
            x = x_end
            y = y_end
            wl += dwl
            wr += dwr
            phi = end
            steps += jump
        if steps >= max_steps:
            return wl, wr, n_right, n_left, y, False
        steps += 1
        if c <= 1e-12:
            return wl, wr, n_right, n_left, y, False
        remaining = length - x
        if step_c >= remaining:
            d = remaining / c
            x = length
            y += d * s
            wl += d * fl
            wr += d * fr
            break
        x += step_c
        y += step_s
        wl += step_fl
        wr += step_fr
        phi = turned
        if y >= h and phi > 0.0:
            phi = -theta
            wl += rp_l
            wr += rp_r
            n_right += 1
            if pivots is not None:
                pivots.append((x, y))
        elif y <= -h and phi < 0.0:
            phi = theta
            wl += lp_l
            wr += lp_r
            n_left += 1
            if pivots is not None:
                pivots.append((x, y))
    return wl, wr, n_right, n_left, y, True


# Everything the kernel reads of one robot, in the order in which
# _integrate and the step-loop oracle unpack it. h, theta, step: as in
# MotionParams; kappa, fl, fr: its curvature and wheel factors; rp_*, lp_*:
# the wheel charges of a right and a left pivot, whose inner wheel pays the
# extra rotation cost; b, sin_half_b: one step's heading turn and the sine
# of half of it; step_fl, step_fr: each wheel's roll per step; y_stop: the
# margin a jump keeps inside the trigger; table: per side, [jump solve
# constants, {J: leg}], filled in by _integrate as it meets them.
_Robot = collections.namedtuple("_Robot", (
    "h theta kappa fl fr rp_l rp_r lp_l lp_r step b sin_half_b step_fl "
    "step_fr y_stop table"))


@functools.lru_cache(maxsize=1)
def _robot(params: MotionParams) -> _Robot:
    """The kernel's record of ``params``. Only the last robot's is kept."""
    kappa = params.kappa
    fl, fr = params.wheel_factors()
    step = params.step
    b = kappa * step
    k = params.inner_rot_const
    return _Robot(
        h=params.h, theta=params.theta, kappa=kappa, fl=fl, fr=fr,
        rp_l=params.pivot_left, rp_r=params.pivot_right + k,
        lp_l=params.pivot_left + k, lp_r=params.pivot_right, step=step,
        b=b, sin_half_b=sin(0.5 * b), step_fl=step * fl, step_fr=step * fr,
        y_stop=params.h - 1e-9, table={1.0: [None, {}], -1.0: [None, {}]})
