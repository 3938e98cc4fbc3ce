"""The producers of every pin in ``pins.json``, and the runs they digest.

``tests/pins.py`` calls them to record or diff the manifest, and the test
modules call them to check it. The module imports neither pytest nor
Hypothesis nor scipy, so the pin tool runs where only the standard library
and the package are installed. Each producer makes one digest, or a dict
of them by key:

- ``explorer_digests``: mapping explorations of seeded random mazes.
  Noisy modes (raw, basic, arc) pin the visit log, the trace rows rebuilt
  from it by ``oracles.trace_rows``, and the coordinates: measured lengths
  never tie exactly, so every route is forced. Each noisy run has a second
  digest, under ``decisions/<mode>/<seed>``, of what the robot decided
  without the floats it measured: the visit log, ``node_of``, ``type_of``,
  the order in which edges are first walked, and the pivot counts of each
  first walk's encoder log. A change to an estimator that is meant to move
  the floats moves the first digest only; a moved decision shows up as a
  moved ``decisions/`` key. Ideal mode pins the map: names, types,
  coordinates, the graph in ``oracles.export_graph``'s text form and the
  order in which edges are first walked. Its visit log is left out,
  because integer spacings make equal-length routes common, and which of
  two tied routes the robot drives is a routing rule, not part of the map.
- ``solve_digests``: ``solve`` and ``plot`` runs. Each ``solve`` run is
  made in both report formats and reduced to a digest of its exit code and
  stdout; each ``plot`` run to a digest of its exit code and the SVG it
  writes. TSV runs are keyed by case, text runs by ``text/`` and the case,
  plot runs by ``plot/`` and the case.
- ``kernel_digest``, ``jitter_digest`` and ``estimator_digests``: the
  motion kernel's logs and polylines, the start headings, and the
  estimators' outcomes, bit for bit.
"""

import contextlib
import hashlib
import io
import math
import pathlib
import random
import tempfile
from itertools import chain

from linemaze import motion_sim
from linemaze.cli import run
from linemaze.errors import (ExplorationError, InconsistencyError,
                             MotionDivergenceError)
from linemaze.graph_path import build_graph
from linemaze.mapping_explorer import explore_map
from linemaze.maze_model import serialize_maze
from linemaze.mazegen import random_maze, random_tree
from linemaze.motion_sim import (EncoderLog, MotionParams, segment_trajectory,
                                 simulate_segment)
from linemaze.odometry import (ODOMETRY_MODES, CalibConstants,
                               calibration_from_motion, estimate_length,
                               predict_without_encoder, residual_arc)
from oracles import export_graph, fresh_heading, trace_rows, use_headings


def _digest(obj):
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


class _Patches:
    """What ``use_headings`` asks of pytest's MonkeyPatch: ``setattr``,
    each one undone when the ``with`` block ends."""

    def __enter__(self):
        self._saved = []
        return self

    def setattr(self, owner, name, value):
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def __exit__(self, *exc):
        while self._saved:
            setattr(*self._saved.pop())


# ------------------------------------------------------------ explorer

# 100 mazes of 20-164 grid cells; every fourth one dense with loops.
# Noisy modes run on every eighth maze to keep the pure-Python kernel cheap.
SEEDS = range(9000, 9100)
NOISY_EVERY = 8

# Larger loopy mazes, where point matching and the crossing check see many
# points and edges: seed -> (max_nodes, modes). Ideal runs on 791, 818,
# 1,420 and 1,419 nodes; arc runs on 198 and 196 nodes.
LARGE = {
    9112: (1600, ("ideal",)),
    9128: (1600, ("ideal",)),
    9100: (3200, ("ideal",)),
    9121: (3200, ("ideal",)),
    9115: (400, ("arc",)),
    9131: (400, ("arc",)),
}


def fixture_maze(seed):
    """The explorer fixture's maze of one seed in ``SEEDS``."""
    i = seed - SEEDS[0]
    max_nodes = 20 + (i % 25) * 6
    loops = max_nodes // 2 if i % 4 == 3 else max_nodes // 10
    return random_maze(random.Random(seed), max_nodes=max_nodes, loops=loops,
                       leaf_ends=False)


def _first_walks(state):
    order = {}
    for pair in zip(state.point, state.point[1:]):
        order.setdefault(frozenset(pair), None)
    return [tuple(sorted(pair)) for pair in order]


def pivots(state):
    """Each first walk's (n_right, n_left), in first-walk order."""
    return [(log.n_right, log.n_left) for log in state.logs.values()]


def _coords(state):
    return sorted((n, c.x, c.y) for n, c in state.coordinate.items())


def _run(key, maze, mode):
    """The run's digests, by key: one for an ideal run, two for a noisy one."""
    try:
        state = explore_map(maze, src=mode)
    except ExplorationError as exc:
        error = {key: _digest("error: %s" % exc)}
        if mode != "ideal":
            error["decisions/" + key] = _digest(type(exc).__name__)
        return error
    if mode == "ideal":
        graph = (state.coordinate, build_graph(state))
        return {key: _digest((sorted(state.type_of.items()), _coords(state),
                              export_graph(graph), _first_walks(state)))}
    return {key: _digest((state.point, trace_rows(state), _coords(state))),
            "decisions/" + key: _digest((
                state.point, sorted(state.node_of.items()),
                sorted(state.type_of.items()), _first_walks(state),
                pivots(state)))}


def explorer_runs():
    """Every explorer fixture run as (key, maze, mode)."""
    for seed in SEEDS:
        maze = fixture_maze(seed)
        modes = ("ideal", "raw", "basic", "arc") \
            if (seed - SEEDS[0]) % NOISY_EVERY == 0 else ("ideal",)
        for mode in modes:
            yield "%s/%d" % (mode, seed), maze, mode
    for seed, (max_nodes, modes) in LARGE.items():
        maze = random_maze(random.Random(seed), max_nodes=max_nodes,
                           loops=max_nodes // 10, leaf_ends=False)
        for mode in modes:
            yield "%s/%d" % (mode, seed), maze, mode


def explorer_digests():
    digests = {}
    for key, maze, mode in explorer_runs():
        digests.update(_run(key, maze, mode))
    return digests


# --------------------------------------------------------------- solve

# The runs cover:
# - the bundled mazes with the mapping explorer, in every odometry mode at
#   three seeds, and fig2 and plus at explicit tolerances;
# - the tape explorer on the bundled mazes and on seeded random trees;
# - seeded loopy random mazes with the mapping explorer, every third one in
#   every odometry mode and the rest in ideal;
# - plots of the bundled mazes in every odometry mode at three seeds, and
#   of every third loopy maze in every mode.
BUNDLED = ("fig1", "fig2", "corridor", "plus")
# 30 loopy mazes of 15-102 grid cells; noisy modes on every third one.
LOOPY_SEEDS = range(7000, 7030)
TREE_SEEDS = range(7100, 7110)


def _solve(fmt, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(["solve", "--format", fmt] + argv)
    return hashlib.sha256(("%d\n%s" % (code, out.getvalue())).encode()
                          ).hexdigest()[:16]


def _plot(tmp, argv):
    svg = pathlib.Path(tmp) / "plot.svg"
    svg.unlink(missing_ok=True)
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = run(["plot", "--out", str(svg)] + argv)
    body = svg.read_bytes() if svg.exists() else b""
    return hashlib.sha256(b"%d\n" % code + body).hexdigest()[:16]


def _cases(tmp):
    def write(stem, maze):
        path = pathlib.Path(tmp) / ("%s.maze" % stem)
        path.write_text(serialize_maze(maze))
        return str(path)

    for name in BUNDLED:
        for mode in ODOMETRY_MODES:
            for seed in ("0", "1", "2"):
                yield ("map/%s/%s/%s" % (name, mode, seed),
                       ["--maze", name, "--odometry", mode, "--seed", seed])
        for mode in ("ideal", "arc"):
            yield ("simple/%s/%s" % (name, mode),
                   ["--maze", name, "--algo", "simple", "--odometry", mode,
                    "--show-tape"])
    for name in ("fig2", "plus"):
        for tol in ("0.5", "2", "3"):
            for mode in ("ideal", "arc"):
                yield ("tol/%s/%s/%s" % (name, mode, tol),
                       ["--maze", name, "--odometry", mode, "--tol", tol])
    for seed in TREE_SEEDS:
        path = write("tree%d" % seed,
                     random_tree(random.Random(seed), max_nodes=30))
        for mode in ("ideal", "basic"):
            yield ("simple/tree%d/%s" % (seed, mode),
                   ["--maze", path, "--algo", "simple", "--odometry", mode,
                    "--seed", str(seed)])
    for seed in LOOPY_SEEDS:
        i = seed - LOOPY_SEEDS[0]
        max_nodes = 15 + i * 3
        path = write("loopy%d" % seed,
                     random_maze(random.Random(seed), max_nodes=max_nodes,
                                 loops=max(1, max_nodes // 8),
                                 leaf_ends=i % 2 == 0))
        for mode in (ODOMETRY_MODES if i % 3 == 0 else ("ideal",)):
            yield ("map/loopy%d/%s" % (seed, mode),
                   ["--maze", path, "--odometry", mode, "--seed", str(i)])
        if i % 3 == 0:
            for mode in ODOMETRY_MODES:
                yield ("plot/loopy%d/%s" % (seed, mode),
                       ["--maze", path, "--odometry", mode, "--seed", str(i)])
    for name in BUNDLED:
        for mode in ODOMETRY_MODES:
            for seed in ("0", "1", "2"):
                yield ("plot/%s/%s/%s" % (name, mode, seed),
                       ["--maze", name, "--odometry", mode, "--seed", seed])


def solve_digests():
    got = {}
    with tempfile.TemporaryDirectory() as tmp:
        for key, argv in _cases(tmp):
            if key.startswith("plot/"):
                got[key] = _plot(tmp, argv)
            else:
                got[key] = _solve("tsv", argv)
                got["text/" + key] = _solve("text", argv)
    return got


# -------------------------------------------------------------- kernel

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
    with _Patches() as mp:
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


# -------------------------------------------------------------- jitter

JITTER_ALPHAS = (MotionParams().alpha, math.radians(6.0), 0.0)
JITTER_KEYS = [0, 1, 2, 3, 7, 10, 1000, 2 ** 31 - 1, 2 ** 32, 2 ** 63,
               2 ** 64 - 1]
# Pins how a jitter key (seed, index) becomes a start heading, bit for bit.


def jitter_digest():
    lines = [repr(motion_sim._initial_heading(alpha, seed, index))
             for alpha in JITTER_ALPHAS
             for seed in JITTER_KEYS for index in JITTER_KEYS]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


# ----------------------------------------------------------- estimators

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
    log = EncoderLog(wl, wr, rng.randint(0, 12), rng.randint(0, 12), 1.0)
    return log, cal


def estimator_digests():
    cases = []
    # Fixed start headings, so that only the estimators move the digests.
    with _Patches() as mp:
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
