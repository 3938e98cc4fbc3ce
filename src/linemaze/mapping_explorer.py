"""Mapping explorer: discover a whole line maze and its coordinates.

The robot starts at an arbitrary node it calls point "0" at coordinate
(0, 0), heading north. Its map is the walked graph: each point's type (number
of branches minus one), its coordinate, and its walked neighbors with the
coordinate distance to each. That graph is the result;
``graph_path.build_graph`` checks it and returns it. The visit log (every
point name in arrival order) records how it was walked. Distances come from
an odometry mode (ground truth, raw encoders, or one of two encoder
corrections), so a coordinate is the previous point's coordinate advanced
along the heading axis by the measured distance. Noisy modes keep the
encoder log that weighed each edge, for reports.

A branch is named by its slot, (direction, lane), and the slots of a point
are those that ``MazeSpec.branches`` lists for its maze node, with the
node each one reaches, its true length and its slot at the far end. The
simulator drives a branch by one lookup in that table. While it runs, the
explorer also keeps its own branch table: for each point, every walked
neighbor and the slot that reaches it. It tells the robot whether an edge
is walked for the first time (and so must be weighed and added to the map),
and which branch to take for each hop of a route. Each point's pending
slots, in slot order, are a list that each first walk shortens.

The simulator also records which maze node each name stands for
(``ExplorationState.node_of``). That record is ground truth the robot never
steers by: the explorer uses it only to detect odometry drift, and reports
use it to label a discovered path with maze ids and to find the end point.

On every arrival the measured coordinate is matched against the known points
within a tolerance: a hit means a revisit (the stored coordinate is reused,
never averaged), a miss mints a new name. Known points are bucketed in a
uniform grid whose cells are at least twice the tolerance wide, so a match
only looks at the cells its tolerance box overlaps. A point is fully
explored once every one of its branches has been walked; whenever the
current point is finished, the robot drives the walked route that
``graph_path.nearest``, which also answers queries on the finished map,
finds to the nearest unfinished point, logging every arrival on the way.
Exploration ends when no unfinished point remains.

Two exits of a node may leave in the same compass direction (side-by-side
lanes); the robot tells them apart by their order across the line (nearest
reachable point first) and walks them as distinct branches.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

from ._directions import DELTA
from .errors import ArgumentError, ExplorationError, InconsistencyError
from .graph_path import nearest
from .maze_model import MazeSpec, Point2D, Slot
from .motion_sim import (EncoderLog, MotionParams, _check_params, _driver,
                         _jitter_key)
from .odometry import ODOMETRY_MODES, calibration_from_motion, estimate_length

__all__ = [
    "ExplorationState",
    "explore_map",
    "match_point",
    "next_target",
]

class ExplorationState:
    """The mapping robot's knowledge, updated arrival by arrival.

    point: names in visit order; point[0] is the start, named "0", at (0,0).
    type_of: per-name branch count minus one.
    coordinate: per-name position in the robot frame (start at origin).
    neighbors: per-name walked neighbors as (name, coordinate distance), in
        the order their edges were first walked.
    node_of: per-name maze node id, the simulator's ground truth. The robot
        never steers by it; the explorer checks arrivals against it to
        detect drift, and reports use it as labels.
    logs: per walked edge, keyed by its two names in sorted order, the log
        of the walk that weighed it, in first-walk order; ideal: none.
    """

    def __init__(self) -> None:
        self.point: List[str] = []
        self.type_of: Dict[str, int] = {}
        self.coordinate: Dict[str, Point2D] = {}
        self.neighbors: Dict[str, List[Tuple[str, float]]] = {}
        self.node_of: Dict[str, str] = {}
        self.logs: Dict[Tuple[str, str], EncoderLog] = {}
        # Grid index over ``coordinate`` for match_point: cell key -> (x, y,
        # name) per point. The cell width is a power of two, so x / cell is
        # exact, and at least 1 cm, so it is finite for every finite x.
        self._grid: Dict[Tuple[int, int], List[Tuple[float, float, str]]] = {}
        self._cell = 1.0
        self._indexed = 0


def _index_point(state: ExplorationState, name: str) -> None:
    """Add a point whose coordinate was just stored to the grid index."""
    x, y = state.coordinate[name]
    cell = state._cell
    key = math.floor(x / cell), math.floor(y / cell)
    state._grid.setdefault(key, []).append((x, y, name))
    state._indexed += 1


def _reindex(state: ExplorationState, tol: float) -> None:
    """Rebuild the grid index over every known point, cells >= 2*tol wide.

    The cell only ever doubles, so a tolerance that keeps growing costs
    O(log) rebuilds.
    """
    while not state._cell >= 2.0 * tol:
        state._cell *= 2.0
    state._grid = {}
    state._indexed = 0
    for name in state.coordinate:
        _index_point(state, name)


def match_point(coord: Tuple[float, float], state: ExplorationState,
                tol: float) -> Optional[str]:
    """Name of the unique known point within Chebyshev ``tol`` of ``coord``.

    None when nothing matches; an error when two known points both match,
    since then the tolerance is too coarse for the maze's geometry.

    Only the grid cells that the tolerance box around ``coord`` overlaps
    are probed, the box widened by a hair for rounding. Cells are at least
    2*tol wide, so that is one to four cells. The grid is rebuilt when
    ``tol`` outgrows its cells, or when points were added to
    ``state.coordinate`` without it (stored coordinates never move).
    Coordinates must be finite.
    """
    if not tol > 0.0:
        raise ArgumentError("tol must be positive, got %r" % (tol,))
    if state._indexed != len(state.coordinate) or not state._cell >= 2.0 * tol:
        _reindex(state, tol)
    cell = state._cell
    x, y = coord
    # Per axis: coord's cell key, and its offset into that cell as a share
    # of the cell. The box reaches the previous cell when the offset is
    # within tol of 0, and the next when within tol of 1. The 1e-9 hair
    # covers rounding in the offsets and in the test below.
    near = tol / cell + 1e-9
    far = 1.0 - near
    kx, ky = math.floor(x / cell), math.floor(y / cell)
    fx, fy = x / cell - kx, y / cell - ky
    gys = range(ky - (fy <= near), ky + (fy >= far) + 1)
    grid = state._grid
    hits = []
    for gx in range(kx - (fx <= near), kx + (fx >= far) + 1):
        for gy in gys:
            for cx, cy, name in grid.get((gx, gy), ()):
                if abs(x - cx) <= tol and abs(y - cy) <= tol:
                    hits.append(name)
    if not hits:
        return None
    if len(hits) > 1:
        raise ExplorationError(
            "measured coordinate (%g, %g) matches points %s within tolerance "
            "%g; tolerance too large for this maze's point spacing"
            % (x, y, ", ".join(sorted(hits)), tol))
    return hits[0]


def next_target(state: ExplorationState) -> Optional[List[str]]:
    """Walked route from the current point to the nearest unfinished point.

    A point is unfinished while it has fewer walked neighbors than branches.
    One ``graph_path.nearest`` search runs from the robot's current point
    (the last visit-log entry) over the walked edges; ties pick the
    smallest name, and the route is the lexicographically smallest shortest
    one, from the current point to the target. None means exploration is
    done.
    """
    neighbors, type_of = state.neighbors, state.type_of
    found = nearest(neighbors, state.point[-1],
                    lambda name: len(neighbors[name]) < type_of[name] + 1)
    return None if found is None else list(found[1])


def explore_map(maze: MazeSpec, params: Optional[MotionParams] = None,
                src: str = "ideal", tol: Optional[float] = None,
                seed: int = 0) -> ExplorationState:
    """Explore ``maze`` fully and return the resulting state.

    params defaults to the stock robot; the corrected odometry modes use
    the calibration derived from it. src is the odometry mode, one of
    ``ODOMETRY_MODES``; tol is the coordinate-match tolerance in cm
    (default: 3% of the traversal's own measured length, at least 1 cm).
    Noisy modes drive traversal k, the walk that arrives at ``point[k]``,
    with jitter key (seed, k), and keep each edge's first log in
    ``logs``; ideal odometry walks the true lengths and draws nothing.
    ``node_of`` in the returned state names the maze node behind every
    discovered point.

    Raises ArgumentError, in every mode, for a seed outside [0, 2**64),
    ``params`` that are not a ``MotionParams`` or a tol that is not
    positive and finite (noisy modes also for the first edge too long to
    drive, before any walk), and ExplorationError when the odometry is too
    noisy for the maze (a revisited point lands outside tolerance, a
    measured coordinate becomes ambiguous, or the traversal budget of 4
    per edge runs out).
    """
    seed = _jitter_key(seed, 0)[0]
    params = MotionParams() if params is None else _check_params(params)
    if src not in ODOMETRY_MODES:
        raise ArgumentError("odometry mode must be one of %r, got %r"
                            % (ODOMETRY_MODES, src))
    cal = calibration_from_motion(params) if src in ("basic", "arc") else None
    if tol is not None and not 0.0 < tol < math.inf:
        raise ArgumentError("tol must be positive and finite, got %r" % (tol,))

    budget = 4 * len(maze.edges)

    state = ExplorationState()
    name_of_truth: Dict[str, str] = {}
    # Per point: the branch table (walked neighbor -> the slot reaching it)
    # and the unwalked slots in slot order. With no duplicate edges and a
    # one-to-one node_of, a list empties as next_target's test turns false.
    table: Dict[str, Dict[str, Slot]] = {}
    pending: Dict[str, List[Slot]] = {}
    eff_tol = tol
    noisy = src != "ideal"
    traversals = 0
    unfinished = 0  # points with a pending slot
    branches = maze.branches
    if noisy:  # one driver; every edge is walked, so each is checked first
        at = {node.id: node.position for node in maze.nodes}
        drive = _driver(params, seed,
                        [math.dist(at[a], at[b]) for a, b in maze.edges])
    point, coordinate, neighbors = state.point, state.coordinate, state.neighbors
    node_of, logs = state.node_of, state.logs

    def add_point(name: str, node: str, coord: Point2D) -> None:
        """Enter a new point, maze node ``node`` at ``coord``, everywhere."""
        nonlocal unfinished
        unfinished += 1
        state.type_of[name] = len(branches[node]) - 1
        coordinate[name] = coord
        _index_point(state, name)
        neighbors[name] = []
        node_of[name] = node
        name_of_truth[node] = name
        table[name] = {}
        pending[name] = list(branches[node])

    def walk(slot: Slot) -> None:
        """Traverse one branch of the current point and log the arrival."""
        nonlocal eff_tol, traversals, unfinished
        traversals += 1
        if traversals > budget:
            raise ExplorationError(
                "exploration exceeded its budget of %d traversals; odometry "
                "errors are likely re-opening finished points" % budget)
        cur = point[-1]
        try:
            other, length, back = branches[node_of[cur]][slot]
        except KeyError:
            raise InconsistencyError(
                "no branch %r at point %r" % (slot, cur)) from None
        if noisy:
            log = drive(length, traversals)
            measured = estimate_length(log, cal, src)
        else:
            measured = length
        if tol is None:
            eff_tol = 0.03 * measured if measured > 100 / 3 else 1.0
        dx, dy = DELTA[slot[0]]
        px, py = coordinate[cur]
        guess = (px + dx * measured, py + dy * measured)

        name = match_point(guess, state, eff_tol)
        if name is None:
            if other in name_of_truth:
                raise ExplorationError(
                    "odometry drift: arrived back at point %r but the "
                    "measured coordinate (%g, %g) missed its stored "
                    "coordinate by more than the tolerance %g"
                    % (name_of_truth[other], *guess, eff_tol))
            name = str(len(state.type_of))
            add_point(name, other, tuple.__new__(Point2D, guess))
        elif node_of[name] != other:
            c = coordinate[name]
            raise ExplorationError(
                "odometry drift: arrival at a new point was confused with "
                "known point %r at (%g, %g); tolerance %g too large for the "
                "accumulated error" % (name, c.x, c.y, eff_tol))

        if name not in table[cur]:
            # Stored coordinates never move, so an edge is weighed once.
            x, y = coordinate[name]
            w = math.hypot(x - px, y - py)
            neighbors[cur].append((name, w))
            neighbors[name].append((cur, w))
            table[cur][name] = slot
            table[name][cur] = back
            if noisy:
                logs[(cur, name) if cur < name else (name, cur)] = log
            for end, walked in ((cur, slot), (name, back)):
                pending[end].remove(walked)
                if not pending[end]:
                    unfinished -= 1
        point.append(name)

    # maze.node raises the package's error for an unknown start id.
    add_point("0", maze.node(maze.start).id, Point2D(0.0, 0.0))
    point.append("0")
    while True:
        # Branch preference: east, north, west, south; among lanes of one
        # direction, the nearest-reaching branch first. That is slot order.
        todo = pending[point[-1]]
        if todo:
            walk(todo[0])
            continue
        # Every point was reached over walked edges, so the route search
        # finds one whenever a point is unfinished.
        if not unfinished:
            break
        for nxt in next_target(state)[1:]:
            walk(table[point[-1]][nxt])
    return state

