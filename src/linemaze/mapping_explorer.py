"""Mapping explorer: discover a whole line maze and its coordinates.

The robot starts at an arbitrary node it calls point "0" at coordinate
(0, 0), heading north, and maintains four parallel records: the visit log
(every point name in arrival order), each point's type (number of branches
minus one), the walked graph (each point's walked neighbors with the
coordinate distance to each), and a coordinate per point. Distances come
from an odometry mode (ground truth, raw encoders, or one of two encoder
corrections), so a coordinate is the previous point's coordinate advanced
along the heading axis by the measured distance.

The simulator also records which maze node each name stands for
(``ExplorationState.node_of``). That record is ground truth the robot never
steers by: the explorer uses it only to detect odometry drift, and reports
use it to label a discovered path with maze ids and to find the end point.

On every arrival the measured coordinate is matched against the known points
within a tolerance: a hit means a revisit (the stored coordinate is reused,
never averaged), a miss mints a new name. A point is fully explored once
every one of its branches has been walked; whenever the current point is
finished, the robot searches the walked graph with ``graph_path``'s
shortest-path routine, the same one (and the same lexicographic tie-break)
that answers queries on the finished map, and drives the route to the
nearest unfinished point, logging every intermediate arrival on the way.
Exploration ends when no unfinished point remains.

Two exits of a node may leave in the same compass direction (side-by-side
lanes); the robot tells them apart by their order across the line (nearest
reachable point first) and walks them as distinct branches.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ._directions import DELTA, NORTH
from .errors import ExplorationError, InconsistencyError
from .graph_path import shortest_paths
from .maze_model import MazeSpec, Point2D
from .motion_sim import MotionParams, simulate_segment
from .odometry import (ODOMETRY_MODES, CalibConstants, calibration_from_motion,
                       estimate_length)

__all__ = [
    "ExplorationState",
    "explore_map",
    "match_point",
    "next_target",
    "trace_lines",
]

# A slot identifies one branch of a point: (direction code, lane index).
# Lane indices count same-direction exits in their across-the-line order.
Slot = Tuple[int, int]


@dataclass
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
    direction: current heading code (starts north).
    trace: one row per arrival — (name, type, explored-at-arrival, x, y),
        where explored counts the distinct neighbors walked (floored at 1).
    """

    point: List[str] = field(default_factory=list)
    type_of: Dict[str, int] = field(default_factory=dict)
    coordinate: Dict[str, Point2D] = field(default_factory=dict)
    neighbors: Dict[str, List[Tuple[str, float]]] = field(default_factory=dict)
    node_of: Dict[str, str] = field(default_factory=dict)
    direction: int = NORTH
    trace: List[Tuple[str, int, int, float, float]] = field(default_factory=list)


def match_point(coord: Point2D, state: ExplorationState,
                tol: float) -> Optional[str]:
    """Name of the unique known point within Chebyshev ``tol`` of ``coord``.

    None when nothing matches; an error when two known points both match,
    since then the tolerance is too coarse for the maze's geometry.
    """
    if not tol > 0.0:
        raise ValueError("tol must be positive, got %r" % (tol,))
    hits = [name for name, c in state.coordinate.items()
            if max(abs(coord.x - c.x), abs(coord.y - c.y)) <= tol]
    if not hits:
        return None
    if len(hits) > 1:
        raise ExplorationError(
            "measured coordinate (%g, %g) matches points %s within tolerance "
            "%g; tolerance too large for this maze's point spacing"
            % (coord.x, coord.y, ", ".join(sorted(hits)), tol))
    return hits[0]


def next_target(state: ExplorationState) -> Optional[List[str]]:
    """Walked route from the current point to the nearest unfinished point.

    A point is unfinished while it has fewer walked neighbors than branches.
    Distances run from the robot's current point (the last visit-log entry)
    over the walked edges; ties pick the lexicographically smallest name,
    and the route is the lexicographically smallest shortest one. The route
    starts at the current point and ends at the target. None means
    exploration is done.
    """
    found: Optional[Tuple[float, Tuple[str, ...]]] = None
    for length, path in shortest_paths(state.neighbors, state.point[-1]):
        if found is not None and length > found[0]:
            break
        name = path[-1]
        if len(state.neighbors[name]) < state.type_of[name] + 1:
            if found is None or name < found[1][-1]:
                found = (length, path)
    return None if found is None else list(found[1])


def _slots_at(maze: MazeSpec, node: str):
    """Canonical branch list of a true node: (slot, edge, other, length)."""
    out = []
    lanes: Dict[int, int] = {}
    for direction, edge, other, length in maze.exits(node):
        lane = lanes.get(direction, 0)
        lanes[direction] = lane + 1
        out.append(((direction, lane), edge, other, length))
    return out


def _arrival_slot(maze: MazeSpec, node: str, edge) -> Slot:
    for slot, e, _other, _length in _slots_at(maze, node):
        if e is edge or e == edge:
            return slot
    raise InconsistencyError("edge %r-%r does not reach node %r"
                             % (edge.a, edge.b, node))


def explore_map(maze: MazeSpec, params: Optional[MotionParams] = None,
                cal: Optional[CalibConstants] = None,
                src: str = "ideal",
                tol: Optional[float] = None) -> ExplorationState:
    """Explore ``maze`` fully and return the resulting state.

    params/cal default to the stock robot and its derived calibration; src
    is the odometry mode, one of ``ODOMETRY_MODES``; tol is the
    coordinate-match tolerance in cm (default: 3% of the longest segment
    measured so far, floored at 1 cm). ``node_of`` in the returned state
    names the maze node behind every discovered point.

    Raises ExplorationError when the odometry is too noisy for the maze
    (a revisited point lands outside tolerance, a measured coordinate
    becomes ambiguous, or the traversal budget of 4 per edge runs out).
    """
    if params is None:
        params = MotionParams()
    if src not in ODOMETRY_MODES:
        raise ValueError("odometry mode must be one of %r, got %r"
                         % (ODOMETRY_MODES, src))
    if cal is None and src in ("basic", "arc"):
        cal = calibration_from_motion(params)
    if tol is not None and not tol > 0.0:
        raise ValueError("tol must be positive, got %r" % (tol,))

    budget = 4 * len(maze.edges)
    rng = random.Random(params.seed)

    state = ExplorationState()
    start_name = "0"
    state.point.append(start_name)
    state.type_of[start_name] = maze.degree(maze.start) - 1
    state.coordinate[start_name] = Point2D(0.0, 0.0)
    state.neighbors[start_name] = []
    state.node_of[start_name] = maze.start
    state.trace.append((start_name, state.type_of[start_name], 1, 0.0, 0.0))

    true_node = maze.start
    name_of_truth: Dict[str, str] = {maze.start: start_name}
    walked: Dict[str, Set[Slot]] = {start_name: set()}
    route: Dict[Tuple[str, str], Slot] = {}
    longest = 0.0
    traversals = 0

    def measure(true_length: float) -> float:
        seed_i = rng.randrange(2 ** 31)
        if src == "ideal":
            return true_length
        log = simulate_segment(true_length, params, seed=seed_i)
        return estimate_length(log, cal, src)

    def walk(slot: Slot) -> None:
        """Traverse one branch of the current point and log the arrival."""
        nonlocal true_node, longest, traversals
        traversals += 1
        if traversals > budget:
            raise ExplorationError(
                "exploration exceeded its budget of %d traversals; odometry "
                "errors are likely re-opening finished points" % budget)
        cur = state.point[-1]
        for cand, edge, other, length in _slots_at(maze, true_node):
            if cand == slot:
                break
        else:
            raise InconsistencyError(
                "no branch %r at point %r" % (slot, cur))
        direction = slot[0]
        measured = measure(length)
        longest = max(longest, measured)
        eff_tol = tol if tol is not None else max(1.0, 0.03 * longest)
        dx, dy = DELTA[direction]
        prev = state.coordinate[cur]
        guess = Point2D(prev.x + dx * measured, prev.y + dy * measured)

        name = match_point(guess, state, eff_tol)
        if name is None:
            if other in name_of_truth:
                raise ExplorationError(
                    "odometry drift: arrived back at point %r but the "
                    "measured coordinate (%g, %g) missed its stored "
                    "coordinate by more than the tolerance %g"
                    % (name_of_truth[other], guess.x, guess.y, eff_tol))
            name = str(len(state.type_of))
            state.type_of[name] = maze.degree(other) - 1
            state.coordinate[name] = guess
            state.neighbors[name] = []
            state.node_of[name] = other
            name_of_truth[other] = name
            walked[name] = set()
        elif state.node_of[name] != other:
            raise ExplorationError(
                "odometry drift: arrival at a new point was confused with "
                "known point %r at (%g, %g); tolerance %g too large for the "
                "accumulated error"
                % (name, state.coordinate[name].x, state.coordinate[name].y,
                   eff_tol))

        back = _arrival_slot(maze, other, edge)
        walked[cur].add(slot)
        walked[name].add(back)
        c = state.coordinate[name]
        if (cur, name) not in route:
            # Stored coordinates never move, so an edge is weighed once.
            w = math.hypot(c.x - prev.x, c.y - prev.y)
            state.neighbors[cur].append((name, w))
            state.neighbors[name].append((cur, w))
        route[(cur, name)] = slot
        route[(name, cur)] = back
        state.point.append(name)
        state.direction = direction
        true_node = other
        state.trace.append((name, state.type_of[name],
                            max(1, len(state.neighbors[name])), c.x, c.y))

    while True:
        cur = state.point[-1]
        pending = [slot for slot, _e, _o, _l in _slots_at(maze, true_node)
                   if slot not in walked[cur]]
        if pending:
            # Branch preference: east, north, west, south; among lanes of
            # one direction, the nearest-reaching branch first.
            walk(min(pending))
            continue
        path = next_target(state)
        if path is None:
            break
        for nxt in path[1:]:
            walk(route[(state.point[-1], nxt)])
    return state


def trace_lines(state: ExplorationState) -> List[str]:
    """Exploration trace, one line per arrival: name type explored x y."""
    return ["%s %d %d %g %g" % row for row in state.trace]
