"""Mapping explorer: visit log, typed points, coordinates, revisit matching."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linemaze import mapping_explorer, motion_sim
from linemaze.errors import ArgumentError, ExplorationError
from linemaze.mapping_explorer import explore_map, match_point, next_target
from linemaze.maze_model import Point2D, parse_maze
from linemaze.mazegen import random_maze
from linemaze.motion_sim import MotionParams, simulate_segment
from linemaze.odometry import ODOMETRY_MODES
from oracles import record, record_drives, state_with, trace_lines, trace_rows

FIG2_TRACE = [
    "0 0 1 0 0",
    "1 3 1 0 10",
    "2 2 1 14 10",
    "3 2 1 14 13",
    "4 0 1 14 16",
    "3 2 2 14 13",
    "5 1 1 0 13",
    "1 3 3 0 10",
    "6 0 1 -5 10",
    "1 3 4 0 10",
    "2 2 2 14 10",
    "7 0 1 14 18",
]


def lines(state):
    """The exploration's trace as text, rebuilt by the oracle."""
    return trace_lines(trace_rows(state))


# ------------------------------------------------------------- worked runs

def test_fig2_ideal_full_trace(fig2):
    state = explore_map(fig2, src="ideal")
    assert lines(state) == FIG2_TRACE
    assert state.point == ["0", "1", "2", "3", "4", "3", "5", "1", "6", "1",
                           "2", "7"]
    assert [state.type_of[n] for n in state.point] == [
        0, 3, 2, 2, 0, 2, 1, 3, 0, 3, 2, 0]
    assert len(state.type_of) == 8
    coords = {n: (c.x, c.y) for n, c in state.coordinate.items()}
    assert coords == {"0": (0.0, 0.0), "1": (0.0, 10.0), "2": (14.0, 10.0),
                      "3": (14.0, 13.0), "4": (14.0, 16.0), "5": (0.0, 13.0),
                      "6": (-5.0, 10.0), "7": (14.0, 18.0)}


@pytest.mark.parametrize("mode", ["ideal", "raw", "basic", "arc"])
def test_fig2_node_of_names_each_point_in_every_mode(fig2, mode):
    state = explore_map(fig2, src=mode)
    assert state.node_of == {"0": "S", "1": "A", "2": "E", "3": "D",
                             "4": "G", "5": "C", "6": "B", "7": "F"}


@pytest.mark.parametrize("mode", ["ideal", "raw", "basic", "arc"])
def test_stored_coordinates_are_points(fig2, mode):
    # A measured coordinate is a plain pair until it mints a point.
    state = explore_map(fig2, src=mode)
    assert len(state.coordinate) == 8
    for c in state.coordinate.values():
        assert type(c) is Point2D and type(c.x) is float


def test_fig2_every_point_finishes_fully_explored(fig2):
    state = explore_map(fig2, src="ideal")
    for name, t in state.type_of.items():
        assert len(state.neighbors[name]) == t + 1
    assert next_target(state) is None


def test_fig2_lanes_walked_nearest_first(fig2):
    # Point 2 (the double-lane node) heads north twice: first to the nearer
    # point 3, much later to the farther point 7.
    state = explore_map(fig2, src="ideal")
    first = state.point.index("3")
    assert state.point[first - 1] == "2"
    assert state.point[-2:] == ["2", "7"]


def test_corridor_two_points(corridor):
    state = explore_map(corridor)
    assert lines(state) == ["0 0 1 0 0", "1 0 1 0 10"]
    assert len(state.type_of) == 2


def test_plus_maze_center_reaches_full_count(plus):
    state = explore_map(plus)
    assert state.point == ["0", "1", "2", "1", "3", "1", "4"]
    assert state.type_of["1"] == 3
    assert len(state.neighbors["1"]) == 4
    coords = {n: (c.x, c.y) for n, c in state.coordinate.items()}
    assert coords == {"0": (0.0, 0.0), "1": (0.0, 10.0), "2": (8.0, 10.0),
                      "3": (0.0, 20.0), "4": (-8.0, 10.0)}


def test_explored_counter_is_nondecreasing_per_point(fig2):
    # A point's explored count only grows: its walked neighbors are
    # listed in the order the visit log first walks each edge, and none
    # is ever dropped.
    state = explore_map(fig2, src="ideal")
    walked = {name: [] for name in state.type_of}
    for a, b in zip(state.point, state.point[1:]):
        for here, there in ((a, b), (b, a)):
            if there not in walked[here]:
                walked[here].append(there)
    assert walked == {name: [b for b, _w in nbrs]
                      for name, nbrs in state.neighbors.items()}


def test_trace_rows_match_state(fig2):
    # Every arrival names a recorded point, and every walk joins two
    # stored coordinates over a walked edge weighed by their distance.
    state = explore_map(fig2, src="ideal")
    assert state.point[0] == "0" and state.coordinate["0"] == (0.0, 0.0)
    assert set(state.point) == set(state.type_of) == \
        set(state.coordinate) == set(state.node_of)
    for a, b in zip(state.point, state.point[1:]):
        ca, cb = state.coordinate[a], state.coordinate[b]
        assert dict(state.neighbors[a])[b] == \
            math.hypot(cb.x - ca.x, cb.y - ca.y)


# ---------------------------------------------------------- point matching

def test_match_point_within_tolerance():
    st = state_with(["0"], {"0": (0, 0), "E": (14, 10)}, {"0": 0, "E": 2})
    assert match_point(Point2D(14.1, 10.05), st, 0.5) == "E"
    assert match_point(Point2D(0.0, 0.0), st, 0.5) == "0"
    assert match_point(Point2D(7.0, 5.0), st, 0.5) is None


def test_match_point_chebyshev_metric():
    st = state_with(["0"], {"0": (0, 0)})
    # Both axes off by tol: Chebyshev distance is exactly tol -> a hit,
    # while the Euclidean distance would exceed it.
    assert match_point(Point2D(0.5, 0.5), st, 0.5) == "0"
    assert match_point(Point2D(0.500001, 0.0), st, 0.5) is None


def test_match_point_ambiguity_is_an_error():
    st = state_with(["0"], {"0": (0, 10), "1": (14, 10)}, {"0": 1, "1": 1})
    with pytest.raises(ExplorationError, match="tolerance too large"):
        match_point(Point2D(7.0, 10.0), st, 8.0)


def linear_match_point(coord, state, tol):
    """Reference matcher: a scan over every known point."""
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


def _outcome(matcher, coord, state, tol):
    try:
        return matcher(coord, state, tol)
    except ExplorationError as exc:
        return "error: %s" % exc


# Lattice values make exact ties and ambiguities common; the wide floats
# cover negative and large coordinates.
_COORD = st.one_of(st.integers(-12, 12).map(lambda k: k * 0.75),
                   st.floats(-1e3, 1e3), st.floats(-1e15, 1e15))
_TOL = st.one_of(st.sampled_from([0.25, 0.75, 1.0, 1.5, 4.0, 1e308,
                                  math.inf]),
                 st.floats(1e-6, 1e4))


@settings(max_examples=100, deadline=None)
@given(batches=st.lists(st.lists(st.tuples(_COORD, _COORD), max_size=8),
                        min_size=1, max_size=6),
       tols=st.lists(_TOL, min_size=6, max_size=6).map(sorted),
       extra=st.lists(st.tuples(_COORD, _COORD), min_size=1, max_size=4))
def test_match_point_agrees_with_linear_scan(batches, tols, extra):
    # Points are written straight into state.coordinate between calls, as
    # state_with does, and the tolerance never shrinks (as in explore_map),
    # so the index is rebuilt for new points and for a wider tolerance.
    st_ = state_with(["0"], {"0": (0, 0)})
    for batch, tol in zip(batches, tols):
        for x, y in batch:
            st_.coordinate[str(len(st_.coordinate))] = Point2D(x, y)
        queries = [Point2D(x, y) for x, y in extra]
        for c in [Point2D(0.0, 0.0)] + [Point2D(x, y) for x, y in batch]:
            for dx in (-tol, 0.0, tol):
                for dy in (-tol, 0.0, tol):
                    q = Point2D(c.x + dx, c.y + dy)
                    if math.isfinite(q.x) and math.isfinite(q.y):
                        queries.append(q)
        for q in queries:
            assert (_outcome(match_point, q, st_, tol)
                    == _outcome(linear_match_point, q, st_, tol))


@pytest.mark.parametrize("tol", [1e308, math.inf])
def test_match_point_huge_tolerance_sees_every_point(tol):
    st_ = state_with(["0"], {"0": (0, 0), "1": (-1e300, 5e299)},
                     {"0": 0, "1": 0})
    with pytest.raises(ExplorationError, match="matches points 0, 1 "):
        match_point(Point2D(-3.0, 2.0), st_, tol)
    del st_.coordinate["1"]
    assert match_point(Point2D(-1e300, 5e299), st_, tol) == "0"


@pytest.mark.parametrize("tol", [0.0, -1.0])
def test_match_point_tolerance_must_be_positive(tol):
    st = state_with(["0"], {"0": (0, 0)})
    with pytest.raises(ValueError, match="tol must be positive"):
        match_point(Point2D(0.0, 0.0), st, tol)


_NOT_FINITE = (math.nan, math.inf, -math.inf)


@pytest.mark.parametrize("coord", [(v, 0.0) for v in _NOT_FINITE]
                         + [(0.0, v) for v in _NOT_FINITE], ids=repr)
def test_match_point_refuses_a_coordinate_that_is_not_finite(coord):
    st = state_with(["0"], {"0": (0, 0)})
    with pytest.raises(ArgumentError) as err:
        match_point(Point2D(*coord), st, 0.5)
    assert str(err.value) == "coord must be finite, got %r" % (
        Point2D(*coord),)


# ---------------------------------------------------------- target picking

def test_next_target_prefers_nearest_unfinished():
    # Mid-run snapshot: the robot sits at a dead end two hops from the
    # nearest point that still has unwalked branches.
    st = state_with(
        ["0", "1", "2", "3", "4"],
        {"0": (0, 0), "1": (0, 10), "2": (14, 10), "3": (14, 13),
         "4": (14, 16)},
        {"0": 0, "1": 3, "2": 2, "3": 2, "4": 0})
    assert next_target(st) == ["4", "3"]


def test_next_target_current_point_shortcut():
    st = state_with(["0", "1"], {"0": (0, 0), "1": (0, 10)},
                    {"0": 0, "1": 3})
    assert next_target(st) == ["1"]


def test_next_target_none_when_done():
    st = state_with(["0", "1"], {"0": (0, 0), "1": (0, 10)},
                    {"0": 0, "1": 0})
    assert next_target(st) is None


def test_next_target_tie_breaks_to_smallest_name():
    st = state_with(["1", "0", "2", "0"],
                    {"0": (0, 0), "1": (-7, 0), "2": (7, 0)},
                    {"0": 1, "1": 1, "2": 1})
    assert next_target(st) == ["0", "1"]
    # Name order is string order, not numeric.
    st2 = state_with(["10", "0", "2", "0"],
                     {"0": (0, 0), "10": (-7, 0), "2": (7, 0)},
                     {"0": 1, "10": 1, "2": 1})
    assert next_target(st2) == ["0", "10"]


def test_next_target_route_ties_break_lexicographically():
    # Two walked routes of exactly 10 cm reach the unfinished point 3. The
    # one via 2 is found first (its first hop is shorter), but the route
    # taken is the lexicographically smaller one via 1, as in dijkstra.
    st = state_with(["0", "2", "3", "1", "0"],
                    {"0": (0, 0), "1": (0, 9), "2": (1, 0), "3": (1, 9)},
                    {"0": 1, "1": 1, "2": 1, "3": 2})
    assert next_target(st) == ["0", "1", "3"]


# ------------------------------------------------------------ noisy runs

@pytest.mark.parametrize("mode", ["raw", "basic", "arc"])
def test_noisy_modes_still_map_fig2(fig2, mode):
    state = explore_map(fig2, src=mode)
    assert len(state.type_of) == 8
    assert state.point == explore_map(fig2, src="ideal").point


def test_noisy_coordinates_differ_but_stay_close(fig2):
    state = explore_map(fig2, src="raw")
    ideal = explore_map(fig2, src="ideal")
    worst = max(
        max(abs(state.coordinate[n].x - ideal.coordinate[n].x),
            abs(state.coordinate[n].y - ideal.coordinate[n].y))
        for n in ideal.coordinate)
    assert 0.0 < worst < 1.0


def test_arc_correction_tightens_the_map(fig2):
    ideal = explore_map(fig2, src="ideal")

    def worst_error(mode, seed):
        state = explore_map(fig2, src=mode, seed=seed)
        assert state.point == ideal.point
        return max(
            max(abs(state.coordinate[n].x - ideal.coordinate[n].x),
                abs(state.coordinate[n].y - ideal.coordinate[n].y))
            for n in ideal.coordinate)

    for seed in range(6):
        raw = worst_error("raw", seed)
        arc = worst_error("arc", seed)
        assert arc < raw
        assert arc < 0.1
        assert raw > 0.2


def test_measured_moves_are_axis_aligned(fig2):
    # Ideal odometry: every hop changes exactly one coordinate axis.
    state = explore_map(fig2, src="ideal")
    rows = [state.coordinate[n] for n in state.point]
    for (x0, y0), (x1, y1) in zip(rows, rows[1:]):
        assert (x0 != x1) != (y0 != y1)

    # Noisy odometry: still true when the arrival mints a new point (its
    # coordinate is the previous one advanced along the heading axis);
    # revisits snap to stored coordinates and may adjust both axes.
    noisy = explore_map(fig2, src="raw")
    rows = [(n, *noisy.coordinate[n]) for n in noisy.point]
    seen = {rows[0][0]}
    for (_n0, x0, y0), (n1, x1, y1) in zip(rows, rows[1:]):
        if n1 not in seen:
            assert (x0 != x1) != (y0 != y1)
        seen.add(n1)


def test_revisits_snap_to_the_stored_coordinate(fig2, monkeypatch):
    # A revisit reuses the stored coordinate and never averages it: every
    # coordinate known at an arrival is the same when exploration ends.
    known = record(monkeypatch, mapping_explorer, "match_point",
                   lambda coord, state, tol: dict(state.coordinate))
    state = explore_map(fig2, src="raw")
    assert len(state.point) - 1 == len(known) > len(state.coordinate)
    for coords in known:
        assert all(state.coordinate[n] == c for n, c in coords.items())


def test_seed_changes_the_noise(fig2):
    a = explore_map(fig2, src="raw", seed=0)
    b = explore_map(fig2, src="raw", seed=1)
    assert lines(a) != lines(b)
    again = explore_map(fig2, src="raw", seed=0)
    assert lines(a) == lines(again)


def test_ideal_mode_draws_nothing(fig2, monkeypatch):
    calls = record_drives(monkeypatch, mapping_explorer)
    state = explore_map(fig2, src="ideal", seed=5)
    assert lines(state) == FIG2_TRACE
    assert calls == [] and state.logs == {}
    explore_map(fig2, src="raw", seed=5)
    assert calls and all(call[2] == 5 for call in calls)


def test_a_noisy_exploration_mixes_its_seed_once(fig2, monkeypatch):
    # One driver per exploration: the seed is mixed once, and each
    # traversal mixes only its own key into it. Ideal mode mixes nothing.
    mixed = record(monkeypatch, motion_sim, "_mix64", lambda z: z)
    explore_map(fig2, src="ideal", seed=5)
    assert mixed == []
    state = explore_map(fig2, src="arc", seed=5)
    assert len(state.point) - 1 > 1
    assert len(mixed) == 1 + len(state.point) - 1 and mixed[0] == 5


# From A the explorer walks east first, to E, but A-N comes first in the
# edge list.
LONG_EDGES = """\
node S 0 0
node A 0 10
node N 0 3000010
node E 2000000 10
edge S A
edge A N
edge A E
start S
end N
"""


@pytest.mark.parametrize("mode", ODOMETRY_MODES)
def test_a_noisy_exploration_refuses_a_long_edge_before_any_walk(
        monkeypatch, mode):
    # Every edge is walked, so every edge is checked before the first run,
    # and the first refused one in the maze's edge list is named. Ideal
    # odometry drives nothing and refuses nothing. A 1 cm tolerance keeps
    # the walks back from the long edges unambiguous.
    maze = parse_maze(LONG_EDGES)
    lengths = record(monkeypatch, motion_sim, "_integrate",
                     lambda *args: args[0])
    if mode == "ideal":
        state = explore_map(maze, src=mode, tol=1.0)
        assert [state.node_of[n] for n in state.point] == list("SAEAN")
    else:
        with pytest.raises(ArgumentError) as err:
            explore_map(maze, src=mode, tol=1.0)
        assert str(err.value) == ("length must be positive and at most "
                                  "1e+06 cm, got 3000000.0")
    assert lengths == []


@pytest.mark.parametrize("mode,maze_seed", [
    ("raw", None), ("arc", None), ("basic", 3), ("arc", 11)])
def test_each_traversal_replays_alone(fig2, monkeypatch, mode, maze_seed):
    # Traversal k is keyed (seed, k) and arrives at point[k]: each recorded
    # call, replayed by itself in a shuffled order, gives the same log bit
    # for bit. state.logs holds each edge's first log, in first-walk order.
    maze = fig2 if maze_seed is None else random_maze(
        random.Random(maze_seed), max_nodes=40, loops=4)
    calls = record_drives(monkeypatch, mapping_explorer)
    state = explore_map(maze, src=mode, seed=17)
    assert len(calls) == len(state.point) - 1
    order = list(range(len(calls)))
    random.Random(maze_seed).shuffle(order)
    for k in order:
        length, params, seed, index, log = calls[k]
        assert (seed, index) == (17, k + 1)
        a = maze.position(state.node_of[state.point[k]])
        b = maze.position(state.node_of[state.point[k + 1]])
        assert length == math.hypot(b.x - a.x, b.y - a.y)
        replayed = simulate_segment(length, params, seed, index)
        assert repr(replayed) == repr(log)
    first = {}
    for k, (*_args, log) in enumerate(calls):
        first.setdefault(tuple(sorted(state.point[k:k + 2])), log)
    assert list(state.logs.items()) == list(first.items())


def test_exhausted_traversal_budget(fig2, monkeypatch):
    # A route search that bounces between the current point and the
    # previous one never finishes the map; fig2's 8 edges allow 32 walks.
    monkeypatch.setattr(mapping_explorer, "next_target",
                        lambda state: [state.point[-1], state.point[-2]])
    with pytest.raises(ExplorationError) as err:
        explore_map(fig2, src="arc")
    assert str(err.value) == (
        "exploration exceeded its budget of 32 traversals; odometry errors "
        "are likely re-opening finished points")


@pytest.mark.parametrize("maze_seed,src", [
    pytest.param(seed, src, id=str(seed) + ("-arc" if src == "arc" else ""))
    for src in ("ideal", "arc") for seed in (None, 0, 1, 2)])
def test_one_match_per_traversal_one_route_search_per_finished_stop(
        fig2, monkeypatch, maze_seed, src):
    # The explorer calls both through the module, where a tracer can wrap
    # them.
    maze = fig2 if maze_seed is None else random_maze(
        random.Random(maze_seed), max_nodes=60, loops=6)
    matches = record(monkeypatch, mapping_explorer, "match_point",
                     lambda coord, state, tol: len(state.point))
    searches = []
    search = mapping_explorer.next_target

    def counting_search(state):
        cur = state.point[-1]
        # Only a finished point asks for a route, once per stop there.
        assert len(state.neighbors[cur]) == state.type_of[cur] + 1
        searches.append((len(state.point), search(state)))
        return searches[-1][1]

    monkeypatch.setattr(mapping_explorer, "next_target", counting_search)
    # Under arc odometry fig2 takes 11 walks for its 8 edges, and the
    # seeded mazes 81 for 51, 53 for 34 and 81 for 52.
    state = explore_map(maze, src=src, seed=1)
    traversals = len(state.point) - 1
    assert matches == list(range(1, traversals + 1))
    stops = [at for at, _route in searches]
    assert stops == sorted(set(stops))
    # The explorer stops when its count of unfinished points reaches zero,
    # so every search it runs finds a route.
    routes = [route for _at, route in searches]
    assert None not in routes
    # Every edge is walked once as a pending branch; every other walk is a
    # hop of a route.
    assert traversals == len(maze.edges) + sum(len(r) - 1 for r in routes)
    # When it stops, every point is finished and a search would find none.
    assert all(len(state.neighbors[name]) == state.type_of[name] + 1
               for name in state.type_of)
    assert search(state) is None


# ---------------------------------------------------------------- failures

def test_tight_tolerance_detects_drift_on_revisit(fig2):
    with pytest.raises(ExplorationError,
                       match="missed its stored coordinate"):
        explore_map(fig2, src="raw", tol=1e-3)


def test_loose_tolerance_merges_distinct_points(fig2):
    with pytest.raises(ExplorationError, match="confused with known point"):
        explore_map(fig2, src="ideal", tol=4.0)


@pytest.mark.parametrize("tol", [0.0, -2.0])
def test_explore_tolerance_must_be_positive(fig2, tol):
    with pytest.raises(ValueError, match="tol must be positive"):
        explore_map(fig2, tol=tol)


def test_explore_tolerance_must_be_finite(fig2):
    with pytest.raises(ValueError) as info:
        explore_map(fig2, tol=math.inf)
    assert str(info.value) == "tol must be positive and finite, got inf"


def test_invalid_mode_via_explore(fig2):
    with pytest.raises(ValueError, match="odometry mode must be"):
        explore_map(fig2, src="sonar")


def test_odometry_source_modes(fig2):
    assert ODOMETRY_MODES == ("ideal", "raw", "basic", "arc")
    for mode in ODOMETRY_MODES:
        assert len(explore_map(fig2, src=mode).type_of) == 8
    assert lines(explore_map(fig2)) == lines(explore_map(fig2, src="ideal"))


@pytest.mark.parametrize("mode", ODOMETRY_MODES)
@pytest.mark.parametrize("seed", [-1, 2 ** 64, 1.5])
def test_explore_refuses_a_bad_seed_in_every_mode(fig2, mode, seed):
    # Ideal odometry draws no jitter, but it refuses what the noisy modes
    # would refuse on their first walk.
    with pytest.raises(ValueError) as err:
        explore_map(fig2, src=mode, seed=seed)
    assert str(err.value) == (
        "seed and index must lie in [0, 2**64), got %r, 0" % (seed,))


@pytest.mark.parametrize("mode", ODOMETRY_MODES)
def test_explore_refuses_params_that_are_not_motion_params(fig2, mode,
                                                           monkeypatch):
    # A plain tuple, even one equal to the stock robot, is refused before
    # any walk, in every mode, with simulate_segment's message: ideal
    # odometry reads no robot, and the corrected modes read it first in
    # calibration_from_motion.
    def walk(*args):
        raise AssertionError("built a driver")

    monkeypatch.setattr(mapping_explorer, "_driver", walk)
    with pytest.raises(ValueError) as err:
        explore_map(fig2, params=tuple(MotionParams()), src=mode)
    assert str(err.value) == "params must be a MotionParams, got tuple"


def test_odometry_source_invalid(fig2):
    for bad in ("raw-encoder", "corrected-basic", "corrected-arc", "IDEAL",
                ""):
        with pytest.raises(ValueError) as err:
            explore_map(fig2, src=bad)
        assert str(err.value) == ("odometry mode must be one of %r, got %r"
                                  % (ODOMETRY_MODES, bad))


# ------------------------------------------------------------ trace format

def test_trace_lines_format():
    rows = [("0", 0, 1, 0.0, 0.0), ("1", 3, 2, -5.0, 10.25)]
    assert trace_lines(rows) == ["0 0 1 0 0", "1 3 2 -5 10.25"]
