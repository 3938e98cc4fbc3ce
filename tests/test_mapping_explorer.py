"""Mapping explorer: visit log, typed points, coordinates, revisit matching."""

import math

import pytest

from linemaze.errors import ExplorationError
from linemaze.mapping_explorer import (ExplorationState, explore_map,
                                       match_point, next_target, trace_lines)
from linemaze.maze_model import Point2D
from linemaze.motion_sim import MotionParams
from linemaze.odometry import ODOMETRY_MODES

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


def state_with(points, type_of, coords, visit=None):
    """A hand-built state whose walked graph is read off the visit log."""
    st = ExplorationState()
    st.point = list(visit if visit is not None else points)
    st.type_of = dict(type_of)
    st.coordinate = {k: Point2D(float(x), float(y))
                     for k, (x, y) in coords.items()}
    st.neighbors = {k: [] for k in type_of}
    for a, b in zip(st.point, st.point[1:]):
        if b not in dict(st.neighbors[a]):
            ca, cb = st.coordinate[a], st.coordinate[b]
            w = math.hypot(cb.x - ca.x, cb.y - ca.y)
            st.neighbors[a].append((b, w))
            st.neighbors[b].append((a, w))
    return st


# ------------------------------------------------------------- worked runs

def test_fig2_ideal_full_trace(fig2):
    state = explore_map(fig2, src="ideal")
    assert trace_lines(state) == FIG2_TRACE
    assert state.point == ["0", "1", "2", "3", "4", "3", "5", "1", "6", "1",
                           "2", "7"]
    assert [t for _n, t, _e, _x, _y in state.trace] == [
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
    assert trace_lines(state) == ["0 0 1 0 0", "1 0 1 0 10"]
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
    state = explore_map(fig2, src="ideal")
    last = {}
    for name, _t, explored, _x, _y in state.trace:
        assert explored >= last.get(name, 1)
        last[name] = explored


def test_trace_rows_match_state(fig2):
    state = explore_map(fig2, src="ideal")
    assert len(state.trace) == len(state.point)
    for (name, t, _e, x, y), visited in zip(state.trace, state.point):
        assert name == visited
        assert t == state.type_of[name]
        c = state.coordinate[name]
        assert (x, y) == (c.x, c.y)


# ---------------------------------------------------------- point matching

def test_match_point_within_tolerance():
    st = state_with(["0"], {"0": 0, "E": 2},
                    {"0": (0, 0), "E": (14, 10)})
    assert match_point(Point2D(14.1, 10.05), st, 0.5) == "E"
    assert match_point(Point2D(0.0, 0.0), st, 0.5) == "0"
    assert match_point(Point2D(7.0, 5.0), st, 0.5) is None


def test_match_point_chebyshev_metric():
    st = state_with(["0"], {"0": 0}, {"0": (0, 0)})
    # Both axes off by tol: Chebyshev distance is exactly tol -> a hit,
    # while the Euclidean distance would exceed it.
    assert match_point(Point2D(0.5, 0.5), st, 0.5) == "0"
    assert match_point(Point2D(0.500001, 0.0), st, 0.5) is None


def test_match_point_ambiguity_is_an_error():
    st = state_with(["0"], {"0": 1, "1": 1},
                    {"0": (0, 10), "1": (14, 10)})
    with pytest.raises(ExplorationError, match="tolerance too large"):
        match_point(Point2D(7.0, 10.0), st, 8.0)


@pytest.mark.parametrize("tol", [0.0, -1.0])
def test_match_point_tolerance_must_be_positive(tol):
    st = state_with(["0"], {"0": 0}, {"0": (0, 0)})
    with pytest.raises(ValueError, match="tol must be positive"):
        match_point(Point2D(0.0, 0.0), st, tol)


# ---------------------------------------------------------- target picking

def test_next_target_prefers_nearest_unfinished():
    # Mid-run snapshot: the robot sits at a dead end two hops from the
    # nearest point that still has unwalked branches.
    st = state_with(
        None,
        {"0": 0, "1": 3, "2": 2, "3": 2, "4": 0},
        {"0": (0, 0), "1": (0, 10), "2": (14, 10), "3": (14, 13),
         "4": (14, 16)},
        visit=["0", "1", "2", "3", "4"])
    assert next_target(st) == ["4", "3"]


def test_next_target_current_point_shortcut():
    st = state_with(None, {"0": 0, "1": 3}, {"0": (0, 0), "1": (0, 10)},
                    visit=["0", "1"])
    assert next_target(st) == ["1"]


def test_next_target_none_when_done():
    st = state_with(None, {"0": 0, "1": 0}, {"0": (0, 0), "1": (0, 10)},
                    visit=["0", "1"])
    assert next_target(st) is None


def test_next_target_tie_breaks_to_smallest_name():
    st = state_with(None, {"0": 1, "1": 1, "2": 1},
                    {"0": (0, 0), "1": (-7, 0), "2": (7, 0)},
                    visit=["1", "0", "2", "0"])
    assert next_target(st) == ["0", "1"]
    # Name order is string order, not numeric.
    st2 = state_with(None, {"0": 1, "10": 1, "2": 1},
                     {"0": (0, 0), "10": (-7, 0), "2": (7, 0)},
                     visit=["10", "0", "2", "0"])
    assert next_target(st2) == ["0", "10"]


def test_next_target_route_ties_break_lexicographically():
    # Two walked routes of exactly 10 cm reach the unfinished point 3. The
    # one via 2 is found first (its first hop is shorter), but the route
    # taken is the lexicographically smaller one via 1, as in dijkstra.
    st = state_with(None, {"0": 1, "1": 1, "2": 1, "3": 2},
                    {"0": (0, 0), "1": (0, 9), "2": (1, 0), "3": (1, 9)},
                    visit=["0", "2", "3", "1", "0"])
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
        state = explore_map(fig2, params=MotionParams(seed=seed), src=mode)
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
    rows = [(x, y) for _n, _t, _e, x, y in state.trace]
    for (x0, y0), (x1, y1) in zip(rows, rows[1:]):
        assert (x0 != x1) != (y0 != y1)

    # Noisy odometry: still true when the arrival mints a new point (its
    # coordinate is the previous one advanced along the heading axis);
    # revisits snap to stored coordinates and may adjust both axes.
    noisy = explore_map(fig2, src="raw")
    rows = [(n, x, y) for n, _t, _e, x, y in noisy.trace]
    seen = {rows[0][0]}
    for (_n0, x0, y0), (n1, x1, y1) in zip(rows, rows[1:]):
        if n1 not in seen:
            assert (x0 != x1) != (y0 != y1)
        seen.add(n1)


def test_revisits_snap_to_the_stored_coordinate(fig2):
    state = explore_map(fig2, src="raw")
    first_seen = {}
    for name, _t, _e, x, y in state.trace:
        if name in first_seen:
            assert (x, y) == first_seen[name]
        else:
            first_seen[name] = (x, y)


def test_seed_changes_the_noise(fig2):
    a = explore_map(fig2, params=MotionParams(seed=0), src="raw")
    b = explore_map(fig2, params=MotionParams(seed=1), src="raw")
    assert trace_lines(a) != trace_lines(b)
    again = explore_map(fig2, params=MotionParams(seed=0), src="raw")
    assert trace_lines(a) == trace_lines(again)


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


def test_invalid_mode_via_explore(fig2):
    with pytest.raises(ValueError, match="odometry mode must be"):
        explore_map(fig2, src="sonar")


def test_odometry_source_modes(fig2):
    assert ODOMETRY_MODES == ("ideal", "raw", "basic", "arc")
    for mode in ODOMETRY_MODES:
        assert len(explore_map(fig2, src=mode).type_of) == 8
    assert trace_lines(explore_map(fig2)) == \
        trace_lines(explore_map(fig2, src="ideal"))


def test_odometry_source_invalid(fig2):
    for bad in ("raw-encoder", "corrected-basic", "corrected-arc", "IDEAL",
                ""):
        with pytest.raises(ValueError) as err:
            explore_map(fig2, src=bad)
        assert str(err.value) == ("odometry mode must be one of %r, got %r"
                                  % (ODOMETRY_MODES, bad))


# ------------------------------------------------------------ trace format

def test_trace_lines_format():
    st = ExplorationState()
    st.trace = [("0", 0, 1, 0.0, 0.0), ("1", 3, 2, -5.0, 10.25)]
    assert trace_lines(st) == ["0 0 1 0 0", "1 3 2 -5 10.25"]
