"""Tape explorer: one running sum per junction solves loop-free mazes."""

import itertools
import random

import pytest

from linemaze.errors import ExplorationError, InconsistencyError
from linemaze.graph_path import dijkstra, graph_from_maze
from linemaze.mazegen import random_maze
from linemaze.simple_explorer import (PREF_LFRD, PREF_RFLD, PREFERENCES,
                                      JunctionTape, explore_simple,
                                      reduce_tape, replay)

from conftest import build_maze


# ------------------------------------------------------------ worked mazes

def test_fig1_right_first(fig1):
    tape = explore_simple(fig1, PREF_RFLD)
    assert tape.sums == [3, 1, 1]
    reduced = reduce_tape(tape)
    assert reduced == [3, 1, 1]
    assert replay(fig1, reduced) == ["S", "A", "B", "C", "F"]


def test_fig1_left_first_reduces_to_the_same_run(fig1):
    tape = explore_simple(fig1, PREF_LFRD)
    assert tape.sums == [3, 5, 5]
    reduced = reduce_tape(tape)
    assert reduced == [3, 1, 1]
    assert replay(fig1, reduced) == ["S", "A", "B", "C", "F"]


def test_corridor_needs_no_tape(corridor):
    tape = explore_simple(corridor)
    assert tape.sums == []
    assert replay(corridor, []) == ["S", "F"]


def test_t_junction_dead_branch_folds_into_one_code(t_maze):
    tape = explore_simple(t_maze, PREF_RFLD)
    assert tape.sums == [3]
    assert replay(t_maze, reduce_tape(tape)) == ["S", "J", "F"]


def test_dead_subtree_retreats_past_the_inner_junction(retreat_maze):
    # B's entire subtree is dead: its sum wraps to 4, dropping the junction
    # from the tape, and the retreat re-opens A's slot.
    tape = explore_simple(retreat_maze, PREF_RFLD)
    assert tape.sums == [2]
    assert replay(retreat_maze, [2]) == ["S", "A", "F"]


def test_start_with_choices_is_taped_against_north():
    maze = build_maze(
        [("J", 0, 0), ("N", 0, 6), ("E", 6, 0), ("W", -6, 0)],
        [("J", "N"), ("J", "E"), ("J", "W")],
        "J", "E")
    right = explore_simple(maze, PREF_RFLD)
    assert right.sums == [1]
    assert replay(maze, reduce_tape(right)) == ["J", "E"]
    left = explore_simple(maze, PREF_LFRD)
    assert left.sums == [9]
    assert reduce_tape(left) == [1]
    assert replay(maze, [1]) == ["J", "E"]


@pytest.mark.parametrize("pref_name,sums", [("RFLD", [1]), ("LFRD", [5])])
def test_two_exit_start_keeps_its_slot_after_a_dead_end(pref_name, sums):
    # p1's south side has a line and its west side has none, so the robot
    # starts heading east. LFRD tries p2 first (front, 2); back at p1 the
    # start is a junction again, and its slot adds the left turn: 2 + 3.
    maze = build_maze([("p0", 0, 0), ("p1", 0, 4), ("p2", 4, 4)],
                      [("p0", "p1"), ("p1", "p2")], "p1", "p0")
    tape = explore_simple(maze, PREFERENCES[pref_name])
    assert tape.sums == sums
    assert reduce_tape(tape) == [1]
    assert replay(maze, [1]) == ["p1", "p0"]


@pytest.mark.parametrize("pref_name", ["RFLD", "LFRD"])
def test_four_way_start_is_taped_against_north(pref_name):
    nodes = [("C", 0, 0), ("N", 0, 5), ("E", 5, 0), ("W", -5, 0),
             ("S", 0, -5)]
    edges = [("C", "N"), ("C", "E"), ("C", "W"), ("C", "S")]
    west = build_maze(nodes, edges, "C", "W")
    assert reduce_tape(explore_simple(west, PREFERENCES[pref_name])) == [3]
    assert replay(west, [3]) == ["C", "W"]
    # South is BACK against north, which no turn code 1-3 names: the
    # start's sum wraps to 4 once the other three exits are dead.
    south = build_maze(nodes, edges, "C", "S")
    with pytest.raises(ExplorationError) as err:
        explore_simple(south, PREFERENCES[pref_name])
    assert str(err.value) == (
        "the route leaves start 'C' by its last exit, which no turn code "
        "1-3 names; outside the tape explorer's maze class")


def test_start_equals_end():
    maze = build_maze([("A", 0, 0), ("B", 0, 10)], [("A", "B")], "A", "A")
    tape = explore_simple(maze)
    assert tape == JunctionTape([])
    assert replay(maze, []) == ["A"]


# --------------------------------------------------------------- failures

def test_side_by_side_lanes_rejected(fig2):
    with pytest.raises(ExplorationError, match="same direction"):
        explore_simple(fig2)


def test_loop_exhausts_the_budget(ring_maze):
    # Right-first riding of the ring never tries the straight-ahead branch
    # to the end, so the traversal budget is the only way out.
    with pytest.raises(ExplorationError, match="within 70 traversals"):
        explore_simple(ring_maze, PREF_RFLD)


# The 22 orders of (1, 2, 3, 4) that are neither preset.
NON_PRESET_ORDERS = [order for order in itertools.permutations((1, 2, 3, 4))
                     if order not in (PREF_RFLD, PREF_LFRD)]


@pytest.mark.parametrize(
    "pref", [(1, 2, 3), (1, 1, 3, 4), (0, 1, 2, 3), ()] + NON_PRESET_ORDERS)
def test_invalid_preference_rejected(fig1, pref):
    # Only the two wall-following presets solve every tree.
    with pytest.raises(ValueError) as err:
        explore_simple(fig1, pref)
    assert str(err.value) == (
        "preference must be PREF_RFLD (1, 2, 3, 4) or PREF_LFRD (3, 2, 1, 4), "
        "got %r" % (pref,))


@pytest.mark.parametrize("pref,message", [
    (("1", 2, 3, 4), "preference entry 1 must be an integer, got '1'"),
    ((1, 2, 3, 4.0), "preference entry 4 must be an integer, got 4.0"),
    ((1, None, 3, 4), "preference entry 2 must be an integer, got None"),
])
def test_non_integer_preference_entry_rejected(fig1, pref, message):
    with pytest.raises(ValueError) as err:
        explore_simple(fig1, pref)
    assert str(err.value) == message


def test_preference_presets():
    assert PREFERENCES == {"RFLD": PREF_RFLD, "LFRD": PREF_LFRD}
    assert sorted(PREF_RFLD) == sorted(PREF_LFRD) == [1, 2, 3, 4]


# ---------------------------------------------------------------- reducing

def test_reduce_wraps_sums():
    assert reduce_tape(JunctionTape([5])) == [1]
    assert reduce_tape(JunctionTape([3, 5, 6])) == [3, 1, 2]
    assert reduce_tape(JunctionTape([])) == []


@pytest.mark.parametrize("sums", [[4], [8], [3, 4, 1]])
def test_reduce_rejects_turn_back(sums):
    with pytest.raises(InconsistencyError, match="turn-back"):
        reduce_tape(JunctionTape(sums))


@pytest.mark.parametrize("sums,message", [
    ([1.5], "tape sum at junction 1 must be an integer, got 1.5"),
    ([3, None], "tape sum at junction 2 must be an integer, got None"),
    ([3, 1, "5"], "tape sum at junction 3 must be an integer, got '5'"),
])
def test_reduce_rejects_non_integer_sums(sums, message):
    with pytest.raises(ValueError) as err:
        reduce_tape(JunctionTape(sums))
    assert str(err.value) == message


# ----------------------------------------------------------------- replay

@pytest.mark.parametrize("reduced,message", [
    # Codes once wrapped mod 4, so each of the first three replayed fig1.
    ([7, 1, 1], "replay code at junction 1 must be 1, 2 or 3, got 7"),
    ([-1, 1, 1], "replay code at junction 1 must be 1, 2 or 3, got -1"),
    ([3, 5, 5], "replay code at junction 2 must be 1, 2 or 3, got 5"),
    ([3, 1, 4], "replay code at junction 3 must be 1, 2 or 3, got 4"),
    ([0], "replay code at junction 1 must be 1, 2 or 3, got 0"),
    ([3.5, 1, 1], "replay code at junction 1 must be an integer, got 3.5"),
    (["3", 1, 1], "replay code at junction 1 must be an integer, got '3'"),
    ([3, 1, None], "replay code at junction 3 must be an integer, got None"),
])
def test_replay_rejects_codes_outside_1_to_3(fig1, reduced, message):
    with pytest.raises(ValueError) as err:
        replay(fig1, reduced)
    assert str(err.value) == message


def test_replay_checks_every_code_before_walking(fig1):
    # The walk would stop at the first junction's missing line; the bad
    # code after it is reported first.
    with pytest.raises(ValueError, match="junction 2 must be 1, 2 or 3"):
        replay(fig1, [2, 4])



def test_replay_into_dead_end(fig1):
    with pytest.raises(InconsistencyError, match="dead end"):
        replay(fig1, [1, 1, 1])


def test_replay_missing_line(fig1):
    with pytest.raises(InconsistencyError, match="no line leaves that way"):
        replay(fig1, [2])


def test_replay_tape_exhausted(fig1):
    with pytest.raises(InconsistencyError, match="tape exhausted"):
        replay(fig1, [3])


def test_replay_leftover_codes(fig1):
    with pytest.raises(InconsistencyError, match="unused junction entries"):
        replay(fig1, [3, 1, 1, 2])


def test_replay_around_a_ring_exhausts_the_budget(ring_maze):
    # Right at X from the start, then straight on at every return: each lap
    # of the ring is 5 walks and reads one code, so 20 codes outlast the
    # budget of 70 walks (10 per edge).
    with pytest.raises(InconsistencyError) as err:
        replay(ring_maze, [1] + [2] * 19)
    assert str(err.value) == "tape did not reach the end within 70 traversals"


@pytest.mark.parametrize("end", ["A", "B"])
def test_replay_rejects_leftover_codes_whether_or_not_start_is_end(end):
    maze = build_maze([("A", 0, 0), ("B", 0, 10)], [("A", "B")], "A", end)
    with pytest.raises(InconsistencyError,
                       match="tape has 3 unused junction entries"):
        replay(maze, [1, 2, 3])


# -------------------------------------------------------------- properties

@pytest.mark.parametrize("pref_name", ["RFLD", "LFRD"])
def test_random_trees_replay_to_the_shortest_path(pref_name):
    pref = PREFERENCES[pref_name]
    for leaf_ends, seed in itertools.product((True, False), range(50)):
        maze = random_maze(random.Random(seed), max_nodes=40, loops=0,
                           leaf_ends=leaf_ends)
        tape = explore_simple(maze, pref)
        reduced = reduce_tape(tape)
        path = replay(maze, reduced)

        assert path[0] == maze.start
        assert path[-1] == maze.end
        # Trees have exactly one simple path, and it is the shortest one.
        truth = dijkstra(graph_from_maze(maze), maze.start, maze.end)
        assert path == list(truth.nodes)
        # No dead-end detours survive on the replayed run.
        for node in path[1:-1]:
            assert len(maze.branches[node]) >= 2
        # One tape entry per decision point along the run.
        decisions = sum(1 for node in path[1:-1]
                        if len(maze.branches[node]) >= 3)
        if len(maze.branches[maze.start]) >= 2 and maze.start != maze.end:
            decisions += 1
        assert len(reduced) == decisions
