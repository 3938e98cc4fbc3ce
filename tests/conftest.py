"""Shared fixtures: bundled mazes, hand-built mazes, and robot defaults."""

import pytest

from linemaze.maze_model import (MazeEdge, MazeNode, Point2D, bundled_maze_text,
                                 make_maze, parse_maze)
from linemaze.motion_sim import MotionParams
from linemaze.odometry import calibration_from_motion


@pytest.fixture(scope="session")
def fig1():
    return parse_maze(bundled_maze_text("fig1"))


@pytest.fixture(scope="session")
def fig2():
    return parse_maze(bundled_maze_text("fig2"))


@pytest.fixture(scope="session")
def corridor():
    return parse_maze(bundled_maze_text("corridor"))


@pytest.fixture(scope="session")
def plus():
    return parse_maze(bundled_maze_text("plus"))


@pytest.fixture(scope="session")
def default_params():
    return MotionParams()


@pytest.fixture(scope="session")
def default_cal(default_params):
    return calibration_from_motion(default_params)


def _maze(nodes, edges, start, end):
    return make_maze(
        [MazeNode(i, Point2D(float(x), float(y))) for i, x, y in nodes],
        [MazeEdge(a, b) for a, b in edges],
        start, end)


@pytest.fixture(scope="session")
def t_maze():
    """T-junction: the first preferred branch (east) is a dead end."""
    return _maze(
        [("S", 0, 0), ("J", 0, 10), ("D", 6, 10), ("F", -6, 10)],
        [("S", "J"), ("J", "D"), ("J", "F")],
        "S", "F")


@pytest.fixture(scope="session")
def retreat_maze():
    """A junction (B) whose entire subtree is dead, forcing a retreat past it.

    S-A north, A-B east; B has two dead ends (north C, south D); the end F
    sits north of A.
    """
    return _maze(
        [("S", 0, 0), ("A", 0, 8), ("B", 6, 8), ("C", 6, 14), ("D", 6, 2),
         ("F", 0, 16)],
        [("S", "A"), ("A", "B"), ("B", "C"), ("B", "D"), ("A", "F")],
        "S", "F")


@pytest.fixture(scope="session")
def ring_maze():
    """A large loop the tape explorer rides forever (budget test).

    Four-way X: south to start S, north to end F, east/west into a ring.
    """
    return _maze(
        [("S", 0, 0), ("X", 0, 10), ("F", 0, 14), ("R1", 6, 10),
         ("R2", 6, 16), ("R3", -6, 16), ("R4", -6, 10)],
        [("S", "X"), ("X", "F"), ("X", "R1"), ("R1", "R2"), ("R2", "R3"),
         ("R3", "R4"), ("R4", "X")],
        "S", "F")


def build_maze(nodes, edges, start, end):
    """Module-level helper for tests that construct throwaway mazes."""
    return _maze(nodes, edges, start, end)
