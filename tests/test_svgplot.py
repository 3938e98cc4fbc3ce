"""SVG plotting: segment-local trajectories placed in the world frame."""

import pytest

from linemaze._directions import EAST, NORTH, SOUTH, WEST
from linemaze.svgplot import world_points

LOCAL = [(0.0, 0.0), (2.0, 0.5), (4.0, -0.5)]


@pytest.mark.parametrize("direction,expected", [
    (EAST, [(1.0, 1.0), (3.0, 1.5), (5.0, 0.5)]),
    (NORTH, [(1.0, 1.0), (0.5, 3.0), (1.5, 5.0)]),
    (WEST, [(1.0, 1.0), (-1.0, 0.5), (-3.0, 1.5)]),
    (SOUTH, [(1.0, 1.0), (1.5, -1.0), (0.5, -3.0)]),
])
def test_local_y_lies_to_the_left_of_the_heading(direction, expected):
    assert world_points((1.0, 1.0), direction, LOCAL) == expected


@pytest.mark.parametrize("bad", [0, 5, -1])
def test_bad_direction_rejected(bad):
    with pytest.raises(ValueError) as err:
        world_points((0.0, 0.0), bad, LOCAL)
    assert str(err.value) == "invalid direction code %r" % (bad,)
