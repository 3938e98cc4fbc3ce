"""Direction arithmetic shared by the explorers.

Absolute direction codes: 1 = east, 2 = north, 3 = west, 4 = south.
Relative direction codes (with respect to the robot's heading):
1 = right, 2 = front, 3 = left, 4 = back.

Both cycles increment counterclockwise, which makes conversion between
them a mod-4 shift.
"""

EAST, NORTH, WEST, SOUTH = 1, 2, 3, 4
RIGHT, FRONT, LEFT, BACK = 1, 2, 3, 4

# Unit steps per absolute direction, in cm of (x, y).
DELTA = {EAST: (1.0, 0.0), NORTH: (0.0, 1.0), WEST: (-1.0, 0.0), SOUTH: (0.0, -1.0)}

REL_NAMES = {RIGHT: "right", FRONT: "front", LEFT: "left", BACK: "back"}


def wrap4(n):
    """Map any integer onto the 1..4 cycle."""
    return (n - 1) % 4 + 1


def reverse(direction):
    """Absolute direction pointing the opposite way."""
    return wrap4(direction + 2)


def absolute_of(rel, heading):
    """Absolute direction reached by turning `rel` from a heading."""
    return wrap4(heading + rel - 2)

