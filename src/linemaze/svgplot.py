"""Deterministic SVG rendering of a maze and a robot trajectory.

The maze's taped lines draw in black, every maze node gets a labeled
marker, and the robot's midpoint trajectory overlays as a polyline with a
small marker at every direction change (the corrective pivots). All
coordinates are emitted with fixed precision so identical inputs produce
byte-identical files. Maze y points north; SVG y points down, so points are
flipped against the top of the bounding box before writing.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from ._directions import EAST, NORTH, SOUTH, WEST
from .errors import ArgumentError
from .maze_model import MazeSpec

__all__ = ["world_points", "render_svg"]

_MARGIN = 3.0


def world_points(start: Tuple[float, float], direction: int,
                 local: Sequence[Tuple[float, float]]) -> List[Tuple[float, float]]:
    """Map segment-local trajectory points into world coordinates.

    Local x runs along the heading, local y to the heading's left; ``start``
    is the world position of the segment's start node.
    """
    wx, wy = start
    if direction == EAST:
        return [(wx + x, wy + y) for x, y in local]
    if direction == NORTH:
        return [(wx - y, wy + x) for x, y in local]
    if direction == WEST:
        return [(wx - x, wy - y) for x, y in local]
    if direction == SOUTH:
        return [(wx + y, wy - x) for x, y in local]
    raise ArgumentError("invalid direction code %r" % (direction,))


def _turn_indices(points: Sequence[Tuple[float, float]]) -> List[int]:
    """Indices of interior vertices where the polyline changes direction."""
    turns = []
    for i in range(1, len(points) - 1):
        ax = points[i][0] - points[i - 1][0]
        ay = points[i][1] - points[i - 1][1]
        bx = points[i + 1][0] - points[i][0]
        by = points[i + 1][1] - points[i][1]
        if (ax == 0.0 and ay == 0.0) or (bx == 0.0 and by == 0.0):
            continue
        cross = ax * by - ay * bx
        dot = ax * bx + ay * by
        if cross != 0.0 or dot < 0.0:
            turns.append(i)
    return turns


def render_svg(maze: MazeSpec,
               trajectory: Sequence[Tuple[float, float]]) -> str:
    """Render the maze plus one world-coordinate trajectory polyline."""
    xs = [n.position.x for n in maze.nodes] + [p[0] for p in trajectory]
    ys = [n.position.y for n in maze.nodes] + [p[1] for p in trajectory]
    min_x, max_x = min(xs), max(xs)
    min_y, max_y = min(ys), max(ys)

    def fx(x: float) -> str:
        return "%.3f" % (x,)

    def fy(y: float) -> str:
        return "%.3f" % (max_y - y,)

    width = max_x - min_x + 2 * _MARGIN
    height = max_y - min_y + 2 * _MARGIN
    out: List[str] = []
    out.append(
        '<svg xmlns="http://www.w3.org/2000/svg" viewBox="%s %s %s %s">'
        % (fx(min_x - _MARGIN), "%.3f" % (-_MARGIN,),
           "%.3f" % (width,), "%.3f" % (height,)))
    out.append('<g class="maze" stroke="black" stroke-width="0.3">')
    for edge in sorted(maze.edges, key=lambda e: (e.a, e.b)):
        a = maze.position(edge.a)
        b = maze.position(edge.b)
        out.append('<line x1="%s" y1="%s" x2="%s" y2="%s"/>'
                   % (fx(a.x), fy(a.y), fx(b.x), fy(b.y)))
    out.append('</g>')
    out.append('<g class="nodes" fill="white" stroke="black" stroke-width="0.2">')
    for node in sorted(maze.nodes, key=lambda n: n.id):
        p = node.position
        out.append('<circle class="node" cx="%s" cy="%s" r="0.8"/>'
                   % (fx(p.x), fy(p.y)))
    out.append('</g>')
    out.append('<g class="labels" font-size="2.5" fill="black" stroke="none">')
    for node in sorted(maze.nodes, key=lambda n: n.id):
        p = node.position
        # Ids may hold any non-space character but '#', so escape the
        # ones XML text reserves.
        label = (node.id.replace("&", "&amp;").replace("<", "&lt;")
                 .replace(">", "&gt;"))
        out.append('<text x="%s" y="%s">%s</text>'
                   % (fx(p.x + 1.0), fy(p.y + 1.0), label))
    out.append('</g>')
    if trajectory:
        pts = " ".join("%s,%s" % (fx(x), fy(y)) for x, y in trajectory)
        out.append('<polyline class="trajectory" points="%s" fill="none" '
                   'stroke="red" stroke-width="0.15"/>' % pts)
        out.append('<g class="turns" fill="red" stroke="none">')
        for i in _turn_indices(trajectory):
            x, y = trajectory[i]
            out.append('<circle class="turn" cx="%s" cy="%s" r="0.35"/>'
                       % (fx(x), fy(y)))
        out.append('</g>')
    out.append('</svg>')
    return "\n".join(out) + "\n"
