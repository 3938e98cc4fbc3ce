"""Ground-truth line mazes: axis-aligned planar graphs with start/end marks.

A maze is a set of named nodes (dead ends, turns, junctions) joined by
axis-aligned edges. Collinear edges may overlap geometrically: they model
separate physical lanes of tape laid along the same corridor, and edge
identity keeps them apart. Perpendicular edges may only meet at a node
they share; any other crossing or touch must be modeled as a junction.
"""

import math
from bisect import bisect_left, bisect_right
from functools import cached_property
from importlib import resources
from itertools import accumulate
from typing import NamedTuple, Tuple

from ._directions import EAST, NORTH, SOUTH, WEST
from .errors import MazeSyntaxError, MazeValidationError

MAX_DEGREE = 4

# A slot names one exit of a node: (direction code, lane index). Lane
# indices count the exits that leave in one direction, nearest first.
Slot = Tuple[int, int]


class Point2D(NamedTuple):
    x: float
    y: float


class MazeNode(NamedTuple):
    id: str
    position: Point2D


class MazeEdge(NamedTuple):
    a: str
    b: str


class _MazeFields(NamedTuple):
    nodes: tuple
    edges: tuple
    start: str
    end: str


class MazeSpec(_MazeFields):
    # No __slots__: the cached properties below live in the instance dict,
    # which they fill directly, so no attribute can be assigned.
    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to MazeSpec.%s" % name)

    @cached_property
    def _by_id(self):
        return {n.id: n for n in self.nodes}

    @cached_property
    def branches(self):
        """Per node id, its exits: slot -> (neighbor id, length, back slot).

        Each node's dict runs in slot order. Lengths are the straight-line
        distance between the edge's endpoints, and the back slot is the
        same edge's slot at the neighbor. Built on first use, in one pass
        over the edges that checks each one as it indexes it: it raises
        MazeValidationError, with the validator's message, at the first
        edge with an unknown endpoint, a self-loop, a duplicate, a diagonal
        or zero-length span or a non-finite length.
        """
        return _index_edges(self)[0]

    def node(self, node_id):
        try:
            return self._by_id[node_id]
        except (KeyError, TypeError):  # TypeError: an unhashable id
            raise MazeValidationError("unknown node id %r" % (node_id,)) from None

    def position(self, node_id):
        return self.node(node_id).position


def _index_edges(maze):
    """``maze.branches``, with the lines that ``_check_crossings`` sweeps.

    One pass over the edges reads each one's end positions once, checks the
    edge and indexes it. Returns (branches, rows, vertical): per row y, its
    horizontal edges as (left x, right x, edge index, y), and every
    vertical edge as (x, low y, high y, edge index).
    """
    by_id = maze._by_id
    ends = {n.id: [] for n in maze.nodes}
    seen = set()
    rows, vertical = {}, []
    for k, edge in enumerate(maze.edges):
        if not isinstance(edge, MazeEdge):
            raise MazeValidationError("edge %r is not a MazeEdge" % (edge,))
        a, b = edge
        try:
            pa, pb = by_id[a].position, by_id[b].position
        except (KeyError, TypeError):  # an unknown or unhashable endpoint
            raise MazeValidationError(
                "edge %s-%s references an unknown node" % (a, b)) from None
        if a == b:
            raise MazeValidationError("edge %s-%s is a self-loop" % (a, b))
        key = (a, b) if a < b else (b, a)
        if key in seen:
            raise MazeValidationError("duplicate edge %s-%s" % (a, b))
        seen.add(key)
        (xa, ya), (xb, yb) = pa, pb
        # Exactly one axis may differ: not a diagonal, not zero-length.
        if (xa != xb) == (ya != yb):
            raise MazeValidationError("edge %s-%s not axis-aligned" % (a, b))
        length = math.hypot(xb - xa, yb - ya)
        if not math.isfinite(length):
            raise MazeValidationError(
                "edge %s-%s is too long: its length is not finite" % (a, b))
        if ya == yb:
            there, back = (EAST, WEST) if xb > xa else (WEST, EAST)
            rows.setdefault(ya, []).append(
                (xa, xb, k, ya) if xa < xb else (xb, xa, k, ya))
        else:
            there, back = (NORTH, SOUTH) if yb > ya else (SOUTH, NORTH)
            vertical.append((xa, ya, yb, k) if ya < yb else (xa, yb, ya, k))
        # Each end's sort key, and the edge's slot at a and at b.
        slots = [None, None]
        ends[a].append((there, length, xb, yb, b, slots, 0))
        ends[b].append((back, length, xa, ya, a, slots, 1))
    for out in ends.values():
        # Lanes of one direction run nearest first: by length, then by
        # the neighbor's coordinate, which no two exits of a node share.
        out.sort()
        prev = None
        for direction, _length, _x, _y, _other, slots, side in out:
            lane = lane + 1 if direction == prev else 0
            prev = direction
            slots[side] = (direction, lane)
    for node_id, out in ends.items():
        # Replacing each node's keys with its exits frees them as it goes.
        ends[node_id] = {slots[side]: (other, length, slots[1 - side])
                         for _d, length, _x, _y, other, slots, side in out}
    return ends, rows, vertical


def _validate(maze):
    nodes, start, end = maze.nodes, maze.start, maze.end
    by_id, coords = {}, {}  # one pass fills both; by_id finds duplicate ids
    shared = None  # the first two nodes at one point, raised after the pass
    for n in nodes:
        if not isinstance(n, MazeNode):
            raise MazeValidationError("node %r is not a MazeNode" % (n,))
        if not isinstance(n.id, str):
            raise MazeValidationError("node id %r is not a string" % (n.id,))
        # str.split() splits at exactly the characters str.isspace() accepts.
        if n.id.split() != [n.id]:
            raise MazeValidationError("node id %r is empty or contains whitespace" % n.id)
        if "#" in n.id:
            raise MazeValidationError(
                "node id %r contains '#', which starts a comment in the maze "
                "format" % n.id)
        if n.id in by_id:
            raise MazeValidationError("duplicate node id %r" % n.id)
        by_id[n.id] = n
        try:
            x, y = n.position.x, n.position.y
            finite = math.isfinite(x) and math.isfinite(y)
        except (AttributeError, TypeError):
            raise MazeValidationError("node %r position %r is not a Point2D "
                                      "of numbers" % (n.id, n.position)) from None
        if not finite:
            raise MazeValidationError("node %r has non-finite coordinates" % n.id)
        first = coords.setdefault((x, y), n.id)
        if first != n.id and shared is None:
            shared = "nodes %r and %r share coordinates %r" % (first, n.id, (x, y))
    if shared is not None:
        raise MazeValidationError(shared)
    maze.__dict__["_by_id"] = by_id  # fills the property's cache

    branches, rows, vertical = _index_edges(maze)  # checks every edge
    maze.__dict__["branches"] = branches  # fills the property's cache
    # Node ids are strings, so a start or end of another type is unknown.
    if not isinstance(start, str) or start not in by_id:
        raise MazeValidationError("start refers to unknown node %r" % (start,))
    if not isinstance(end, str) or end not in by_id:
        raise MazeValidationError("end refers to unknown node %r" % (end,))
    # The explorers walk coordinates as offsets from the start, so the span
    # between any two nodes must be finite too. coords holds every (x, y).
    for axis, values in zip("xy", zip(*coords)):
        if not math.isfinite(max(values) - min(values)):
            raise MazeValidationError(
                "the maze's extent along %s is not finite" % axis)

    # Degree-2 nodes must be turns; codes of one axis share their parity.
    # The first straight one is raised once every node's degree passes.
    straight = None
    for node_id, out in branches.items():
        degree = len(out)
        if degree == 0:
            raise MazeValidationError("node %r is isolated" % node_id)
        if degree > MAX_DEGREE:
            raise MazeValidationError(
                "node %r has degree %d > %d" % (node_id, degree, MAX_DEGREE))
        if degree == 2 and straight is None:
            (d1, _lane1), (d2, _lane2) = out
            if (d1 - d2) % 2 == 0:
                straight = node_id
    if straight is not None:
        raise MazeValidationError(
            "degree-2 node %r is collinear (not a turn)" % straight)

    _check_crossings(maze, coords, rows, vertical)

    # Connectivity.
    if nodes:
        stack = [nodes[0].id]
        reached = {nodes[0].id}
        while stack:
            cur = stack.pop()
            for other, _length, _back in branches[cur].values():
                if other not in reached:
                    reached.add(other)
                    stack.append(other)
        if len(reached) != len(nodes):
            raise MazeValidationError("maze is not connected")


def _check_crossings(maze, coords, rows, vertical):
    """Reject perpendicular contacts that the graph does not represent.

    Collinear overlap is always allowed: overlapping edges model parallel
    lanes along one corridor. A perpendicular intersection is allowed only
    at a node's coordinate, and an edge that merely passes that node (the
    node is not one of its endpoints) is a lane, legitimate only when the
    node really lies on a corridor of that axis, i.e. has an incident edge
    collinear with the passing edge.

    ``coords`` maps (x, y) to node id, and ``rows`` and ``vertical`` are
    the edges' lines as ``_index_edges`` returns them. A node's axes are
    those of its exits in ``maze.branches``: odd direction codes run
    east-west, even ones north-south.
    """
    edges = maze.edges

    # Horizontal edges by row (-0.0 and 0.0 share one), each row sorted by
    # left end beside the running maximum of its right ends. Each vertical
    # edge visits the rows in its y-range and, as lanes overlap, walks back
    # from its x while that maximum still reaches it. Of several offending
    # pairs, the one reported is the one an all-pairs loop in edge order
    # would meet first.
    ys = sorted(rows)
    index = []
    for y in ys:
        row = sorted(rows[y])
        index.append((row, [h[0] for h in row],
                      list(accumulate([h[1] for h in row], max))))
    first = None
    for vx, vy1, vy2, kv in vertical:
        for row, lefts, reach in index[bisect_left(ys, vy1):
                                       bisect_right(ys, vy2)]:
            j = bisect_right(lefts, vx) - 1
            while j >= 0 and reach[j] >= vx:
                hx1, hx2, kh, hy = row[j]
                j -= 1
                # An end of both edges is the node they share, as no two
                # nodes share coordinates.
                if hx2 < vx or ((hy == vy1 or hy == vy2)
                                and (vx == hx1 or vx == hx2)):
                    continue
                node_here = coords.get((vx, hy))
                if node_here is None or not all(
                        node_here in (edges[k].a, edges[k].b)
                        or any(d % 2 == parity
                               for d, _lane in maze.branches[node_here])
                        for k, parity in ((kh, 1), (kv, 0))):
                    pair = (min(kh, kv), max(kh, kv))
                    if first is None or pair < first[0]:
                        first = (pair, edges[kh], edges[kv], vx, hy)
    if first is not None:
        _pair, h_e, v_e, vx, hy = first
        raise MazeValidationError(
            "edges %s-%s and %s-%s cross at (%g, %g); crossings must be a junction node"
            % (h_e.a, h_e.b, v_e.a, v_e.b, vx, hy))


def make_maze(nodes, edges, start, end):
    """Build and validate a MazeSpec from node/edge sequences."""
    for name, records in (("nodes", nodes), ("edges", edges)):
        if not hasattr(records, "__iter__"):
            raise MazeValidationError("%s must be a sequence, got %r"
                                      % (name, records))
    maze = MazeSpec(tuple(nodes), tuple(edges), start, end)
    _validate(maze)
    return maze


# Per record kind: its token count and the fields its syntax error quotes.
_RECORDS = {"node": (4, "node <id> <x> <y>"), "edge": (3, "edge <a> <b>"),
            "start": (2, "start <id>"), "end": (2, "end <id>")}


def parse_maze(text):
    """Parse the line-oriented maze format into a validated MazeSpec.

    Records: `node <id> <x> <y>`, `edge <a> <b>`, `start <id>`, `end <id>`.
    `#` starts a comment; blank lines are ignored.
    """
    nodes = []
    edges = []
    marks = {}  # "start" and "end" -> node id
    new = tuple.__new__  # skips the records' Python-level __new__
    for lineno, raw in enumerate(text.splitlines(), start=1):
        # Most lines hold no comment, and testing for one is cheap.
        tokens = (raw[:raw.index("#")] if "#" in raw else raw).split()
        if not tokens:
            continue
        kind = tokens[0]
        try:
            count, fields = _RECORDS[kind]
        except KeyError:
            raise MazeSyntaxError(lineno, "unknown record type %r" % kind) from None
        if len(tokens) != count:
            raise MazeSyntaxError(lineno, "%s record needs: %s" % (kind, fields))
        if kind == "node":
            try:
                x, y = float(tokens[2]), float(tokens[3])
            except ValueError:
                line = raw.split("#", 1)[0].strip()
                raise MazeSyntaxError(lineno, "bad coordinate in %r" % line) from None
            nodes.append(new(MazeNode, (tokens[1], new(Point2D, (x, y)))))
        elif kind == "edge":
            edges.append(new(MazeEdge, (tokens[1], tokens[2])))
        elif kind in marks:
            raise MazeSyntaxError(lineno, "duplicate %s record" % kind)
        else:
            marks[kind] = tokens[1]
    for kind in ("start", "end"):
        if kind not in marks:
            raise MazeValidationError("missing %s record" % kind)
    return make_maze(nodes, edges, marks["start"], marks["end"])


def serialize_maze(maze):
    """Render a MazeSpec back to the text format; parse round-trips exactly."""
    lines = []
    for n in maze.nodes:
        lines.append("node %s %r %r" % (n.id, n.position.x, n.position.y))
    for e in maze.edges:
        lines.append("edge %s %s" % (e.a, e.b))
    lines.append("start %s" % maze.start)
    lines.append("end %s" % maze.end)
    return "\n".join(lines) + "\n"


def bundled_maze_text(name):
    """Text of a maze shipped with the package (e.g. 'fig2.maze')."""
    if not isinstance(name, str):
        raise MazeValidationError("no bundled maze named %r" % (name,))
    if not name.endswith(".maze"):
        name += ".maze"
    ref = resources.files("linemaze").joinpath("data", name)
    if not ref.is_file():
        raise MazeValidationError("no bundled maze named %r" % name)
    return ref.read_text(encoding="utf-8")
