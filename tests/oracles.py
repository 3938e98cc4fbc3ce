"""Reference implementations that the tests compare the package against.

- ``brute_force_shortest``: exhaustive simple-path search, the oracle for
  ``dijkstra`` on small graphs.
- ``maze_graph``: a maze's true graph paired with its node positions. The
  package's graphs are bare adjacency mappings; the oracles that compare
  or print them by coordinate take a (coordinates, adjacency) pair.
- ``graphs_isomorphic``: coordinate-matching graph comparison.
- ``shifted``: a graph moved so that one vertex sits at (0, 0), the frame of
  an exploration started there.
- ``visit_log_graph``: the adjacency of an exploration rebuilt from its
  visit log, the oracle for the walked graph that ``build_graph`` returns.
- ``trace_rows`` and ``trace_lines``: an exploration's per-arrival trace,
  rebuilt from its visit log, types and coordinates, and its text form.
  The explorer digests and the worked traces are written in them.
- ``export_graph``: a graph's stable text form, one vertex per line and
  each neighbor list sorted. The ideal explorer digests and the fig2 export
  golden are written in it.
- ``step_loop_integrate``: the motion kernel as one Euler step at a time,
  the oracle for ``motion_sim._integrate``'s leg jumps.
- ``fresh_heading``: the start-heading jitter as it was drawn before it was
  keyed by (seed, index), from a new ``random.Random(seed)``. The kernel
  and estimator digests run under it, so they pin only their own layer.
- ``reference_validate``: the maze validator as it was before it reused
  its coordinate map and the branch table for the crossing check, the
  oracle for ``make_maze``'s first error. It accepts ``#`` in node ids,
  which the package now rejects.
- ``reference_branches``: the branch table as it was built before the
  edge checks moved into it, in three passes over per-edge arrays, the
  oracle for ``MazeSpec.branches`` and its per-node order.
- ``reference_too_diagonal``: ``build_graph``'s diagonal test written with
  ``max``/``min``, the oracle for its comparison-only form.
- ``reference_random_maze``: the maze generator as it was before it kept
  one edge set, the oracle for ``mazegen.random_maze``'s mazes and random
  stream.
- ``reference_parse_maze``: the maze parser as it was before its record
  table, the oracle for ``parse_maze``'s specs and messages.
"""

import math
import random
from bisect import bisect_left, bisect_right
from math import cos, sin
from typing import Dict, List, Optional, Set, Tuple

from linemaze import motion_sim
from linemaze._directions import EAST, NORTH, SOUTH, WEST, reverse
from linemaze.errors import (GraphQueryError, InconsistencyError,
                             MazeSyntaxError, MazeValidationError)
from linemaze.graph_path import PathResult, graph_from_maze
from linemaze.maze_model import (MAX_DEGREE, MazeEdge, MazeNode, Point2D,
                                 make_maze)

# A graph with coordinates: (name -> Point2D, name -> [(neighbor, weight)]).
Graph = Tuple[Dict[str, Point2D], Dict[str, List[Tuple[str, float]]]]


def brute_force_shortest(adjacency, s: str, t: str) -> PathResult:
    """Exact shortest path by enumerating every simple path (|V| <= 12).

    Sums weights in path order exactly like ``dijkstra`` does, so results
    compare equal bit for bit, ties included.
    """
    if len(adjacency) > 12:
        raise GraphQueryError(
            "brute-force enumeration limited to 12 vertices, got %d"
            % len(adjacency))
    if s not in adjacency:
        raise GraphQueryError("unknown vertex %r" % (s,))
    if t not in adjacency:
        raise GraphQueryError("unknown vertex %r" % (t,))
    if s == t:
        return PathResult(nodes=[s], length=0.0)
    best: Optional[Tuple[float, Tuple[str, ...]]] = None

    def extend(path: Tuple[str, ...], length: float) -> None:
        nonlocal best
        node = path[-1]
        if node == t:
            cand = (length, path)
            if best is None or cand < best:
                best = cand
            return
        for nb, w in adjacency[node]:
            if nb not in path:
                extend(path + (nb,), length + w)

    extend((s,), 0.0)
    if best is None:
        raise GraphQueryError("no path from %r to %r" % (s, t))
    return PathResult(nodes=list(best[1]), length=best[0])


def maze_graph(maze) -> Graph:
    """A maze's ground truth as (node positions, ``graph_from_maze``)."""
    return {n.id: n.position for n in maze.nodes}, graph_from_maze(maze)


def graphs_isomorphic(a: Graph, b: Graph, coord_tol: float = 1e-6,
                      weight_tol: float = 1e-9) -> bool:
    """True when a coordinate-matching vertex bijection maps a onto b.

    Each graph is a (coordinates, adjacency) pair. Vertices pair up by
    Chebyshev-nearest coordinates within ``coord_tol`` (each vertex of one
    graph must claim exactly one of the other); the bijection must then
    carry every edge to an edge with the same weight within ``weight_tol``.
    """
    (coords_a, adj_a), (coords_b, adj_b) = a, b
    if len(coords_a) != len(coords_b):
        return False
    mapping: Dict[str, str] = {}
    claimed: Set[str] = set()
    for name, ca in coords_a.items():
        hits = [nb for nb, cb in coords_b.items()
                if max(abs(ca.x - cb.x), abs(ca.y - cb.y)) <= coord_tol]
        if len(hits) != 1 or hits[0] in claimed:
            return False
        mapping[name] = hits[0]
        claimed.add(hits[0])
    for name, nbrs in adj_a.items():
        image = {mapping[nb] for nb, _w in nbrs}
        target = {nb for nb, _w in adj_b[mapping[name]]}
        if image != target:
            return False
        weights_b = dict(adj_b[mapping[name]])
        for nb, w in nbrs:
            if abs(w - weights_b[mapping[nb]]) > weight_tol:
                return False
    return True


def shifted(g: Graph, origin: str) -> Graph:
    """``g`` with every coordinate moved so that ``origin`` is at (0, 0)."""
    coords, adjacency = g
    o = coords[origin]
    return ({k: Point2D(c.x - o.x, c.y - o.y) for k, c in coords.items()},
            adjacency)


def visit_log_graph(state) -> Dict[str, List[Tuple[str, float]]]:
    """Adjacency of an exploration rebuilt from its visit log.

    Two names are adjacent iff they appear consecutively in the log, and
    each edge weighs the coordinate distance between its endpoints. Each
    list runs in the order the log first walks its edges, as the explorer
    keeps it. It raises the same errors as ``build_graph``: a repeated
    name, a grossly diagonal delta, or coinciding endpoints.
    """
    coords = state.coordinate
    adj: Dict[str, List[Tuple[str, float]]] = {name: [] for name in coords}
    walked = set()
    for a, b in zip(state.point, state.point[1:]):
        if a == b:
            raise InconsistencyError(
                "visit log repeats %r consecutively; no traversal can do that"
                % (a,))
        ca, cb = coords[a], coords[b]
        if reference_too_diagonal(cb.x - ca.x, cb.y - ca.y):
            raise InconsistencyError(
                "coordinate delta %r -> %r is (%g, %g): too diagonal for a "
                "straight axis-aligned traversal; exploration state corrupt"
                % (a, b, cb.x - ca.x, cb.y - ca.y))
        if frozenset((a, b)) in walked:
            continue
        walked.add(frozenset((a, b)))
        w = math.hypot(cb.x - ca.x, cb.y - ca.y)
        if not w > 0.0:
            lo, hi = sorted((a, b))
            raise InconsistencyError(
                "vertices %r and %r coincide; cannot weight their edge"
                % (lo, hi))
        adj[a].append((b, w))
        adj[b].append((a, w))
    return adj


def trace_rows(state) -> List[Tuple[str, int, int, float, float]]:
    """One row per arrival: (name, type, explored, x, y).

    explored counts the distinct neighbors of the name among the walks up
    to that arrival, the one just walked included; the start, reached by no
    walk, counts 1.
    """
    walked: Dict[str, Set[str]] = {name: set() for name in state.type_of}
    rows = []
    for k, name in enumerate(state.point):
        if k:
            walked[name].add(state.point[k - 1])
            walked[state.point[k - 1]].add(name)
        c = state.coordinate[name]
        rows.append((name, state.type_of[name], max(1, len(walked[name])),
                     c.x, c.y))
    return rows


def trace_lines(rows) -> List[str]:
    """Trace rows as text, one line per arrival: name type explored x y."""
    return ["%s %d %d %g %g" % row for row in rows]


def export_graph(g: Graph) -> str:
    """Stable text form of a (coordinates, adjacency) pair, one vertex per
    line, neighbors sorted: ``name x y : neighbor,length ...``"""
    coords, adjacency = g
    lines = []
    for name in sorted(coords):
        c = coords[name]
        nbrs = " ".join("%s,%g" % nb for nb in sorted(adjacency[name]))
        lines.append("%s %g %g : %s" % (name, c.x, c.y, nbrs))
    return "\n".join(lines) + "\n"


def reference_too_diagonal(dx: float, dy: float) -> bool:
    """True when a coordinate delta is too diagonal for a straight walk:
    its smaller component exceeds both 1 cm and half the larger one."""
    major = max(abs(dx), abs(dy))
    minor = min(abs(dx), abs(dy))
    return minor > max(1.0, 0.5 * major)


def fresh_heading(alpha, seed, index=0):
    """Start heading drawn from a new ``random.Random(seed)``; the index is
    ignored. A drop-in for ``motion_sim._initial_heading``."""
    if alpha == 0.0:
        return 0.0
    rng = random.Random(seed)
    magnitude = alpha * rng.uniform(motion_sim.JITTER_LO, motion_sim.JITTER_HI)
    return magnitude if rng.random() < 0.5 else -magnitude


def step_loop_integrate(length, h, alpha0, theta, kappa, fl, fr,
                        rp_l, rp_r, lp_l, lp_r, step, max_steps):
    """Integrate one segment one step at a time; same contract as
    ``motion_sim._integrate``: returns (wl, wr, n_right, n_left, pivots, y,
    ok).

    length: along-track distance to cover.
    h: lateral deviation that triggers a corrective pivot.
    alpha0: signed initial heading (rad) relative to the line.
    theta: heading magnitude set by a pivot, pointing back at the line.
    kappa: curvature from the wheel-speed mismatch (rad/cm, +ccw).
    fl/fr: per-wheel path-length factors for midpoint travel.
    rp_*/lp_*: wheel-distance charges of a right/left pivot.
    """
    x = 0.0
    y = 0.0
    phi = alpha0
    wl = 0.0
    wr = 0.0
    n_right = 0
    n_left = 0
    pivots = []
    steps = 0
    while x < length:
        if steps >= max_steps:
            return wl, wr, n_right, n_left, pivots, y, False
        steps += 1
        c = cos(phi)
        if c <= 1e-12:
            return wl, wr, n_right, n_left, pivots, y, False
        remaining = length - x
        if step * c >= remaining:
            d = remaining / c
            x = length
            y += d * sin(phi)
            wl += d * fl
            wr += d * fr
            break
        d = step
        x += d * c
        y += d * sin(phi)
        wl += d * fl
        wr += d * fr
        phi += kappa * d
        if y >= h and phi > 0.0:
            phi = -theta
            wl += rp_l
            wr += rp_r
            n_right += 1
            pivots.append((x, y))
        elif y <= -h and phi < 0.0:
            phi = theta
            wl += lp_l
            wr += lp_r
            n_left += 1
            pivots.append((x, y))
    return wl, wr, n_right, n_left, pivots, y, True


def reference_validate(maze):
    """Raise ``make_maze``'s first MazeValidationError for ``maze``, as the
    validator did with its own coordinate map and per-node axis sets."""
    nodes, edges, start, end = maze.nodes, maze.edges, maze.start, maze.end
    seen = set()
    for n in nodes:
        if not n.id or any(c.isspace() for c in n.id):
            raise MazeValidationError("node id %r is empty or contains whitespace" % n.id)
        if n.id in seen:
            raise MazeValidationError("duplicate node id %r" % n.id)
        seen.add(n.id)
        if not (math.isfinite(n.position.x) and math.isfinite(n.position.y)):
            raise MazeValidationError("node %r has non-finite coordinates" % n.id)

    coords = {}
    for n in nodes:
        key = (n.position.x, n.position.y)
        if key in coords:
            raise MazeValidationError(
                "nodes %r and %r share coordinates %r" % (coords[key], n.id, key))
        coords[key] = n.id

    by_id = {n.id: n for n in nodes}
    edge_keys = set()
    for e in edges:
        if e.a not in by_id or e.b not in by_id:
            raise MazeValidationError("edge %s-%s references an unknown node" % (e.a, e.b))
        if e.a == e.b:
            raise MazeValidationError("edge %s-%s is a self-loop" % (e.a, e.b))
        key = frozenset((e.a, e.b))
        if key in edge_keys:
            raise MazeValidationError("duplicate edge %s-%s" % (e.a, e.b))
        edge_keys.add(key)
        pa, pb = by_id[e.a].position, by_id[e.b].position
        if pa.x != pb.x and pa.y != pb.y:
            raise MazeValidationError("edge %s-%s not axis-aligned" % (e.a, e.b))
        if not math.isfinite(math.hypot(pb.x - pa.x, pb.y - pa.y)):
            raise MazeValidationError(
                "edge %s-%s is too long: its length is not finite" % (e.a, e.b))

    if start not in by_id:
        raise MazeValidationError("start refers to unknown node %r" % (start,))
    if end not in by_id:
        raise MazeValidationError("end refers to unknown node %r" % (end,))

    branches = maze.branches
    for n in nodes:
        degree = len(branches[n.id])
        if degree == 0:
            raise MazeValidationError("node %r is isolated" % n.id)
        if degree > MAX_DEGREE:
            raise MazeValidationError(
                "node %r has degree %d > %d" % (n.id, degree, MAX_DEGREE))

    for n in nodes:
        if len(branches[n.id]) != 2:
            continue
        (d1, _lane1), (d2, _lane2) = branches[n.id]
        if (d1 - d2) % 2 == 0:
            raise MazeValidationError(
                "degree-2 node %r is collinear (not a turn)" % n.id)

    reference_check_crossings(by_id, edges)

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


def reference_check_crossings(by_id, edges):
    """The crossing sweep with its own (x, y) -> id map and axis sets."""
    coords = {(n.position.x, n.position.y): n.id for n in by_id.values()}
    axes_at = {n.id: set() for n in by_id.values()}
    horizontal, vertical = [], []
    for k, e in enumerate(edges):
        pa, pb = by_id[e.a].position, by_id[e.b].position
        if pa.y == pb.y:
            axis = "h"
            horizontal.append((pa.y, min(pa.x, pb.x), max(pa.x, pb.x), k))
        else:
            axis = "v"
            vertical.append((pa.x, min(pa.y, pb.y), max(pa.y, pb.y), k))
        axes_at[e.a].add(axis)
        axes_at[e.b].add(axis)

    horizontal.sort()
    ys = [h[0] for h in horizontal]
    first = None
    for vx, vy1, vy2, kv in vertical:
        for hy, hx1, hx2, kh in horizontal[bisect_left(ys, vy1):
                                          bisect_right(ys, vy2)]:
            if not hx1 <= vx <= hx2:
                continue
            node_here = coords.get((vx, hy))
            ok = node_here is not None
            if ok:
                for k, axis in ((kh, "h"), (kv, "v")):
                    if node_here in (edges[k].a, edges[k].b):
                        continue
                    if axis not in axes_at[node_here]:
                        ok = False
            if not ok:
                pair = (min(kh, kv), max(kh, kv))
                if first is None or pair < first[0]:
                    first = (pair, edges[kh], edges[kv], vx, hy)
    if first is not None:
        _pair, h_e, v_e, vx, hy = first
        raise MazeValidationError(
            "edges %s-%s and %s-%s cross at (%g, %g); crossings must be a junction node"
            % (h_e.a, h_e.b, v_e.a, v_e.b, vx, hy))


def reference_branches(maze):
    """``MazeSpec.branches`` of a maze whose edges are known to be valid.

    Directions come from the dominant axis of each edge's a-to-b step, as
    the retired ``_directions.direction_between`` gave them.
    """
    by_id = {n.id: n for n in maze.nodes}
    edges = maze.edges
    heading = []
    lengths = []
    table = {n.id: [] for n in maze.nodes}
    for k, e in enumerate(edges):
        pa, pb = by_id[e.a].position, by_id[e.b].position
        dx, dy = pb.x - pa.x, pb.y - pa.y
        if abs(dx) >= abs(dy):
            heading.append(EAST if dx > 0 else WEST)
        else:
            heading.append(NORTH if dy > 0 else SOUTH)
        lengths.append(math.hypot(pb.x - pa.x, pb.y - pa.y))
        table[e.a].append(k)
        table[e.b].append(k)
    slot_a = [None] * len(edges)
    slot_b = [None] * len(edges)
    for node_id, ks in table.items():
        out = []
        for k in ks:
            e = edges[k]
            if e.a == node_id:
                q = by_id[e.b].position
                out.append((heading[k], lengths[k], q.x, q.y, e.b, k))
            else:
                q = by_id[e.a].position
                out.append((reverse(heading[k]), lengths[k], q.x, q.y,
                            e.a, k))
        out.sort()
        ks.clear()
        lanes = {}
        for direction, _length, _x, _y, _other, k in out:
            lane = lanes.get(direction, 0)
            lanes[direction] = lane + 1
            if edges[k].a == node_id:
                slot_a[k] = (direction, lane)
            else:
                slot_b[k] = (direction, lane)
            ks.append(k)
    for node_id, ks in table.items():
        exits = {}
        for k in ks:
            e = edges[k]
            if e.a == node_id:
                exits[slot_a[k]] = (e.b, lengths[k], slot_b[k])
            else:
                exits[slot_b[k]] = (e.a, lengths[k], slot_a[k])
        table[node_id] = exits
    return table


_SPACINGS = (4.0, 6.0, 8.0, 11.0)


def reference_random_maze(rng, max_nodes=50, loops=0, leaf_ends=True):
    """``mazegen.random_maze`` with a tree-edge set beside its loop-edge
    copy, deduplicated loop candidates, a ``seen`` set of emitted edges and
    degrees recounted from the edge list."""
    target = max(2, rng.randint(max(2, max_nodes // 2), max_nodes))
    side = max(2, int(target ** 0.5) + 2)

    first = (rng.randrange(side), rng.randrange(side))
    cells = {first}
    tree_edges = set()
    frontier = [(first, nb) for nb in _reference_grid_neighbors(first, side)]
    while frontier and len(cells) < target:
        idx = rng.randrange(len(frontier))
        frontier[idx], frontier[-1] = frontier[-1], frontier[idx]
        src, dst = frontier.pop()
        if dst in cells:
            continue
        cells.add(dst)
        tree_edges.add(_reference_cell_edge(src, dst))
        for nb in _reference_grid_neighbors(dst, side):
            if nb not in cells:
                frontier.append((dst, nb))

    edges = set(tree_edges)
    if loops:
        candidates = []
        for cell in cells:
            for nb in _reference_grid_neighbors(cell, side):
                if nb in cells:
                    key = _reference_cell_edge(cell, nb)
                    if key not in edges:
                        candidates.append(key)
        candidates = sorted(set(candidates))
        rng.shuffle(candidates)
        edges.update(candidates[:loops])

    cols = sorted({c for c, _ in cells})
    rows = sorted({r for _, r in cells})
    xs = _reference_cumulative(rng, cols)
    ys = _reference_cumulative(rng, rows)

    adj = {cell: set() for cell in cells}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)

    for cell in list(adj):
        nbs = adj[cell]
        if len(nbs) != 2:
            continue
        n1, n2 = sorted(nbs)
        same_col = n1[0] == cell[0] == n2[0]
        same_row = n1[1] == cell[1] == n2[1]
        if not (same_col or same_row):
            continue
        adj[n1].discard(cell)
        adj[n2].discard(cell)
        adj[n1].add(n2)
        adj[n2].add(n1)
        del adj[cell]

    names = {cell: "p%d" % i for i, cell in enumerate(sorted(adj))}
    nodes = [MazeNode(names[cell], Point2D(xs[cell[0]], ys[cell[1]]))
             for cell in sorted(adj)]
    maze_edges = []
    seen = set()
    for cell in sorted(adj):
        for nb in sorted(adj[cell]):
            key = frozenset((cell, nb))
            if key in seen:
                continue
            seen.add(key)
            maze_edges.append(MazeEdge(names[cell], names[nb]))

    ids = [n.id for n in nodes]
    degree = {i: 0 for i in ids}
    for e in maze_edges:
        degree[e.a] += 1
        degree[e.b] += 1
    leaves = [i for i in ids if degree[i] == 1]
    pool = leaves if (leaf_ends and len(leaves) >= 2) else ids
    start, end = rng.sample(pool, 2)
    return make_maze(nodes, maze_edges, start, end)


def _reference_grid_neighbors(cell, side):
    c, r = cell
    out = []
    if c + 1 < side:
        out.append((c + 1, r))
    if c > 0:
        out.append((c - 1, r))
    if r + 1 < side:
        out.append((c, r + 1))
    if r > 0:
        out.append((c, r - 1))
    return out


def _reference_cell_edge(a, b):
    return (a, b) if a <= b else (b, a)


def _reference_cumulative(rng, indices):
    pos = {}
    total = 0.0
    prev = None
    for idx in indices:
        if prev is None:
            total = 0.0
        else:
            total += rng.choice(_SPACINGS) * (idx - prev)
        pos[idx] = total
        prev = idx
    return pos


def reference_parse_maze(text):
    """``parse_maze`` with one token-count check per record kind and
    separate start and end variables."""
    nodes = []
    edges = []
    start = None
    end = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        kind = tokens[0]
        if kind == "node":
            if len(tokens) != 4:
                raise MazeSyntaxError(lineno, "node record needs: node <id> <x> <y>")
            try:
                x, y = float(tokens[2]), float(tokens[3])
            except ValueError:
                raise MazeSyntaxError(lineno, "bad coordinate in %r" % line) from None
            nodes.append(MazeNode(tokens[1], Point2D(x, y)))
        elif kind == "edge":
            if len(tokens) != 3:
                raise MazeSyntaxError(lineno, "edge record needs: edge <a> <b>")
            edges.append(MazeEdge(tokens[1], tokens[2]))
        elif kind == "start":
            if len(tokens) != 2:
                raise MazeSyntaxError(lineno, "start record needs: start <id>")
            if start is not None:
                raise MazeSyntaxError(lineno, "duplicate start record")
            start = tokens[1]
        elif kind == "end":
            if len(tokens) != 2:
                raise MazeSyntaxError(lineno, "end record needs: end <id>")
            if end is not None:
                raise MazeSyntaxError(lineno, "duplicate end record")
            end = tokens[1]
        else:
            raise MazeSyntaxError(lineno, "unknown record type %r" % kind)
    if start is None:
        raise MazeValidationError("missing start record")
    if end is None:
        raise MazeValidationError("missing end record")
    return make_maze(nodes, edges, start, end)
