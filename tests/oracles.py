"""Reference implementations that the tests compare the package against.

- ``brute_force_shortest``: exhaustive simple-path search, the oracle for
  ``dijkstra`` on small graphs.
- ``graphs_isomorphic``: coordinate-matching graph comparison.
- ``shifted``: a graph moved so that one vertex sits at (0, 0), the frame of
  an exploration started there.
- ``visit_log_graph``: the graph of an exploration rebuilt from its visit
  log, the oracle for ``build_graph``'s view of the walked graph.
"""

import math
from typing import Dict, Optional, Set, Tuple

from linemaze.errors import GraphQueryError, InconsistencyError
from linemaze.graph_path import MazeGraph, PathResult
from linemaze.maze_model import Point2D


def brute_force_shortest(g: MazeGraph, s: str, t: str) -> PathResult:
    """Exact shortest path by enumerating every simple path (|V| <= 12).

    Sums weights in path order exactly like ``dijkstra`` does, so results
    compare equal bit for bit, ties included.
    """
    if len(g.coordinates) > 12:
        raise GraphQueryError(
            "brute-force enumeration limited to 12 vertices, got %d"
            % len(g.coordinates))
    if s not in g.coordinates:
        raise GraphQueryError("unknown vertex %r" % (s,))
    if t not in g.coordinates:
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
        for nb, w in g.adjacency[node]:
            if nb not in path:
                extend(path + (nb,), length + w)

    extend((s,), 0.0)
    if best is None:
        raise GraphQueryError("no path from %r to %r" % (s, t))
    return PathResult(nodes=list(best[1]), length=best[0])


def graphs_isomorphic(a: MazeGraph, b: MazeGraph, coord_tol: float = 1e-6,
                      weight_tol: float = 1e-9) -> bool:
    """True when a coordinate-matching vertex bijection maps a onto b.

    Vertices pair up by Chebyshev-nearest coordinates within ``coord_tol``
    (each vertex of one graph must claim exactly one of the other); the
    bijection must then carry every edge to an edge with the same weight
    within ``weight_tol``.
    """
    if len(a.coordinates) != len(b.coordinates):
        return False
    mapping: Dict[str, str] = {}
    claimed: Set[str] = set()
    for name, ca in a.coordinates.items():
        hits = [nb for nb, cb in b.coordinates.items()
                if max(abs(ca.x - cb.x), abs(ca.y - cb.y)) <= coord_tol]
        if len(hits) != 1 or hits[0] in claimed:
            return False
        mapping[name] = hits[0]
        claimed.add(hits[0])
    for name, nbrs in a.adjacency.items():
        image = {mapping[nb] for nb, _w in nbrs}
        target = {nb for nb, _w in b.adjacency[mapping[name]]}
        if image != target:
            return False
        weights_b = dict(b.adjacency[mapping[name]])
        for nb, w in nbrs:
            if abs(w - weights_b[mapping[nb]]) > weight_tol:
                return False
    return True


def shifted(g: MazeGraph, origin: str) -> MazeGraph:
    """``g`` with every coordinate moved so that ``origin`` is at (0, 0)."""
    o = g.coordinates[origin]
    return MazeGraph(
        coordinates={k: Point2D(c.x - o.x, c.y - o.y)
                     for k, c in g.coordinates.items()},
        adjacency=g.adjacency)


def visit_log_graph(state) -> MazeGraph:
    """Graph of an exploration rebuilt from its visit log.

    Two names are adjacent iff they appear consecutively in the log, and
    each edge weighs the coordinate distance between its endpoints. It
    raises the same errors as ``build_graph``: a repeated name, a grossly
    diagonal delta, or coinciding endpoints.
    """
    pairs = set()
    for a, b in zip(state.point, state.point[1:]):
        if a == b:
            raise InconsistencyError(
                "visit log repeats %r consecutively; no traversal can do that"
                % (a,))
        ca, cb = state.coordinate[a], state.coordinate[b]
        major = max(abs(cb.x - ca.x), abs(cb.y - ca.y))
        minor = min(abs(cb.x - ca.x), abs(cb.y - ca.y))
        if minor > max(1.0, 0.5 * major):
            raise InconsistencyError(
                "coordinate delta %r -> %r is (%g, %g): too diagonal for a "
                "straight axis-aligned traversal; exploration state corrupt"
                % (a, b, cb.x - ca.x, cb.y - ca.y))
        pairs.add(tuple(sorted((a, b))))
    coords = state.coordinate
    adj = {name: [] for name in coords}
    for a, b in sorted(pairs):
        ca, cb = coords[a], coords[b]
        w = math.hypot(cb.x - ca.x, cb.y - ca.y)
        if not w > 0.0:
            raise InconsistencyError(
                "vertices %r and %r coincide; cannot weight their edge" % (a, b))
        adj[a].append((b, w))
        adj[b].append((a, w))
    return MazeGraph(coordinates=dict(coords),
                     adjacency={k: tuple(sorted(v)) for k, v in adj.items()})
