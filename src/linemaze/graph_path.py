"""Adjacency-list graphs over discovered (or true) mazes, plus shortest paths.

``build_graph`` turns a mapping exploration's visit log into a weighted
graph: two names are adjacent iff they ever appear consecutively in the log,
and each edge weighs the coordinate distance between its endpoints.
``shortest_paths`` is the package's one shortest-path routine: a Dijkstra
search in which equal-length paths resolve to the lexicographically smallest
node sequence. ``dijkstra`` answers s→t queries with it, and the mapping
explorer routes to its next target with it, so both share one tie-break;
``brute_force_shortest`` is an exhaustive oracle for small graphs that
accumulates weights in the same order, so equality checks are exact.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import (Dict, FrozenSet, Iterable, Iterator, List, Mapping,
                    Optional, Sequence, Set, Tuple)

from .errors import GraphQueryError, InconsistencyError
from .maze_model import MazeSpec, Point2D

__all__ = [
    "MazeGraph",
    "PathResult",
    "build_graph",
    "graph_from_maze",
    "shortest_paths",
    "dijkstra",
    "brute_force_shortest",
    "graphs_isomorphic",
    "export_graph",
]


@dataclass(frozen=True)
class MazeGraph:
    """Undirected graph with coordinates and symmetric weighted adjacency."""

    coordinates: Dict[str, Point2D]
    adjacency: Dict[str, Tuple[Tuple[str, float], ...]]

    def vertices(self) -> List[str]:
        return sorted(self.coordinates)

    def neighbors(self, name: str) -> Tuple[Tuple[str, float], ...]:
        try:
            return self.adjacency[name]
        except KeyError:
            raise GraphQueryError("unknown vertex %r" % (name,)) from None

    def edge_count(self) -> int:
        return sum(len(v) for v in self.adjacency.values()) // 2


@dataclass(frozen=True)
class PathResult:
    """A path as an ordered vertex list plus its total length in cm."""

    nodes: List[str]
    length: float


def _assemble(coords: Dict[str, Point2D],
              pairs: Iterable[FrozenSet[str]]) -> MazeGraph:
    adj: Dict[str, List[Tuple[str, float]]] = {name: [] for name in coords}
    for pair in sorted(pairs, key=sorted):
        a, b = sorted(pair)
        ca, cb = coords[a], coords[b]
        w = math.hypot(cb.x - ca.x, cb.y - ca.y)
        if not w > 0.0:
            raise InconsistencyError(
                "vertices %r and %r coincide; cannot weight their edge" % (a, b))
        adj[a].append((b, w))
        adj[b].append((a, w))
    return MazeGraph(coordinates=dict(coords),
                     adjacency={k: tuple(sorted(v)) for k, v in adj.items()})


def build_graph(state) -> MazeGraph:
    """Graph of a finished exploration: visit-log pairs become edges.

    Every consecutive pair of names in the visit log was one physical
    traversal, so it becomes an edge weighted by the stored coordinates.
    A pair whose coordinate delta is grossly diagonal cannot come from a
    straight axis-aligned walk and flags a corrupt state; mild skew is
    tolerated because coordinate snapping under noisy odometry bends
    deltas slightly off-axis.
    """
    pairs: Set[FrozenSet[str]] = set()
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
        pairs.add(frozenset((a, b)))
    return _assemble(state.coordinate, pairs)


def graph_from_maze(maze: MazeSpec, origin: Optional[str] = None) -> MazeGraph:
    """Ground-truth graph of a maze; ``origin`` (a node id) shifts that node
    to (0, 0) so the result is frame-compatible with an exploration's graph."""
    ox = oy = 0.0
    if origin is not None:
        o = maze.position(origin)
        ox, oy = o.x, o.y
    coords = {n.id: Point2D(n.position.x - ox, n.position.y - oy)
              for n in maze.nodes}
    pairs = {frozenset((e.a, e.b)) for e in maze.edges}
    return _assemble(coords, pairs)


def shortest_paths(adjacency: Mapping[str, Sequence[Tuple[str, float]]],
                   s: str) -> Iterator[Tuple[float, Tuple[str, ...]]]:
    """Yield ``(length, path)`` once per vertex reachable from ``s``.

    Yields come in ``(length, path)`` order, starting with ``(0.0, (s,))``;
    each path is the lexicographically smallest of the shortest paths to its
    last vertex. ``adjacency`` maps a vertex to ``(neighbor, weight)`` pairs
    with positive weights. Lengths are summed in path order.
    """
    # Heap entries carry the whole path: ordering by (length, path) pops
    # equal-length candidates lexicographically, and any prefix of a
    # shortest path is itself shortest (positive weights), so the first
    # arrival at a vertex is its answer.
    heap: List[Tuple[float, Tuple[str, ...]]] = [(0.0, (s,))]
    best: Dict[str, float] = {s: 0.0}
    seen: Set[str] = set()
    while heap:
        d, path = heapq.heappop(heap)
        node = path[-1]
        if node in seen:
            continue
        seen.add(node)
        yield d, path
        for nb, w in adjacency[node]:
            if nb in seen:
                continue
            nd = d + w
            # Keep equal-length alternatives: the lexicographic winner may
            # run through a prefix that pops later.
            if nb not in best or nd <= best[nb]:
                best[nb] = nd
                heapq.heappush(heap, (nd, path + (nb,)))


def dijkstra(g: MazeGraph, s: str, t: str) -> PathResult:
    """Shortest s→t path; equal-length paths resolve to the
    lexicographically smallest node sequence.

    Raises GraphQueryError for unknown vertices or an unreachable target.
    """
    if s not in g.coordinates:
        raise GraphQueryError("unknown vertex %r" % (s,))
    if t not in g.coordinates:
        raise GraphQueryError("unknown vertex %r" % (t,))
    for length, path in shortest_paths(g.adjacency, s):
        if path[-1] == t:
            return PathResult(nodes=list(path), length=length)
    raise GraphQueryError("no path from %r to %r" % (s, t))


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
        image = {(mapping[nb], ) for nb, _w in nbrs}
        target = {(nb, ) for nb, _w in b.adjacency[mapping[name]]}
        if image != target:
            return False
        weights_b = dict(b.adjacency[mapping[name]])
        for nb, w in nbrs:
            if abs(w - weights_b[mapping[nb]]) > weight_tol:
                return False
    return True


def export_graph(g: MazeGraph) -> str:
    """Stable text form, one vertex per line: ``name x y : neighbor,length ...``"""
    lines = []
    for name in g.vertices():
        c = g.coordinates[name]
        nbrs = " ".join("%s,%g" % (nb, w) for nb, w in g.adjacency[name])
        lines.append("%s %g %g : %s" % (name, c.x, c.y, nbrs))
    return "\n".join(lines) + "\n"
