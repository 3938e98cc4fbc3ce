"""Adjacency-list graphs over discovered (or true) mazes, plus shortest paths.

``build_graph`` reads a mapping exploration's map: the walked graph the
explorer kept, each edge weighed by the coordinate distance between its
endpoints, checked once per edge and sorted. ``graph_from_maze`` builds the
same kind of graph from a maze's true positions. ``shortest_paths`` is the
package's one shortest-path routine: a Dijkstra search in which
equal-length paths resolve to the lexicographically smallest node sequence.
``dijkstra`` answers s→t queries with it, and the mapping explorer routes to
its next target with it, so both share one tie-break.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Sequence, Set, Tuple

from .errors import GraphQueryError, InconsistencyError
from .maze_model import MazeSpec, Point2D

__all__ = [
    "MazeGraph",
    "PathResult",
    "build_graph",
    "graph_from_maze",
    "shortest_paths",
    "dijkstra",
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


def build_graph(state) -> MazeGraph:
    """Graph of a finished exploration: the explorer's walked graph, sorted.

    Each point keeps its walked neighbors with the weights the explorer
    gave them; every point gets an entry, and each list is sorted. Each
    walked edge is checked once. A self-edge or a zero weight flags a
    corrupt state, and so does a grossly diagonal coordinate delta, which
    no straight axis-aligned walk can produce; mild skew is tolerated
    because coordinate snapping under noisy odometry bends deltas slightly
    off-axis.
    """
    coords = state.coordinate
    adjacency = {}
    for a in coords:
        nbrs = state.neighbors[a]
        for b, w in nbrs:
            if a == b:
                raise InconsistencyError(
                    "walked graph links %r to itself; no traversal can do "
                    "that" % (a,))
            if b < a:
                continue  # each edge is listed at both ends; check it once
            ca, cb = coords[a], coords[b]
            major = max(abs(cb.x - ca.x), abs(cb.y - ca.y))
            minor = min(abs(cb.x - ca.x), abs(cb.y - ca.y))
            if minor > max(1.0, 0.5 * major):
                raise InconsistencyError(
                    "coordinate delta %r -> %r is (%g, %g): too diagonal for "
                    "a straight axis-aligned traversal; exploration state "
                    "corrupt" % (a, b, cb.x - ca.x, cb.y - ca.y))
            if not w > 0.0:
                raise InconsistencyError(
                    "vertices %r and %r coincide; cannot weight their edge"
                    % (a, b))
        adjacency[a] = tuple(sorted(nbrs))
    return MazeGraph(coordinates=dict(coords), adjacency=adjacency)


def graph_from_maze(maze: MazeSpec) -> MazeGraph:
    """Ground-truth graph of a maze: node positions, edges weighed by length."""
    coords = {n.id: n.position for n in maze.nodes}
    adj: Dict[str, List[Tuple[str, float]]] = {name: [] for name in coords}
    for e in maze.edges:
        a, b = sorted((e.a, e.b))
        ca, cb = coords[a], coords[b]
        w = math.hypot(cb.x - ca.x, cb.y - ca.y)
        if not w > 0.0:
            raise InconsistencyError(
                "vertices %r and %r coincide; cannot weight their edge" % (a, b))
        adj[a].append((b, w))
        adj[b].append((a, w))
    return MazeGraph(coordinates=coords,
                     adjacency={k: tuple(sorted(v)) for k, v in adj.items()})


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


def export_graph(g: MazeGraph) -> str:
    """Stable text form, one vertex per line: ``name x y : neighbor,length ...``"""
    lines = []
    for name in g.vertices():
        c = g.coordinates[name]
        nbrs = " ".join("%s,%g" % (nb, w) for nb, w in g.adjacency[name])
        lines.append("%s %g %g : %s" % (name, c.x, c.y, nbrs))
    return "\n".join(lines) + "\n"
