"""Adjacency-list graphs over discovered (or true) mazes, plus shortest paths.

A graph maps each vertex name to its ``(neighbor, weight)`` pairs, in any
order; coordinates stay in ``ExplorationState.coordinate`` and
``MazeSpec.position``. ``build_graph`` checks a mapping exploration's walked
graph once per edge and returns it; ``graph_from_maze`` gives a maze's true
edge lengths. ``nearest``, the package's one shortest-path routine, is a
Dijkstra search that stops at the nearest vertex a test accepts; equal-length
paths resolve to the lexicographically smallest node sequence. ``dijkstra``
answers s→t queries with it and the mapping explorer routes with it, so
both share one tie-break.
"""

from __future__ import annotations

import heapq
from typing import (Callable, Dict, List, Mapping, NamedTuple, Optional,
                    Sequence, Set, Tuple)

from .errors import GraphQueryError, InconsistencyError
from .maze_model import MazeSpec

__all__ = [
    "PathResult",
    "build_graph",
    "graph_from_maze",
    "nearest",
    "dijkstra",
]

Adjacency = Mapping[str, Sequence[Tuple[str, float]]]


class PathResult(NamedTuple):
    """A path as an ordered vertex list plus its total length in cm."""

    nodes: List[str]
    length: float


def build_graph(state) -> Dict[str, List[Tuple[str, float]]]:
    """Graph of a finished exploration: the explorer's walked graph itself.

    Returns ``state.neighbors``, each point's walked neighbors with the
    weights the explorer gave them, in the order their edges were first
    walked. Each walked edge is checked once. A self-edge or a zero weight
    flags a corrupt state, and so does a grossly diagonal coordinate delta,
    which no straight axis-aligned walk can produce; mild skew is tolerated
    because coordinate snapping under noisy odometry bends deltas slightly
    off-axis.
    """
    coords = state.coordinate
    for a, nbrs in state.neighbors.items():
        for b, w in nbrs:
            if a == b:
                raise InconsistencyError(
                    "walked graph links %r to itself; no traversal can do "
                    "that" % (a,))
            if b < a:
                continue  # each edge is listed at both ends; check it once
            (xa, ya), (xb, yb) = coords[a], coords[b]
            dx, dy = abs(xb - xa), abs(yb - ya)
            # Too diagonal: the smaller delta exceeds 1 and half the larger.
            if dx > 1.0 and dy > 1.0 and dx > 0.5 * dy and dy > 0.5 * dx:
                raise InconsistencyError(
                    "coordinate delta %r -> %r is (%g, %g): too diagonal for "
                    "a straight axis-aligned traversal; exploration state "
                    "corrupt" % (a, b, xb - xa, yb - ya))
            if not w > 0.0:
                raise InconsistencyError(
                    "vertices %r and %r coincide; cannot weight their edge"
                    % (a, b))
    return state.neighbors


def graph_from_maze(maze: MazeSpec) -> Dict[str, List[Tuple[str, float]]]:
    """Ground-truth graph of a maze: each node's exits, in slot order, as
    (neighbor, edge length) pairs."""
    return {node: [(other, length) for other, length, _back in out.values()]
            for node, out in maze.branches.items()}


def nearest(adjacency: Adjacency, s: str, is_target: Callable[[str], object]
            ) -> Optional[Tuple[float, Tuple[str, ...]]]:
    """``(length, path)`` from ``s`` to the nearest vertex that
    ``is_target`` accepts, the smallest name on equal length; None if none.

    The path is the lexicographically smallest shortest one, summed in path
    order. ``adjacency`` maps a vertex to ``(neighbor, weight)`` pairs with
    positive weights, in any order: the answer does not depend on it, as the
    heap orders entries by ``(length, path)`` and pushes each path at most
    once.
    """
    # Heap entries carry the whole path: ordering by (length, path) pops
    # equal-length candidates lexicographically, and any prefix of a
    # shortest path is itself shortest (positive weights), so the first
    # arrival at a vertex is its answer. Nothing is relaxed out of a target
    # or after one: every entry as short as the first target was pushed
    # before it popped, and the search only pops those to break the tie.
    heap: List[Tuple[float, Tuple[str, ...]]] = [(0.0, (s,))]
    best: Dict[str, float] = {s: 0.0}
    seen: Set[str] = set()
    found: Optional[Tuple[float, Tuple[str, ...]]] = None
    while heap and (found is None or heap[0][0] <= found[0]):
        d, path = heapq.heappop(heap)
        node = path[-1]
        if node in seen:
            continue
        seen.add(node)
        if is_target(node) and (found is None or node < found[1][-1]):
            found = (d, path)
        if found is not None:
            continue
        try:
            arcs = adjacency[node]
        except KeyError:
            raise GraphQueryError("vertex %r is a neighbor but has no entry "
                                  "of its own" % (node,)) from None
        for nb, w in arcs:
            if nb in seen:
                continue
            nd = d + w
            # Keep equal-length alternatives: the lexicographic winner may
            # run through a prefix that pops later.
            known = best.get(nb)
            if known is None or nd <= known:
                best[nb] = nd
                heapq.heappush(heap, (nd, path + (nb,)))
    return found


def dijkstra(adjacency: Adjacency, s: str, t: str) -> PathResult:
    """Shortest s→t path in ``adjacency``; equal-length paths resolve to the
    lexicographically smallest node sequence.

    Raises GraphQueryError for a vertex the graph does not list (an
    unhashable one included) or an unreachable target.
    """
    for v in (s, t):
        try:
            adjacency[v]
        except (KeyError, TypeError):
            raise GraphQueryError("unknown vertex %r" % (v,)) from None
    found = nearest(adjacency, s, lambda v: v == t)
    if found is None:
        raise GraphQueryError("no path from %r to %r" % (s, t))
    return PathResult(nodes=list(found[1]), length=found[0])
