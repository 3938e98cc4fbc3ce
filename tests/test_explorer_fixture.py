"""Regression fixture: mapping explorations of seeded random mazes, as digests.

Each run is reduced to a SHA-256 digest and compared with the
``explorer/`` pins of ``pins.json``.

- Noisy modes (raw, basic, arc) pin the visit log, the trace rows rebuilt
  from it by ``oracles.trace_rows``, and the coordinates: measured lengths
  never tie exactly, so every route is forced. Each noisy run has a second
  digest, under ``decisions/<mode>/<seed>``, of what the robot decided
  without the floats it measured: the visit log, ``node_of``, ``type_of``,
  the order in which edges are first walked, and the pivot counts of each
  first walk's encoder log. A change to an estimator that is meant to move
  the floats moves the first digest only; a moved decision shows up as a
  moved ``decisions/`` key.
- Ideal mode pins the map: names, types, coordinates, the graph in
  ``oracles.export_graph``'s text form and the order in which edges are
  first walked. Its visit log is left out, because integer spacings make
  equal-length routes common, and which of two tied routes the robot
  drives is a routing rule, not part of the map.

The noisy digests pin floats bit for bit, so they move with any rounding
change in the motion kernel. What must not move with one is checked apart
from them: every noisy exploration makes the same decisions under the
leg-jump kernel as under the step loop it replaced.
"""

import hashlib
import math
import random

import pytest

from linemaze import motion_sim
from linemaze.errors import ExplorationError
from linemaze.graph_path import build_graph
from linemaze.mapping_explorer import explore_map
from linemaze.mazegen import random_maze
from oracles import export_graph, step_loop_integrate, trace_rows
from pins import check

# 100 mazes of 20-164 grid cells; every fourth one dense with loops.
# Noisy modes run on every eighth maze to keep the pure-Python kernel cheap.
SEEDS = range(9000, 9100)
NOISY_EVERY = 8

# Larger loopy mazes, where point matching and the crossing check see many
# points and edges: seed -> (max_nodes, modes). Ideal runs on 791, 818,
# 1,420 and 1,419 nodes; arc runs on 198 and 196 nodes.
LARGE = {
    9112: (1600, ("ideal",)),
    9128: (1600, ("ideal",)),
    9100: (3200, ("ideal",)),
    9121: (3200, ("ideal",)),
    9115: (400, ("arc",)),
    9131: (400, ("arc",)),
}


def _maze(seed):
    i = seed - SEEDS[0]
    max_nodes = 20 + (i % 25) * 6
    loops = max_nodes // 2 if i % 4 == 3 else max_nodes // 10
    return random_maze(random.Random(seed), max_nodes=max_nodes, loops=loops,
                       leaf_ends=False)


def _digest(obj):
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def _first_walks(state):
    order = {}
    for pair in zip(state.point, state.point[1:]):
        order.setdefault(frozenset(pair), None)
    return [tuple(sorted(pair)) for pair in order]


def _pivots(state):
    """Each first walk's (n_right, n_left), in first-walk order."""
    return [(log.n_right, log.n_left) for log in state.logs.values()]


def _coords(state):
    return sorted((n, c.x, c.y) for n, c in state.coordinate.items())


def _run(key, maze, mode):
    """The run's digests, by key: one for an ideal run, two for a noisy one."""
    try:
        state = explore_map(maze, src=mode)
    except ExplorationError as exc:
        error = {key: _digest("error: %s" % exc)}
        if mode != "ideal":
            error["decisions/" + key] = _digest(type(exc).__name__)
        return error
    if mode == "ideal":
        graph = (state.coordinate, build_graph(state))
        return {key: _digest((sorted(state.type_of.items()), _coords(state),
                              export_graph(graph), _first_walks(state)))}
    return {key: _digest((state.point, trace_rows(state), _coords(state))),
            "decisions/" + key: _digest((
                state.point, sorted(state.node_of.items()),
                sorted(state.type_of.items()), _first_walks(state),
                _pivots(state)))}


def _runs():
    """Every fixture run as (key, maze, mode)."""
    for seed in SEEDS:
        maze = _maze(seed)
        modes = ("ideal", "raw", "basic", "arc") \
            if (seed - SEEDS[0]) % NOISY_EVERY == 0 else ("ideal",)
        for mode in modes:
            yield "%s/%d" % (mode, seed), maze, mode
    for seed, (max_nodes, modes) in LARGE.items():
        maze = random_maze(random.Random(seed), max_nodes=max_nodes,
                           loops=max_nodes // 10, leaf_ends=False)
        for mode in modes:
            yield "%s/%d" % (mode, seed), maze, mode


def record():
    digests = {}
    for key, maze, mode in _runs():
        digests.update(_run(key, maze, mode))
    return digests


def test_explorations_match_recorded_digests():
    check("explorer", record())


def _close(a, b):
    return math.isclose(a, b, rel_tol=0.0, abs_tol=1e-9)


def test_noisy_explorations_match_the_step_loop_kernel():
    # Same visit log, node_of, types and pivot counts under both kernels,
    # with coordinates and edge weights within 1e-9 cm. A trace row is read
    # off the visit log, the types and the coordinates, so it agrees too.
    noisy = [(key, maze, mode) for key, maze, mode in _runs()
             if mode != "ideal"]
    assert len(noisy) == 41
    for key, maze, mode in noisy:
        jumped = explore_map(maze, src=mode)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(motion_sim, "_integrate", step_loop_integrate)
            stepped = explore_map(maze, src=mode)
        assert jumped.point == stepped.point, key
        assert jumped.node_of == stepped.node_of, key
        assert jumped.type_of == stepped.type_of, key
        assert _pivots(jumped) == _pivots(stepped), key
        assert all(_close(c.x, stepped.coordinate[n].x)
                   and _close(c.y, stepped.coordinate[n].y)
                   for n, c in jumped.coordinate.items()), key
        for n, nbrs in jumped.neighbors.items():
            assert [b for b, _w in nbrs] == \
                [b for b, _w in stepped.neighbors[n]], key
            assert all(_close(w, v) for (_b, w), (_c, v)
                       in zip(nbrs, stepped.neighbors[n])), key
