"""Regression fixture: mapping explorations of seeded random mazes, as digests.

Each run is reduced to a SHA-256 digest and compared with
``explorer_digests.json`` next to this file.

- Noisy modes (raw, basic, arc) pin the visit log, the trace and the
  coordinates: measured lengths never tie exactly, so every route is forced.
- Ideal mode pins the map: names, types, coordinates, the exported graph and
  the order in which edges are first walked. Its visit log is left out,
  because integer spacings make equal-length routes common, and which of
  two tied routes the robot drives is a routing rule, not part of the map.

To re-record after a change that is meant to alter explorations:
``PYTHONPATH=src python tests/test_explorer_fixture.py > tests/explorer_digests.json``
"""

import hashlib
import json
import pathlib
import random

from linemaze.errors import ExplorationError
from linemaze.graph_path import build_graph, export_graph
from linemaze.mapping_explorer import explore_map
from linemaze.mazegen import random_maze

DIGESTS = pathlib.Path(__file__).with_name("explorer_digests.json")

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


def _coords(state):
    return sorted((n, c.x, c.y) for n, c in state.coordinate.items())


def _run(maze, mode):
    try:
        state = explore_map(maze, src=mode)
    except ExplorationError as exc:
        return _digest("error: %s" % exc)
    if mode == "ideal":
        return _digest((sorted(state.type_of.items()), _coords(state),
                        export_graph(build_graph(state)), _first_walks(state)))
    return _digest((state.point, state.trace, _coords(state)))


def record():
    out = {}
    for seed in SEEDS:
        maze = _maze(seed)
        modes = ("ideal", "raw", "basic", "arc") \
            if (seed - SEEDS[0]) % NOISY_EVERY == 0 else ("ideal",)
        for mode in modes:
            out["%s/%d" % (mode, seed)] = _run(maze, mode)
    for seed, (max_nodes, modes) in LARGE.items():
        maze = random_maze(random.Random(seed), max_nodes=max_nodes,
                           loops=max_nodes // 10, leaf_ends=False)
        for mode in modes:
            out["%s/%d" % (mode, seed)] = _run(maze, mode)
    return out


def test_explorations_match_recorded_digests():
    expected = json.loads(DIGESTS.read_text())
    got = record()
    assert sorted(got) == sorted(expected)
    changed = sorted(k for k in got if got[k] != expected[k])
    assert changed == []


if __name__ == "__main__":
    print(json.dumps(record(), indent=1, sort_keys=True))
