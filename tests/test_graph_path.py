"""Graphs from explorations and mazes; deterministic shortest paths."""

import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from linemaze.errors import (ExplorationError, GraphQueryError,
                             InconsistencyError)
from linemaze.graph_path import (PathResult, build_graph, dijkstra,
                                 graph_from_maze, shortest_paths)
from linemaze.mapping_explorer import (ExplorationState, explore_map,
                                       next_target)
from linemaze.maze_model import Point2D
from linemaze.mazegen import random_maze
from linemaze.odometry import ODOMETRY_MODES
from oracles import (brute_force_shortest, export_graph, graphs_isomorphic,
                     maze_graph, reference_too_diagonal, shifted,
                     visit_log_graph)
from test_explorer_fixture import NOISY_EVERY, SEEDS, _maze

FIG2_EXPORT = """\
A 0 10 : B,5 C,3 E,14 S,10
B -5 10 : A,5
C 0 13 : A,3 D,14
D 14 13 : C,14 E,3 G,3
E 14 10 : A,14 D,3 F,8
F 14 18 : E,8
G 14 16 : D,3
S 0 0 : A,10
"""


def graph_of(coords, adjacency):
    """A (coordinates, adjacency) pair, as the isomorphism oracle takes."""
    return ({k: Point2D(float(x), float(y)) for k, (x, y) in coords.items()},
            adjacency)


def state_of(visits, coords):
    """A hand-built state whose walked graph is read off the visit log."""
    st = ExplorationState()
    st.point = list(visits)
    st.coordinate = {k: Point2D(float(x), float(y))
                     for k, (x, y) in coords.items()}
    st.type_of = {k: 0 for k in coords}
    st.neighbors = {k: [] for k in coords}
    for a, b in zip(st.point, st.point[1:]):
        if b not in dict(st.neighbors[a]):
            ca, cb = st.coordinate[a], st.coordinate[b]
            w = math.hypot(cb.x - ca.x, cb.y - ca.y)
            st.neighbors[a].append((b, w))
            st.neighbors[b].append((a, w))
    return st


# ----------------------------------------------------------- construction

def test_graph_from_maze_fig2(fig2):
    g = graph_from_maze(fig2)
    assert sorted(g) == ["A", "B", "C", "D", "E", "F", "G", "S"]
    assert sum(map(len, g.values())) == 2 * 8
    # Slot order: east, north, west, south.
    assert g["A"] == [("E", 14.0), ("C", 3.0), ("B", 5.0), ("S", 10.0)]
    assert export_graph(maze_graph(fig2)) == FIG2_EXPORT


def test_build_graph_from_exploration(fig2):
    state = explore_map(fig2, src="ideal")
    g = build_graph(state)
    assert g is state.neighbors
    # First-walk order: 0 on arrival, then 2, 5 and 6 as they are walked.
    assert [nb for nb, _w in g["1"]] == ["0", "2", "5", "6"]
    assert sum(map(len, g.values())) == 2 * 8
    assert g == visit_log_graph(state)
    assert graphs_isomorphic((state.coordinate, g),
                             shifted(maze_graph(fig2), fig2.start))


def rejection(build, state):
    with pytest.raises(InconsistencyError) as info:
        build(state)
    return str(info.value)


def test_build_graph_equals_visit_log_graph_on_noisy_explorations():
    # The walked graph is the visit-log graph, weights bit for bit, under
    # every noisy odometry mode on the fixture's noisy seeds and on one
    # larger arc maze.
    mazes = [_maze(seed) for seed in SEEDS[::NOISY_EVERY]]
    runs = [(maze, mode) for maze in mazes for mode in ("raw", "basic", "arc")]
    runs.append((random_maze(random.Random(9115), max_nodes=400, loops=40,
                             leaf_ends=False), "arc"))
    for maze, mode in runs:
        state = explore_map(maze, src=mode)
        assert build_graph(state) == visit_log_graph(state), mode


def test_build_graph_rejects_consecutive_repeat():
    # A repeat in the visit log walks a self-edge: build_graph names the
    # walked graph it reads, the oracle the visit log it reads.
    st = state_of(["0", "0"], {"0": (0, 0)})
    assert "walked graph links '0' to itself" in rejection(build_graph, st)
    assert "visit log repeats '0' consecutively" in \
        rejection(visit_log_graph, st)


def test_build_graph_rejects_diagonal_delta():
    st = state_of(["0", "1"], {"0": (0, 0), "1": (3, 4)})
    msg = rejection(build_graph, st)
    assert "too diagonal" in msg
    assert msg == rejection(visit_log_graph, st)


def test_build_graph_tolerates_snapping_skew():
    st = state_of(["0", "1"], {"0": (0, 0), "1": (0.4, 10)})
    g = build_graph(st)
    assert sum(map(len, g.values())) == 2 * 1
    assert dict(g["0"])["1"] == pytest.approx(math.hypot(0.4, 10))
    assert g == visit_log_graph(st)


# Small deltas near the thresholds, huge ones whose difference overflows to
# inf, and any finite float.
_COORD = st.one_of(st.floats(-20.0, 20.0),
                   st.sampled_from((0.0, 0.5, 1.0, 2.0, 3.0, -1e308, 1e308)),
                   st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=400, deadline=None)
@example(ca=(0.0, 0.0), cb=(1.0, 1.5))  # one delta equals 1
@example(ca=(0.0, 0.0), cb=(1.5, 1.0))
@example(ca=(0.0, 0.0), cb=(2.0, 4.0))  # one delta is half the other
@example(ca=(0.0, 0.0), cb=(-4.0, 2.0))
@example(ca=(0.0, 0.0), cb=(2.0, 2.0))
@example(ca=(-1e308, 0.0), cb=(1e308, 3.0))  # one delta overflows to inf
@example(ca=(-1e308, -1e308), cb=(1e308, 1e308))  # both overflow
@given(ca=st.tuples(_COORD, _COORD), cb=st.tuples(_COORD, _COORD))
def test_build_graph_diagonal_check_matches_reference(ca, cb):
    state = state_of(["0", "1"], {"0": ca, "1": cb})
    try:
        got = build_graph(state)
    except InconsistencyError as exc:
        got = str(exc)
    diagonal = reference_too_diagonal(cb[0] - ca[0], cb[1] - ca[1])
    assert (isinstance(got, str) and "too diagonal" in got) == diagonal
    # Same message, or the same graph, as the oracle's old expression.
    try:
        want = visit_log_graph(state)
    except InconsistencyError as exc:
        want = str(exc)
    assert got == want


def test_build_graph_rejects_coincident_vertices():
    st = state_of(["0", "1"], {"0": (0, 0), "1": (0, 0)})
    msg = rejection(build_graph, st)
    assert "coincide" in msg
    assert msg == rejection(visit_log_graph, st)


# --------------------------------------------------------------- dijkstra

def test_shortest_path_fig2_truth(fig2):
    g = graph_from_maze(fig2)
    res = dijkstra(g, "S", "F")
    assert res.nodes == ["S", "A", "E", "F"]
    assert res.length == 32.0


def test_shortest_path_fig2_discovered(fig2):
    g = build_graph(explore_map(fig2, src="ideal"))
    res = dijkstra(g, "0", "7")
    assert res.nodes == ["0", "1", "2", "7"]
    assert res.length == 32.0
    assert brute_force_shortest(g, "0", "7") == res


def test_source_equals_target(fig2):
    g = graph_from_maze(fig2)
    assert dijkstra(g, "A", "A") == PathResult(["A"], 0.0)
    assert brute_force_shortest(g, "A", "A") == PathResult(["A"], 0.0)


@pytest.mark.parametrize("s,t", [("Q", "F"), ("S", "Q")])
def test_unknown_endpoints(fig2, s, t):
    g = graph_from_maze(fig2)
    with pytest.raises(GraphQueryError, match="unknown vertex"):
        dijkstra(g, s, t)
    with pytest.raises(GraphQueryError, match="unknown vertex"):
        brute_force_shortest(g, s, t)


def test_unhashable_endpoints_are_unknown_vertices(fig2):
    g = graph_from_maze(fig2)
    for s, t, message in [(["S"], "F", "unknown vertex ['S']"),
                          ("S", {"F"}, "unknown vertex {'F'}")]:
        with pytest.raises(GraphQueryError) as err:
            dijkstra(g, s, t)
        assert str(err.value) == message


def test_unreachable_target():
    g = {"a": [("b", 10.0)], "b": [("a", 10.0)],
         "c": [("d", 10.0)], "d": [("c", 10.0)]}
    with pytest.raises(GraphQueryError, match="no path"):
        dijkstra(g, "a", "c")
    with pytest.raises(GraphQueryError, match="no path"):
        brute_force_shortest(g, "a", "c")


def test_tie_breaks_lexicographically_diamond():
    g = {"s": [("a", 10.0), ("b", 10.0)],
         "a": [("s", 10.0), ("t", 10.0)],
         "b": [("s", 10.0), ("t", 10.0)],
         "t": [("a", 10.0), ("b", 10.0)]}
    res = dijkstra(g, "s", "t")
    assert res.nodes == ["s", "a", "t"]
    assert res == brute_force_shortest(g, "s", "t")


def test_tie_kept_when_the_winning_prefix_relaxes_second():
    # Two equal-cost routes reach nb; the lexicographically smaller one
    # arrives later in heap order, so it must not be pruned when it ties.
    g = {"s": [("a", 9.0), ("b", 1.0)],
         "a": [("s", 9.0), ("nb", 1.0)],
         "b": [("s", 1.0), ("nb", 9.0)],
         "nb": [("a", 1.0), ("b", 9.0), ("t", 5.0)],
         "t": [("nb", 5.0)]}
    res = dijkstra(g, "s", "t")
    assert res.nodes == ["s", "a", "nb", "t"]
    assert res == brute_force_shortest(g, "s", "t")


def test_brute_force_size_cap():
    g = {str(i): [] for i in range(13)}
    for i in range(12):
        g[str(i)].append((str(i + 1), 1.0))
        g[str(i + 1)].append((str(i), 1.0))
    with pytest.raises(GraphQueryError, match="limited to 12 vertices"):
        brute_force_shortest(g, "0", "12")


def test_dijkstra_matches_brute_force_on_random_mazes():
    for seed in range(200):
        rng = random.Random(1000 + seed)
        maze = random_maze(rng, max_nodes=12, loops=rng.randint(0, 3),
                           leaf_ends=False)
        g = graph_from_maze(maze)
        fast = dijkstra(g, maze.start, maze.end)
        slow = brute_force_shortest(g, maze.start, maze.end)
        assert fast.nodes == slow.nodes
        assert fast.length == slow.length  # bit-exact: same summation order


def test_length_symmetry_and_triangle_inequality():
    for seed in range(20):
        rng = random.Random(4000 + seed)
        maze = random_maze(rng, max_nodes=12, loops=rng.randint(0, 3),
                           leaf_ends=False)
        g = graph_from_maze(maze)
        names = sorted(g)
        s, t = maze.start, maze.end
        if s == t:
            continue
        # Reversed queries agree up to summation order.
        assert dijkstra(g, s, t).length == pytest.approx(
            dijkstra(g, t, s).length, abs=1e-9)
        for m in names:
            via = dijkstra(g, s, m).length + dijkstra(g, m, t).length
            assert dijkstra(g, s, t).length <= via + 1e-9


def _shuffled(adjacency, rng):
    """A copy of ``adjacency`` with every neighbor list in a random order."""
    out = {}
    for name, nbrs in adjacency.items():
        out[name] = list(nbrs)
        rng.shuffle(out[name])
    return out


def _arrival_state(state, k):
    """The explorer's routing inputs as they stood on arrival ``k``: the
    visit log up to it, and the edges walked so far in first-walk order."""
    part = ExplorationState()
    part.point = state.point[:k + 1]
    weight = {(a, b): w for a, nbrs in state.neighbors.items()
              for b, w in nbrs}
    for name in part.point:
        part.type_of[name] = state.type_of[name]
        part.neighbors[name] = []
    for a, b in zip(part.point, part.point[1:]):
        if (b, weight[a, b]) not in part.neighbors[a]:
            part.neighbors[a].append((b, weight[a, b]))
            part.neighbors[b].append((a, weight[a, b]))
    return part


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2 ** 32), order=st.integers(0, 2 ** 32))
def test_routing_ignores_neighbor_order(seed, order):
    # build_graph and graph_from_maze keep no sorted order, so every
    # answer drawn from a graph must be the same under any neighbor order.
    rng = random.Random(seed)
    maze = random_maze(rng, max_nodes=30, loops=rng.randint(0, 6),
                       leaf_ends=False)
    shuffle = random.Random(order)
    graphs = [(graph_from_maze(maze), None)]
    for mode in ODOMETRY_MODES:
        try:
            state = explore_map(maze, src=mode, seed=seed)
        except ExplorationError:
            continue  # too noisy for this maze: no walked graph to query
        graphs.append((build_graph(state), state))
    for adjacency, state in graphs:
        mixed = _shuffled(adjacency, shuffle)
        names = sorted(adjacency)
        for s in shuffle.sample(names, 3):
            assert list(shortest_paths(mixed, s)) == \
                list(shortest_paths(adjacency, s))
            t = shuffle.choice(names)
            assert dijkstra(mixed, s, t) == dijkstra(adjacency, s, t)
        if state is None:
            continue
        for k in range(0, len(state.point), 3):
            part = _arrival_state(state, k)
            route = next_target(part)
            part.neighbors = _shuffled(part.neighbors, shuffle)
            assert next_target(part) == route


# ------------------------------------------- isomorphism oracle (oracles.py)

def test_isomorphic_to_itself_and_to_discovery(fig2):
    truth = maze_graph(fig2)
    assert graphs_isomorphic(truth, truth)


def test_isomorphism_rejects_size_mismatch(fig2, fig1):
    assert not graphs_isomorphic(maze_graph(fig2), maze_graph(fig1))


def test_isomorphism_rejects_moved_vertex(fig2):
    coords, adjacency = truth = maze_graph(fig2)
    moved = graph_of(
        {k: ((c.x + 0.1) if k == "G" else c.x, c.y)
         for k, c in coords.items()},
        adjacency)
    assert not graphs_isomorphic(truth, moved)


def test_isomorphism_rejects_missing_edge():
    a = graph_of({"x": (0, 0), "y": (0, 10), "z": (10, 10)},
                 {"x": [("y", 10.0)], "y": [("x", 10.0), ("z", 10.0)],
                  "z": [("y", 10.0)]})
    b = graph_of({"p": (0, 0), "q": (0, 10), "r": (10, 10)},
                 {"p": [("q", 10.0)], "q": [("p", 10.0)], "r": []})
    assert not graphs_isomorphic(a, b)


def test_isomorphism_rejects_weight_mismatch():
    a = graph_of({"x": (0, 0), "y": (0, 10)},
                 {"x": [("y", 10.0)], "y": [("x", 10.0)]})
    b = graph_of({"p": (0, 0), "q": (0, 10)},
                 {"p": [("q", 10.5)], "q": [("p", 10.5)]})
    assert not graphs_isomorphic(a, b)


def test_isomorphism_tolerances():
    a = graph_of({"x": (0, 0), "y": (0, 10)},
                 {"x": [("y", 10.0)], "y": [("x", 10.0)]})
    b = graph_of({"p": (0, 1e-7), "q": (0, 10)},
                 {"p": [("q", 10.0 - 1e-10)], "q": [("p", 10.0 - 1e-10)]})
    assert graphs_isomorphic(a, b)
    assert not graphs_isomorphic(a, b, coord_tol=1e-9)
    assert not graphs_isomorphic(a, b, weight_tol=1e-12)
