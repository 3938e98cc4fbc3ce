"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single ``ACCEPTANCE n: PASS/FAIL`` line (visible with
``pytest -s`` or on failure) and enforces a wall-clock budget.
"""

import math
import random
import statistics
import time
from contextlib import contextmanager

from scipy.integrate import quad

from linemaze.graph_path import build_graph, dijkstra, graph_from_maze
from linemaze.mapping_explorer import explore_map, next_target
from linemaze.maze_model import Point2D
from linemaze.mazegen import random_maze, random_tree
from linemaze.motion_sim import MotionParams, simulate_segment
from linemaze.odometry import (arc_len_from_height, calibration_from_motion,
                               chord_from_arc, estimate_length)
from linemaze.simple_explorer import (PREF_RFLD, explore_simple, reduce_tape,
                                      replay)
from oracles import (brute_force_shortest, graphs_isomorphic, shifted,
                     visit_log_graph)


@contextmanager
def criterion(num, limit, detail):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {num}: FAIL — {detail}")
        raise
    elapsed = time.perf_counter() - start
    status = "PASS" if elapsed < limit else "FAIL"
    print(f"ACCEPTANCE {num}: {status} — {detail} [{elapsed:.2f}s, "
          f"limit {limit:g}s]")
    assert elapsed < limit, f"took {elapsed:.2f}s, limit {limit:g}s"


def test_acceptance_1_tape_golden(fig1):
    with criterion(1, 1.0, "right-first tape [3 1 1] replays to S A B C F"):
        tape = explore_simple(fig1, PREF_RFLD)
        assert tape.sums == [3, 1, 1]
        assert replay(fig1, reduce_tape(tape)) == ["S", "A", "B", "C", "F"]


def test_acceptance_2_mapping_golden(fig2):
    with criterion(2, 1.0, "mapping visit/type/coordinate table is exact "
                           "and the hub links to all four of its branches"):
        state = explore_map(fig2, src="ideal")
        # Discovered names in visit order; 0=S 1=A 2=E 3=D 4=G 5=C 6=B 7=F.
        assert state.point == ["0", "1", "2", "3", "4", "3",
                               "5", "1", "6", "1", "2", "7"]
        assert [state.type_of[n] for n in state.point] == [
            0, 3, 2, 2, 0, 2, 1, 3, 0, 3, 2, 0]
        coords = {n: (c.x, c.y) for n, c in state.coordinate.items()}
        assert coords == {
            "0": (0.0, 0.0), "1": (0.0, 10.0), "2": (14.0, 10.0),
            "3": (14.0, 13.0), "4": (14.0, 16.0), "5": (0.0, 13.0),
            "6": (-5.0, 10.0), "7": (14.0, 18.0),
        }
        graph = build_graph(state)
        assert sorted(n for n, _w in graph.neighbors("1")) == [
            "0", "2", "5", "6"]


def test_acceptance_3_shortest_path(fig2):
    with criterion(3, 1.0, "Dijkstra returns S A E F at 32.00, equal to "
                           "the exhaustive oracle"):
        graph = graph_from_maze(fig2)
        found = dijkstra(graph, "S", "F")
        oracle = brute_force_shortest(graph, "S", "F")
        assert list(found.nodes) == ["S", "A", "E", "F"]
        assert f"{found.length:.2f}" == "32.00"
        assert found.length == oracle.length
        assert list(found.nodes) == list(oracle.nodes)


def test_acceptance_4_measurement_bands():
    with criterion(4, 30.0, "median raw error in [1%, 3%], corrected "
                            "<= 0.5%, corrected beats raw on >= 95% of "
                            "seeds, lengths {10, 14, 8}"):
        params = MotionParams()
        cal = calibration_from_motion(params)
        for length in (10.0, 14.0, 8.0):
            raw_errs, corr_errs, corr_wins = [], [], 0
            for seed in range(100):
                log = simulate_segment(length, params, seed=seed)
                raw = estimate_length(log, cal, "raw")
                corr = estimate_length(log, cal, "arc")
                raw_errs.append(abs(raw - length) / length)
                corr_errs.append(abs(corr - length) / length)
                if corr_errs[-1] < raw_errs[-1]:
                    corr_wins += 1
            assert 0.01 <= statistics.median(raw_errs) <= 0.03
            assert statistics.median(corr_errs) <= 0.005
            assert corr_wins >= 95


def integrated_arc(height, radius):
    val, _ = quad(lambda x: math.sqrt(1.0 + x * x / (radius * radius - x * x)),
                  0.0, height, epsabs=0.0, epsrel=1e-12, limit=200)
    return val


def test_acceptance_5_arc_chord_numerics():
    with criterion(5, 10.0, "closed-form arc/chord match adaptive "
                            "integration to 1e-9 relative; chord <= arc"):
        for radius in (10.0, 100.0, 1000.0, 10000.0):
            for frac in (0.0, 0.05, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99):
                height = frac * radius
                if frac == 0.0:
                    assert arc_len_from_height(0.0, radius) == 0.0
                    assert chord_from_arc(0.0, radius) == 0.0
                    continue
                expected = integrated_arc(height, radius)
                arc = arc_len_from_height(height, radius)
                assert abs(arc - expected) / expected < 1e-9
                # Inverting through the chord must recover the height.
                back = chord_from_arc(expected, radius)
                assert abs(back - height) / height < 1e-9
                # The straight line between the endpoints never exceeds
                # the path along the curve.
                assert chord_from_arc(arc, radius) <= arc
                # Round trip through the other closed form.
                round_trip = arc_len_from_height(chord_from_arc(arc, radius),
                                                 radius)
                assert abs(round_trip - arc) / arc < 1e-9


def test_acceptance_6_oracle_equivalence():
    with criterion(6, 60.0, "dijkstra equals exhaustive search on 1000 "
                            "random mazes of <= 12 nodes"):
        for s in range(1000):
            rng = random.Random(1000 + s)
            maze = random_maze(rng, max_nodes=12, loops=rng.randint(0, 3),
                               leaf_ends=False)
            graph = graph_from_maze(maze)
            fast = dijkstra(graph, maze.start, maze.end)
            slow = brute_force_shortest(graph, maze.start, maze.end)
            assert list(fast.nodes) == list(slow.nodes)
            assert fast.length == slow.length


def test_acceptance_7_tree_equivalence():
    with criterion(7, 60.0, "tape replay equals mapping+Dijkstra on 200 "
                            "random trees of <= 50 nodes"):
        for s in range(200):
            rng = random.Random(2000 + s)
            maze = random_tree(rng, max_nodes=50)
            tape = explore_simple(maze, PREF_RFLD)
            ids = replay(maze, reduce_tape(tape))

            origin = maze.position(maze.start)
            want = [(maze.position(i).x - origin.x,
                     maze.position(i).y - origin.y) for i in ids]

            state = explore_map(maze)
            graph = build_graph(state)
            end_names = [n for n, c in state.coordinate.items()
                         if (c.x, c.y) == want[-1]]
            assert len(end_names) == 1
            found = dijkstra(graph, state.point[0], end_names[0])
            got = [(state.coordinate[n].x, state.coordinate[n].y)
                   for n in found.nodes]
            assert got == want


def test_acceptance_8_mapping_completeness():
    with criterion(8, 120.0, "200 loopy mazes of <= 100 nodes mapped "
                             "within 4|E| traversals, isomorphic to "
                             "ground truth"):
        for s in range(200):
            rng = random.Random(3000 + s)
            maze = random_maze(rng, max_nodes=100, loops=rng.randint(1, 8),
                               leaf_ends=False)
            state = explore_map(maze)
            traversals = len(state.point) - 1
            assert traversals <= 4 * len(maze.edges)
            graph = build_graph(state)
            assert graphs_isomorphic(
                graph, shifted(graph_from_maze(maze), maze.start))
            # The walked graph kept during exploration is the visit-log
            # graph, weights included, and it has nothing left to explore.
            assert graph == visit_log_graph(state)
            assert next_target(state) is None
            # node_of names each discovered point's maze node, one to one,
            # and ideal coordinates are the true positions seen from start.
            assert sorted(state.node_of) == sorted(state.type_of)
            assert sorted(state.node_of.values()) == sorted(
                n.id for n in maze.nodes)
            origin = maze.position(maze.start)
            for name, node in state.node_of.items():
                p = maze.position(node)
                assert state.coordinate[name] == Point2D(p.x - origin.x,
                                                         p.y - origin.y)
