"""Regression fixture: mapping explorations of seeded random mazes, as digests.

Each run is reduced to SHA-256 digests, as ``digests.explorer_digests``
describes, and compared with the ``explorer/`` pins of ``pins.json``.

The noisy digests pin floats bit for bit, so they move with any rounding
change in the motion kernel. What must not move with one is checked apart
from them: every noisy exploration makes the same decisions under the
leg-jump kernel as under the step loop it replaced.
"""

import math

import pytest

from digests import explorer_digests, explorer_runs, pivots
from linemaze import motion_sim
from linemaze.mapping_explorer import explore_map
from oracles import step_loop_integrate
from pins import check


def test_explorations_match_recorded_digests():
    check("explorer", explorer_digests())


def _close(a, b):
    return math.isclose(a, b, rel_tol=0.0, abs_tol=1e-9)


def test_noisy_explorations_match_the_step_loop_kernel():
    # Same visit log, node_of, types and pivot counts under both kernels,
    # with coordinates and edge weights within 1e-9 cm. A trace row is read
    # off the visit log, the types and the coordinates, so it agrees too.
    noisy = [(key, maze, mode) for key, maze, mode in explorer_runs()
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
        assert pivots(jumped) == pivots(stepped), key
        assert all(_close(c.x, stepped.coordinate[n].x)
                   and _close(c.y, stepped.coordinate[n].y)
                   for n, c in jumped.coordinate.items()), key
        for n, nbrs in jumped.neighbors.items():
            assert [b for b, _w in nbrs] == \
                [b for b, _w in stepped.neighbors[n]], key
            assert all(_close(w, v) for (_b, w), (_c, v)
                       in zip(nbrs, stepped.neighbors[n])), key
