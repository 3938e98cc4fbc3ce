"""The package's exports: every listed name resolves, once, and retired
names stay retired."""

import dataclasses
import importlib
import inspect
import pkgutil

import pytest

import linemaze

SUBMODULES = sorted("linemaze." + m.name
                    for m in pkgutil.iter_modules(linemaze.__path__))

# Names that left the package: (module, name). The test-only oracles now
# live in tests/oracles.py.
RETIRED = [
    ("graph_path", "brute_force_shortest"),
    ("graph_path", "graphs_isomorphic"),
    ("motion_sim", "simulate_free_arc"),
    ("_directions", "relative_of"),
    ("_directions", "ABS_NAMES"),
    ("odometry", "arc_len_from_height_chord_form"),
    ("_directions", "direction_between"),
]


def _exported(module):
    return getattr(module, "__all__", [])


@pytest.mark.parametrize("name", ["linemaze"] + SUBMODULES)
def test_every_exported_name_resolves_once(name):
    module = importlib.import_module(name)
    exported = _exported(module)
    assert [n for n in exported if not hasattr(module, n)] == []
    assert sorted(n for n in set(exported) if exported.count(n) > 1) == []


def test_retired_names_are_gone():
    for module_name, name in RETIRED:
        module = importlib.import_module("linemaze." + module_name)
        assert not hasattr(module, name), (module_name, name)
        assert name not in _exported(linemaze)
        for sub in SUBMODULES:
            assert name not in _exported(importlib.import_module(sub)), \
                (sub, name)
    for name in ("incident_edges", "exits", "edge_length", "edge_other",
                 "edge_direction", "_incident"):
        assert not hasattr(linemaze.MazeSpec, name), name
    fields = [f.name for f in dataclasses.fields(linemaze.MotionParams)]
    assert [f for f in fields if f == "seed"
            or f.startswith(("pivot_arc_", "pivot_lin_"))] == []
    seed = inspect.signature(linemaze.simulate_segment).parameters["seed"]
    assert seed.default is inspect.Parameter.empty
    chord = inspect.signature(linemaze.chord_from_arc).parameters
    assert list(chord) == ["s", "radius"]
