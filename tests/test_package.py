"""The package's exports: every listed name resolves, once, and retired
names stay retired. Its records stay immutable and checked, and importing
the CLI stays cheap."""

import ast
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys

import pytest

import linemaze
from linemaze import (ArgumentError, CalibConstants, CalibrationError,
                      EncoderLog, JunctionTape, MazeEdge, MazeNode,
                      MotionParams, PathResult, Point2D, bundled_maze_text,
                      calibration_from_motion, parse_maze)

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
    ("graph_path", "export_graph"),
    ("mapping_explorer", "trace_lines"),
    ("graph_path", "MazeGraph"),
    ("motion_sim", "radius_from_ratio"),
    ("graph_path", "shortest_paths"),
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
    for owner, names in (
            (linemaze.MazeSpec, ("incident_edges", "exits", "edge_length",
                                 "edge_other", "edge_direction", "_incident",
                                 "degree")),
            (linemaze.EncoderLog, ("turn_count",)),
            (linemaze.ExplorationState(), ("trace",))):
        for name in names:
            assert not hasattr(owner, name), (owner, name)
    fields = linemaze.MotionParams._fields
    assert [f for f in fields if f == "seed"
            or f.startswith(("pivot_arc_", "pivot_lin_"))] == []
    seed = inspect.signature(linemaze.simulate_segment).parameters["seed"]
    assert seed.default is inspect.Parameter.empty
    chord = inspect.signature(linemaze.chord_from_arc).parameters
    assert list(chord) == ["s", "radius"]


def _unused_imports(source):
    """Names a module imports but neither reads nor lists in ``__all__``."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("name", ["linemaze"] + SUBMODULES)
def test_every_import_is_used(name):
    # No linter runs on this code, so a name left behind by a removal
    # would stay unnoticed; this is pyflakes' unused-import rule.
    source = inspect.getsource(importlib.import_module(name))
    assert _unused_imports(source) == []


def test_the_unused_import_check_sees_what_it_should():
    assert _unused_imports(
        "from __future__ import annotations\n"
        "import os.path\nimport sys as system\n"
        "from typing import Dict, List\nfrom .x import y\n"
        "__all__ = ['y']\n"
        "def f(a: Dict) -> None:\n    return os.path.join(a)\n"
    ) == [(3, "system"), (4, "List")]


def test_importing_the_cli_loads_no_heavy_standard_modules():
    # dataclasses (with inspect, ast and dis) and statistics (with
    # fractions and decimal) cost most of a cold start, which every short
    # CLI call pays.
    src = os.path.dirname(os.path.dirname(linemaze.__file__))
    code = ("import sys; sys.path.insert(0, %r); before = set(sys.modules); "
            "import linemaze.cli; print(*sorted(set(sys.modules) - before))"
            % src)
    out = subprocess.run([sys.executable, "-I", "-c", code], check=True,
                         capture_output=True, text=True, timeout=60).stdout
    added = set(out.split())
    assert "linemaze.cli" in added
    assert added & {"dataclasses", "inspect", "statistics"} == set()


IMPORT_BUILDS_NO_PARSER = """\
import argparse, contextlib, io, sys
sys.path.insert(0, %r)
built = []
init = argparse.ArgumentParser.__init__
def counting(self, *args, **kwargs):
    built.append(kwargs.get("prog"))
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counting
import linemaze.cli
counts = [len(built)]
with contextlib.redirect_stdout(io.StringIO()):
    for _ in range(2):
        linemaze.cli.run(["solve", "--maze", "fig2"])
        counts.append(len(built))
print(*counts)
"""


def test_importing_the_cli_builds_no_parser():
    # The parser is built on the first run() call and shared by later
    # ones; building it at import would move its cost into every import.
    src = os.path.dirname(os.path.dirname(linemaze.__file__))
    out = subprocess.run(
        [sys.executable, "-I", "-c", IMPORT_BUILDS_NO_PARSER % src],
        check=True, capture_output=True, text=True, timeout=60).stdout
    # The main parser and one per subcommand, all on the first call.
    assert out.split() == ["0", "4", "4"]


RECORDS = [
    Point2D(1.0, 2.0), MazeNode("A", Point2D(0.0, 0.0)), MazeEdge("A", "B"),
    parse_maze(bundled_maze_text("fig2")), MotionParams(),
    EncoderLog(1.0, 1.0, 0, 0, 1.0),
    calibration_from_motion(MotionParams()),
    PathResult(["A"], 0.0),
    JunctionTape([3, 1]),
]
CACHED = ("branches", "_by_id", "_half_stretch")


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_records_refuse_assignment(record):
    # MazeSpec and CalibConstants keep their caches in an instance dict:
    # a filled cache, like a field or a new name, cannot be assigned.
    for name in CACHED:
        getattr(record, name, None)
    for name in record._fields + CACHED + ("extra",):
        with pytest.raises(AttributeError):
            setattr(record, name, None)


def test_every_way_of_building_motion_params_is_checked():
    good = MotionParams()
    bad = [-1.0] + list(good)[1:]
    for build in (lambda: MotionParams(-1.0), lambda: MotionParams(h=-1.0),
                  lambda: good._replace(h=-1.0),
                  lambda: MotionParams._make(bad)):
        with pytest.raises(ValueError, match="^h must be positive and finite$"):
            build()
    assert good._replace(h=0.2) == MotionParams(h=0.2)
    assert type(good._replace(h=0.2)) is MotionParams
    assert MotionParams._make(list(good)) == good


def test_every_way_of_building_calib_constants_is_checked():
    good = calibration_from_motion(MotionParams())
    bad = [2.0] + list(good)[1:]
    for build in (lambda: CalibConstants(*bad), lambda: good._replace(c=2.0),
                  lambda: CalibConstants._make(bad)):
        with pytest.raises(CalibrationError,
                           match=r"^c must lie in \(0, 1\], got 2\.0$"):
            build()
    assert type(good._replace(k=0.0)) is CalibConstants
    assert CalibConstants._make(list(good)) == good


@pytest.mark.parametrize("field, bad", [
    ("n_right", -5), ("n_right", 1.5), ("n_left", -5), ("n_left", 1.5)])
def test_every_way_of_building_an_encoder_log_is_checked(field, bad):
    # A hand-built log's pivot counts are non-negative integers; the
    # estimators would otherwise read any number as a count.
    good = EncoderLog(10.2, 10.3, 0, 0, 10.0)
    values = [bad if f == field else v for f, v in zip(good._fields, good)]
    for build in (lambda: EncoderLog(*values),
                  lambda: EncoderLog(**dict(zip(good._fields, values))),
                  lambda: good._replace(**{field: bad}),
                  lambda: EncoderLog._make(values)):
        with pytest.raises(ArgumentError) as err:
            build()
        assert str(err.value) == \
            "%s must be a non-negative integer, got %r" % (field, bad)
    assert type(good._replace(n_left=3)) is EncoderLog
    assert EncoderLog._make(list(good)) == good


@pytest.mark.parametrize("cls, good", [
    (MotionParams, MotionParams()),
    (CalibConstants, calibration_from_motion(MotionParams())),
    (EncoderLog, EncoderLog(1.0, 1.0, 0, 0, 1.0)),
], ids=["MotionParams", "CalibConstants", "EncoderLog"])
def test_make_refuses_a_wrong_length(cls, good):
    # As a plain named tuple's _make does, with its message; MotionParams
    # would otherwise fill the missing fields with their defaults.
    n = len(cls._fields)
    for values in (list(good)[:1], list(good) + [1.0]):
        with pytest.raises(TypeError) as err:
            cls._make(values)
        assert str(err.value) == "Expected %d arguments, got %d" % (
            n, len(values))
    with pytest.raises(TypeError, match="^Expected %d arguments, got 0$" % n):
        cls._make(iter(()))


def test_record_reprs():
    assert repr(Point2D(1.0, -2.5)) == "Point2D(x=1.0, y=-2.5)"
    assert repr(MazeNode("A", Point2D(0.0, 3.0))) == (
        "MazeNode(id='A', position=Point2D(x=0.0, y=3.0))")
    assert repr(MazeEdge("A", "B")) == "MazeEdge(a='A', b='B')"
    assert repr(PathResult(["A", "B"], 14.5)) == (
        "PathResult(nodes=['A', 'B'], length=14.5)")
