"""Command-line interface: golden outputs, exit codes, determinism."""

import gc
import math
import random
import re
import statistics
import subprocess
import sys
import xml.etree.ElementTree as ET

import pytest

from linemaze import cli, mapping_explorer
from linemaze.cli import run
from linemaze.errors import GraphQueryError, InconsistencyError
from linemaze.mapping_explorer import explore_map
from linemaze.maze_model import parse_maze, serialize_maze
from linemaze.mazegen import random_maze
from linemaze.motion_sim import EncoderLog, MotionParams, simulate_segment
from linemaze.odometry import calibration_from_motion, estimate_length

SOLVE_FIG2_IDEAL = """\
maze: fig2
algorithm: map
odometry: ideal
nodes discovered: 8
path: S A E F
length: 32.00
segments:
  segment           true        raw  corrected
  S-A              10.00      10.00      10.00
  A-E              14.00      14.00      14.00
  E-F               8.00       8.00       8.00
"""

SOLVE_FIG2_TSV = """\
maze\tfig2
algorithm\tmap
odometry\tideal
nodes_discovered\t8
path\tS A E F
length\t32.00
segment\ttrue\traw\tcorrected
S-A\t10.00\t10.00\t10.00
A-E\t14.00\t14.00\t14.00
E-F\t8.00\t8.00\t8.00
"""

SOLVE_FIG1_SIMPLE = """\
maze: fig1
algorithm: simple
odometry: ideal
nodes discovered: 5
path: S A B C F
length: 32.00
tape: 3 1 1
segments:
  segment           true        raw  corrected
  S-A              10.00      10.00      10.00
  A-B               8.00       8.00       8.00
  B-C               6.00       6.00       6.00
  C-F               8.00       8.00       8.00
"""

SOLVE_CORRIDOR_SIMPLE = (
    "maze: corridor\n"
    "algorithm: simple\n"
    "odometry: ideal\n"
    "nodes discovered: 2\n"
    "path: S F\n"
    "length: 10.00\n"
    "tape: \n"  # the label keeps its separator even when the tape is empty
    "segments:\n"
    "  segment           true        raw  corrected\n"
    "  S-F              10.00      10.00      10.00\n"
)

SOLVE_FIG2_ARC = """\
maze: fig2
algorithm: map
odometry: arc
nodes discovered: 8
path: S A E F
length: 32.02
segments:
  segment           true        raw  corrected
  S-A              10.00      10.23      10.01
  A-E              14.00      14.32      14.01
  E-F               8.00       8.19       8.00
"""

TABLEONE_DEFAULT_20 = """\
  actual    encoder    formula    err_enc  err_formula
   10.00      10.23      10.01      2.34%        0.07%
   14.00      14.32      14.01      2.31%        0.07%
    8.00       8.19       8.01      2.32%        0.07%
"""

TABLEONE_IDEAL_1 = """\
  actual    encoder    formula    err_enc  err_formula
   10.00      10.00      10.00      0.00%        0.00%
"""

TABLEONE_TSV_SEED5 = """\
actual\tencoder\tformula\terr_enc_pct\terr_formula_pct
10.00\t10.2347\t10.0069\t2.3469\t0.0693
"""


def run_cli(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------- golden outputs

def test_solve_fig2_ideal_text(capsys):
    code, out, err = run_cli(capsys, "solve", "--maze", "fig2")
    assert code == 0
    assert out == SOLVE_FIG2_IDEAL
    assert re.fullmatch(r"duration: \d+\.\d{3} s\n", err)


def test_solve_fig2_ideal_tsv(capsys):
    code, out, _ = run_cli(capsys, "solve", "--maze", "fig2",
                           "--format", "tsv")
    assert code == 0
    assert out == SOLVE_FIG2_TSV


def test_solve_fig1_simple_with_tape(capsys):
    code, out, _ = run_cli(capsys, "solve", "--maze", "fig1",
                           "--algo", "simple", "--show-tape")
    assert code == 0
    assert out == SOLVE_FIG1_SIMPLE


def test_solve_corridor_simple_empty_tape(capsys):
    code, out, _ = run_cli(capsys, "solve", "--maze", "corridor",
                           "--algo", "simple", "--show-tape")
    assert code == 0
    assert out == SOLVE_CORRIDOR_SIMPLE


def test_solve_fig2_arc_seeded(capsys):
    code, out, _ = run_cli(capsys, "solve", "--maze", "fig2",
                           "--odometry", "arc", "--seed", "0")
    assert code == 0
    assert out == SOLVE_FIG2_ARC


def test_solve_left_preference_same_route(capsys):
    code, out, _ = run_cli(capsys, "solve", "--maze", "fig1",
                           "--algo", "simple", "--pref", "LFRD",
                           "--show-tape")
    assert code == 0
    assert "path: S A B C F" in out
    assert "tape: 3 5 5" in out


def test_solve_reads_a_maze_file(tmp_path, capsys):
    path = tmp_path / "two.maze"
    path.write_text("node S 0 0\nnode F 0 10\nedge S F\nstart S\nend F\n")
    code, out, _ = run_cli(capsys, "solve", "--maze", str(path))
    assert code == 0
    assert "maze: two" in out
    assert "path: S F" in out


def test_raw_solve_labels_the_path_with_maze_ids(tmp_path, capsys):
    # Raw encoders overshoot by about 2.3%, so the end point's measured
    # coordinate lies centimetres from its true one. The path is labelled
    # from the explorer's own record of which node each point is, so the
    # run succeeds and every hop is named and measured on the true maze.
    maze = random_maze(random.Random(146), max_nodes=39, loops=3,
                       leaf_ends=False)
    path = tmp_path / "raw146.maze"
    path.write_text(serialize_maze(maze))
    code, out, _ = run_cli(capsys, "solve", "--maze", str(path),
                           "--odometry", "raw", "--format", "tsv")
    assert code == 0
    lines = out.splitlines()
    labels = lines[4].split("\t")[1].split()
    assert labels[0] == maze.start and labels[-1] == maze.end
    edges = {frozenset((e.a, e.b)) for e in maze.edges}
    rows = [line.split("\t") for line in lines[lines.index(
        "segment\ttrue\traw\tcorrected") + 1:]]
    assert [r[0] for r in rows] == ["%s-%s" % hop
                                    for hop in zip(labels, labels[1:])]
    for (a, b), row in zip(zip(labels, labels[1:]), rows):
        assert frozenset((a, b)) in edges
        pa, pb = maze.position(a), maze.position(b)
        assert row[1] == "%.2f" % math.hypot(pb.x - pa.x, pb.y - pa.y)


def test_tableone_default_lengths(capsys):
    code, out, _ = run_cli(capsys, "tableone", "--seeds", "20")
    assert code == 0
    assert out == TABLEONE_DEFAULT_20


def test_tableone_ideal(capsys):
    code, out, _ = run_cli(capsys, "tableone", "--odometry", "ideal",
                           "--seeds", "1", "--lengths", "10")
    assert code == 0
    assert out == TABLEONE_IDEAL_1


def test_tableone_tsv(capsys):
    code, out, _ = run_cli(capsys, "tableone", "--seeds", "3",
                           "--lengths", "10", "--seed", "5",
                           "--format", "tsv")
    assert code == 0
    assert out == TABLEONE_TSV_SEED5


def spy_segments(monkeypatch):
    """Record the (length, seed, index) of every segment the CLI and the
    mapping explorer simulate."""
    calls = []

    def spy(length, params, seed, index=0):
        calls.append((length, seed, index))
        return simulate_segment(length, params, seed, index)

    for module in (cli, mapping_explorer):
        monkeypatch.setattr(module, "simulate_segment", spy)
    return calls


def test_tableone_keys_each_seed_at_index_zero(capsys, monkeypatch):
    # Seed s drives every length with jitter key (s, 0), so all lengths of
    # one seed share a start heading, and each row is the median over the
    # seeds of one call each.
    calls = spy_segments(monkeypatch)
    code, out, _ = run_cli(capsys, "tableone", "--seeds", "4", "--seed", "3",
                           "--lengths", "10", "14", "8", "--format", "tsv")
    assert code == 0
    assert sorted(calls) == sorted((length, s, 0) for s in range(3, 7)
                                   for length in (10.0, 14.0, 8.0))
    p = MotionParams()
    cal = calibration_from_motion(p)
    for line, length in zip(out.splitlines()[1:], (10.0, 14.0, 8.0)):
        logs = [simulate_segment(length, p, s, 0) for s in range(3, 7)]
        assert line.split("\t")[1:3] == [
            "%.4f" % statistics.median(estimate_length(log, cal, mode)
                                       for log in logs)
            for mode in ("raw", "arc")]


def test_ideal_solve_builds_no_generator(capsys, monkeypatch):
    # Ideal odometry walks and drives the true lengths: nothing is
    # simulated, in the explorer or in the hop table.
    calls = spy_segments(monkeypatch)
    code, out, _ = run_cli(capsys, "solve", "--maze", "fig2", "--seed", "3")
    assert code == 0
    assert out == SOLVE_FIG2_IDEAL
    assert calls == []
    code, _out, _ = run_cli(capsys, "solve", "--maze", "fig2", "--seed", "3",
                            "--odometry", "arc")
    assert code == 0
    # The explorer's walks are keyed (3, 1), (3, 2), ...; the report's
    # three hops (3, 0), (3, 1), (3, 2).
    walks = len(calls) - 3
    assert [c[1:] for c in calls] == \
        [(3, k) for k in range(1, walks + 1)] + [(3, i) for i in range(3)]


# ------------------------------------------------------- measurement bands

def tableone_rows(capsys, *extra):
    code, out, _ = run_cli(capsys, "tableone", "--format", "tsv", *extra)
    assert code == 0
    rows = [line.split("\t") for line in out.splitlines()[1:]]
    return {float(r[0]): (float(r[3]), float(r[4])) for r in rows}


def test_tableone_error_bands(capsys):
    rows = tableone_rows(capsys, "--seeds", "100")
    for _length, (err_enc, err_formula) in rows.items():
        assert 1.0 <= err_enc <= 3.0
        assert abs(err_formula) <= 0.5


def test_tableone_accuracy_does_not_degrade_with_length(capsys):
    # The correction error is per-turn, not per-centimeter: a 10x longer
    # run stays in the same per-mille band instead of scaling up. (The
    # boundary stretch is a hair straighter than the steady-state zigzag,
    # so the long-run error may sit a few thousandths of a percent higher;
    # it must not grow beyond that.)
    rows = tableone_rows(capsys, "--seeds", "100", "--lengths", "10", "100")
    err10 = abs(rows[10.0][1])
    err100 = abs(rows[100.0][1])
    assert err10 <= 0.1
    assert err100 <= 0.1
    assert err100 <= err10 + 0.02


def test_tableone_ideal_is_exact_at_extreme_lengths(capsys):
    # A perfect robot reads its length exactly, also where the sum of its
    # two wheel totals overflows (1e308) and where halving each total
    # before adding them would round to zero (5e-324).
    rows = tableone_rows(capsys, "--odometry", "ideal", "--seeds", "1",
                         "--lengths", "1e308", "5e-324")
    assert list(rows.values()) == [(0.0, 0.0), (0.0, 0.0)]


# -------------------------------------------------------------- exit codes

def test_unknown_bundled_maze(capsys):
    code, out, err = run_cli(capsys, "solve", "--maze", "nosuch")
    assert code == 1
    assert out == ""
    assert err == "error: no bundled maze named 'nosuch.maze'\n"


def test_invalid_maze_file(tmp_path, capsys):
    path = tmp_path / "bad.maze"
    path.write_text("node S 0 0\nnode F 3 10\nedge S F\nstart S\nend F\n")
    code, _, err = run_cli(capsys, "solve", "--maze", str(path))
    assert code == 1
    assert err == "error: edge S-F not axis-aligned\n"


def test_syntax_error_reports_line(tmp_path, capsys):
    path = tmp_path / "bad.maze"
    path.write_text("node S 0\n")
    code, _, err = run_cli(capsys, "solve", "--maze", str(path))
    assert code == 1
    assert err.startswith("error: line 1:")


def test_simple_explorer_on_lanes_is_exploration_failure(capsys):
    code, _, err = run_cli(capsys, "solve", "--maze", "fig2",
                           "--algo", "simple")
    assert code == 2
    assert err.startswith("error: ")
    assert "same direction" in err


def test_drift_detection_is_exploration_failure(capsys):
    code, _, err = run_cli(capsys, "solve", "--maze", "fig2",
                           "--odometry", "raw", "--tol", "0.001")
    assert code == 2
    assert "missed its stored coordinate" in err


def test_overmerge_is_exploration_failure(capsys):
    code, _, err = run_cli(capsys, "solve", "--maze", "fig2", "--tol", "4.0")
    assert code == 2
    assert "confused with known point" in err


def test_negative_tolerance_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "solve", "--maze", "fig2", "--tol", "-1")
    assert code == 1
    assert err.startswith("error: tol must be positive")


@pytest.mark.parametrize("tol,shown", [("-1", "-1.0"), ("nan", "nan"),
                                       ("inf", "inf")])
def test_tolerance_is_checked_for_the_tape_explorer_too(capsys, tol, shown):
    # The tape explorer matches no points, but a bad --tol is still bad.
    code, out, err = run_cli(capsys, "solve", "--maze", "fig1",
                             "--algo", "simple", "--tol", tol)
    assert code == 1
    assert out == ""
    assert err == "error: tol must be positive and finite, got %s\n" % shown


def test_infinite_tolerance_is_usage_error_for_the_mapping_explorer(capsys):
    # Without the finiteness check the map solve ran, matched its first
    # arrival to the start and reported that as odometry drift (exit 2).
    assert run_cli(capsys, "solve", "--maze", "fig1", "--tol", "inf") == (
        1, "", "error: tol must be positive and finite, got inf\n")


# Mapping from p3 walks round by p6, p8, p7 and p4 (points 1-4) before it
# first reaches p5, which sits 4 cm from both p6 and p4: at a tolerance of
# 4 cm its measured (8, -4) matches two known points.
AMBIGUOUS_MAZE = """\
node p0 0 0
node p1 12 0
node p2 12 4
node p3 12 8
node p4 20 0
node p5 20 4
node p6 20 8
node p7 26 0
node p8 26 8
edge p0 p1
edge p1 p2
edge p1 p4
edge p2 p3
edge p2 p5
edge p3 p6
edge p4 p5
edge p4 p7
edge p5 p6
edge p6 p8
edge p7 p8
start p3
end p0
"""


def test_ambiguous_point_match_is_exploration_failure(tmp_path, capsys):
    path = tmp_path / "ambiguous.maze"
    path.write_text(AMBIGUOUS_MAZE)
    code, out, err = run_cli(capsys, "solve", "--maze", str(path),
                             "--tol", "4")
    assert code == 2
    assert out == ""
    assert err == ("error: measured coordinate (8, -4) matches points 1, 4 "
                   "within tolerance 4; tolerance too large for this maze's "
                   "point spacing\n")
    code, out, _ = run_cli(capsys, "solve", "--maze", str(path),
                           "--tol", "3.9", "--format", "tsv")
    assert code == 0
    assert "path\tp3 p2 p1 p0\nlength\t20.00\n" in out


def test_four_way_start_left_by_its_last_exit_is_exploration_failure(
        tmp_path, capsys):
    path = tmp_path / "four.maze"
    path.write_text("node C 0 0\nnode N 0 5\nnode E 5 0\nnode W -5 0\n"
                    "node S 0 -5\nedge C N\nedge C E\nedge C W\nedge C S\n"
                    "start C\nend S\n")
    code, out, err = run_cli(capsys, "solve", "--maze", str(path),
                             "--algo", "simple")
    assert code == 2
    assert out == ""
    assert err == ("error: the route leaves start 'C' by its last exit, which "
                   "no turn code 1-3 names; outside the tape explorer's maze "
                   "class\n")


@pytest.mark.parametrize("argv", [
    ("tableone", "--seeds", "0"),
    ("tableone", "--lengths", "-5"),
    ("tableone", "--lengths", "10", "0"),
    ("tableone", "--odometry", "ideal", "--lengths", "inf", "--seeds", "1"),
])
def test_tableone_argument_validation(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 1
    assert err.startswith("error: --")


@pytest.mark.parametrize("argv", [
    ("solve", "--maze", "fig2", "--odometry", "arc"),
    ("tableone", "--seeds", "3"),
    ("plot", "--maze", "fig2", "--out", "/nonexistent-dir/x.svg"),
])
def test_negative_seed_is_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--seed", "-7")
    assert code == 1
    assert out == ""
    assert err == "error: --seed must be at least 0\n"


@pytest.mark.parametrize("argv", [
    ("solve", "--maze", "fig2", "--odometry", "arc"),
    ("solve", "--maze", "fig2"),
    ("tableone", "--seeds", "3"),
    ("plot", "--maze", "fig2", "--out", "/nonexistent-dir/x.svg"),
])
def test_seed_beyond_64_bits_is_usage_error(capsys, argv):
    # A jitter key holds 64 bits; a wider seed is refused, not folded onto
    # a smaller one, also in ideal mode, which draws nothing.
    code, out, err = run_cli(capsys, *argv, "--seed", str(2 ** 64))
    assert code == 1
    assert out == ""
    assert err == "error: --seed must be below 2**64\n"


def test_tableone_seed_window_beyond_64_bits_is_usage_error(capsys):
    # tableone draws seeds --seed to --seed + --seeds - 1; the window is
    # refused as typed, also in ideal mode, which draws nothing.
    top = 2 ** 64 - 1
    for mode in ("arc", "ideal"):
        code, out, _ = run_cli(capsys, "tableone", "--seeds", "1", "--lengths",
                               "10", "--seed", str(top), "--odometry", mode)
        assert code == 0 and out
        code, out, err = run_cli(capsys, "tableone", "--seeds", "2",
                                 "--lengths", "10", "--seed", str(top),
                                 "--odometry", mode)
        assert code == 1
        assert out == ""
        assert err == "error: --seed + --seeds must be at most 2**64\n"


def test_exhausted_traversal_budget_exits_two(capsys, monkeypatch):
    # A route search that sends the robot back and forth between its
    # current point and the previous one never finishes the map; fig2 has
    # 8 edges, so the budget is 32 walks.
    def bounce(state):
        return [state.point[-1], state.point[-2]]

    monkeypatch.setattr(mapping_explorer, "next_target", bounce)
    code, out, err = run_cli(capsys, "solve", "--maze", "fig2")
    assert code == 2
    assert out == ""
    assert err == ("error: exploration exceeded its budget of 32 traversals; "
                   "odometry errors are likely re-opening finished points\n")


def test_unknown_flag(capsys, tmp_path):
    code, _, _ = run_cli(capsys, "solve", "--maze", "fig2", "--bogus")
    assert code == 1
    # plot prints no report, so it has no --format.
    svg = tmp_path / "x.svg"
    code, out, err = run_cli(capsys, "plot", "--maze", "fig2", "--out",
                             str(svg), "--format", "tsv")
    assert code == 1
    assert out == ""
    assert err.splitlines()[-1].endswith(
        "error: unrecognized arguments: --format tsv")
    assert not svg.exists()


def test_missing_subcommand(capsys):
    code, _, _ = run_cli(capsys)
    assert code == 1


def test_help_exits_zero(capsys):
    assert run_cli(capsys, "--help")[0] == 0
    assert run_cli(capsys, "solve", "--help")[0] == 0


# ---------------------------------------------------------- shared parser

def test_the_parser_is_built_once_and_shared(capsys):
    cli._build_parser.cache_clear()
    for argv, want in ((("solve", "--maze", "fig2"), SOLVE_FIG2_IDEAL),
                       (("tableone", "--seeds", "20"), TABLEONE_DEFAULT_20),
                       (("solve", "--maze", "fig2"), SOLVE_FIG2_IDEAL)):
        assert run_cli(capsys, *argv)[:2] == (0, want)
    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 2)


def test_usage_errors_and_help_leave_the_parser_as_it_was(capsys):
    help_text = run_cli(capsys, "solve", "--help")[1]
    for argv, code in ((("solve", "--maze", "fig2", "--bogus"), 1),
                       (("tableone", "--lengths"), 1), ((), 1),
                       (("--help",), 0), (("solve", "--help"), 0)):
        assert run_cli(capsys, *argv)[0] == code
        assert run_cli(capsys, "solve", "--maze", "fig2")[:2] == (
            0, SOLVE_FIG2_IDEAL)
        assert run_cli(capsys, "solve", "--maze", "fig2", "--format",
                       "tsv")[:2] == (0, SOLVE_FIG2_TSV)
        assert run_cli(capsys, "solve", "--maze", "nosuch")[0] == 1
        assert run_cli(capsys, "solve", "--help")[:2] == (0, help_text)


def test_defaults_do_not_leak_between_calls(capsys):
    code, out, _ = run_cli(capsys, "tableone", "--lengths", "3",
                           "--seeds", "20")
    assert code == 0 and len(out.splitlines()) == 2
    assert run_cli(capsys, "tableone", "--seeds", "20")[:2] == (
        0, TABLEONE_DEFAULT_20)
    simple = ("solve", "--maze", "fig1", "--algo", "simple")
    assert run_cli(capsys, *simple, "--show-tape")[:2] == (
        0, SOLVE_FIG1_SIMPLE)
    code, out, _ = run_cli(capsys, *simple)
    assert code == 0
    assert out == SOLVE_FIG1_SIMPLE.replace("tape: 3 1 1\n", "")


def test_a_warm_command_leaves_no_cycles(capsys, collector):
    assert run_cli(capsys, "solve", "--maze", "fig2")[0] == 0
    gc.disable()
    gc.collect()
    assert run_cli(capsys, "solve", "--maze", "fig2", "--odometry",
                   "arc")[:2] == (0, SOLVE_FIG2_ARC)
    assert gc.collect() == 0


def test_ideal_drive_builds_a_plain_encoder_log():
    log = cli._drive(14.0, "ideal", MotionParams(), 0, 0)
    assert type(log) is EncoderLog
    assert type(log.trajectory) is tuple
    assert log == (14.0, 14.0, 0, 0, 14.0, ((0.0, 0.0), (14.0, 0.0)))


def test_internal_contradictions_exit_three(capsys, monkeypatch):
    def boom_inconsistency(args):
        raise InconsistencyError("impossible state")

    def boom_graph(args):
        raise GraphQueryError("no such vertex")

    monkeypatch.setattr("linemaze.cli.cmd_solve", boom_inconsistency)
    code, _, err = run_cli(capsys, "solve", "--maze", "fig2")
    assert code == 3
    assert err == "error: impossible state\n"

    monkeypatch.setattr("linemaze.cli.cmd_solve", boom_graph)
    code, _, err = run_cli(capsys, "solve", "--maze", "fig2")
    assert code == 3
    assert err == "error: no such vertex\n"


# -------------------------------------------------------------- collector

@pytest.fixture
def collector():
    """Hands the collector back as the test found it."""
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


def _inconsistent(args):
    raise InconsistencyError("impossible state")


@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
@pytest.mark.parametrize("argv, code, solve", [
    (("solve", "--maze", "fig2"), 0, None),
    (("solve", "--maze", "nosuch"), 1, None),
    (("solve", "--maze", "fig2", "--bogus"), 1, None),
    (("solve", "--maze", "fig2", "--tol", "4.0"), 2, None),
    (("solve", "--maze", "fig2"), 3, _inconsistent),
], ids=["exit0", "exit1", "exit1-usage", "exit2", "exit3"])
def test_run_leaves_the_collector_as_it_found_it(capsys, monkeypatch,
                                                 collector, enabled, argv,
                                                 code, solve):
    if solve is not None:
        monkeypatch.setattr(cli, "cmd_solve", solve)
    (gc.enable if enabled else gc.disable)()
    assert run_cli(capsys, *argv)[0] == code
    assert gc.isenabled() is enabled


def test_collector_is_paused_while_a_command_runs(capsys, monkeypatch,
                                                  collector):
    seen = []
    solve = cli.cmd_solve

    def recording(args):
        seen.append(gc.isenabled())
        out = solve(args)
        seen.append(gc.isenabled())
        return out

    monkeypatch.setattr(cli, "cmd_solve", recording)
    gc.enable()
    assert run_cli(capsys, "solve", "--maze", "fig2")[0] == 0
    assert seen == [False, False]
    assert gc.isenabled()


@pytest.mark.parametrize("mode", ["ideal", "arc"])
def test_loading_and_exploring_a_maze_leave_no_cycles(collector, mode):
    # The premise of the pause: reference counting frees all of it.
    text = serialize_maze(random_maze(random.Random(7), max_nodes=200,
                                      loops=20))
    gc.disable()
    gc.collect()
    maze = parse_maze(text)
    state = explore_map(maze, src=mode)
    assert len(state.type_of) == len(maze.nodes)
    del maze, state
    assert gc.collect() == 0


def test_error_output_is_a_single_line(capsys, tmp_path):
    # An edge whose length overflows to inf.
    overflow = tmp_path / "overflow.maze"
    overflow.write_text("node A -1e308 0\nnode B 1e308 0\nedge A B\n"
                        "start A\nend B\n")
    for expected, argv in (
            (1, ("solve", "--maze", "nosuch")),
            (2, ("solve", "--maze", "fig2", "--algo", "simple")),
            (1, ("tableone", "--seeds", "0")),
            # Both lengths exceed the longest segment the simulator drives;
            # 1e308 cm would also overflow the step budget.
            (1, ("tableone", "--lengths", "1e308", "--seeds", "1")),
            (1, ("tableone", "--lengths", "1e9", "--seeds", "1")),
            (1, ("solve", "--maze", str(overflow), "--odometry", "ideal")),
            (1, ("solve", "--maze", str(overflow), "--algo", "simple"))):
        code, out, err = run_cli(capsys, *argv)
        assert code == expected
        assert err.startswith("error: ")
        assert out == ""
        assert err.endswith("\n")
        assert err.count("\n") == 1


def test_plot_to_unwritable_path(capsys):
    code, _, err = run_cli(capsys, "plot", "--maze", "fig2",
                           "--out", "/nonexistent-dir/x.svg")
    assert code == 1
    assert err.startswith("error: ")


# ------------------------------------------------------------------- seeds

def test_seed_flag(capsys):
    _, out, _ = run_cli(capsys, "tableone", "--seeds", "3",
                        "--lengths", "10", "--seed", "5", "--format", "tsv")
    assert out == TABLEONE_TSV_SEED5


def test_seed_changes_noisy_output(capsys):
    # solve rounds to two decimals, which can coincide across seeds; the
    # four-decimal tableone TSV resolves the jitter. The two windows of
    # seeds do not overlap: windows that do can share their median seed
    # and so print the same table.
    _, a, _ = run_cli(capsys, "tableone", "--seeds", "3", "--lengths", "10",
                      "--seed", "0", "--format", "tsv")
    _, b, _ = run_cli(capsys, "tableone", "--seeds", "3", "--lengths", "10",
                      "--seed", "3", "--format", "tsv")
    assert a != b


# ------------------------------------------------------------ determinism

def shell(*argv, env=None):
    code = ("import sys\nfrom linemaze.cli import run\n"
            "sys.exit(run(sys.argv[1:]))\n")
    return subprocess.run([sys.executable, "-c", code, *argv],
                          capture_output=True, text=True, env=env)


def test_stdout_is_byte_deterministic_across_processes():
    a = shell("solve", "--maze", "fig2", "--odometry", "arc", "--seed", "3")
    b = shell("solve", "--maze", "fig2", "--odometry", "arc", "--seed", "3")
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout
    c = shell("tableone", "--seeds", "10", "--lengths", "10", "14")
    d = shell("tableone", "--seeds", "10", "--lengths", "10", "14")
    assert c.stdout == d.stdout


def test_plot_files_are_byte_deterministic(tmp_path):
    out1 = tmp_path / "a.svg"
    out2 = tmp_path / "b.svg"
    for out in (out1, out2):
        r = shell("plot", "--maze", "fig2", "--odometry", "raw",
                  "--seed", "7", "--out", str(out))
        assert r.returncode == 0
        assert r.stdout == ""
    assert out1.read_bytes() == out2.read_bytes()


# ------------------------------------------------------------------- plots

def test_plot_fig2_ideal_structure(tmp_path, capsys):
    out = tmp_path / "fig2.svg"
    code, stdout, _ = run_cli(capsys, "plot", "--maze", "fig2",
                              "--out", str(out))
    assert code == 0
    assert stdout == ""
    svg = out.read_text()
    assert svg.count('class="node"') == 8
    assert svg.count("<polyline") == 1
    # The ideal route bends only at the two path corners.
    assert svg.count('class="turn"') == 2
    assert svg.startswith("<svg ")
    assert svg.rstrip().endswith("</svg>")


def test_plot_escapes_node_ids(tmp_path, capsys):
    maze = tmp_path / "marks.maze"
    maze.write_text("node S&T 0 0\nnode <F> 0 10\nnode a>&<b 5 10\n"
                    "edge S&T <F>\nedge <F> a>&<b\nstart S&T\nend a>&<b\n")
    out = tmp_path / "marks.svg"
    code, _, _ = run_cli(capsys, "plot", "--maze", str(maze),
                         "--out", str(out))
    assert code == 0
    root = ET.parse(str(out)).getroot()
    labels = [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")]
    assert labels == ["<F>", "S&T", "a>&<b"]


def test_plot_corridor_two_point_trajectory(tmp_path, capsys):
    out = tmp_path / "corr.svg"
    code, _, _ = run_cli(capsys, "plot", "--maze", "corridor",
                         "--out", str(out))
    assert code == 0
    svg = out.read_text()
    assert 'points="0.000,10.000 0.000,0.000"' in svg
    assert svg.count('class="node"') == 2
    assert svg.count('class="turn"') == 0


def test_plot_noisy_marks_every_pivot(tmp_path, capsys):
    out = tmp_path / "noisy.svg"
    seed = 0
    code, _, _ = run_cli(capsys, "plot", "--maze", "fig2",
                         "--odometry", "raw", "--seed", str(seed),
                         "--out", str(out))
    assert code == 0
    svg = out.read_text()

    # Hop i of the path is keyed (seed, i): replay each hop alone and count
    # the pivots the robot actually executed.
    params = MotionParams()
    total_turns = 0
    for i, length in enumerate((10.0, 14.0, 8.0)):  # path S-A, A-E, E-F
        log = simulate_segment(length, params, seed, i)
        total_turns += log.n_right + log.n_left
    assert svg.count('class="turn"') >= total_turns
