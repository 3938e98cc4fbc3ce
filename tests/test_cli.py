"""Command-line interface: golden outputs, exit codes, determinism."""

import math
import random
import re
import subprocess
import sys

import pytest

from linemaze.cli import run
from linemaze.errors import GraphQueryError, InconsistencyError
from linemaze.maze_model import serialize_maze
from linemaze.mazegen import random_maze
from linemaze.motion_sim import MotionParams, simulate_segment

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
  E-F               8.00       8.19       8.01
"""

TABLEONE_DEFAULT_20 = """\
  actual    encoder    formula    err_enc  err_formula
   10.00      10.23      10.01      2.34%        0.06%
   14.00      14.32      14.01      2.31%        0.07%
    8.00       8.19       8.01      2.32%        0.06%
"""

TABLEONE_IDEAL_1 = """\
  actual    encoder    formula    err_enc  err_formula
   10.00      10.00      10.00      0.00%        0.00%
"""

TABLEONE_TSV_SEED5 = """\
actual\tencoder\tformula\terr_enc_pct\terr_formula_pct
10.00\t10.2345\t10.0067\t2.3450\t0.0675
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


@pytest.mark.parametrize("argv", [
    ("tableone", "--seeds", "0"),
    ("tableone", "--lengths", "-5"),
    ("tableone", "--lengths", "10", "0"),
])
def test_tableone_argument_validation(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 1
    assert err.startswith("error: --")


def test_unknown_flag(capsys):
    code, _, _ = run_cli(capsys, "solve", "--maze", "fig2", "--bogus")
    assert code == 1


def test_missing_subcommand(capsys):
    code, _, _ = run_cli(capsys)
    assert code == 1


def test_help_exits_zero(capsys):
    assert run_cli(capsys, "--help")[0] == 0
    assert run_cli(capsys, "solve", "--help")[0] == 0


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


def test_error_output_is_a_single_line(capsys):
    for argv in (("solve", "--maze", "nosuch"),
                 ("solve", "--maze", "fig2", "--algo", "simple"),
                 ("tableone", "--seeds", "0")):
        _, out, err = run_cli(capsys, *argv)
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
    # four-decimal tableone TSV resolves the jitter.
    _, a, _ = run_cli(capsys, "tableone", "--seeds", "3", "--lengths", "10",
                      "--seed", "0", "--format", "tsv")
    _, b, _ = run_cli(capsys, "tableone", "--seeds", "3", "--lengths", "10",
                      "--seed", "1", "--format", "tsv")
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

    # Re-derive the per-segment simulation seeds the same way the command
    # draws them, and count the pivots the robot actually executed.
    rng = random.Random(seed)
    params = MotionParams(seed=seed)
    total_turns = 0
    for length in (10.0, 14.0, 8.0):  # path S-A, A-E, E-F
        log = simulate_segment(length, params, seed=rng.randrange(2 ** 31))
        total_turns += log.turn_count
    assert svg.count('class="turn"') >= total_turns
