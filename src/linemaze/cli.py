"""Command-line front end for the line-maze toolkit.

Three subcommands:

* ``solve`` — explore a maze with either explorer, run the shortest-path
  query, and print a run report (text or TSV).
* ``tableone`` — measurement-accuracy table: simulate straight segments
  over many seeds and report median raw/corrected encoder readings.
* ``plot`` — drive the shortest path and write a deterministic SVG of the
  maze plus the robot's trajectory.

Exit codes: 0 success; 1 bad arguments, unreadable/invalid maze files;
2 exploration failures (budget, divergence, drift); 3 internal
inconsistencies (calibration, arc domain, graph queries). Errors print one
line on standard error; stdout stays byte-deterministic for fixed inputs
(the wall-clock duration line goes to standard error).
"""

from __future__ import annotations

import argparse
import math
import random
import statistics
import sys
import time
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from ._directions import direction_between
from .errors import (ExplorationError, GraphQueryError, InconsistencyError,
                     MazeSyntaxError, MazeValidationError)
from .graph_path import build_graph, dijkstra, graph_from_maze
from .mapping_explorer import explore_map
from .maze_model import MazeSpec, bundled_maze_text, parse_maze
from .motion_sim import MotionParams, simulate_segment
from .odometry import (ODOMETRY_MODES, calibration_from_motion,
                       estimate_length)
from .simple_explorer import PREFERENCES, explore_simple, reduce_tape, replay
from .svgplot import render_svg, world_points

__all__ = ["run", "main", "cmd_solve", "cmd_tableone", "cmd_plot"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linemaze",
        description="Simulate line-maze robots: explore, map, correct "
                    "odometry, extract shortest paths.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, maze: bool = True) -> None:
        if maze:
            p.add_argument("--maze", required=True,
                           help="maze file path, or the name of a bundled "
                                "maze (fig1, fig2, corridor, plus)")
        p.add_argument("--odometry", choices=ODOMETRY_MODES, default=None,
                       help="distance measurement mode")
        p.add_argument("--seed", type=int, default=0,
                       help="simulation seed (default 0)")
        p.add_argument("--format", choices=("text", "tsv"), default="text",
                       help="report format")

    s = sub.add_parser("solve", help="explore a maze and report the "
                                     "shortest start-to-end path")
    common(s)
    s.add_argument("--algo", choices=("simple", "map"), default="map",
                   help="exploration algorithm")
    s.add_argument("--pref", choices=sorted(PREFERENCES), default="RFLD",
                   help="turn preference of the simple explorer")
    s.add_argument("--tol", type=float, default=None,
                   help="coordinate matching tolerance in cm")
    s.add_argument("--show-tape", action="store_true", dest="show_tape",
                   help="include the simple explorer's junction tape")

    t = sub.add_parser("tableone", help="measurement accuracy table over "
                                        "seeded straight-segment runs")
    common(t, maze=False)
    t.add_argument("--lengths", type=float, nargs="+", default=[10.0, 14.0, 8.0],
                   help="segment lengths in cm")
    t.add_argument("--seeds", type=int, default=100,
                   help="number of sequential seeds per length")

    p = sub.add_parser("plot", help="write an SVG of the maze and the "
                                    "driven shortest path")
    common(p)
    p.add_argument("--out", required=True, help="output SVG path")
    return parser


def _load_maze(arg: str) -> Tuple[MazeSpec, str]:
    path = Path(arg)
    if path.exists():
        text = path.read_text(encoding="utf-8")
    else:
        text = bundled_maze_text(arg)
    return parse_maze(text), path.stem


def _segment_rows(hop_labels: List[Tuple[str, str]],
                  hop_lengths: List[float], mode: str, seed: int,
                  params: MotionParams) -> List[Tuple[str, float, float, float]]:
    """(label, true, raw, corrected) per shortest-path segment."""
    rows: List[Tuple[str, float, float, float]] = []
    cal = None
    correct_mode = mode if mode in ("basic", "arc") else "arc"
    if mode != "ideal":
        cal = calibration_from_motion(params)
    rng = random.Random(seed)
    for (a, b), true_len in zip(hop_labels, hop_lengths):
        if mode == "ideal":
            raw = corrected = true_len
        else:
            log = simulate_segment(true_len, params, seed=rng.randrange(2 ** 31))
            raw = (log.wl_total + log.wr_total) / 2.0
            corrected = estimate_length(log, cal, correct_mode)
        rows.append(("%s-%s" % (a, b), true_len, raw, corrected))
    return rows


def cmd_solve(args: argparse.Namespace) -> str:
    maze, stem = _load_maze(args.maze)
    seed = args.seed
    mode = args.odometry or "ideal"
    params = MotionParams(seed=seed)
    tape_text: Optional[str] = None

    if args.algo == "simple":
        tape = explore_simple(maze, PREFERENCES[args.pref])
        path = replay(maze, reduce_tape(tape))
        discovered = len(dict.fromkeys(path))
        if args.show_tape:
            tape_text = " ".join(str(s) for s in tape.sums)
    else:
        state = explore_map(maze, params, None, mode, args.tol)
        end_name = next(name for name, node in state.node_of.items()
                        if node == maze.end)
        result = dijkstra(build_graph(state), state.point[0], end_name)
        path = [state.node_of[n] for n in result.nodes]
        discovered = len(state.type_of)

    points = [maze.position(n) for n in path]
    hop_lengths = [math.hypot(b.x - a.x, b.y - a.y)
                   for a, b in zip(points, points[1:])]
    # The tape explorer reports the true length of its path; the mapping
    # explorer reports the shortest path through its measured graph.
    length = sum(hop_lengths) if args.algo == "simple" else result.length
    hop_labels = list(zip(path, path[1:]))
    rows = _segment_rows(hop_labels, hop_lengths, mode, seed, params)

    if args.format == "tsv":
        out = [
            "maze\t%s" % stem,
            "algorithm\t%s" % args.algo,
            "odometry\t%s" % mode,
            "nodes_discovered\t%d" % discovered,
            "path\t%s" % " ".join(path),
            "length\t%.2f" % length,
        ]
        if tape_text is not None:
            out.append("tape\t%s" % tape_text)
        out.append("segment\ttrue\traw\tcorrected")
        out.extend("%s\t%.2f\t%.2f\t%.2f" % row for row in rows)
        return "\n".join(out) + "\n"

    out = [
        "maze: %s" % stem,
        "algorithm: %s" % args.algo,
        "odometry: %s" % mode,
        "nodes discovered: %d" % discovered,
        "path: %s" % " ".join(path),
        "length: %.2f" % length,
    ]
    if tape_text is not None:
        out.append("tape: %s" % tape_text)
    out.append("segments:")
    out.append("  %-12s %9s %10s %10s" % ("segment", "true", "raw", "corrected"))
    out.extend("  %-12s %9.2f %10.2f %10.2f" % row for row in rows)
    return "\n".join(out) + "\n"


def cmd_tableone(args: argparse.Namespace) -> str:
    mode = args.odometry or "arc"
    if args.seeds < 1:
        raise ValueError("--seeds must be at least 1")
    if any(not length > 0 for length in args.lengths):
        raise ValueError("--lengths must all be positive")
    params = MotionParams()
    cal = calibration_from_motion(params) if mode != "ideal" else None

    rows: List[Tuple[float, float, float, float, float]] = []
    for length in args.lengths:
        raws: List[float] = []
        corrs: List[float] = []
        for s in range(args.seed, args.seed + args.seeds):
            if mode == "ideal":
                raws.append(length)
                corrs.append(length)
            else:
                log = simulate_segment(length, params, seed=s)
                raws.append((log.wl_total + log.wr_total) / 2.0)
                corrs.append(estimate_length(log, cal, mode))
        med_raw = statistics.median(raws)
        med_corr = statistics.median(corrs)
        rows.append((length, med_raw, med_corr,
                     (med_raw - length) / length * 100.0,
                     (med_corr - length) / length * 100.0))

    if args.format == "tsv":
        out = ["actual\tencoder\tformula\terr_enc_pct\terr_formula_pct"]
        out.extend("%.2f\t%.4f\t%.4f\t%.4f\t%.4f" % row for row in rows)
        return "\n".join(out) + "\n"
    out = ["%8s %10s %10s %10s %12s"
           % ("actual", "encoder", "formula", "err_enc", "err_formula")]
    out.extend("%8.2f %10.2f %10.2f %9.2f%% %11.2f%%" % row for row in rows)
    return "\n".join(out) + "\n"


def cmd_plot(args: argparse.Namespace) -> str:
    maze, _stem = _load_maze(args.maze)
    seed = args.seed
    mode = args.odometry or "ideal"
    params = MotionParams(seed=seed)
    graph = graph_from_maze(maze)
    result = dijkstra(graph, maze.start, maze.end)

    rng = random.Random(seed)
    world: List[Tuple[float, float]] = []
    for a, b in zip(result.nodes, result.nodes[1:]):
        pa = maze.position(a)
        pb = maze.position(b)
        direction = direction_between(pa.x, pa.y, pb.x, pb.y)
        length = math.hypot(pb.x - pa.x, pb.y - pa.y)
        if mode == "ideal":
            local: Sequence[Tuple[float, float]] = ((0.0, 0.0), (length, 0.0))
        else:
            log = simulate_segment(length, params, seed=rng.randrange(2 ** 31))
            local = log.trajectory
        pts = world_points((pa.x, pa.y), direction, local)
        if world and pts and pts[0] == world[-1]:
            world.extend(pts[1:])
        else:
            world.extend(pts)
    Path(args.out).write_text(render_svg(maze, world), encoding="utf-8")
    return ""


def run(argv: Optional[Sequence[str]] = None) -> int:
    """Parse arguments, dispatch, and return the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if not exc.code else 1
    started = time.perf_counter()
    try:
        if args.command == "solve":
            out = cmd_solve(args)
        elif args.command == "tableone":
            out = cmd_tableone(args)
        else:
            out = cmd_plot(args)
    except (MazeSyntaxError, MazeValidationError, OSError, ValueError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 1
    except ExplorationError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2
    except (InconsistencyError, GraphQueryError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 3
    sys.stdout.write(out)
    sys.stderr.write("duration: %.3f s\n" % (time.perf_counter() - started))
    return 0


def main() -> None:
    sys.exit(run())
