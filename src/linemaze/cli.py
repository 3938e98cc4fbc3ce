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
import gc
import math
import sys
import time
from functools import cache
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from .errors import (ExplorationError, GraphQueryError, InconsistencyError,
                     MazeSyntaxError, MazeValidationError)
from .graph_path import build_graph, dijkstra, graph_from_maze
from .mapping_explorer import explore_map
from .maze_model import MazeSpec, bundled_maze_text, parse_maze
from .motion_sim import EncoderLog, MotionParams, simulate_segment
from .odometry import (ODOMETRY_MODES, calibration_from_motion,
                       estimate_length)
from .simple_explorer import PREFERENCES, explore_simple, reduce_tape, replay
from .svgplot import render_svg, world_points

__all__ = ["run", "main", "cmd_solve", "cmd_tableone", "cmd_plot"]


@cache  # built on the first run() call, then shared by every later one
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linemaze",
        description="Simulate line-maze robots: explore, map, correct "
                    "odometry, extract shortest paths.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, maze: bool = True,
               report: bool = True) -> None:
        if maze:
            p.add_argument("--maze", required=True,
                           help="maze file path, or the name of a bundled "
                                "maze (fig1, fig2, corridor, plus)")
        p.add_argument("--odometry", choices=ODOMETRY_MODES, default=None,
                       help="distance measurement mode")
        p.add_argument("--seed", type=int, default=0,
                       help="simulation seed (default 0)")
        if report:
            p.add_argument("--format", choices=("text", "tsv"),
                           default="text", help="report format")

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
    # A tuple: every call of the shared parser gets this same default.
    t.add_argument("--lengths", type=float, nargs="+", default=(10.0, 14.0, 8.0),
                   help="segment lengths in cm")
    t.add_argument("--seeds", type=int, default=100,
                   help="number of sequential seeds per length")

    p = sub.add_parser("plot", help="write an SVG of the maze and the "
                                    "driven shortest path")
    common(p, report=False)
    p.add_argument("--out", required=True, help="output SVG path")
    return parser


def _load_maze(arg: str) -> Tuple[MazeSpec, str]:
    path = Path(arg)
    if path.exists():
        text = path.read_text(encoding="utf-8")
    else:
        text = bundled_maze_text(arg)
    return parse_maze(text), path.stem


def _drive(length: float, mode: str, params: MotionParams, seed: int,
           index: int) -> EncoderLog:
    """Encoder log of one straight segment of ``length``, jitter key
    (seed, index).

    Ideal odometry drives a perfect straight run: both wheels roll exactly
    ``length``, with no pivots. Every other mode simulates the segment.
    """
    if mode == "ideal":
        return EncoderLog(wl_total=length, wr_total=length, n_right=0,
                          n_left=0, true_length=length,
                          trajectory=((0.0, 0.0), (length, 0.0)))
    return simulate_segment(length, params, seed, index)


def _drive_path(maze: MazeSpec, path: Sequence[str], mode: str,
                params: MotionParams,
                seed: int) -> List[Tuple[str, str, int, float, EncoderLog]]:
    """Drive each hop of ``path``: (from, to, direction, length, log).

    A hop's direction and length come from the maze's branch table; hop i
    is driven with jitter key (seed, i).
    """
    hops = []
    for i, (a, b) in enumerate(zip(path, path[1:])):
        direction, length = next(
            (slot[0], length)
            for slot, (other, length, _back) in maze.branches[a].items()
            if other == b)
        hops.append((a, b, direction, length,
                     _drive(length, mode, params, seed, i)))
    return hops


def cmd_solve(args: argparse.Namespace) -> str:
    if args.tol is not None and not 0.0 < args.tol < math.inf:
        raise ValueError("tol must be positive and finite, got %r" % args.tol)
    maze, stem = _load_maze(args.maze)
    seed = args.seed
    mode = args.odometry or "ideal"
    params = MotionParams()
    tape_text: Optional[str] = None

    if args.algo == "simple":
        tape = explore_simple(maze, PREFERENCES[args.pref])
        path = replay(maze, reduce_tape(tape))
        discovered = len(dict.fromkeys(path))
        if args.show_tape:
            tape_text = " ".join(str(s) for s in tape.sums)
    else:
        state = explore_map(maze, params=params, src=mode, tol=args.tol,
                            seed=seed)
        end_name = next(name for name, node in state.node_of.items()
                        if node == maze.end)
        result = dijkstra(build_graph(state), state.point[0], end_name)
        path = [state.node_of[n] for n in result.nodes]
        discovered = len(state.type_of)

    cal = calibration_from_motion(params)
    correct_mode = "arc" if mode == "raw" else mode
    rows = [("%s-%s" % (a, b), true_len, estimate_length(log, cal, "raw"),
             estimate_length(log, cal, correct_mode))
            for a, b, _direction, true_len, log
            in _drive_path(maze, path, mode, params, seed)]
    # The tape explorer reports the true length of its path; the mapping
    # explorer reports the shortest path through its measured graph.
    length = (sum(row[1] for row in rows) if args.algo == "simple"
              else result.length)

    fields = [("maze", stem), ("algorithm", args.algo), ("odometry", mode),
              ("nodes_discovered", "%d" % discovered),
              ("path", " ".join(path)), ("length", "%.2f" % length)]
    if tape_text is not None:
        fields.append(("tape", tape_text))
    if args.format == "tsv":
        out = ["%s\t%s" % field for field in fields]
        out.append("segment\ttrue\traw\tcorrected")
        out.extend("%s\t%.2f\t%.2f\t%.2f" % row for row in rows)
    else:
        out = ["%s: %s" % (key.replace("_", " "), value)
               for key, value in fields]
        out.append("segments:")
        out.append("  %-12s %9s %10s %10s"
                   % ("segment", "true", "raw", "corrected"))
        out.extend("  %-12s %9.2f %10.2f %10.2f" % row for row in rows)
    return "\n".join(out) + "\n"


def _median(values: List[float]) -> float:
    """``statistics.median`` of a non-empty list, without importing it."""
    s = sorted(values)
    mid = len(s) // 2
    return s[mid] if len(s) % 2 else (s[mid - 1] + s[mid]) / 2


def cmd_tableone(args: argparse.Namespace) -> str:
    mode = args.odometry or "arc"
    if args.seeds < 1:
        raise ValueError("--seeds must be at least 1")
    if args.seed + args.seeds > 2 ** 64:
        raise ValueError("--seed + --seeds must be at most 2**64")
    if any(not 0 < length < math.inf for length in args.lengths):
        raise ValueError("--lengths must all be positive and finite")
    params = MotionParams()
    cal = calibration_from_motion(params)

    rows: List[Tuple[float, float, float, float, float]] = []
    for length in args.lengths:
        raw, corr = [], []
        for s in range(args.seed, args.seed + args.seeds):
            log = _drive(length, mode, params, s, 0)
            raw.append(estimate_length(log, cal, "raw"))
            corr.append(estimate_length(log, cal, mode))
        med_raw = _median(raw)
        med_corr = _median(corr)
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
    mode = args.odometry or "ideal"
    params = MotionParams()
    result = dijkstra(graph_from_maze(maze), maze.start, maze.end)

    world: List[Tuple[float, float]] = []
    for a, _b, direction, _length, log in _drive_path(
            maze, result.nodes, mode, params, args.seed):
        pa = maze.position(a)
        pts = world_points((pa.x, pa.y), direction, log.trajectory)
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
    # Commands build no reference cycles: pause automatic collection.
    enabled = gc.isenabled()
    gc.disable()
    try:
        if args.seed < 0:
            raise ValueError("--seed must be at least 0")
        if args.seed >= 2 ** 64:
            raise ValueError("--seed must be below 2**64")
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
    finally:
        if enabled:
            gc.enable()
    sys.stdout.write(out)
    sys.stderr.write("duration: %.3f s\n" % (time.perf_counter() - started))
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
