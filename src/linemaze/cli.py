"""Command-line front end for the line-maze toolkit.

Three subcommands:

* ``solve`` — explore a maze with either explorer, run the shortest-path
  query, and print a run report (text or TSV).
* ``tableone`` — measurement-accuracy table: simulate straight segments
  over many seeds and report median raw/corrected encoder readings.
* ``plot`` — drive the shortest path and write a deterministic SVG of the
  maze plus the robot's trajectory.

Exit codes are tabled in ``linemaze.errors``. Errors print one line on
standard error, a defect its traceback; stdout stays byte-deterministic for
fixed inputs (the wall-clock duration line goes to standard error).
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

from .errors import ArgumentError, LinemazeError
from .graph_path import build_graph, dijkstra, graph_from_maze
from .mapping_explorer import explore_map
from .maze_model import MazeSpec, bundled_maze_text, parse_maze
from .motion_sim import EncoderLog, MotionParams, _driver, _simulate_lengths
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
    if arg and path.exists():  # "" would name the working directory
        text = path.read_text(encoding="utf-8")
    else:
        text = bundled_maze_text(arg)
    return parse_maze(text), path.stem


def _drive(mode: str, params: MotionParams, seed: int,
           hops: Sequence[Tuple[str, str, int, float]]):
    """A command's ``motion_sim._driver``, which refuses the first refused
    hop before any run. Ideal odometry drives a perfect straight run, both
    wheels rolling exactly ``length`` with no pivots, and refuses none."""
    if mode != "ideal":
        return _driver(params, seed, [hop[3] for hop in hops])

    def ideal(length, index, pivots=None):
        if pivots is not None:
            pivots.append((length, 0.0))
        return EncoderLog(length, length, 0, 0, length)

    return ideal


def _corrected_mode(mode: str) -> str:
    """The estimator of a report's corrected column: raw runs use arc."""
    return "arc" if mode == "raw" else mode


def _hops(maze: MazeSpec,
          path: Sequence[str]) -> List[Tuple[str, str, int, float]]:
    """Each hop of ``path`` as (from, to, direction, length), read from the
    maze's branch table. Hop i, when driven, has jitter key (seed, i)."""
    return [next((a, b, slot[0], length)
                 for slot, (other, length, _back) in maze.branches[a].items()
                 if other == b)
            for a, b in zip(path, path[1:])]


def cmd_solve(args: argparse.Namespace) -> str:
    if args.tol is not None and not 0.0 < args.tol < math.inf:
        raise ArgumentError("tol must be positive and finite, got %r" % args.tol)
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
        logs = {}
    else:
        state = explore_map(maze, params=params, src=mode, tol=args.tol,
                            seed=seed)
        end_name = next(name for name, node in state.node_of.items()
                        if node == maze.end)
        result = dijkstra(build_graph(state), state.point[0], end_name)
        path = [state.node_of[n] for n in result.nodes]
        discovered = len(state.type_of)
        logs, names = state.logs, result.nodes

    cal = calibration_from_motion(params)
    correct_mode = _corrected_mode(mode)
    rows, hops = [], _hops(maze, path)
    # A noisy map row reads the log that weighed its edge; others drive.
    drive = None if logs else _drive(mode, params, seed, hops)
    for i, (a, b, _direction, true_len) in enumerate(hops):
        log = logs[tuple(sorted(names[i:i + 2]))] if logs else drive(true_len, i)
        rows.append(("%s-%s" % (a, b), true_len,
                     estimate_length(log, cal, "raw"),
                     estimate_length(log, cal, correct_mode)))
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
        raise ArgumentError("--seeds must be at least 1")
    if args.seed + args.seeds > 2 ** 64:
        raise ArgumentError("--seed + --seeds must be at most 2**64")
    if any(not 0 < length < math.inf for length in args.lengths):
        raise ArgumentError("--lengths must all be positive and finite")
    lengths, params = args.lengths, MotionParams()
    if mode == "ideal":  # runs nothing, but refuses what a run refuses
        _driver(params, args.seed, lengths)
    cal = calibration_from_motion(params)
    correct_mode = _corrected_mode(mode)

    # The first run or correction that fails is raised as it is met: seeds
    # ascending, lengths in the order given.
    seeds = range(args.seed, args.seed + args.seeds)
    logs = (_simulate_lengths(lengths, params, seeds, 0) if mode != "ideal"
            else (EncoderLog(x, x, 0, 0, x) for _s in seeds for x in lengths))
    cells = [([], []) for _ in lengths]
    for (raw_i, corr_i), log in zip(cells * args.seeds, logs):
        raw_i.append(estimate_length(log, cal, "raw"))
        corr_i.append(estimate_length(log, cal, correct_mode))

    rows: List[Tuple[float, float, float, float, float]] = []
    for length, (raw_i, corr_i) in zip(lengths, cells):
        med_raw, med_corr = _median(raw_i), _median(corr_i)
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
    if not args.out:  # "" would name the working directory
        raise ArgumentError("--out must name a file")
    if "\0" in args.out:
        raise ArgumentError("--out must not contain a NUL byte")
    maze, _stem = _load_maze(args.maze)
    mode = args.odometry or "ideal"
    params = MotionParams()
    result = dijkstra(graph_from_maze(maze), maze.start, maze.end)

    hops = _hops(maze, result.nodes)
    drive = _drive(mode, params, args.seed, hops)
    world: List[Tuple[float, float]] = []
    for i, (a, _b, direction, length) in enumerate(hops):
        trajectory = [(0.0, 0.0)]  # the start, each pivot and the end
        drive(length, i, trajectory)
        pa = maze.position(a)
        pts = world_points((pa.x, pa.y), direction, trajectory)
        if world and pts[0] == world[-1]:
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
            raise ArgumentError("--seed must be at least 0")
        if args.seed >= 2 ** 64:
            raise ArgumentError("--seed must be below 2**64")
        if args.command == "solve":
            out = cmd_solve(args)
        elif args.command == "tableone":
            out = cmd_tableone(args)
        else:
            out = cmd_plot(args)
    except LinemazeError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return exc.exit_code
    except (OSError, UnicodeDecodeError) as exc:  # a file it cannot read
        sys.stderr.write("error: %s\n" % exc)
        return 1
    except Exception:  # anything else is a defect in the package
        import traceback  # not at the top: it adds a third to import time
        traceback.print_exc()
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
