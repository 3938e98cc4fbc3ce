"""Workloads: fixed lists of linemaze CLI calls, built from a seed.

Each operation is the argument list of one ``linemaze`` call plus a check of
its standard output. Mazes come from ``linemaze.mazegen`` and are written to
files in a temporary directory; building them is not timed. The expected
answer of every solve is the true shortest length from
``dijkstra(graph_from_maze(maze), start, end)``.
"""

import contextlib
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Optional, Tuple

from linemaze import mazegen
from linemaze.graph_path import dijkstra, graph_from_maze
from linemaze.maze_model import (MazeSpec, bundled_maze_text, parse_maze,
                                 serialize_maze)

WORKLOADS = ("map-ideal-large", "segments", "solve-arc-mixed")

# Accuracy bounds, in percent of the true length. Corrected lengths land
# within a few tenths of a percent (the paper's claim); the basic correction
# is looser. A result outside its bound counts as a failed operation.
ARC_PATH_BOUND_PCT = 0.5
BASIC_PATH_BOUND_PCT = 1.0
ARC_SEG_BOUND_PCT = 0.5
BASIC_SEG_BOUND_PCT = 1.0

# A drawn maze is kept when its node count is within this share of the
# rung's target, so that every seed solves mazes of the same sizes.
SIZE_BAND = 0.02

# map-ideal-large: (max_nodes, target node count, mazes) per ladder rung.
LADDER = ((400, 200, 8), (1600, 800, 4), (3200, 1400, 2))
LADDER_TINY = ((60, 30, 2), (160, 70, 1))

# segments: (lengths, seeds per length, odometry modes).
SEGMENT_GROUPS = (((1, 3, 10), 300, ("arc", "basic")),
                  ((100, 1000), 4, ("arc",)))
SEGMENT_GROUPS_TINY = (((1, 3, 10), 5, ("arc", "basic")),
                       ((100,), 1, ("arc",)))

# solve-arc-mixed: loopy map solves (max_nodes, target, mazes, of which
# basic), simple solves on trees (max_nodes, target, mazes).
MIXED_LOOPY = (400, 200, 8, 2)
MIXED_TREES = (1600, 800, 2)
MIXED_LOOPY_TINY = (60, 30, 2, 1)
MIXED_TREES_TINY = (120, 50, 1)
BUNDLED = ("fig1", "fig2", "corridor", "plus")
# simple rejects fig2's side-by-side lanes (exit 2), so fig2 runs map only.
BUNDLED_SIMPLE = ("fig1", "corridor", "plus")


@dataclass
class Op:
    """One CLI call and what its output must be."""

    argv: List[str]
    # check(stdout) -> (problem or None, accuracy error in percent or None)
    check: Callable[[str], Tuple[Optional[str], Optional[float]]]
    nodes: int = 0  # true maze nodes solved
    segments: int = 0  # segments simulated and corrected
    odometry: str = ""
    out_file: Optional[str] = None  # file the call writes, checked too


def _fields(stdout: str) -> dict:
    out = {}
    for line in stdout.splitlines():
        key, _, value = line.partition("\t")
        out.setdefault(key, value)
    return out


def _check_exact(true_len: float):
    want = "%.2f" % true_len

    def check(stdout):
        got = _fields(stdout).get("length")
        if got != want:
            return "length %r, expected %r" % (got, want), None
        return None, 0.0

    return check


def _check_close(true_len: float, bound_pct: float):
    def check(stdout):
        try:
            got = float(_fields(stdout)["length"])
        except (KeyError, ValueError):
            return "no length in output", None
        err = abs(got - true_len) / true_len * 100.0
        if not err <= bound_pct:
            return ("length %.2f is %.3f%% from the true %.4f (bound %g%%)"
                    % (got, err, true_len, bound_pct)), err
        return None, err

    return check


def _check_table(lengths, bound_pct: float):
    def check(stdout):
        lines = stdout.splitlines()
        if not lines or lines[0] != ("actual\tencoder\tformula\t"
                                     "err_enc_pct\terr_formula_pct"):
            return "missing table header", None
        rows = [line.split("\t") for line in lines[1:]]
        if [r[0] for r in rows] != ["%.2f" % x for x in lengths]:
            return "table rows do not match the lengths", None
        err = max(abs(float(r[4])) for r in rows)
        if not err <= bound_pct:
            return ("err_formula_pct %.4f exceeds %g%%" % (err, bound_pct),
                    err)
        return None, err

    return check


def _check_svg(path: str):
    def check(stdout):
        if stdout:
            return "plot printed to stdout", None
        text = Path(path).read_text(encoding="utf-8")
        if not (text.startswith("<svg") and text.endswith("</svg>\n")
                and 'class="trajectory"' in text):
            return "malformed SVG", None
        return None, None

    return check


def shortest(maze: MazeSpec) -> float:
    return dijkstra(graph_from_maze(maze), maze.start, maze.end).length


@contextlib.contextmanager
def _screening():
    """Skip mazegen's validation while drawing candidates.

    Validation checks every pair of edges and costs 30x the rest of
    generation at 1,400 nodes, and most candidates are thrown away. The CLI
    validates each kept maze when it loads the file, so no check is lost.
    """
    saved = getattr(mazegen, "make_maze", None)
    if saved is not None:
        mazegen.make_maze = lambda nodes, edges, start, end: MazeSpec(
            tuple(nodes), tuple(edges), start, end)
    try:
        yield
    finally:
        if saved is not None:
            mazegen.make_maze = saved


def draw_maze(rng: random.Random, max_nodes: int, target: int,
              loops: bool = True) -> MazeSpec:
    """First maze from ``rng``'s stream with about ``target`` nodes."""
    band = max(1.0, SIZE_BAND * target)
    with _screening():
        while True:
            sub = random.Random(rng.getrandbits(64))
            if loops:
                maze = mazegen.random_maze(sub, max_nodes=max_nodes,
                                           loops=max_nodes // 10)
            else:
                maze = mazegen.random_tree(sub, max_nodes=max_nodes)
            if abs(len(maze.nodes) - target) <= band:
                return maze


class _Builder:
    def __init__(self, name: str, seed: int, tmp: str):
        self.rng = random.Random("%s/%d" % (name, seed))
        self.tmp = Path(tmp)
        self.ops: List[Op] = []

    def seed(self) -> str:
        return str(self.rng.randrange(2 ** 31))

    def write(self, maze: MazeSpec) -> str:
        path = self.tmp / ("m%d.maze" % len(self.ops))
        path.write_text(serialize_maze(maze), encoding="utf-8")
        return str(path)

    def solve(self, maze: MazeSpec, maze_arg: str, algo: str,
              odometry: str) -> None:
        true_len = shortest(maze)
        if odometry == "ideal" or algo == "simple":
            # simple reports the replayed path's true length; on these
            # mazes that path is the shortest one.
            check = _check_exact(true_len)
        else:
            bound = (ARC_PATH_BOUND_PCT if odometry == "arc"
                     else BASIC_PATH_BOUND_PCT)
            check = _check_close(true_len, bound)
        self.ops.append(Op(
            ["solve", "--maze", maze_arg, "--algo", algo, "--odometry",
             odometry, "--seed", self.seed(), "--format", "tsv"],
            check, nodes=len(maze.nodes), odometry=odometry))


def _map_ideal_large(b: _Builder, tiny: bool) -> None:
    for max_nodes, target, count in (LADDER_TINY if tiny else LADDER):
        for _ in range(count):
            maze = draw_maze(b.rng, max_nodes, target)
            b.solve(maze, b.write(maze), "map", "ideal")


def _segments(b: _Builder, tiny: bool) -> None:
    for lengths, seeds, modes in (SEGMENT_GROUPS_TINY if tiny
                                  else SEGMENT_GROUPS):
        for mode in modes:
            bound = ARC_SEG_BOUND_PCT if mode == "arc" else BASIC_SEG_BOUND_PCT
            b.ops.append(Op(
                ["tableone", "--format", "tsv", "--odometry", mode,
                 "--lengths"] + [str(x) for x in lengths]
                + ["--seeds", str(seeds), "--seed", b.seed()],
                _check_table(lengths, bound),
                segments=len(lengths) * seeds, odometry=mode))


def _solve_arc_mixed(b: _Builder, tiny: bool) -> None:
    max_nodes, target, count, basic = MIXED_LOOPY_TINY if tiny else MIXED_LOOPY
    first = None
    for i in range(count):
        maze = draw_maze(b.rng, max_nodes, target)
        path = b.write(maze)
        first = first or path
        b.solve(maze, path, "map", "basic" if i >= count - basic else "arc")
    max_nodes, target, count = MIXED_TREES_TINY if tiny else MIXED_TREES
    for _ in range(count):
        maze = draw_maze(b.rng, max_nodes, target, loops=False)
        b.solve(maze, b.write(maze), "simple", "arc")
    for name in BUNDLED:
        maze = parse_maze(bundled_maze_text(name))
        b.solve(maze, name, "map", "arc")
        if name in BUNDLED_SIMPLE:
            b.solve(maze, name, "simple", "arc")
    svg = str(b.tmp / "plot.svg")
    b.ops.append(Op(["plot", "--maze", first, "--odometry", "arc", "--seed",
                     b.seed(), "--out", svg], _check_svg(svg), odometry="arc",
                    out_file=svg))


def build(name: str, seed: int, tmp: str, tiny: bool = False) -> List[Op]:
    """The fixed operation list of workload ``name`` for ``seed``."""
    builders = {"map-ideal-large": _map_ideal_large, "segments": _segments,
                "solve-arc-mixed": _solve_arc_mixed}
    b = _Builder(name, seed, tmp)
    builders[name](b, tiny)
    return b.ops


def growth_exponent(points) -> float:
    """Least-squares slope of log(time) against log(nodes)."""
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(t) for _, t in points]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx
