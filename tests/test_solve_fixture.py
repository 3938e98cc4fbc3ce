"""Regression fixture: ``solve`` and ``plot`` runs, as output and exit digests.

Each ``solve`` run is made in both report formats and reduced to a SHA-256
digest of its exit code and stdout; each ``plot`` run to a digest of its
exit code and the SVG it writes. The digests are compared with the
``solve/`` pins of ``pins.json``. TSV runs are keyed by case, text
runs by ``text/`` and the case, plot runs by ``plot/`` and the case. The
runs cover:

- the bundled mazes with the mapping explorer, in every odometry mode at
  three seeds, and fig2 and plus at explicit tolerances;
- the tape explorer on the bundled mazes and on seeded random trees;
- seeded loopy random mazes with the mapping explorer, every third one in
  every odometry mode and the rest in ideal;
- plots of the bundled mazes in every odometry mode at three seeds, and of
  every third loopy maze in every mode.
"""

import contextlib
import hashlib
import io
import pathlib
import random
import tempfile

from linemaze.cli import run
from linemaze.maze_model import serialize_maze
from linemaze.mazegen import random_maze, random_tree
from linemaze.odometry import ODOMETRY_MODES
from pins import check

BUNDLED = ("fig1", "fig2", "corridor", "plus")
# 30 loopy mazes of 15-102 grid cells; noisy modes on every third one.
LOOPY_SEEDS = range(7000, 7030)
TREE_SEEDS = range(7100, 7110)


def _solve(fmt, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(["solve", "--format", fmt] + argv)
    return hashlib.sha256(("%d\n%s" % (code, out.getvalue())).encode()
                          ).hexdigest()[:16]


def _plot(tmp, argv):
    svg = pathlib.Path(tmp) / "plot.svg"
    svg.unlink(missing_ok=True)
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = run(["plot", "--out", str(svg)] + argv)
    body = svg.read_bytes() if svg.exists() else b""
    return hashlib.sha256(b"%d\n" % code + body).hexdigest()[:16]


def _cases(tmp):
    def write(stem, maze):
        path = pathlib.Path(tmp) / ("%s.maze" % stem)
        path.write_text(serialize_maze(maze))
        return str(path)

    for name in BUNDLED:
        for mode in ODOMETRY_MODES:
            for seed in ("0", "1", "2"):
                yield ("map/%s/%s/%s" % (name, mode, seed),
                       ["--maze", name, "--odometry", mode, "--seed", seed])
        for mode in ("ideal", "arc"):
            yield ("simple/%s/%s" % (name, mode),
                   ["--maze", name, "--algo", "simple", "--odometry", mode,
                    "--show-tape"])
    for name in ("fig2", "plus"):
        for tol in ("0.5", "2", "3"):
            for mode in ("ideal", "arc"):
                yield ("tol/%s/%s/%s" % (name, mode, tol),
                       ["--maze", name, "--odometry", mode, "--tol", tol])
    for seed in TREE_SEEDS:
        path = write("tree%d" % seed,
                     random_tree(random.Random(seed), max_nodes=30))
        for mode in ("ideal", "basic"):
            yield ("simple/tree%d/%s" % (seed, mode),
                   ["--maze", path, "--algo", "simple", "--odometry", mode,
                    "--seed", str(seed)])
    for seed in LOOPY_SEEDS:
        i = seed - LOOPY_SEEDS[0]
        max_nodes = 15 + i * 3
        path = write("loopy%d" % seed,
                     random_maze(random.Random(seed), max_nodes=max_nodes,
                                 loops=max(1, max_nodes // 8),
                                 leaf_ends=i % 2 == 0))
        for mode in (ODOMETRY_MODES if i % 3 == 0 else ("ideal",)):
            yield ("map/loopy%d/%s" % (seed, mode),
                   ["--maze", path, "--odometry", mode, "--seed", str(i)])
        if i % 3 == 0:
            for mode in ODOMETRY_MODES:
                yield ("plot/loopy%d/%s" % (seed, mode),
                       ["--maze", path, "--odometry", mode, "--seed", str(i)])
    for name in BUNDLED:
        for mode in ODOMETRY_MODES:
            for seed in ("0", "1", "2"):
                yield ("plot/%s/%s/%s" % (name, mode, seed),
                       ["--maze", name, "--odometry", mode, "--seed", seed])


def record():
    got = {}
    with tempfile.TemporaryDirectory() as tmp:
        for key, argv in _cases(tmp):
            if key.startswith("plot/"):
                got[key] = _plot(tmp, argv)
            else:
                got[key] = _solve("tsv", argv)
                got["text/" + key] = _solve("text", argv)
    return got


def test_solve_reports_match_recorded_digests():
    check("solve", record())
