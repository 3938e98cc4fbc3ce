"""Regression fixture: ``solve --format tsv`` runs, as stdout and exit digests.

Each run is reduced to a SHA-256 digest of its exit code and stdout and
compared with ``solve_digests.json`` next to this file. The runs cover:

- the bundled mazes with the mapping explorer, in ideal, basic and arc
  odometry at three seeds, and fig2 and plus at explicit tolerances;
- the tape explorer on the bundled mazes and on seeded random trees;
- seeded loopy random mazes with the mapping explorer.

Raw odometry is left out: its reports changed when path labels and the end
point stopped being searched for by coordinates, and ``tests/test_cli.py``
checks them directly.

To re-record after a change that is meant to alter reports:
``PYTHONPATH=src python tests/test_solve_fixture.py > tests/solve_digests.json``
"""

import contextlib
import hashlib
import io
import json
import pathlib
import random
import tempfile

from linemaze.cli import run
from linemaze.maze_model import serialize_maze
from linemaze.mazegen import random_maze, random_tree

DIGESTS = pathlib.Path(__file__).with_name("solve_digests.json")

BUNDLED = ("fig1", "fig2", "corridor", "plus")
MODES = ("ideal", "basic", "arc")
# 30 loopy mazes of 15-102 grid cells; noisy modes on every third one.
LOOPY_SEEDS = range(7000, 7030)
TREE_SEEDS = range(7100, 7110)


def _solve(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(["solve", "--format", "tsv"] + argv)
    return hashlib.sha256(("%d\n%s" % (code, out.getvalue())).encode()
                          ).hexdigest()[:16]


def _cases(tmp):
    def write(stem, maze):
        path = pathlib.Path(tmp) / ("%s.maze" % stem)
        path.write_text(serialize_maze(maze))
        return str(path)

    for name in BUNDLED:
        for mode in MODES:
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
        for mode in (MODES if i % 3 == 0 else ("ideal",)):
            yield ("map/loopy%d/%s" % (seed, mode),
                   ["--maze", path, "--odometry", mode, "--seed", str(i)])


def record():
    with tempfile.TemporaryDirectory() as tmp:
        return {key: _solve(argv) for key, argv in _cases(tmp)}


def test_solve_reports_match_recorded_digests():
    expected = json.loads(DIGESTS.read_text())
    got = record()
    assert sorted(got) == sorted(expected)
    changed = sorted(k for k in got if got[k] != expected[k])
    assert changed == []


if __name__ == "__main__":
    print(json.dumps(record(), indent=1, sort_keys=True))
