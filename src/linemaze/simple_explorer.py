"""Tape explorer: solve a (loop-free) line maze with one integer per junction.

The robot walks the maze with a fixed preference order over relative turns
(right/front/left/back). It keeps a single 1-based junction index and a list
of running sums — one per junction along the path it currently considers
live. Every time it picks a branch at a junction it adds that turn's relative
code to the junction's sum; dead ends walk back and drop the index so a
re-arrival lands on the same slot. Because the codes are relative to the
heading at each visit, the wrapped sum of all attempts at a junction equals
the net turn that skips the dead branches — so the finished tape replays a
direct, dead-end-free run from start to end.

Wrapped sums work modulo 4 in {1..4}; a sum that wraps to 4 ("back") means
every branch of that junction failed, so the explorer retreats one junction
further back. The scheme cannot represent mazes where two exits of a node
leave in the same compass direction (side-by-side lanes), and it loses the
shortest-path guarantee on mazes with large loops; a traversal budget turns
both into a clean error instead of an endless walk.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, NamedTuple, Sequence, Tuple

from ._directions import (BACK, FRONT, LEFT, NORTH, REL_NAMES, RIGHT,
                          absolute_of, reverse)
from .errors import ExplorationError, InconsistencyError
from .maze_model import MazeSpec

__all__ = [
    "PREF_RFLD",
    "PREF_LFRD",
    "PREFERENCES",
    "JunctionTape",
    "explore_simple",
    "reduce_tape",
    "replay",
]

# Preference presets, as relative-direction codes tried in order.
PREF_RFLD: Tuple[int, int, int, int] = (RIGHT, FRONT, LEFT, BACK)
PREF_LFRD: Tuple[int, int, int, int] = (LEFT, FRONT, RIGHT, BACK)
PREFERENCES: Dict[str, Tuple[int, int, int, int]] = {
    "RFLD": PREF_RFLD,
    "LFRD": PREF_LFRD,
}


class JunctionTape(NamedTuple):
    """Junction bookkeeping of one exploration.

    sums: accumulated relative-turn codes, one entry per junction on the
        final path, in path order.
    """

    sums: List[int]


def _check_pref(pref: Sequence[int]) -> None:
    if sorted(pref) != [RIGHT, FRONT, LEFT, BACK]:
        raise ValueError(
            "preference must be a permutation of (1, 2, 3, 4), got %r"
            % (tuple(pref),))


def _unique_exits(maze: MazeSpec, node: str) -> Dict[int, str]:
    """Map each exit direction of ``node`` to its neighbor.

    The tape scheme identifies a branch purely by its direction, so a node
    with two exits in the same compass direction is outside its class.
    """
    by_dir: Dict[int, str] = {}
    for (direction, lane), (other, _l, _b) in maze.branches[node].items():
        if lane:
            raise ExplorationError(
                "node %r has two exits in the same direction; side-by-side "
                "lanes are outside the tape explorer's maze class" % (node,))
        by_dir[direction] = other
    return by_dir


def _pick(by_dir: Dict[int, str], heading: int, pref: Sequence[int],
          exclude_back: bool) -> int:
    """First preferred relative code with a line present; back optionally barred."""
    for rel in pref:
        cand = absolute_of(rel, heading)
        if exclude_back and cand == reverse(heading):
            continue
        if cand in by_dir:
            return rel
    raise ExplorationError("no exit available; maze validation should have "
                           "prevented this node configuration")


def _walk(maze: MazeSpec,
          choose: Callable[[str, Dict[int, str], int, bool], int],
          dead_end: Callable[[str], None]) -> Iterator[str]:
    """Walk the maze from its start, yielding each node as it is reached.

    The walk goes straight through corridors and turns back at dead ends,
    calling ``dead_end(node)`` first. At a junction ``choose(node, by_dir,
    heading, exclude_back)`` returns the new heading; a start with a choice
    has no incoming heading, so it is asked against a nominal north heading
    with every incident line a candidate. The walk stops after yielding the
    end node, and reads a node's exits only when resumed past it, so the
    caller's budget check comes first. The start must not be the end.
    """
    node = maze.start
    by_dir = _unique_exits(maze, node)
    if len(by_dir) == 1:
        heading = next(iter(by_dir))
    else:
        heading = choose(node, by_dir, NORTH, False)
    while True:
        node = by_dir[heading]
        yield node
        if node == maze.end:
            return
        by_dir = _unique_exits(maze, node)
        degree = len(by_dir)
        if degree == 1:
            dead_end(node)
            heading = reverse(heading)
        elif degree == 2:
            heading = next(d for d in by_dir if d != reverse(heading))
        else:
            heading = choose(node, by_dir, heading, True)


def explore_simple(maze: MazeSpec, pref: Sequence[int] = PREF_RFLD) -> JunctionTape:
    """Walk the maze start→end, returning the junction tape of the run.

    Raises ExplorationError when the traversal budget (10 per maze edge) is
    exhausted — the signature of a maze outside the tape explorer's class
    (large loops, unreachable end, lanes).
    """
    _check_pref(pref)
    budget = 10 * len(maze.edges)
    sums: List[int] = []
    j = 0

    if maze.start == maze.end:
        return JunctionTape([])

    def tape_choice(_node: str, by_dir: Dict[int, str], heading: int,
                    exclude_back: bool) -> int:
        """Pick a branch, record its code, and return the new heading."""
        nonlocal j
        j += 1
        rel = _pick(by_dir, heading, pref, exclude_back)
        if j >= 1:
            while len(sums) < j:
                sums.append(0)
            sums[j - 1] += rel
            if sums[j - 1] % 4 == 0:
                # Every branch tried here led nowhere: the whole junction is
                # dead, so the retreat continues past the previous junction.
                j -= 2
        return absolute_of(rel, heading)

    def dead_end(_node: str) -> None:
        nonlocal j
        j -= 1

    for traversals, node in enumerate(_walk(maze, tape_choice, dead_end), 1):
        if node != maze.end and traversals >= budget:
            raise ExplorationError(
                "no path to the end within %d traversals; maze is outside "
                "the tape explorer's class (loops or unreachable end)"
                % budget)
    return JunctionTape(sums[:max(j, 0)])


def reduce_tape(tape: JunctionTape) -> List[int]:
    """Wrap each junction sum into a single relative turn code in {1..4}.

    A sum that wraps to 4 would mean "turn back" on the direct run — only
    possible if the junction's entire subtree was dead, which a finished
    tape of a solvable maze never contains.
    """
    reduced: List[int] = []
    for i, s in enumerate(tape.sums):
        code = ((s - 1) % 4) + 1
        if code == BACK:
            raise InconsistencyError(
                "junction %d sum %d reduces to a turn-back; the tape does "
                "not describe a forward run" % (i + 1, s))
        reduced.append(code)
    return reduced


def replay(maze: MazeSpec, reduced: Sequence[int]) -> List[str]:
    """Drive the maze start→end taking ``reduced[i]`` at the i-th junction.

    Returns every node passed, turns included. Raises InconsistencyError
    when the tape and the maze disagree (missing line, dead end, wrong
    length) — a finished tape from the same maze never does.
    """
    path = [maze.start]
    budget = 10 * len(maze.edges)
    idx = 0

    def consume(node: str, by_dir: Dict[int, str], heading: int,
                _exclude_back: bool) -> int:
        nonlocal idx
        if idx >= len(reduced):
            raise InconsistencyError(
                "tape exhausted at junction %r; run and tape disagree" % node)
        code = reduced[idx]
        idx += 1
        new_heading = absolute_of(code, heading)
        if new_heading not in by_dir:
            raise InconsistencyError(
                "tape directs %s at %r but no line leaves that way"
                % (REL_NAMES[code], node))
        return new_heading

    def dead_end(node: str) -> None:
        raise InconsistencyError(
            "replay hit a dead end at %r; the tape is not a reduced "
            "forward run" % (node,))

    walk = _walk(maze, consume, dead_end) if maze.start != maze.end else ()
    for traversals, node in enumerate(walk, 1):
        path.append(node)
        if node != maze.end and traversals >= budget:
            raise InconsistencyError(
                "tape did not reach the end within %d traversals" % budget)

    if idx != len(reduced):
        raise InconsistencyError(
            "tape has %d unused junction entries; run and tape disagree"
            % (len(reduced) - idx))
    return path
