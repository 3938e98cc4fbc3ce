"""Tape explorer: solve a loop-free line maze with one integer per junction.

The robot follows one wall: at a junction it takes the first exit in the
order right, front, left (RFLD) or left, front, right (LFRD), never back.
It keeps a 1-based junction index and one running sum per junction along
the path it currently considers live. Every time it picks a branch at a
junction it adds that turn's relative code to the junction's sum; dead
ends walk back and drop the index so a re-arrival lands on the same slot.
Because the codes are relative to the heading at each visit, the wrapped
sum of all attempts at a junction equals the net turn that skips the dead
branches — so the finished tape replays a direct, dead-end-free run.

Wrapped sums work modulo 4 in {1..4}; a sum that wraps to 4 ("back") means
every branch of that junction failed, so the explorer retreats one junction
further back. The scheme cannot name two exits that leave a node in the
same compass direction (side-by-side lanes), nor a route that leaves a
four-way start by its last exit; on large loops it loses the shortest-path
guarantee, and a traversal budget ends an endless walk with a clean error.
"""

from __future__ import annotations

import operator
from typing import Callable, Dict, Iterator, List, NamedTuple, Sequence, Tuple

from ._directions import (BACK, EAST, FRONT, LEFT, NORTH, REL_NAMES, RIGHT,
                          SOUTH, WEST, absolute_of, reverse)
from .errors import ArgumentError, ExplorationError, InconsistencyError
from .maze_model import MazeSpec, Slot

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


def _integers(entries: Sequence[int], what: str) -> List[int]:
    """``entries`` as ints; ArgumentError at the first that is not an integer."""
    ints: List[int] = []
    for i, entry in enumerate(entries, 1):
        try:
            ints.append(operator.index(entry))
        except TypeError:
            raise ArgumentError("%s %d must be an integer, got %r"
                                % (what, i, entry)) from None
    return ints


def _check_pref(pref: Sequence[int]) -> None:
    if tuple(_integers(pref, "preference entry")) not in (PREF_RFLD, PREF_LFRD):
        raise ArgumentError("preference must be PREF_RFLD %r or PREF_LFRD %r, "
                            "got %r" % (PREF_RFLD, PREF_LFRD, tuple(pref)))


def _walk(maze: MazeSpec,
          choose: Callable[[str, Dict[Slot, tuple], int], int],
          dead_end: Callable[[str], None]) -> Iterator[str]:
    """Walk the maze from its start, yielding each node as it is reached.

    The walk goes straight through corridors and turns back at dead ends,
    calling ``dead_end(node)`` first. At a junction ``choose(node, exits,
    heading)`` returns the new heading, where ``exits`` is the node's
    ``maze.branches`` entry. A start with two or more exits is a junction on
    every visit. The first time, it is entered from the first of its south,
    west, east and north sides with no line, so BACK names no exit; a four-way
    start is entered heading north. The walk stops after yielding the end node
    (at once if the start is the end) and reads a node's exits only when
    resumed past it, so the caller's budget check comes first.
    """
    node, heading = maze.start, None
    while node != maze.end:
        exits = maze.branches[node]
        if any(lane for _direction, lane in exits):
            # The tape names a branch by its direction alone.
            raise ExplorationError(
                "node %r has two exits in the same direction; side-by-side "
                "lanes are outside the tape explorer's maze class" % (node,))
        if heading is None and len(exits) == 1:
            heading = next(iter(exits))[0]
        elif heading is None:
            heading = choose(node, exits, next(
                (reverse(side) for side in (SOUTH, WEST, EAST, NORTH)
                 if (side, 0) not in exits), NORTH))
        elif len(exits) == 1:
            dead_end(node)
            heading = reverse(heading)
        elif len(exits) == 2 and node != maze.start:
            heading = next(d for d, _lane in exits if d != reverse(heading))
        else:
            heading = choose(node, exits, heading)
        node = exits[heading, 0][0]
        yield node


def explore_simple(maze: MazeSpec, pref: Sequence[int] = PREF_RFLD) -> JunctionTape:
    """Follow one wall start→end, returning the junction tape of the run.

    ``pref`` is ``PREF_RFLD`` or ``PREF_LFRD``. Raises ExplorationError for
    a maze outside the class: lanes, a route that leaves a four-way start by
    its last exit, or an exhausted traversal budget (10 per maze edge).
    """
    _check_pref(pref)
    budget = 10 * len(maze.edges)
    sums: List[int] = []
    j = 0

    def tape_choice(node: str, exits: Dict[Slot, tuple], heading: int) -> int:
        """Pick a branch, record its code, and return the new heading."""
        nonlocal j
        # BACK, last in each preset, would retrace the line just walked.
        rel = next(r for r in pref[:3] if (absolute_of(r, heading), 0) in exits)
        j += 1
        if j >= 1:
            if j > len(sums):
                sums.append(0)
            sums[j - 1] += rel
            if sums[j - 1] % 4 == 0:
                if node == maze.start:
                    raise ExplorationError(
                        "the route leaves start %r by its last exit, which no "
                        "turn code 1-3 names; outside the tape explorer's "
                        "maze class" % (node,))
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
    for i, s in enumerate(_integers(tape.sums, "tape sum at junction"), 1):
        code = ((s - 1) % 4) + 1
        if code == BACK:
            raise InconsistencyError(
                "junction %d sum %d reduces to a turn-back; the tape does "
                "not describe a forward run" % (i, s))
        reduced.append(code)
    return reduced


def replay(maze: MazeSpec, reduced: Sequence[int]) -> List[str]:
    """Drive the maze start→end taking ``reduced[i]`` at the i-th junction.

    Returns every node passed, turns included. Raises ArgumentError for an
    entry that is not a turn code 1–3 (a reduced tape holds no BACK), and
    InconsistencyError when the tape and the maze disagree (missing line,
    dead end, wrong length) — a finished tape from the same maze never does.
    """
    codes = _integers(reduced, "replay code at junction")
    for i, code in enumerate(codes, 1):
        if code not in (RIGHT, FRONT, LEFT):
            raise ArgumentError("replay code at junction %d must be 1, 2 or 3, "
                                "got %r" % (i, code))
    path = [maze.start]
    budget = 10 * len(maze.edges)
    idx = 0

    def consume(node: str, exits: Dict[Slot, tuple], heading: int) -> int:
        nonlocal idx
        if idx >= len(codes):
            raise InconsistencyError(
                "tape exhausted at junction %r; run and tape disagree" % node)
        code = codes[idx]
        idx += 1
        new_heading = absolute_of(code, heading)
        if (new_heading, 0) not in exits:
            raise InconsistencyError(
                "tape directs %s at %r but no line leaves that way"
                % (REL_NAMES[code], node))
        return new_heading

    def dead_end(node: str) -> None:
        raise InconsistencyError(
            "replay hit a dead end at %r; the tape is not a reduced "
            "forward run" % (node,))

    for traversals, node in enumerate(_walk(maze, consume, dead_end), 1):
        path.append(node)
        if node != maze.end and traversals >= budget:
            raise InconsistencyError(
                "tape did not reach the end within %d traversals" % budget)

    if idx != len(codes):
        raise InconsistencyError(
            "tape has %d unused junction entries; run and tape disagree"
            % (len(codes) - idx))
    return path
