"""Maze text format: parsing, serialization, validation, geometry queries."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linemaze._directions import EAST, NORTH, SOUTH, WEST
from linemaze.errors import (LinemazeError, MazeSyntaxError,
                             MazeValidationError)
from linemaze.maze_model import (MazeEdge, MazeNode, MazeSpec, Point2D,
                                 _check_crossings, _index_edges,
                                 bundled_maze_text, make_maze, parse_maze,
                                 serialize_maze)
from linemaze.mazegen import random_maze, random_tree

from conftest import build_maze
from oracles import (reference_branches, reference_check_crossings,
                     reference_parse_maze, reference_random_maze,
                     reference_validate)


BUNDLED = ["fig1", "fig2", "corridor", "plus"]


# ---------------------------------------------------------------- parsing

@pytest.mark.parametrize("name", BUNDLED)
def test_bundled_mazes_parse_and_roundtrip(name):
    text = bundled_maze_text(name)
    maze = parse_maze(text)
    again = parse_maze(serialize_maze(maze))
    assert again == maze


def test_parsed_records_are_the_named_tuple_types():
    # parse_maze builds its records with tuple.__new__, not their
    # constructors: they must still be exactly these types.
    maze = parse_maze(serialize_maze(random_maze(random.Random(3),
                                                 max_nodes=40, loops=4)))
    for n in maze.nodes:
        assert type(n) is MazeNode and type(n.position) is Point2D
        assert type(n.id) is str and type(n.position.x) is float
        assert n == MazeNode(n.id, Point2D(*n.position))
    for e in maze.edges:
        assert type(e) is MazeEdge and e == MazeEdge(e.a, e.b)
    assert type(maze) is MazeSpec


def test_bundled_name_with_and_without_suffix():
    assert bundled_maze_text("fig1") == bundled_maze_text("fig1.maze")


def test_unknown_bundled_maze():
    with pytest.raises(MazeValidationError, match="no bundled maze named"):
        bundled_maze_text("nosuch")
    with pytest.raises(MazeValidationError) as err:
        bundled_maze_text(("fig2",))
    assert str(err.value) == "no bundled maze named ('fig2',)"


def test_comments_and_blank_lines_ignored():
    maze = parse_maze(
        "# a comment\n"
        "\n"
        "node S 0 0   # trailing comment\n"
        "node F 0 10\n"
        "edge S F\n"
        "start S\n"
        "end F\n")
    assert [n.id for n in maze.nodes] == ["S", "F"]
    assert maze.start == "S" and maze.end == "F"


@pytest.mark.parametrize("bad_line,lineno,msg", [
    ("node S 0", 1, "node record needs"),
    ("node S x 0", 1, "bad coordinate"),
    ("edge S", 1, "edge record needs"),
    ("start", 1, "start record needs"),
    ("end", 1, "end record needs"),
    ("wall S F", 1, "unknown record type"),
    ("node S 0 0 9", 1, "node record needs"),
    ("edge S F G", 1, "edge record needs"),
    ("start S F", 1, "start record needs"),
    ("end F G", 1, "end record needs"),
])
def test_syntax_errors_carry_line_numbers(bad_line, lineno, msg):
    with pytest.raises(MazeSyntaxError, match=msg) as ei:
        parse_maze(bad_line + "\n")
    assert ei.value.line == lineno
    assert "line 1:" in str(ei.value)


def test_syntax_error_line_number_counts_all_lines():
    text = "# header\nnode S 0 0\nnode F 0 10\nedge S F\nstart S\nend F\nbogus\n"
    with pytest.raises(MazeSyntaxError) as ei:
        parse_maze(text)
    assert ei.value.line == 7


@pytest.mark.parametrize("dup", ["start", "end"])
def test_duplicate_start_end_records(dup):
    text = ("node S 0 0\nnode F 0 10\nedge S F\nstart S\nend F\n"
            + "%s S\n" % dup)
    with pytest.raises(MazeSyntaxError, match="duplicate %s record" % dup):
        parse_maze(text)


@pytest.mark.parametrize("missing,msg", [
    ("start", "missing start record"),
    ("end", "missing end record"),
])
def test_missing_start_end(missing, msg):
    lines = ["node S 0 0", "node F 0 10", "edge S F", "start S", "end F"]
    lines = [l for l in lines if not l.startswith(missing)]
    with pytest.raises(MazeValidationError, match=msg):
        parse_maze("\n".join(lines) + "\n")


# Record-like lines: known and unknown kinds, 0-4 tokens, varied spacing,
# optional comments. Tokens are ids and coordinates, valid or not. Known kinds,
# nodes most, are drawn more often, so that lines get past the record checks
# to the coordinate and validation errors.
_KINDS = ("node", "node", "node", "edge", "edge", "start", "end", "wall",
          "Node", "", "#")
_TOKENS = ("S", "J", "D", "F", "p0", "0", "10", "-6", "6", "nan", "1e309",
           "-0", "1_0", "x", "inf")
_RECORD = st.builds(
    lambda pad, sep, kind, tokens, comment:
        pad + sep.join([kind] + tokens) + comment,
    st.sampled_from(("", " ", "\t")), st.sampled_from((" ", "  ", "\t ")),
    st.sampled_from(_KINDS),
    st.integers(0, 4).flatmap(lambda n: st.lists(
        st.sampled_from(_TOKENS), min_size=n, max_size=n)),
    st.sampled_from(("", " # note", "#end F")))
# A valid T junction that drawn lines are mixed into.
_T_MAZE = ("node S 0 0", "node J 0 10", "node D 6 10", "node F -6 10",
           "edge J S", "edge J D", "edge J F", "start S", "end F")


def _parse_outcome(parse, text):
    """The spec and its text, or the error's type and message. Any error
    but the package's escapes."""
    try:
        maze = parse(text)
    except LinemazeError as exc:
        return type(exc), str(exc)
    return maze, serialize_maze(maze)


@settings(max_examples=400, deadline=None)
@given(data=st.data(), base=st.booleans(),
       lines=st.lists(_RECORD, max_size=6))
def test_parser_matches_reference(data, base, lines):
    text_lines = list(_T_MAZE) if base else []
    for line in lines:
        text_lines.insert(data.draw(st.integers(0, len(text_lines))), line)
    breaks = data.draw(st.lists(st.sampled_from(("\n", "\r\n", "\r", "\x0b")),
                                min_size=len(text_lines),
                                max_size=len(text_lines)))
    text = "".join(line + br for line, br in zip(text_lines, breaks))
    assert (_parse_outcome(parse_maze, text)
            == _parse_outcome(reference_parse_maze, text))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32), max_nodes=st.integers(2, 150),
       loops=st.integers(0, 30), leaf_ends=st.booleans())
def test_generated_mazes_round_trip(seed, max_nodes, loops, leaf_ends):
    maze = random_maze(random.Random(seed), max_nodes, loops, leaf_ends)
    text = serialize_maze(maze)
    again = parse_maze(text)
    assert again == maze
    assert serialize_maze(again) == text


def test_serialize_uses_repr_coordinates():
    maze = build_maze([("S", 0.5, 0), ("F", 0.5, 10.25)], [("S", "F")], "S", "F")
    text = serialize_maze(maze)
    assert "node S 0.5 0.0" in text
    assert "node F 0.5 10.25" in text
    assert text.endswith("end F\n")
    assert parse_maze(text) == maze


# ------------------------------------------------------------- validation

def test_duplicate_node_id():
    with pytest.raises(MazeValidationError, match="duplicate node id 'S'"):
        build_maze([("S", 0, 0), ("S", 0, 10)], [], "S", "S")


def test_whitespace_node_id():
    with pytest.raises(MazeValidationError, match="empty or contains whitespace"):
        make_maze([MazeNode("a b", Point2D(0.0, 0.0))], [], "a b", "a b")


def test_hash_in_node_id_rejected():
    # serialize_maze would write "node a#b ...", which parses as a comment.
    with pytest.raises(MazeValidationError, match="contains '#'"):
        build_maze([("a#b", 0, 0), ("F", 0, 10)], [("a#b", "F")], "a#b", "F")


# Ids from this alphabet may hold a comment character or whitespace that
# str.split() splits at: ASCII, Unicode, and characters that also end a
# line for str.splitlines().
_ID_ALPHABET = "ab9\u00e9-# \t\u2003\x85\u2028\x1c"


@settings(max_examples=200, deadline=None)
@given(drawn=st.text(_ID_ALPHABET, max_size=4), at=st.integers(0, 3),
       ends=st.tuples(st.integers(0, 3), st.integers(0, 3)))
def test_every_accepted_maze_round_trips(drawn, at, ends):
    # A T junction; one of its four ids is drawn.
    ids = ["S", "J", "D", "F"]
    ids[at] = drawn
    positions = [(0.0, 0.0), (0.0, 10.0), (6.0, 10.0), (-6.0, 10.0)]
    nodes = [MazeNode(i, Point2D(x, y)) for i, (x, y) in zip(ids, positions)]
    edges = [MazeEdge(ids[1], ids[k]) for k in (0, 2, 3)]
    try:
        maze = make_maze(nodes, edges, ids[ends[0]], ids[ends[1]])
    except MazeValidationError:
        return
    assert parse_maze(serialize_maze(maze)) == maze


def test_non_finite_coordinates():
    with pytest.raises(MazeValidationError, match="non-finite"):
        make_maze([MazeNode("S", Point2D(float("nan"), 0.0)),
                   MazeNode("F", Point2D(0.0, 10.0))],
                  [MazeEdge("S", "F")], "S", "F")


def test_shared_coordinates():
    with pytest.raises(MazeValidationError, match="share coordinates"):
        build_maze([("S", 0, 0), ("F", 0, 0)], [("S", "F")], "S", "F")


def test_edge_unknown_node():
    with pytest.raises(MazeValidationError, match="references an unknown node"):
        build_maze([("S", 0, 0), ("F", 0, 10)], [("S", "Q")], "S", "F")


def test_self_loop():
    with pytest.raises(MazeValidationError, match="self-loop"):
        build_maze([("S", 0, 0), ("F", 0, 10)], [("S", "S"), ("S", "F")],
                   "S", "F")


def test_duplicate_edge_either_orientation():
    with pytest.raises(MazeValidationError, match="duplicate edge"):
        build_maze([("S", 0, 0), ("F", 0, 10)], [("S", "F"), ("F", "S")],
                   "S", "F")


def test_diagonal_edge():
    with pytest.raises(MazeValidationError, match="not axis-aligned"):
        build_maze([("S", 0, 0), ("F", 3, 10)], [("S", "F")], "S", "F")


def test_edge_length_overflow():
    with pytest.raises(MazeValidationError,
                       match="edge A-B is too long: its length is not finite"):
        build_maze([("A", -1e308, 0), ("B", 1e308, 0)], [("A", "B")],
                   "A", "B")


@pytest.mark.parametrize("axis", ["x", "y"])
def test_extent_overflow(axis):
    # Each coordinate and edge length is finite, but A and C lie 3e308 apart.
    spots = [("A", -1.5e308, 0.0), ("B", 0.0, 0.0), ("E", 0.0, 5.0),
             ("C", 1.5e308, 0.0), ("D", 1.5e308, 5.0)]
    nodes = [MazeNode(i, Point2D(*((x, y) if axis == "x" else (y, x))))
             for i, x, y in spots]
    edges = [MazeEdge(*pair) for pair in ("AB", "BE", "BC", "CD")]
    for validate in (lambda m: make_maze(m.nodes, m.edges, m.start, m.end),
                     reference_validate):
        assert _validation_outcome(validate, nodes, edges, "A", "D") == \
            "the maze's extent along %s is not finite" % axis


# Edge lists over the nodes below, each with one bad edge: the message
# names the first bad edge in list order.
_BAD_EDGES = [
    ([("S", "F"), ("S", "Q")], "edge S-Q references an unknown node"),
    ([("S", "S"), ("S", "F")], "edge S-S is a self-loop"),
    ([("S", "F"), ("S", "F")], "duplicate edge S-F"),
    ([("S", "F"), ("F", "S")], "duplicate edge F-S"),
    ([("S", "F"), ("F", "D")], "edge F-D not axis-aligned"),
    ([("S", "F"), ("F", "B"), ("B", "A")],
     "edge B-A is too long: its length is not finite"),
]


@pytest.mark.parametrize("edges, message", _BAD_EDGES)
def test_branches_check_edges_of_an_unvalidated_maze(edges, message):
    nodes = [MazeNode(i, Point2D(x, y)) for i, x, y in
             [("S", 0.0, 0.0), ("F", 0.0, 10.0), ("D", 3.0, 20.0),
              ("A", -1e308, 10.0), ("B", 1e308, 10.0)]]
    maze = MazeSpec(tuple(nodes), tuple(MazeEdge(a, b) for a, b in edges),
                    "S", "F")
    with pytest.raises(MazeValidationError) as exc:
        maze.branches
    assert str(exc.value) == message
    with pytest.raises(MazeValidationError) as exc:
        reference_validate(maze)
    assert str(exc.value) == message


def test_branches_reject_a_zero_length_edge():
    # Two nodes at one point: the edge between them runs along no axis.
    # The validator reports the shared coordinates before any edge.
    nodes = [("S", 0.0, 0.0), ("T", 0.0, 0.0), ("F", 0.0, 10.0)]
    edges = [("S", "F"), ("S", "T")]
    maze = MazeSpec(tuple(MazeNode(i, Point2D(x, y)) for i, x, y in nodes),
                    tuple(MazeEdge(a, b) for a, b in edges), "S", "F")
    with pytest.raises(MazeValidationError,
                       match="^edge S-T not axis-aligned$"):
        maze.branches
    with pytest.raises(MazeValidationError,
                       match=r"^nodes 'S' and 'T' share coordinates \(0.0, 0.0\)$"):
        build_maze(nodes, edges, "S", "F")


def test_unknown_start_and_end():
    nodes, edges = [("S", 0, 0), ("F", 0, 10)], [("S", "F")]
    with pytest.raises(MazeValidationError, match="start refers to unknown"):
        build_maze(nodes, edges, "Q", "F")
    with pytest.raises(MazeValidationError, match="end refers to unknown"):
        build_maze(nodes, edges, "S", "Q")
    # A tuple is quoted whole, not spread over the message's one slot.
    for start, end, message in [
            (("S", "F"), "F", "start refers to unknown node ('S', 'F')"),
            ("S", ("F",), "end refers to unknown node ('F',)")]:
        with pytest.raises(MazeValidationError) as err:
            build_maze(nodes, edges, start, end)
        assert str(err.value) == message


_S, _F = MazeNode("S", Point2D(0.0, 0.0)), MazeNode("F", Point2D(0.0, 10.0))


@pytest.mark.parametrize("nodes, edges, start, end, message", [
    ([MazeNode(1, Point2D(0.0, 0.0)), _F], [("S", "F")], "S", "F",
     "node id 1 is not a string"),
    ([MazeNode(("S",), Point2D(0.0, 0.0)), _F], [("S", "F")], "S", "F",
     "node id ('S',) is not a string"),
    ([MazeNode("S", Point2D("0", 0.0)), _F], [("S", "F")], "S", "F",
     "node 'S' position Point2D(x='0', y=0.0) is not a Point2D of numbers"),
    ([MazeNode("S", "0 0"), _F], [("S", "F")], "S", "F",
     "node 'S' position '0 0' is not a Point2D of numbers"),
    ([MazeNode("S", (0.0, 0.0)), _F], [("S", "F")], "S", "F",
     "node 'S' position (0.0, 0.0) is not a Point2D of numbers"),
    ([_S, _F], [(["S"], "F")], "S", "F",
     "edge ['S']-F references an unknown node"),
    ([_S, _F], [("S", ["F"])], "S", "F",
     "edge S-['F'] references an unknown node"),
    ([_S, _F], [("S", "F")], ["S"], "F",
     "start refers to unknown node ['S']"),
    ([_S, _F], [("S", "F")], "S", ["F"], "end refers to unknown node ['F']"),
], ids=["int-id", "tuple-id", "str-coordinate", "str-position",
        "tuple-position", "unhashable-a", "unhashable-b", "unhashable-start", "unhashable-end"])
def test_values_of_the_wrong_type_are_validation_errors(nodes, edges, start,
                                                        end, message):
    # Built directly, not parsed: the parser only ever makes str ids and
    # float coordinates.
    with pytest.raises(MazeValidationError) as err:
        make_maze(nodes, [MazeEdge(a, b) for a, b in edges], start, end)
    assert str(err.value) == message


@pytest.mark.parametrize("nodes, edges, message", [
    ([_S, _F], [("S",)], "edge ('S',) is not a MazeEdge"),
    ([_S, _F], [("S", "F", "X")], "edge ('S', 'F', 'X') is not a MazeEdge"),
    ([_S, _F], [("S", "F")], "edge ('S', 'F') is not a MazeEdge"),
    (["S", _F], [MazeEdge("S", "F")], "node 'S' is not a MazeNode"),
    (None, [MazeEdge("S", "F")], "nodes must be a sequence, got None"),
    ([_S, _F], None, "edges must be a sequence, got None"),
], ids=["one-item-edge", "three-item-edge", "plain-tuple-edge", "str-node",
        "no-nodes", "no-edges"])
def test_malformed_records_are_validation_errors(nodes, edges, message):
    # Serializing, plotting and validating read an edge's .a and .b and a
    # node's .id and .position, so records of any other type are rejected.
    with pytest.raises(MazeValidationError) as err:
        make_maze(nodes, edges, "S", "F")
    assert str(err.value) == message


def test_isolated_node():
    with pytest.raises(MazeValidationError, match="is isolated"):
        build_maze([("S", 0, 0), ("F", 0, 10), ("L", 5, 5)], [("S", "F")],
                   "S", "F")


def test_degree_cap():
    nodes = [("C", 0, 0), ("N", 0, 5), ("S", 0, -5), ("E", 5, 0), ("W", -5, 0),
             ("N2", 0, 10)]
    edges = [("C", "N"), ("C", "S"), ("C", "E"), ("C", "W"), ("C", "N2")]
    with pytest.raises(MazeValidationError, match="degree 5 > 4"):
        build_maze(nodes, edges, "S", "N")


def test_collinear_degree2_node_rejected():
    with pytest.raises(MazeValidationError, match="collinear"):
        build_maze([("S", 0, 0), ("M", 0, 5), ("F", 0, 10)],
                   [("S", "M"), ("M", "F")], "S", "F")


@pytest.mark.parametrize("late_nodes, late_edges, message", [
    ([("L", 20, 20)], [], "node 'L' is isolated"),
    ([("C", 20, 0), ("N", 20, 5), ("D", 20, -5), ("E", 25, 0), ("W", 15, 0),
      ("N2", 20, 10)],
     [("C", "N"), ("C", "D"), ("C", "E"), ("C", "W"), ("C", "N2")],
     "node 'C' has degree 5 > 4"),
])
def test_a_degree_error_comes_before_an_earlier_straight_node(
        late_nodes, late_edges, message):
    # M is straight and comes first, but every degree is checked before
    # any degree-2 node's turn.
    nodes = [MazeNode(i, Point2D(float(x), float(y))) for i, x, y
             in [("S", 0, 0), ("M", 0, 5), ("F", 0, 10)] + late_nodes]
    edges = [MazeEdge(a, b) for a, b in [("S", "M"), ("M", "F")] + late_edges]
    for validate in (lambda m: make_maze(m.nodes, m.edges, m.start, m.end),
                     reference_validate):
        assert _validation_outcome(validate, nodes, edges, "S", "F") == message


def test_degree2_turn_accepted():
    maze = build_maze([("S", 0, 0), ("M", 0, 5), ("F", 6, 5)],
                      [("S", "M"), ("M", "F")], "S", "F")
    assert len(maze.branches["M"]) == 2


def test_unrepresented_crossing_rejected():
    # Vertical S-F passes through horizontal A-B's midpoint with no node.
    with pytest.raises(MazeValidationError, match="cross at"):
        build_maze(
            [("S", 0, -10), ("F", 0, 10), ("A", -5, 0), ("B", 5, 0),
             ("T", 5, 10)],
            [("S", "F"), ("A", "B"), ("B", "T"), ("T", "F")],
            "S", "F")


@pytest.mark.parametrize("vertical", [("S", "F"), ("F", "S")])
@pytest.mark.parametrize("horizontal", [("A", "B"), ("B", "A")])
def test_crossing_found_whichever_way_its_edges_are_written(vertical,
                                                            horizontal):
    # An edge's endpoints may come in either order along its axis.
    with pytest.raises(MazeValidationError) as err:
        build_maze(
            [("S", 0, -10), ("F", 0, 10), ("A", -5, 0), ("B", 5, 0),
             ("T", 5, 10)],
            [vertical, horizontal, ("B", "T"), ("T", "F")],
            "S", "F")
    assert str(err.value) == (
        "edges %s-%s and %s-%s cross at (0, 0); crossings must be a "
        "junction node" % (horizontal + vertical))


def test_crossing_at_junction_node_accepted():
    # Same picture but with a degree-4 node at the intersection.
    maze = build_maze(
        [("S", 0, -10), ("X", 0, 0), ("F", 0, 10), ("A", -5, 0), ("B", 5, 0)],
        [("S", "X"), ("X", "F"), ("X", "A"), ("X", "B")],
        "S", "F")
    assert len(maze.branches["X"]) == 4


def test_lane_passing_a_node_needs_collinear_corridor():
    # Horizontal edge A-B passes exactly through node M, which has only a
    # vertical corridor: the contact is not representable.
    with pytest.raises(MazeValidationError, match="cross at"):
        build_maze(
            [("A", -5, 0), ("B", 5, 0), ("M", 0, 0), ("T", 0, 10),
             ("TA", -5, 10)],
            [("A", "B"), ("M", "T"), ("T", "TA"), ("TA", "A")],
            "A", "B")


@pytest.mark.parametrize("order, message", [
    ("S-F C-D A-B G-H K-L", "edges C-D and S-F cross at (0, 5)"),
    ("A-B S-F C-D G-H K-L", "edges A-B and S-F cross at (0, -5)"),
    ("A-B G-H K-L S-F C-D", "edges A-B and S-F cross at (0, -5)"),
    ("K-L A-B S-F C-D G-H", "edges K-L and G-H cross at (20, 0)"),
])
def test_crossing_report_names_the_first_pair_in_edge_order(order, message):
    # S-F crosses A-B and C-D, and G-H crosses K-L. The pair reported is the
    # first one an all-pairs loop over the edges in file order meets.
    with pytest.raises(MazeValidationError) as err:
        build_maze(
            [("S", 0, -10), ("F", 0, 10), ("A", -5, -5), ("B", 5, -5),
             ("C", -5, 5), ("D", 5, 5), ("G", 20, -10), ("H", 20, 10),
             ("K", 15, 0), ("L", 25, 0)],
            [tuple(e.split("-")) for e in order.split()], "S", "F")
    assert str(err.value) == message + "; crossings must be a junction node"


def pairwise_crossings(by_id, edges):
    """Reference crossing check: every pair of edges, in edge order."""
    coords = {(n.position.x, n.position.y): n.id for n in by_id.values()}
    axes_at = {n.id: set() for n in by_id.values()}
    for e in edges:
        pa, pb = by_id[e.a].position, by_id[e.b].position
        axis = "h" if pa.y == pb.y else "v"
        axes_at[e.a].add(axis)
        axes_at[e.b].add(axis)
    segs = []
    for e in edges:
        pa, pb = by_id[e.a].position, by_id[e.b].position
        segs.append((e, pa.y == pb.y, pa, pb))
    for i in range(len(segs)):
        ei, hi, a1, b1 = segs[i]
        for j in range(i + 1, len(segs)):
            ej, hj, a2, b2 = segs[j]
            if hi == hj:
                continue
            if hi:
                h_e, (hx1, hx2), hy = ei, sorted((a1.x, b1.x)), a1.y
                v_e, (vy1, vy2), vx = ej, sorted((a2.y, b2.y)), a2.x
            else:
                h_e, (hx1, hx2), hy = ej, sorted((a2.x, b2.x)), a2.y
                v_e, (vy1, vy2), vx = ei, sorted((a1.y, b1.y)), a1.x
            if not (hx1 <= vx <= hx2 and vy1 <= hy <= vy2):
                continue
            node_here = coords.get((vx, hy))
            ok = node_here is not None
            if ok:
                for edge, axis in ((h_e, "h"), (v_e, "v")):
                    if node_here in (edge.a, edge.b):
                        continue
                    if axis not in axes_at[node_here]:
                        ok = False
            if not ok:
                raise MazeValidationError(
                    "edges %s-%s and %s-%s cross at (%g, %g); crossings must be a junction node"
                    % (h_e.a, h_e.b, v_e.a, v_e.b, vx, hy))


def _injected_maze(seed):
    """A generated maze plus axis-aligned edges laid over it.

    Returns (kind, by_id, edges). The injected edges go to random places in
    the edge list, so the first offending pair in edge order varies.
    """
    rng = random.Random(seed)
    kind = ("cross", "t_touch", "t_junction", "lane", "random")[seed % 5]
    maze = random_maze(rng, max_nodes=rng.choice((12, 30, 60)),
                       loops=rng.randrange(8))
    by_id = {n.id: n for n in maze.nodes}
    at = {(n.position.x, n.position.y): n.id for n in maze.nodes}
    edges = list(maze.edges)
    xs = sorted({n.position.x for n in maze.nodes})
    ys = sorted({n.position.y for n in maze.nodes})

    def node(x, y):
        if (x, y) not in at:
            name = "q%d" % len(by_id)
            at[(x, y)] = name
            by_id[name] = MazeNode(name, Point2D(x, y))
        return at[(x, y)]

    def add(p, q):
        a, b = node(*p), node(*q)
        if a != b and all({a, b} != {e.a, e.b} for e in edges):
            edges.insert(rng.randrange(len(edges) + 1), MazeEdge(a, b))

    vertical = [e for e in maze.edges
                if by_id[e.a].position.x == by_id[e.b].position.x]
    e = rng.choice(vertical) if vertical else maze.edges[0]
    x, y1, y2 = (by_id[e.a].position.x, by_id[e.a].position.y,
                 by_id[e.b].position.y)
    ym = (y1 + y2) / 2
    if kind == "cross":
        # Across the whole maze between two rows: passes vertical edges.
        y = rng.choice(ys[:-1]) + 0.5 if len(ys) > 1 else ys[0] + 0.5
        add((xs[0] - 1, y), (xs[-1] + 1, y))
    elif kind == "t_touch":
        # Ends on the interior of a vertical edge, with no junction there.
        add((x - 1.5, ym), (x, ym))
    elif kind == "t_junction":
        # The same T, but the touched point gets a vertical corridor.
        add((x - 1.5, ym), (x, ym))
        add((x, ym), (x, max(y1, y2)))
    elif kind == "lane":
        # Along an existing row, past every node on it.
        y = rng.choice(ys)
        add((xs[0] - 1, y), (xs[-1] + 1, y))
    else:
        for _ in range(rng.randint(1, 4)):
            fixed = rng.choice(ys) + rng.choice((0.0, 0.0, 0.5))
            lo, hi = (sorted(rng.sample(xs, 2)) if len(xs) > 1
                      else (xs[0], xs[0] + 1))
            p, q = (lo + rng.choice((0.0, -1.0)), fixed), (hi, fixed)
            if rng.random() < 0.5:
                p, q = p[::-1], q[::-1]
            add(p, q)
    return kind, by_id, tuple(edges)


def sweep_crossings(by_id, edges):
    """``_check_crossings`` called the way ``_validate`` calls it."""
    maze = MazeSpec(tuple(by_id.values()), edges, "", "")
    _check_crossings(maze, {(n.position.x, n.position.y): n.id
                            for n in maze.nodes}, *_index_edges(maze)[1:])


def _crossing_outcome(check, by_id, edges):
    try:
        check(by_id, edges)
    except MazeValidationError as exc:
        return str(exc)
    return "ok"


def test_crossing_sweep_agrees_with_pairwise_check():
    outcomes = {}
    for seed in range(100):
        kind, by_id, edges = _injected_maze(seed)
        got = _crossing_outcome(sweep_crossings, by_id, edges)
        assert got == _crossing_outcome(pairwise_crossings, by_id, edges), seed
        outcomes.setdefault(kind, set()).add(got == "ok")
    # Each kind of injected edge is checked, and both verdicts occur.
    assert outcomes["cross"] == {False}
    assert outcomes["t_touch"] == {False}
    assert outcomes["t_junction"] == {True}
    assert outcomes["lane"] == {True, False}
    assert outcomes["random"] == {True, False}


def _row_index_outcome(nodes, edges):
    """The crossing check's verdict on hand-placed nodes ("A x y" each)
    and edges ("A-B" each), after checking it against both references."""
    by_id = {}
    for spec in nodes.split(","):
        name, x, y = spec.split()
        by_id[name] = MazeNode(name, Point2D(float(x), float(y)))
    edges = tuple(MazeEdge(*e.split("-")) for e in edges.split())
    got = _crossing_outcome(sweep_crossings, by_id, edges)
    assert got == _crossing_outcome(reference_check_crossings, by_id, edges)
    assert got == _crossing_outcome(pairwise_crossings, by_id, edges)
    return got


def test_row_index_reports_the_edges_own_y_not_the_row_key():
    # E-F opens the row as -0.0; A-B, in the same row, is at 0.0.
    nodes = "E 10 -0.0, F 20 -0.0, A -5 0.0, B 5 0.0, C 0 -5, D 0 5"
    message = ("edges A-B and C-D cross at (0, 0); crossings must be a "
               "junction node")
    assert _row_index_outcome(nodes, "E-F A-B C-D") == message
    with pytest.raises(MazeValidationError) as err:
        build_maze([(n, float(x), float(y)) for n, x, y
                    in (spec.split() for spec in nodes.split(","))],
                   [("E", "F"), ("A", "B"), ("C", "D")], "A", "B")
    assert str(err.value) == message


def test_row_index_walks_back_to_a_long_lane():
    # L1-L2 runs the whole row, listed first; the shorter edges after it
    # end left of x = 50, where V1-V2 crosses the lane with no node.
    nodes = ("L1 -10 0, L2 100 0, P 0 0, Q 10 0, R 20 0, S 30 0, "
             "V1 50 -5, V2 50 5")
    assert _row_index_outcome(nodes, "L1-L2 P-Q R-S V1-V2") == (
        "edges L1-L2 and V1-V2 cross at (50, 0); crossings must be a "
        "junction node")
    # With a node there, the same lane is a legitimate junction.
    assert _row_index_outcome(nodes + ", X 50 0",
                              "L1-X X-L2 P-Q R-S V1-X X-V2") == "ok"


def test_row_index_rejects_a_touch_at_the_end_of_one_edge_only():
    message = ("edges A-B and C-D cross at (0, 0); crossings must be a "
               "junction node")
    # C-D ends on A-B between its nodes: a T with no junction.
    assert _row_index_outcome("A -5 0, B 5 0, C 0 0, D 0 5",
                              "A-B C-D") == message
    # C-D passes A, the end of A-B, which has no north-south corridor.
    assert _row_index_outcome("A 0 0, B 10 0, C 0 -5, D 0 5",
                              "A-B C-D") == message
    # Ends of both edges meet at the node they share: a corner.
    assert _row_index_outcome("A 0 0, B 10 0, D 0 5", "A-B A-D") == "ok"


@pytest.mark.parametrize("passing, others, message", [
    # A-B runs east-west past M; M-T runs north, M-W east along A-B.
    ("A -5 0, B 5 0", "T 0 5, W 3 0", "edges A-B and M-T cross at (0, 0)"),
    # A-B runs north-south past M; M-T runs east, M-W north along A-B.
    ("A 0 -5, B 0 5", "T 5 0, W 0 3", "edges M-T and A-B cross at (0, 0)"),
], ids=["east-west", "north-south"])
def test_row_index_lane_rule_at_a_passed_node(passing, others, message):
    # A-B meets M-T at M, which is an end of M-T only: a lane past M, so
    # legitimate only if M has an edge collinear with A-B.
    nodes = "%s, M 0 0, %s" % (passing, others)
    assert _row_index_outcome(nodes, "A-B M-T") == (
        message + "; crossings must be a junction node")
    assert _row_index_outcome(nodes, "A-B M-T M-W") == "ok"


# Errors raised in the validator's first loop, over the nodes in order.
_NODE_ERRORS = ("is empty or contains whitespace", "duplicate node id",
                "non-finite coordinates")


def _perturbed_maze(seed, kinds):
    """A generated maze with one perturbation per entry of ``kinds``.

    Returns (nodes, edges, start, end), unvalidated. New nodes and edges go
    to random places in their lists, so which error comes first varies.
    """
    rng = random.Random(seed)
    maze = random_maze(rng, max_nodes=rng.choice((8, 20, 40)),
                       loops=rng.randrange(6))
    nodes, edges = list(maze.nodes), list(maze.edges)
    ends = [maze.start, maze.end]
    xs = sorted({n.position.x for n in nodes})
    ys = sorted({n.position.y for n in nodes})

    def insert(seq, item):
        seq.insert(rng.randrange(len(seq) + 1), item)

    def node_at(x, y):
        for n in nodes:
            if (n.position.x, n.position.y) == (x, y):
                return n.id
        insert(nodes, MazeNode("q%d" % len(nodes), Point2D(x, y)))
        return "q%d" % (len(nodes) - 1)

    for kind in kinds:
        if kind == "edge":
            # Axis-aligned, along a row or column or between two, from one
            # node or off-grid point to another: a crossing, a touch, a
            # lane or a new junction.
            fixed = rng.choice(ys) + rng.choice((0.0, 0.0, 0.5))
            lo, hi = sorted(rng.sample(xs, 2)) if len(xs) > 1 else (0.0, 1.0)
            p, q = (lo + rng.choice((0.0, -1.0)), fixed), (hi, fixed)
            if rng.random() < 0.5:
                p, q = p[::-1], q[::-1]
            insert(edges, MazeEdge(node_at(*p), node_at(*q)))
        elif kind == "dup_id":
            n = rng.choice(nodes)
            insert(nodes, MazeNode(n.id, Point2D(n.position.x + 0.5,
                                                 n.position.y)))
        elif kind == "dup_edge":
            e = rng.choice(edges)
            insert(edges, rng.choice((e, MazeEdge(e.b, e.a))))
        elif kind == "shared":
            insert(nodes, MazeNode("s%d" % len(nodes),
                                   rng.choice(nodes).position))
        else:
            old = rng.choice(nodes).id
            new = old[:1] + rng.choice(kind) + old[1:]
            nodes = [MazeNode(new if n.id == old else n.id, n.position)
                     for n in nodes]
            edges = [MazeEdge(new if e.a == old else e.a,
                              new if e.b == old else e.b) for e in edges]
            ends = [new if i == old else i for i in ends]
    return nodes, edges, ends[0], ends[1]


def _validation_outcome(validate, nodes, edges, start, end):
    try:
        validate(MazeSpec(tuple(nodes), tuple(edges), start, end))
    except MazeValidationError as exc:
        return str(exc)
    return "ok"


def _expected_outcome(nodes, edges, start, end):
    """The reference validator's first error, except that a node id with
    '#' fails in the node loop right after the whitespace test."""
    for k, n in enumerate(nodes):
        if "#" in n.id and n.id.split() == [n.id]:
            before = _validation_outcome(reference_validate, nodes[:k], (),
                                         start, end)
            if any(m in before for m in _NODE_ERRORS):
                return before
            return ("node id %r contains '#', which starts a comment in the "
                    "maze format" % n.id)
    return _validation_outcome(reference_validate, nodes, edges, start, end)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2 ** 32),
       kinds=st.lists(st.sampled_from(["edge", "edge", "dup_id", "dup_edge",
                                       "shared", " \t\u2003\x85", "#"]),
                      max_size=3))
def test_validator_agrees_with_reference(seed, kinds):
    nodes, edges, start, end = _perturbed_maze(seed, kinds)
    got = _validation_outcome(lambda m: make_maze(m.nodes, m.edges, m.start,
                                                  m.end),
                              nodes, edges, start, end)
    assert got == _expected_outcome(nodes, edges, start, end)


def test_overlapping_parallel_lanes_accepted(fig2):
    # fig2 has two northbound lanes at E; collinear overlap is legal.
    assert len(fig2.branches["E"]) == 3


def test_disconnected():
    with pytest.raises(MazeValidationError, match="not connected"):
        build_maze([("S", 0, 0), ("F", 0, 10), ("A", 20, 0), ("B", 20, 10)],
                   [("S", "F"), ("A", "B")], "S", "F")


def test_start_equals_end_allowed():
    maze = build_maze([("A", 0, 0), ("B", 0, 10)], [("A", "B")], "A", "A")
    assert maze.start == maze.end == "A"


# --------------------------------------------------------------- queries

def test_unknown_node_query(fig1):
    with pytest.raises(MazeValidationError, match="unknown node id"):
        fig1.position("nope")
    # A one-item tuple is not the id it holds, and a pair is one bad id.
    for node_id, message in [(("A",), "unknown node id ('A',)"),
                             (("A", "B"), "unknown node id ('A', 'B')"),
                             (["A"], "unknown node id ['A']")]:
        with pytest.raises(MazeValidationError) as err:
            fig1.node(node_id)
        assert str(err.value) == message


def test_degrees_fig2(fig2):
    assert {n.id: len(fig2.branches[n.id]) for n in fig2.nodes} == {
        "S": 1, "A": 4, "E": 3, "D": 3, "G": 1, "C": 2, "B": 1, "F": 1}


def test_edge_queries(fig1):
    other, length, back = fig1.branches["S"][(NORTH, 0)]
    assert (other, length, back) == ("A", 10.0, (SOUTH, 0))
    assert fig1.branches["A"][back] == ("S", 10.0, (NORTH, 0))


def test_exits_canonical_order_fig2(fig2):
    # At E: two northbound lanes sorted nearest-first, then the west exit.
    exits = [(slot, other, ln)
             for slot, (other, ln, _) in fig2.branches["E"].items()]
    assert exits == [((NORTH, 0), "D", 3.0), ((NORTH, 1), "F", 8.0),
                     ((WEST, 0), "A", 14.0)]


def test_exits_direction_order(plus):
    exits = [(d, other)
             for (d, _), (other, _, _) in plus.branches["C"].items()]
    assert exits == [(EAST, "E"), (NORTH, "N"), (WEST, "W"), (SOUTH, "S")]


def test_edge_lengths_positive_everywhere(fig1, fig2, corridor, plus):
    for maze in (fig1, fig2, corridor, plus):
        for table in maze.branches.values():
            for _other, length, _back in table.values():
                assert length > 0
                assert math.isfinite(length)


def _check_branches(maze):
    pos = {n.id: n.position for n in maze.nodes}
    assert list(maze.branches) == list(pos)
    assert sum(len(t) for t in maze.branches.values()) == 2 * len(maze.edges)
    for n, table in maze.branches.items():
        assert len(maze.branches[n]) == len(table)
        assert list(table) == sorted(table)
        lanes = {}
        for (d, lane), (o, length, back) in table.items():
            # The back slot is the same edge's slot at the neighbor.
            assert maze.branches[o][back] == (n, length, (d, lane))
            lanes.setdefault(d, []).append(
                (lane, (length, pos[o].x, pos[o].y)))
        # Lanes of a direction run 0..k-1, nearest first.
        for exits in lanes.values():
            assert [lane for lane, _ in exits] == list(range(len(exits)))
            assert [key for _, key in exits] == sorted(key for _, key in exits)


def test_branches_are_consistent_on_bundled_mazes(fig1, fig2, corridor, plus):
    for maze in (fig1, fig2, corridor, plus):
        _check_branches(maze)


@pytest.mark.parametrize("seed", range(20))
def test_branches_are_consistent_on_generated_mazes(seed):
    _check_branches(random_maze(random.Random(seed), max_nodes=40, loops=4,
                                leaf_ends=seed % 2 == 0))


def _same_branches(maze):
    # Compared item by item, so each node's exit order counts too.
    got = [(n, list(t.items())) for n, t in maze.branches.items()]
    assert got == [(n, list(t.items()))
                   for n, t in reference_branches(maze).items()]


def test_branches_match_reference_on_bundled_mazes(fig1, fig2, corridor,
                                                   plus):
    for maze in (fig1, fig2, corridor, plus):
        _same_branches(maze)


@pytest.mark.parametrize("seed", range(20))
def test_branches_match_reference_on_generated_mazes(seed):
    rng = random.Random(seed)
    _same_branches(random_maze(rng, max_nodes=rng.choice((20, 100, 400)),
                               loops=rng.randrange(20),
                               leaf_ends=seed % 2 == 0))


def test_branches_match_reference_on_injected_edges():
    # Injected edges run along rows and columns, past other nodes and over
    # existing edges, so some nodes get a second lane in one direction.
    kinds = set()
    for seed in range(100):
        kind, by_id, edges = _injected_maze(seed)
        maze = MazeSpec(tuple(by_id.values()), edges, "", "")
        _same_branches(maze)
        if any(lane for t in maze.branches.values() for _d, lane in t):
            kinds.add(kind)
    assert {"t_junction", "random"} <= kinds


# ------------------------------------------------------------- generation

# (max_nodes, seeds): from the smallest grid up to the benchmark's middle
# rung, fewer seeds where a maze costs more.
_GENERATOR_GRID = [(2, 40), (3, 40), (4, 40), (12, 30), (40, 20), (120, 8),
                   (400, 3), (800, 2)]


def _same_draw(got, want, rng_got, rng_want):
    assert serialize_maze(got) == serialize_maze(want)
    assert (got.start, got.end) == (want.start, want.end)
    assert repr(got.branches) == repr(want.branches)
    # Both consumed the same random stream.
    assert rng_got.getstate() == rng_want.getstate()


@pytest.mark.parametrize("max_nodes, seeds", _GENERATOR_GRID)
def test_generator_matches_reference(max_nodes, seeds):
    for seed in range(seeds):
        for loops in sorted({0, max_nodes // 10, max_nodes // 5}):
            for leaf_ends in (True, False):
                rng, ref = random.Random(seed), random.Random(seed)
                _same_draw(random_maze(rng, max_nodes, loops, leaf_ends),
                           reference_random_maze(ref, max_nodes, loops,
                                                 leaf_ends), rng, ref)
        rng, ref = random.Random(seed), random.Random(seed)
        _same_draw(random_tree(rng, max_nodes),
                   reference_random_maze(ref, max_nodes), rng, ref)
