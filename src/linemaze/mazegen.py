"""Random maze generation for tests and property harnesses.

Mazes are grown as spanning trees over a grid of cells with randomized
row/column spacing, optionally densified with extra adjacent-cell edges
to create loops, then straight corridors are contracted away so that
every remaining degree-2 node is a genuine turn. Grid growth keeps the
result planar and axis-aligned with node degree at most 4, and
contraction cannot create overlapping or crossing edges because each
grid corridor is used by exactly one chain of cells.
"""

from .maze_model import MazeEdge, MazeNode, Point2D, make_maze

SPACINGS = (4.0, 6.0, 8.0, 11.0)


def random_maze(rng, max_nodes=50, loops=0, leaf_ends=True):
    """Generate a random connected axis-aligned MazeSpec.

    rng: a random.Random instance (determinism is the caller's seed).
    max_nodes: upper bound on node count (contraction may reduce it).
    loops: how many extra edges to add between adjacent tree cells.
    leaf_ends: pick degree-1 start/end when possible (always possible
        for trees); otherwise any two distinct nodes.
    """
    target = max(2, rng.randint(max(2, max_nodes // 2), max_nodes))
    side = max(2, int(target ** 0.5) + 2)

    # Spanning tree over a connected subset of grid cells.
    first = (rng.randrange(side), rng.randrange(side))
    cells = {first}
    edges = set()  # (cell, cell) pairs, smaller cell first
    frontier = [(first, nb) for nb in _grid_neighbors(first, side)]
    while frontier and len(cells) < target:
        idx = rng.randrange(len(frontier))
        frontier[idx], frontier[-1] = frontier[-1], frontier[idx]
        src, dst = frontier.pop()
        if dst in cells:
            continue
        cells.add(dst)
        edges.add((src, dst) if src < dst else (dst, src))
        for nb in _grid_neighbors(dst, side):
            if nb not in cells:
                frontier.append((dst, nb))

    if loops:
        # Each adjacent pair once, from its west or south cell.
        candidates = sorted({(cell, nb) for cell in cells
                             for nb in ((cell[0] + 1, cell[1]),
                                        (cell[0], cell[1] + 1))
                             if nb in cells} - edges)
        rng.shuffle(candidates)
        edges.update(candidates[:loops])

    # Randomized but monotone coordinates keep the lattice axis-aligned.
    xs = _cumulative(rng, sorted({c for c, _ in cells}))
    ys = _cumulative(rng, sorted({r for _, r in cells}))

    adj = {cell: set() for cell in cells}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)

    # Contract straight-through degree-2 cells, so that every remaining
    # degree-2 node is a turn. One pass suffices: each neighbor of a
    # contracted cell reaches the other in the direction it reached the
    # cell, so no remaining cell's exit directions change.
    for cell in list(adj):
        nbs = adj[cell]
        if len(nbs) != 2:
            continue
        n1, n2 = sorted(nbs)
        same_col = n1[0] == cell[0] == n2[0]
        same_row = n1[1] == cell[1] == n2[1]
        if not (same_col or same_row):
            continue
        adj[n1].discard(cell)
        adj[n2].discard(cell)
        adj[n1].add(n2)
        adj[n2].add(n1)
        del adj[cell]

    order = sorted(adj)
    names = {cell: "p%d" % i for i, cell in enumerate(order)}
    nodes = [MazeNode(names[cell], Point2D(xs[cell[0]], ys[cell[1]]))
             for cell in order]
    # Each edge once, from its smaller cell.
    maze_edges = [MazeEdge(names[cell], names[nb])
                  for cell in order for nb in sorted(adj[cell]) if nb > cell]

    ids = [n.id for n in nodes]
    leaves = [names[cell] for cell in order if len(adj[cell]) == 1]
    pool = leaves if (leaf_ends and len(leaves) >= 2) else ids
    start, end = rng.sample(pool, 2)
    return make_maze(nodes, maze_edges, start, end)


def random_tree(rng, max_nodes=50):
    """Loop-free random maze with degree-1 start and end."""
    return random_maze(rng, max_nodes=max_nodes, loops=0, leaf_ends=True)


# Grid steps east, west, north, south: the order cells join the frontier.
_STEPS = ((1, 0), (-1, 0), (0, 1), (0, -1))


def _grid_neighbors(cell, side):
    c, r = cell
    return [(c + dc, r + dr) for dc, dr in _STEPS
            if 0 <= c + dc < side and 0 <= r + dr < side]


def _cumulative(rng, indices):
    """Coordinate per sorted index: a random spacing times each gap's steps."""
    pos = {indices[0]: 0.0}
    total = 0.0
    for prev, idx in zip(indices, indices[1:]):
        total += rng.choice(SPACINGS) * (idx - prev)
        pos[idx] = total
    return pos
