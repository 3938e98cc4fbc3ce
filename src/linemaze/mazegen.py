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
    tree_edges = set()
    frontier = [(first, nb) for nb in _grid_neighbors(first, side)]
    while frontier and len(cells) < target:
        idx = rng.randrange(len(frontier))
        frontier[idx], frontier[-1] = frontier[-1], frontier[idx]
        src, dst = frontier.pop()
        if dst in cells:
            continue
        cells.add(dst)
        tree_edges.add(_cell_edge(src, dst))
        for nb in _grid_neighbors(dst, side):
            if nb not in cells:
                frontier.append((dst, nb))

    edges = set(tree_edges)
    if loops:
        candidates = []
        for cell in cells:
            for nb in _grid_neighbors(cell, side):
                if nb in cells:
                    key = _cell_edge(cell, nb)
                    if key not in edges:
                        candidates.append(key)
        candidates = sorted(set(candidates))
        rng.shuffle(candidates)
        edges.update(candidates[:loops])

    # Randomized but monotone coordinates keep the lattice axis-aligned.
    cols = sorted({c for c, _ in cells})
    rows = sorted({r for _, r in cells})
    xs = _cumulative(rng, cols)
    ys = _cumulative(rng, rows)

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

    names = {cell: "p%d" % i for i, cell in enumerate(sorted(adj))}
    nodes = [MazeNode(names[cell], Point2D(xs[cell[0]], ys[cell[1]]))
             for cell in sorted(adj)]
    maze_edges = []
    seen = set()
    for cell in sorted(adj):
        for nb in sorted(adj[cell]):
            key = frozenset((cell, nb))
            if key in seen:
                continue
            seen.add(key)
            maze_edges.append(MazeEdge(names[cell], names[nb]))

    ids = [n.id for n in nodes]
    degree = {i: 0 for i in ids}
    for e in maze_edges:
        degree[e.a] += 1
        degree[e.b] += 1
    leaves = [i for i in ids if degree[i] == 1]
    pool = leaves if (leaf_ends and len(leaves) >= 2) else ids
    start, end = rng.sample(pool, 2)
    return make_maze(nodes, maze_edges, start, end)


def random_tree(rng, max_nodes=50):
    """Loop-free random maze with degree-1 start and end."""
    return random_maze(rng, max_nodes=max_nodes, loops=0, leaf_ends=True)


def _grid_neighbors(cell, side):
    c, r = cell
    out = []
    if c + 1 < side:
        out.append((c + 1, r))
    if c > 0:
        out.append((c - 1, r))
    if r + 1 < side:
        out.append((c, r + 1))
    if r > 0:
        out.append((c, r - 1))
    return out


def _cell_edge(a, b):
    return (a, b) if a <= b else (b, a)


def _cumulative(rng, indices):
    pos = {}
    total = 0.0
    prev = None
    for idx in indices:
        if prev is None:
            total = 0.0
        else:
            total += rng.choice(SPACINGS) * (idx - prev)
        pos[idx] = total
        prev = idx
    return pos
