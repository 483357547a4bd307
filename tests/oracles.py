"""Independent brute-force oracles used only by the tests.

These deliberately avoid the production code paths they are checking:
eccentricities by n separate BFS runs, Wiener by summing an explicit distance
matrix, the other distance indices by all-pairs sums over explicit n x n and
m x m distance matrices and by one BFS row per vertex, depth-histogram
products term by term, subtree counts by subset connectivity and by the
one-child-at-a-time product over a rooted order, free-tree
counts by labelled (Pruefer) enumeration plus canonical dedup, canonical codes
by recursive AHU at the centers found from the brute-force eccentricities, the
backbone by a walk over core degrees, and the rewrite move from separate
searches for the diametral path and for each side of the pivot, and the
caterpillar that caterpillarize reaches from where each vertex hangs off
that path.

The caterpillars of a sequence come from filtering every composition of the
pendants over the backbone, and the two caterpillar closed forms from their
double loops over backbone intervals and over layer pairs.

Two helpers only the tests use live here too: relabel, and decomposition_of,
which reads a caterpillar's pendant counts off the production backbone.
"""

from __future__ import annotations

import itertools
from collections import deque
from fractions import Fraction
from math import comb

from ecctrees.extremal import CaterpillarDecomposition
from ecctrees.rewrite import RewriteMove
from ecctrees.sequence import EccSequence, eccentric_sequence
from ecctrees.tree import (
    Backbone,
    Tree,
    backbone,
    canonical_code,
    distances_from,
    tree_from_pruefer,
)


def ecc_bruteforce(t: Tree) -> list[int]:
    return [max(distances_from(t, v)) for v in range(t.n)]


def wiener_bruteforce(t: Tree) -> int:
    total = 0
    for v in range(t.n):
        dist = distances_from(t, v)
        total += sum(dist[u] for u in range(v + 1, t.n))
    return total


def distance_matrix(t: Tree) -> list[list[int]]:
    return [distances_from(t, v) for v in range(t.n)]


def edge_distance_matrix(t: Tree) -> list[list[int]]:
    """[i][j]: the least distance between an end of edge i and an end of
    edge j, with the edges in t.edges order."""
    dm = distance_matrix(t)
    return [
        [min(dm[a][c], dm[a][d], dm[b][c], dm[b][d]) for c, d in t.edges]
        for a, b in t.edges
    ]


def _vertex_pairs(t: Tree):
    return itertools.combinations(range(t.n), 2)


def edge_wiener_bruteforce(t: Tree) -> int:
    ed = edge_distance_matrix(t)
    return sum(ed[i][j] for i, j in itertools.combinations(range(len(ed)), 2))


def edge_wiener_line_bruteforce(t: Tree) -> int:
    ed = edge_distance_matrix(t)
    return sum(ed[i][j] + 1 for i, j in itertools.combinations(range(len(ed)), 2))


def vertex_edge_wiener_bruteforce(t: Tree) -> Fraction:
    dm = distance_matrix(t)
    total = sum(min(dm[v][a], dm[v][b]) for v in range(t.n) for a, b in t.edges)
    return Fraction(total, 2)


def schultz_bruteforce(t: Tree) -> int:
    dm = distance_matrix(t)
    return sum(dm[u][v] * (t.degree(u) + t.degree(v)) for u, v in _vertex_pairs(t))


def gutman_bruteforce(t: Tree) -> int:
    dm = distance_matrix(t)
    return sum(dm[u][v] * t.degree(u) * t.degree(v) for u, v in _vertex_pairs(t))


def vertex_pass_rows(t: Tree) -> tuple[list[int], int, int, int, int]:
    """The distance kernel's tuple from one BFS row per vertex: the number
    of unordered pairs at each distance d (0 at d = 0), the Schultz and
    Gutman indices, the sum of all vertex-to-edge distances and
    the edge Wiener index.  Every pair is met from both ends.

    The edge Wiener index comes from near(v), the sum over the edges (x, y)
    of min(d(v, x), d(v, y)): the row of an edge (a, b) with sides A and B
    is d(a, .) less one on B, so 4 W_e = sum of deg(v) * near(v) minus
    (n - 1)(n - 2)."""
    n = t.n
    deg = t.degrees()
    counts = [0] * n
    schultz = gutman = vertex_edge = edge_ends = 0
    for v in range(n):
        row = distances_from(t, v)
        for d in row:
            counts[d] += 1
        schultz += deg[v] * sum(row)
        gutman += deg[v] * sum([du * d for du, d in zip(deg, row)])
        near = sum([row[a] if row[a] < row[b] else row[b] for a, b in t.edges])
        vertex_edge += near
        edge_ends += deg[v] * near
    edge_wiener = (edge_ends - (n - 1) * (n - 2)) // 4
    return (
        [0] + [c // 2 for c in counts[1:]],
        schultz,
        gutman // 2,
        vertex_edge,
        edge_wiener,
    )


def schoolbook_product(a: list[int], b: list[int]) -> list[int]:
    """The product of two coefficient lists, term by term."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def hyper_wiener_bruteforce(t: Tree) -> int:
    dm = distance_matrix(t)
    return sum(comb(1 + dm[u][v], 2) for u, v in _vertex_pairs(t))


def wiener_lambda_bruteforce(t: Tree, lam: float) -> float:
    dm = distance_matrix(t)
    return float(sum(dm[u][v] ** lam for u, v in _vertex_pairs(t)))


def subtree_count_bruteforce(t: Tree) -> int:
    """Count connected induced subgraphs by checking every vertex subset.

    In a tree, every connected induced subgraph is itself a tree.
    """
    count = 0
    for size in range(1, t.n + 1):
        for subset in itertools.combinations(range(t.n), size):
            if _is_connected(t, set(subset)):
                count += 1
    return count


def subtrees_rooted_product(order, parent) -> int:
    """The subtree count of a rooted order and its parent array, with each
    vertex's factor prod (1 + f(child)) multiplied one child at a time and
    summed in vertex order."""
    f = [1] * len(parent)
    for v in order[:0:-1]:
        f[parent[v]] *= 1 + f[v]
    return sum(f)


def _is_connected(t: Tree, subset: set[int]) -> bool:
    start = next(iter(subset))
    seen = {start}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for w in t.adjacency[v]:
            if w in subset and w not in seen:
                seen.add(w)
                queue.append(w)
    return seen == subset


def canonical_code_recursive(t: Tree) -> bytes:
    """AHU code rooted at each center, the smaller one; recursive, so only
    for small trees."""

    def code(v: int, parent: int) -> bytes:
        children = sorted(code(w, v) for w in t.adjacency[v] if w != parent)
        return b"(" + b"".join(children) + b")"

    ecc = ecc_bruteforce(t)
    radius = min(ecc)
    return min(code(c, -1) for c in range(t.n) if ecc[c] == radius)


def relabel(t: Tree, perm: list[int] | tuple[int, ...]) -> Tree:
    """Apply a vertex permutation (perm[old] = new). Isomorphic result."""
    return Tree(t.n, tuple((perm[u], perm[v]) for u, v in t.edges))


def decomposition_of(t: Tree) -> CaterpillarDecomposition:
    """Decomposition of an arbitrary caterpillar, oriented deterministically
    so that the lexicographically larger pendant-count vector comes first."""
    bb = backbone(t)
    if not bb.is_caterpillar:
        raise ValueError("tree is not a caterpillar")
    if not bb.path:
        # single edge: no backbone; represent as one position holding both ends
        return CaterpillarDecomposition((2,))
    c = tuple(
        sum(1 for w in t.adjacency[v] if t.degree(w) == 1) for v in bb.path
    )
    return CaterpillarDecomposition(max(c, c[::-1]))


def caterpillars_by_filter(s: EccSequence) -> list[Tree]:
    """Caterpillars with sequence s, one per canonical code and sorted by
    it: every composition of the n - q pendants over a backbone 0..q-1 that
    puts a path end on each backbone end, kept if it realizes s."""
    q = s.bl - 1
    pendants = s.n - q
    seen: dict[bytes, Tree] = {}
    for bars in itertools.combinations(range(pendants + q - 1), q - 1):
        cuts = (-1,) + bars + (pendants + q - 1,)
        c = [b - a - 1 for a, b in zip(cuts, cuts[1:])]
        if (c[0] < 2) if q == 1 else (c[0] < 1 or c[-1] < 1):
            continue
        edges = [(i, i + 1) for i in range(q - 1)]
        leaves = itertools.count(q)
        edges += [(pos, next(leaves)) for pos, k in enumerate(c) for _ in range(k)]
        t = Tree(s.n, tuple(edges))
        if eccentric_sequence(t) == s:
            seen.setdefault(canonical_code(t), t)
    return [seen[code] for code in sorted(seen)]


def subtree_closed_form_double_loop(c: tuple[int, ...]) -> int:
    """Caterpillar subtree count term by term: q(q+1)/2 backbone subpaths,
    sum(c) lone pendants, and 2^(sum of c over j..p) - 1 for each backbone
    subpath j..p with a nonempty set of its pendants."""
    q = len(c)
    total = q * (q + 1) // 2 + sum(c)
    for j in range(q):
        running = 0
        for p in range(j, q):
            running += c[p]
            total += (1 << running) - 1
    return total


def min_wiener_derivation_double_loop(s: EccSequence) -> int:
    """The proof's minimum Wiener index with its cross-layer term summed
    over every pair of layers i < j."""
    mult = s.mult
    l = s.l
    q = s.bl - 1
    r = (q + 1) // 2
    big_m = [mult[l - j] for j in range(1, r + 1)]  # M_j = m_{l+1-j}
    total = comb(q + 3, 3)
    total += sum((mj - 2) * (mj - 3) for mj in big_m)
    for i in range(r):
        for j in range(i + 1, r):
            total += (big_m[i] - 2) * (big_m[j] - 2) * (2 + (j + 1) - (i + 1))
    for j in range(1, r + 1):
        total += ((q + 2) + comb(j + 1, 2) + comb(q + 2 - j, 2)) * (big_m[j - 1] - 2)
    return total


def labeled_trees(n: int):
    """Every labelled tree on n vertices, via Pruefer sequences."""
    if n == 1:
        yield Tree(1, ())
        return
    if n == 2:
        yield Tree(2, ((0, 1),))
        return
    for seq in itertools.product(range(n), repeat=n - 2):
        yield tree_from_pruefer(seq, n)


def free_tree_count_bruteforce(n: int) -> int:
    """Number of isomorphism classes, by canonical dedup of labelled trees."""
    return len({canonical_code(t) for t in labeled_trees(n)})


def is_caterpillar_bruteforce(t: Tree) -> bool:
    """Direct definition check: some diametral path has every vertex at
    distance <= 1, i.e. no vertex hangs two steps off every diametral path.

    Equivalent formulation used here: t is a caterpillar iff no vertex has
    two or more neighbours of degree >= 2 off any longest path; concretely,
    remove all leaves and check the remainder has max degree <= 2.
    """
    if t.n <= 3:
        return True
    core = {v for v in range(t.n) if t.degree(v) > 1}
    return all(
        sum(1 for w in t.adjacency[v] if w in core) <= 2 for v in core
    )


def backbone_core_walk(t: Tree) -> Backbone:
    """Remove the leaves; if the core is a path, walk it from its smaller end."""
    if t.n == 1:
        return Backbone((0,), True)
    core = [v for v in range(t.n) if t.degree(v) > 1]
    if not core:
        return Backbone((), True)
    core_set = set(core)
    core_deg = {v: sum(1 for w in t.adjacency[v] if w in core_set) for v in core}
    if any(d > 2 for d in core_deg.values()):
        return Backbone((), False)
    ends = sorted(v for v in core if core_deg[v] <= 1)
    if len(core) == 1:
        return Backbone((core[0],), True)
    if len(ends) != 2:
        return Backbone((), False)
    path = [ends[0]]
    prev = -1
    while True:
        nxt = [w for w in t.adjacency[path[-1]] if w in core_set and w != prev]
        if not nxt:
            break
        prev = path[-1]
        path.append(nxt[0])
    if len(path) != len(core):
        return Backbone((), False)
    return Backbone(tuple(path), True)


def _reach(t: Tree, start: int, blocked: set[int]) -> set[int]:
    """Vertices reachable from start without entering blocked."""
    seen = {start}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for w in t.adjacency[v]:
            if w not in blocked and w not in seen:
                seen.add(w)
                queue.append(w)
    return seen


def _path_between(t: Tree, a: int, b: int) -> tuple[int, ...]:
    parent = {a: a}
    queue = deque([a])
    while queue:
        v = queue.popleft()
        for w in t.adjacency[v]:
            if w not in parent:
                parent[w] = v
                queue.append(w)
    path = [b]
    while path[-1] != a:
        path.append(parent[path[-1]])
    return tuple(reversed(path))


def _canonical_diametral_path(t: Tree) -> tuple[int, ...]:
    """The path from a, the lowest-id vertex farthest from 0, to b, the
    lowest-id vertex farthest from a."""
    da = distances_from(t, 0)
    a = da.index(max(da))
    db = distances_from(t, a)
    return _path_between(t, a, db.index(max(db)))


def find_move_by_components(t: Tree) -> RewriteMove | None:
    """The rewrite move as specified in ecctrees.rewrite.find_move: the
    diametral path between the lowest-id farthest vertices, the first
    off-path non-pendant neighbour along it, U and R by reachability."""
    path = _canonical_diametral_path(t)
    on_path = set(path)
    candidates = [
        (j, u)
        for j, vj in enumerate(path)
        for u in t.adjacency[vj]
        if u not in on_path and t.degree(u) > 1
    ]
    if not candidates:
        return None
    j, u = candidates[0]
    d = len(path) - 1
    if 2 * j < d:
        path, j = path[::-1], d - j
    vj = path[j]
    detached = frozenset(_reach(t, u, {vj}) - {u})
    return RewriteMove(
        path=path,
        j=j,
        u=u,
        moved=tuple(sorted(w for w in t.adjacency[u] if w != vj)),
        target=path[j + 1],
        detached=detached,
        right=frozenset(_reach(t, path[j + 1], {vj}) - detached),
    )


def caterpillarize_closed_form(t: Tree) -> Tree:
    """The caterpillar that the move loop reaches, read off t without any
    move.  With the canonical diametral path v_0..v_d, an off-path vertex at depth
    h below v_j ends as a leaf of v_{j+h-1} if 2j >= d and of v_{j-h+1}
    otherwise: each move carries the vertices below u one step along the
    path, away from its middle, and a vertex stops once it is a leaf."""
    path = _canonical_diametral_path(t)
    d = len(path) - 1
    on_path = set(path)
    edges = list(zip(path, path[1:]))
    for j, vj in enumerate(path):
        step = 1 if 2 * j >= d else -1
        depth = distances_from(t, vj)
        for u in t.adjacency[vj]:
            if u not in on_path:
                for x in _reach(t, u, {vj}):
                    edges.append((path[j + step * (depth[x] - 1)], x))
    return Tree(t.n, tuple(edges))
