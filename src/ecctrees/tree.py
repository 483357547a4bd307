"""Immutable tree representation: distances, eccentricities, backbones, canonical codes.

Vertices are dense integers 0..n-1.  All functions here are pure; a Tree never
changes after construction, so everything is safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field


class TreeError(ValueError):
    """Input does not describe a tree (wrong edge count, cycle, disconnection...)."""


class TreeParseError(TreeError):
    """Malformed tree file; carries the offending 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def _normalize_edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Tree:
    """Undirected tree on vertices 0..n-1, given by its n-1 edges."""

    n: int
    edges: tuple[tuple[int, int], ...]
    adjacency: tuple[tuple[int, ...], ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if self.n < 1:
            raise TreeError("tree must have at least one vertex")
        edges = tuple(sorted(_normalize_edge(u, v) for u, v in self.edges))
        if len(edges) != self.n - 1:
            raise TreeError(f"expected {self.n - 1} edges, got {len(edges)}")
        adj: list[list[int]] = [[] for _ in range(self.n)]
        previous = None
        for edge in edges:
            u, v = edge
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise TreeError(f"vertex id out of range in edge ({u}, {v})")
            if u == v:
                raise TreeError(f"self-loop at vertex {u}")
            if edge == previous:  # sorted, so copies are adjacent
                raise TreeError(f"duplicate edge ({u}, {v})")
            previous = edge
            adj[u].append(v)
            adj[v].append(u)
        object.__setattr__(self, "edges", edges)
        # with the edges sorted, every neighbour list is built ascending
        object.__setattr__(self, "adjacency", tuple(map(tuple, adj)))
        # n-1 edges + connected <=> tree
        if len(_bfs_order(self, 0)[0]) != self.n:
            raise TreeError("graph is disconnected (hence cyclic)")

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def degrees(self) -> tuple[int, ...]:
        return tuple(len(nbrs) for nbrs in self.adjacency)


@dataclass(frozen=True)
class Backbone:
    """Result of removing all pendant vertices from a tree."""

    path: tuple[int, ...]
    is_caterpillar: bool


def parse_tree(text: str) -> Tree:
    """Parse the tree file format: first line n, then n-1 lines "u v".

    '#' starts a comment; blank lines are ignored; whitespace is tolerated.
    """
    n: int | None = None
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if n is None:
            if len(tokens) != 1:
                raise TreeParseError("expected a single vertex count", lineno)
            try:
                n = int(tokens[0])
            except ValueError:
                raise TreeParseError(f"bad vertex count {tokens[0]!r}", lineno)
            if n < 1:
                raise TreeParseError("vertex count must be >= 1", lineno)
            continue
        if len(tokens) != 2:
            raise TreeParseError(f"expected an edge 'u v', got {line!r}", lineno)
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise TreeParseError(f"non-integer vertex id in {line!r}", lineno)
        if not (0 <= u < n and 0 <= v < n):
            raise TreeParseError(f"vertex id out of range 0..{n - 1}", lineno)
        if u == v:
            raise TreeParseError(f"self-loop at vertex {u}", lineno)
        if _normalize_edge(u, v) in seen:
            raise TreeParseError(f"duplicate edge ({u}, {v})", lineno)
        seen.add(_normalize_edge(u, v))
        edges.append((u, v))
    if n is None:
        raise TreeParseError("empty input: no vertex count found")
    if len(edges) != n - 1:
        raise TreeParseError(f"expected {n - 1} edges, got {len(edges)}")
    try:
        return Tree(n, tuple(edges))
    except TreeParseError:
        raise
    except TreeError as exc:
        raise TreeParseError(str(exc))


def tree_to_text(t: Tree) -> str:
    """Serialize a tree in the same file format parse_tree reads."""
    lines = [str(t.n)]
    lines.extend(f"{u} {v}" for u, v in t.edges)
    return "\n".join(lines) + "\n"


def _bfs_order(t: Tree, root: int) -> tuple[list[int], list[int]]:
    """BFS order from root and each vertex's parent (the root is its own)."""
    order = [root]
    parent = [-1] * t.n
    parent[root] = root
    for v in order:
        for w in t.adjacency[v]:
            if parent[w] < 0:
                parent[w] = v
                order.append(w)
    return order, parent


def distances_from(t: Tree, v: int) -> list[int]:
    """Hop distances from v to every vertex, by BFS."""
    if not 0 <= v < t.n:
        raise TreeError(f"vertex id {v} out of range 0..{t.n - 1}")
    dist = [-1] * t.n
    dist[v] = 0
    queue = [v]
    for x in queue:
        dx = dist[x] + 1
        for y in t.adjacency[x]:
            if dist[y] < 0:
                dist[y] = dx
                queue.append(y)
    return dist


def _farthest(dist: list[int]) -> int:
    # lowest id among vertices at maximum distance, for reproducibility
    best = max(dist)
    return dist.index(best)


def eccentricities(t: Tree) -> list[int]:
    """Per-vertex eccentricity via two BFS runs.

    With u, v a pair of vertices at maximum distance, every eccentricity is
    max(d(u,w), d(w,v)); u is found by BFS from vertex 0, v by BFS from u.
    """
    du0 = distances_from(t, 0)
    u = _farthest(du0)
    du = distances_from(t, u)
    v = _farthest(du)
    dv = distances_from(t, v)
    return [max(a, b) for a, b in zip(du, dv)]


def diametral_endpoints(t: Tree) -> tuple[int, int]:
    """A deterministic pair of vertices at maximum distance."""
    u = _farthest(distances_from(t, 0))
    v = _farthest(distances_from(t, u))
    return u, v


def path_between(t: Tree, u: int, v: int) -> tuple[int, ...]:
    """The unique u-v path as a vertex tuple."""
    parent = _bfs_order(t, u)[1]
    path = [v]
    while path[-1] != u:
        path.append(parent[path[-1]])
    path.reverse()
    return tuple(path)


def backbone(t: Tree) -> Backbone:
    """Remove all pendant vertices; report whether what remains is a path.

    For a star the backbone is the single center vertex, for a single edge it
    is empty; both count as caterpillars.
    """
    if t.n == 1:
        return Backbone((0,), True)
    core = [v for v in range(t.n) if t.degree(v) > 1]
    if not core:
        # single edge: removing pendants leaves nothing
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
    # walk the path from the smaller end
    start = ends[0]
    path = [start]
    prev = -1
    while True:
        nxt = [w for w in t.adjacency[path[-1]] if w in core_set and w != prev]
        if not nxt:
            break
        prev = path[-1]
        path.append(nxt[0])
    if len(path) != len(core):
        return Backbone((), False)  # core is disconnected after leaf removal
    return Backbone(tuple(path), True)


def is_caterpillar(t: Tree) -> bool:
    return backbone(t).is_caterpillar


def _centers(t: Tree) -> list[int]:
    """The one or two middle vertices of a diametral path, in path order.

    The last vertex of a BFS order is farthest from the root, so a BFS from
    0 finds one end u of a diametral path and a BFS from u finds the other.
    """
    u = _bfs_order(t, 0)[0][-1]
    order, parent = _bfs_order(t, u)
    path = [order[-1]]
    while path[-1] != u:
        path.append(parent[path[-1]])
    mid = len(path) // 2
    return path[mid - 1 : mid + 1] if len(path) % 2 == 0 else [path[mid]]


def canonical_code(t: Tree) -> bytes:
    """AHU-style canonical form rooted at the tree center.

    A vertex's code is b"(" + its children's codes in sorted order + b")".
    For two centers the smaller of the two rooted codes is taken.  Equal
    codes exactly for isomorphic trees; deterministic; no recursion.
    """
    centers = _centers(t)
    root = centers[0]
    order, parent = _bfs_order(t, root)
    kids: list[list[bytes]] = [[] for _ in range(t.n)]
    code: list[bytes] = [b""] * t.n
    for v in reversed(order[1:]):
        code[v] = b"(" + b"".join(sorted(kids[v])) + b")"
        kids[parent[v]].append(code[v])
    best = b"(" + b"".join(sorted(kids[root])) + b")"
    if len(centers) == 2:
        # re-root at the other center: the root becomes its extra child
        other = centers[1]
        kids[root].remove(code[other])
        kids[other].append(b"(" + b"".join(sorted(kids[root])) + b")")
        best = min(best, b"(" + b"".join(sorted(kids[other])) + b")")
    return best


def relabel(t: Tree, perm: list[int] | tuple[int, ...]) -> Tree:
    """Apply a vertex permutation (perm[old] = new). Isomorphic result."""
    return Tree(t.n, tuple((perm[u], perm[v]) for u, v in t.edges))


def tree_from_pruefer(seq: tuple[int, ...], n: int | None = None) -> Tree:
    """Labeled tree on n vertices from a Pruefer sequence of length n-2."""
    if n is None:
        n = len(seq) + 2
    if n == 1:
        return Tree(1, ())
    if n == 2:
        return Tree(2, ((0, 1),))
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    leaves = sorted(v for v in range(n) if degree[v] == 1)
    import heapq

    heapq.heapify(leaves)
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return Tree(n, tuple(edges))
