"""Immutable tree representation: distances, eccentricities, backbones, canonical codes.

Vertices are dense integers 0..n-1.  All functions here are pure; a Tree never
changes after construction, so everything is safe to share across threads.
"""

from __future__ import annotations

# stores a field of a slotted record past the __setattr__ that refuses it
_set = object.__setattr__


def _share_adjacency(t: Tree, table: dict) -> Tree:
    """t with each neighbour tuple swapped for the equal one in table (a new
    one is added), so the trees passed through one table store each
    distinct neighbour list once.  The table should live for one batch of
    trees only: it keeps every tuple it was given."""
    _set(t, "adjacency", tuple(map(table.setdefault, t.adjacency, t.adjacency)))
    return t


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


def _own_edge(edge) -> tuple[int, int]:
    """edge as a normalized pair; an exact tuple already in order is kept,
    so trees built from one table of pairs share their edge objects."""
    u, v = edge
    return edge if type(edge) is tuple and u < v else _normalize_edge(u, v)


class _Record:
    """Base of the package's frozen value records.

    A subclass lists its fields once, as class annotations in order; a
    class attribute of the same name is that field's default.  Instances
    are built by position or keyword, compare equal and hash by their field
    values (only to an instance of the same class), print as
    Name(field=value, ...) and refuse assignment and deletion with
    AttributeError.  Pickling and copying rebuild through the constructor.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__annotations__)

    def __init__(self, *args, **kwargs):
        cls = type(self)
        fields = self._fields
        if len(args) > len(fields):
            raise TypeError(f"{cls.__name__}() takes {len(fields)} fields")
        values = dict(zip(fields, args))
        for key, value in kwargs.items():
            if key in values or key not in fields:
                raise TypeError(f"{cls.__name__}() got a bad field {key!r}")
            values[key] = value
        if len(values) < len(fields):
            for key in fields:
                if key not in values:
                    if key not in vars(cls):
                        raise TypeError(f"{cls.__name__}() missing field {key!r}")
                    values[key] = vars(cls)[key]
        self.__dict__.update(values)

    def _values(self) -> tuple:
        return tuple([getattr(self, key) for key in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{key}={getattr(self, key)!r}" for key in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, key, value):
        raise AttributeError(f"cannot assign to field {key!r}")

    def __delattr__(self, key):
        raise AttributeError(f"cannot delete field {key!r}")

    def __reduce__(self):
        return type(self), self._values()


class Tree(_Record):
    """Undirected tree on vertices 0..n-1, given by its n-1 edges.

    Slotted, so an instance carries no __dict__; an edge passed in as a
    normalized tuple is stored as is rather than copied.  The fields are n
    and edges; the neighbour lists, adjacency, are derived from them.
    """

    __slots__ = ("n", "edges", "adjacency")
    n: int
    edges: tuple[tuple[int, int], ...]

    def __init__(self, n: int, edges: tuple[tuple[int, int], ...]):
        _set(self, "n", n)
        _set(self, "edges", edges)
        self.__post_init__()

    def __post_init__(self):
        """Normalize and sort the edges, build the adjacency and check that
        they form a tree.  A method of its own, called by __init__, so that
        perfbench's tracer can wrap and time tree construction."""
        if self.n < 1:
            raise TreeError("tree must have at least one vertex")
        edges = tuple(sorted(map(_own_edge, self.edges)))
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
        _set(self, "edges", edges)
        # with the edges sorted, every neighbour list is built ascending
        _set(self, "adjacency", tuple(map(tuple, adj)))
        # n-1 edges + connected <=> tree
        if len(_bfs_order(self, 0)[0]) != self.n:
            raise TreeError("graph is disconnected (hence cyclic)")

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def degrees(self) -> tuple[int, ...]:
        return tuple(len(nbrs) for nbrs in self.adjacency)


class Backbone(_Record):
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
    except TreeError as exc:
        raise TreeParseError(str(exc))


def tree_to_text(t: Tree) -> str:
    """Serialize a tree in the same file format parse_tree reads."""
    lines = [str(t.n)]
    lines.extend(f"{u} {v}" for u, v in t.edges)
    return "\n".join(lines) + "\n"


def _bfs_order(t: Tree, root: int, skip: int = -1) -> tuple[list[int], list[int]]:
    """BFS order from root and each vertex's parent (the root is its own).

    The vertex skip (if any) is never entered, so with skip a neighbour of
    root the order covers root's side of the edge between them.
    """
    order = [root]
    parent = [-1] * t.n
    if skip >= 0:
        parent[skip] = skip
    parent[root] = root
    for v in order:
        for w in t.adjacency[v]:
            if parent[w] < 0:
                parent[w] = v
                order.append(w)
    return order, parent


def distances_from(t: Tree, v: int) -> list[int]:
    """Hop distances from v to every vertex, read off the BFS order from v."""
    if not 0 <= v < t.n:
        raise TreeError(f"vertex id {v} out of range 0..{t.n - 1}")
    order, parent = _bfs_order(t, v)
    dist = [0] * t.n
    for w in order[1:]:
        dist[w] = dist[parent[w]] + 1
    return dist


def _diametral_path(t: Tree) -> tuple[int, ...]:
    """The canonical longest path u..v, walked back from v along d(u, .).

    u is the lowest-id vertex farthest from 0 and v the lowest-id vertex
    farthest from u (lowest ids for reproducibility); in a tree, u and v
    are then at maximum distance.
    """
    d0 = distances_from(t, 0)
    du = distances_from(t, d0.index(max(d0)))
    path = [du.index(max(du))]
    while du[path[-1]]:
        x = path[-1]
        # in a tree exactly one neighbour of x is closer to u
        path.append(next(w for w in t.adjacency[x] if du[w] < du[x]))
    path.reverse()
    return tuple(path)


def _ecc_rooted(order, parent) -> list[int]:
    """Per-vertex eccentricity of the tree given as a rooted order (each
    vertex after its parent, order[0] the root) and its parent array:
    ecc(v) = max(down(v), up(v)), with the two largest down-heights (equal
    on a tie) from a reverse pass, then up(v) = 1 + max(up(p), p's longest
    way down not through v) from a forward pass."""
    n = len(parent)
    down = [0] * n
    down2 = [0] * n
    for v in order[:0:-1]:
        p = parent[v]
        h = down[v] + 1
        if h > down[p]:
            down[p], down2[p] = h, down[p]
        elif h > down2[p]:
            down2[p] = h
    up = [0] * n
    for v in order[1:]:
        p = parent[v]
        side = down2[p] if down[v] + 1 == down[p] else down[p]
        up[v] = 1 + (up[p] if up[p] > side else side)
    return [d if d > u else u for d, u in zip(down, up)]


def eccentricities(t: Tree) -> list[int]:
    """Per-vertex eccentricity, by heights over one BFS order from 0."""
    return _ecc_rooted(*_bfs_order(t, 0))


def backbone(t: Tree) -> Backbone:
    """Remove all pendant vertices; report whether what remains is a path.

    For a star the backbone is the single center vertex, for a single edge it
    is empty; both count as caterpillars.  A tree is a caterpillar iff every
    vertex off its canonical longest path is a leaf, and then that path's
    inner vertices are the whole backbone, read from its smaller end.
    """
    if t.n == 1:
        return Backbone((0,), True)
    path = _diametral_path(t)
    on_path = set(path)
    if any(t.degree(w) > 1 for w in range(t.n) if w not in on_path):
        return Backbone((), False)
    inner = path[1:-1]
    if inner and inner[0] > inner[-1]:
        inner = inner[::-1]
    return Backbone(inner, True)


def is_caterpillar(t: Tree) -> bool:
    return backbone(t).is_caterpillar


def _ahu(codes: list[bytes]) -> bytes:
    return b"(" + b"".join(sorted(codes)) + b")"


def canonical_code(t: Tree) -> bytes:
    """AHU-style canonical form rooted at the tree center.

    A vertex's code is b"(" + its children's codes in sorted order + b")".
    For two centers the smaller of the two rooted codes is taken.  Equal
    codes exactly for isomorphic trees; deterministic; no recursion.

    Leaves are peeled layer by layer; each peeled vertex hands its code to
    its one remaining neighbour, and the last one or two vertices left are
    the centers (Jordan).
    """
    degree = [len(nbrs) for nbrs in t.adjacency]
    kids: list[list[bytes]] = [[] for _ in range(t.n)]
    layer = [v for v in range(t.n) if degree[v] <= 1]
    left = t.n
    while left > 2:
        left -= len(layer)
        next_layer = []
        for v in layer:
            # degree 0 marks v peeled, so its one unpeeled neighbour is the
            # only one with a nonzero degree
            degree[v] = 0
            code = _ahu(kids[v])
            for w in t.adjacency[v]:
                if degree[w]:
                    kids[w].append(code)
                    degree[w] -= 1
                    if degree[w] == 1:
                        next_layer.append(w)
                    break
        layer = next_layer
    if len(layer) == 1:
        return _ahu(kids[layer[0]])
    a, b = layer
    code_a, code_b = _ahu(kids[a]), _ahu(kids[b])
    return min(_ahu(kids[a] + [code_b]), _ahu(kids[b] + [code_a]))


def tree_from_pruefer(seq: tuple[int, ...], n: int | None = None) -> Tree:
    """Labeled tree on n vertices from a Pruefer sequence of length n-2."""
    if n is None:
        n = len(seq) + 2
    if n < 1:
        raise TreeError("tree must have at least one vertex")
    if len(seq) != max(n - 2, 0):
        raise TreeError(f"Pruefer sequence for {n} vertices needs length "
                        f"{max(n - 2, 0)}, got {len(seq)}")
    for v in seq:
        if not 0 <= v < n:
            raise TreeError(f"Pruefer label {v} out of range 0..{n - 1}")
    if n == 1:
        return Tree(1, ())
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
