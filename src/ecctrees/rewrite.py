"""Sequence-preserving rewrite toward caterpillars.

On a non-caterpillar, pick a diametral-path vertex v_j with an off-path
non-pendant neighbour u and reattach everything hanging below u to v_{j+1}.
The eccentricity multiset is unchanged, the Wiener index strictly drops and
the subtree count strictly grows, so iterating reaches a caterpillar with the
same eccentric sequence.

A move also keeps the canonical diametral path a..b of _diametral_path (a
the lowest-id vertex farthest from 0, b the lowest-id one farthest from a).
The tests check this; caterpillarize does not rely on it yet.  Let U be the
vertices below u, R the v_{j+1} side of the edge v_j v_{j+1}, and the path
oriented so that j >= d/2 (j >= 2, as u has a child).  The move changes only
the distances from U to u (up by 2) and from U to R (down by 2): each moved
vertex keeps its distance to v_0 and to everything on v_0's side of v_j.
- From 0: if 0 is neither u nor in U, no distance rises, and a, being on
  the path, keeps its distance, so a stays.  If 0 is in U at depth h below
  u, d(0, u) rises to h + 2 < h + 1 + j = d(0, v_0); R falls, but a is not
  in R, which lies within h + 1 + (d - j) of 0, since a tie needs j = d/2
  and then a = v_0.  If 0 = u, U rises to at most 1 + (d - j) <= d(u, v_0);
  a tie needs j = d/2 (so a = v_0) and a vertex x of U at distance d from a,
  a tie with b that the lowest-id rule broke as b < x, while a < b as b too
  is at distance 1 + j from u.  So a stays.
- From a, which is v_0 or v_d, no distance rises, so b stays, and the walk
  back from b follows the path, whose edges the move keeps.
"""

from __future__ import annotations

from .tree import Tree, _bfs_order, _diametral_path, _Record


class RewriteMove(_Record):
    path: tuple[int, ...]  # diametral path v_0..v_d, oriented so j >= d/2
    j: int  # pivot index on the path
    u: int  # off-path non-pendant neighbour of v_j
    moved: tuple[int, ...]  # neighbours of u other than v_j
    target: int  # v_{j+1}
    detached: frozenset[int]  # U: vertices strictly below u
    right: frozenset[int]  # R: v_{j+1} side of edge v_j v_{j+1}

    def wiener_delta(self) -> int:
        """Exact change W(T') - W(T) = |U| * (2 - 2|R|)."""
        return len(self.detached) * (2 - 2 * len(self.right))


class StaleMoveError(ValueError):
    """Move does not match the tree it is applied to."""


def find_move(t: Tree) -> RewriteMove | None:
    """The deterministic rewrite move for t, or None iff t is a caterpillar.

    Candidates (j, u) are scanned along the canonical diametral path and the
    lexicographically smallest is taken; when its pivot sits on the near half
    (j < d/2) the path numbering is reversed so that j >= d/2.
    """
    path = _diametral_path(t)
    d = len(path) - 1
    on_path = set(path)
    candidate = None
    for j, vj in enumerate(path):
        for u in t.adjacency[vj]:
            if u not in on_path and t.degree(u) > 1:
                candidate = (j, u)
                break
        if candidate:
            break
    if candidate is None:
        return None
    j, u = candidate
    if 2 * j < d:
        path = path[::-1]
        j = d - j
    vj = path[j]
    moved = tuple(sorted(w for w in t.adjacency[u] if w != vj))
    # a BFS that never enters v_j covers one side of an edge at v_j
    detached = frozenset(_bfs_order(t, u, vj)[0][1:])
    target = path[j + 1]
    right = frozenset(_bfs_order(t, target, vj)[0])
    return RewriteMove(
        path=path,
        j=j,
        u=u,
        moved=moved,
        target=target,
        detached=detached,
        right=right,
    )


def apply_move(t: Tree, m: RewriteMove) -> Tree:
    """Reattach N(u) - {v_j} from u to v_{j+1}; same vertex set."""
    if find_move(t) != m:
        raise StaleMoveError("move was not produced by find_move on this tree")
    return _reattach(t, m)


def _reattach(t: Tree, m: RewriteMove) -> Tree:
    """apply_move without the staleness check, for a move just found on t."""
    drop = {tuple(sorted((m.u, y))) for y in m.moved}
    edges = [e for e in t.edges if e not in drop]
    edges.extend(tuple(sorted((m.target, y))) for y in m.moved)
    return Tree(t.n, tuple(edges))


def caterpillarize(t: Tree) -> Tree:
    """Iterate the rewrite move to a fixed point (a caterpillar)."""
    while True:
        m = find_move(t)
        if m is None:
            return t
        t = _reattach(t, m)
