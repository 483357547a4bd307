"""Distance-based tree invariants: Wiener index and its variants, subtree counts.

Every integer-valued index is computed exactly, the vertex-edge Wiener index
included (half a sum that is even on a tree); the lambda-Wiener family is the
only floating-point quantity.

The other distance indices come from one centroid-decomposition kernel,
_distance_sums: O(n log n) BFS vertex visits in O(n) memory, plus one exact
convolution of depth histograms per branch (by Kronecker substitution when
the lists are long), so a 10^5-vertex tree takes seconds.  Each index is
summed from its definition over the vertex pairs, or vertex-edge pairs, that
a centroid separates, with every distance read off a BFS depth and never
through the tree identities, so the residuals of invariant_report stay
checks.  The edge Wiener index is summed edge by edge too: the row of an
edge is read off the rows of its two ends.
"""

from __future__ import annotations

import sys
from math import comb, isfinite

from .tree import Tree, _bfs_order, _Record

# decimal and array are imported by the functions that use them, so that
# importing the package loads neither


def _subtree_sizes(order, parent, size) -> None:
    """size[v] = the size of v's subtree, for each v of a rooted order (each
    vertex after its parent) with parent array parent."""
    for v in order:
        size[v] = 1
    for v in order[:0:-1]:
        size[parent[v]] += size[v]


def _wiener_rooted(order, parent) -> int:
    """The Wiener index from a rooted order and its parent array: the edge
    from v to its parent lies on size(v) * (n - size(v)) shortest paths."""
    n = len(parent)
    size = [0] * n
    _subtree_sizes(order, parent, size)
    return sum(size[v] * (n - size[v]) for v in order[1:])


def _subtrees_rooted(order, parent) -> int:
    """The subtree count from a rooted order and its parent array: f(v) =
    prod over children (1 + f(child)) counts the subtrees whose vertex
    closest to the root is v, so their sum is the count.

    A leaf child (f = 1) doubles its parent's factor, so the leaves of a
    vertex are counted and shifted in once, when the vertex is done.  The
    factors are summed smallest first, so that a hub's huge factor is not
    copied once for every small one added after it.
    """
    n = len(parent)
    f = [1] * n
    leaves = [0] * n
    for v in order[:0:-1]:
        fv = f[v] << leaves[v]
        f[v] = fv
        if fv == 1:
            leaves[parent[v]] += 1
        else:
            f[parent[v]] *= 1 + fv
    root = order[0]
    f[root] <<= leaves[root]
    return sum(sorted(f))


def wiener(t: Tree) -> int:
    """Sum of distances over unordered vertex pairs (see _wiener_rooted)."""
    return _wiener_rooted(*_bfs_order(t, 0))


def count_text(count: int) -> str:
    """Decimal text of an exact count, however many digits it has.

    str(int) refuses more than 4 300 digits (sys.set_int_max_str_digits);
    past that, Decimal converts without the limit, which stays on for
    parsing.
    """
    try:
        return str(count)
    except ValueError:
        from decimal import Decimal

        return str(Decimal(count))


def subtree_count(t: Tree) -> int:
    """Number of subtrees (connected subgraphs with >= 1 vertex), exact."""
    return _subtrees_rooted(*_bfs_order(t, 0))


# Below this many coefficient products a schoolbook convolution beats one
# packed big-int product (about 130 on a 2-core Xeon, Python 3.11).
_SCHOOLBOOK_MAX = 128


def _kronecker_product(a: list[int], b: list[int]) -> list[int]:
    """The product of two lists of nonnegative coefficients, neither all
    zero, by one big-int product (Kronecker substitution; Harvey, "Faster
    polynomial multiplication via multipoint Kronecker substitution", 2009).

    Each list is packed into an int with w bytes per coefficient.  Every
    coefficient of the product is at most sum(a) * sum(b), so w bytes hold
    it and no slot carries into the next.  w is rounded up to an array item
    size, 1, 2, 4 or 8 bytes, so that each list is packed, and the product
    read back, in one call.  A tree's coefficient sums are at most n, so
    8-byte slots hold every product for n < 2^32.  The slots are packed and
    read in the host's byte order: on a big-endian host the read reverses
    the coefficients of both factors and of the product alike, so every
    slot still lands in place.
    """
    from array import array

    need = ((sum(a) * sum(b)).bit_length() + 7) // 8
    # the smallest unsigned array type holding need bytes (C orders the
    # sizes of char, short, int, long and long long)
    code = next(c for c in "BHILQ" if array(c).itemsize >= need)
    m = (len(a) + len(b) - 1) * array(code).itemsize
    pa, pb = [int.from_bytes(array(code, c), sys.byteorder) for c in (a, b)]
    return array(code, (pa * pb).to_bytes(m, sys.byteorder)).tolist()


def _centroid(adjacency, removed, parent, size, order: list[int]) -> int:
    """The centroid of a component, given its BFS order from order[0] and
    each vertex's parent in it: walk down from order[0] into the child
    holding more than half of the component, while there is one."""
    _subtree_sizes(order, parent, size)
    half = len(order) // 2
    v = order[0]
    while True:
        p = parent[v]
        for w in adjacency[v]:
            if w != p and not removed[w] and size[w] > half:
                v = w
                break
        else:
            return v


def _distance_sums(t: Tree) -> tuple[list[int], int, int, int, int]:
    """The number of unordered vertex pairs at each distance d (0 at d = 0),
    the Schultz and Gutman indices, the sum of all vertex-to-edge distances
    and the edge Wiener index, by centroid decomposition.

    A component is split at its centroid c into branches, one per
    neighbour x of c, each taken by one BFS from x that gives every vertex
    its depth (distance to c) and the subtree sizes that locate the
    branch's own centroid.  The pairs that c separates are counted at c
    and the branches are split in turn, so each vertex is visited once per
    level, O(n log n) visits in all, in O(n) memory.  c itself is a branch
    of its own, at depth 0.

    - Pairs: for u and v in different branches d(u, v) = depth(u) +
      depth(v), so the branches' depth histograms, folded in one at a time
      (shortest first), are convolved with the running histogram of those
      before: term by term when short, else by _kronecker_product.
    - Schultz and Gutman: with the totals N = count, D = sum of depths,
      G = sum of degrees and GD = sum of deg * depth, the sums over all
      unordered pairs of a component, both ends in it, are N * GD + D * G
      and GD * G (half the ordered sums); the branches' own terms are
      subtracted.
    - Vertex-edge: an edge belongs to the branch of its deeper end and
      d(v, e) = depth(v) + depth(e's upper end) for v outside that branch.
      The edges (c, x) leave with c, so each is also counted here for the
      vertices v of x's branch, at depth(v) - 1.  Both sums are taken with
      the weight 1 (the vertex-edge sum) and with deg(v), which gives
      sum of deg(v) * near(v), near(v) being v's vertex-edge sum.
    - Edge Wiener: the row of an edge (a, b) with sides A and B,
      min(d(a, .), d(b, .)), is d(a, .) less one on B, so its nearest-end
      sum over the edges is near(a) - (|B| - 1), and likewise near(b) -
      (|A| - 1).  As |A| + |B| = n, twice it is near(a) + near(b) - (n - 2).
      Summed over the edges, the sum of deg(v) * near(v) is twice the
      edges' row sums plus (n - 1)(n - 2), and the edges' row sums add up
      to 2 W_e, each edge pair met from both ends.

    Every term is a distance read off a BFS depth, none a subtree size or
    the Wiener index, so the residuals of invariant_report stay checks.
    """
    n = t.n
    adjacency = t.adjacency
    deg = t.degrees()
    counts = [0] * n
    schultz = gutman = vertex_edge = edge_ends = 0
    removed = bytearray(n)
    order, parent = _bfs_order(t, 0)
    size = [0] * n
    depth = [0] * n
    stack = [_centroid(adjacency, removed, parent, size, order)]
    while stack:
        c = stack.pop()
        removed[c] = 1
        branches = []
        for x in adjacency[c]:
            if removed[x]:
                continue
            if len(adjacency[x]) == 1:  # a leaf: one vertex, at depth 1
                branches.append((1, [1], 1, 1, 1, 1))
                continue
            parent[x] = c
            depth[x] = 1
            order = [x]
            for v in order:
                p = parent[v]
                dw = depth[v] + 1
                for w in adjacency[v]:
                    if w != p and not removed[w]:
                        parent[w] = v
                        depth[w] = dw
                        order.append(w)
            hist = [0] * depth[order[-1]]
            for v in order:
                hist[depth[v] - 1] += 1
            db = sum([d * k for d, k in enumerate(hist, 1)])
            gb = sum([deg[v] for v in order])
            gdb = sum([deg[v] * depth[v] for v in order])
            if len(order) > 1:  # a lone vertex has no pairs left to count
                stack.append(_centroid(adjacency, removed, parent, size, order))
            branches.append((len(hist), hist, len(order), db, gb, gdb))
        branches.sort()
        reach = [1]
        for height, hist, *_ in branches:
            if len(reach) * height <= _SCHOOLBOOK_MAX:
                for i, r in enumerate(reach, 1):
                    for d, k in enumerate(hist, i):
                        counts[d] += r * k
            else:
                for d, k in enumerate(_kronecker_product(reach, hist), 1):
                    counts[d] += k
            reach += [0] * (height + 1 - len(reach))
            for d, k in enumerate(hist, 1):
                reach[d] += k
        N = 1 + sum([b[2] for b in branches])
        D = sum([b[3] for b in branches])
        G = deg[c] + sum([b[4] for b in branches])
        GD = sum([b[5] for b in branches])
        schultz += N * GD + D * G
        gutman += GD * G
        for _, _, nb, db, gb, gdb in branches:
            schultz -= nb * gdb + db * gb
            gutman -= gdb * gb
            vertex_edge += (N - nb) * (db - nb) + (D - db) * nb + db - nb
            edge_ends += (G - gb) * (db - nb) + (GD - gdb) * nb + gdb - gb
    edge_wiener = (edge_ends - (n - 1) * (n - 2)) // 4
    return counts, schultz, gutman, vertex_edge, edge_wiener


def _hyper_wiener(pair_counts: list[int]) -> int:
    return sum(c * comb(1 + d, 2) for d, c in enumerate(pair_counts))


def _wiener_lambda(pair_counts: list[int], lam: float) -> float:
    if lam == 0 or not isfinite(lam):
        raise ValueError("lambda must be finite and nonzero")
    # only the distances that occur, so d = 0 and unused lengths are skipped
    total = float(sum(c * d ** lam for d, c in enumerate(pair_counts) if c))
    if not isfinite(total):
        raise OverflowError(f"the lambda={lam:g} Wiener sum overflows a float")
    return total


def edge_wiener(t: Tree) -> int:
    """Sum over unordered edge pairs of the nearest-endpoint distance, each
    edge's row min(d(a, .), d(b, .)) read off the rows of its ends, so it
    takes no pass over the edges of its own (see _distance_sums)."""
    return _distance_sums(t)[4]


def edge_wiener_line(t: Tree) -> int:
    """Edge Wiener under the line-graph distance d'(e,f) = d(e,f) + 1."""
    return edge_wiener(t) + comb(len(t.edges), 2)


def _half_vertex_edge(total: int) -> int:
    """The vertex-edge Wiener index from the sum of all vertex-to-edge
    distances.  On a tree that sum is 2W - n(n-1), so it is even; an odd
    one is a kernel defect and raises AssertionError, under python -O too."""
    half, odd = divmod(total, 2)
    if odd:
        raise AssertionError(f"vertex-to-edge distance sum {total} is odd")
    return half


def vertex_edge_wiener(t: Tree) -> int:
    """Half the sum of all vertex-to-edge distances."""
    return _half_vertex_edge(_distance_sums(t)[3])


def schultz(t: Tree) -> int:
    """Degree distance: sum of d(u,v) * (deg(u) + deg(v)) over pairs."""
    return _distance_sums(t)[1]


def gutman(t: Tree) -> int:
    """Sum of d(u,v) * deg(u) * deg(v) over unordered pairs."""
    return _distance_sums(t)[2]


def hyper_wiener(t: Tree) -> int:
    """Sum of binom(1 + d(u,v), 2) over unordered pairs."""
    return _hyper_wiener(_distance_sums(t)[0])


def wiener_lambda(t: Tree, lam: float) -> float:
    """Sum of d(u,v)**lambda over unordered pairs; lambda must be finite and
    nonzero.  OverflowError when a power or the sum is not a finite float."""
    return _wiener_lambda(_distance_sums(t)[0], lam)


class InvariantReport(_Record):
    n: int
    wiener: int
    subtrees: int
    edge_wiener: int
    edge_wiener_line: int
    vertex_edge_wiener: int
    schultz: int
    gutman: int
    hyper_wiener: int
    wiener_lambda: dict[float, float]
    relation_residuals: dict[str, int]

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "wiener": self.wiener,
            "subtrees": count_text(self.subtrees),
            "edge_wiener": self.edge_wiener,
            "edge_wiener_line": self.edge_wiener_line,
            "vertex_edge_wiener": self.vertex_edge_wiener,
            "schultz": self.schultz,
            "gutman": self.gutman,
            "hyper_wiener": self.hyper_wiener,
            "wiener_lambda": {str(k): v for k, v in self.wiener_lambda.items()},
            "relation_residuals": dict(self.relation_residuals),
        }


def invariant_report(t: Tree, lambdas: tuple[float, ...] = ()) -> InvariantReport:
    """All invariants of one tree plus residuals of the tree-only relations.

    The residuals are zero for every tree; nonzero values would flag a defect
    in one of the computations.  Each checks an index summed from its
    definition (edge, vertex-edge, Schultz, Gutman) against its closed form
    in W.
    """
    n = t.n
    w = wiener(t)
    counts, wp, wm, vertex_edge, we = _distance_sums(t)
    wve = _half_vertex_edge(vertex_edge)
    residuals = {
        "edge_wiener": we - (w - (n - 1) ** 2),
        "vertex_edge_wiener": wve - (w - n * (n - 1) // 2),
        "schultz": wp - (4 * w - n * (n - 1)),
        "gutman": wm - (4 * w - (n - 1) * (2 * n - 1)),
    }
    return InvariantReport(
        n=n,
        wiener=w,
        subtrees=subtree_count(t),
        edge_wiener=we,
        edge_wiener_line=we + comb(len(t.edges), 2),
        vertex_edge_wiener=wve,
        schultz=wp,
        gutman=wm,
        hyper_wiener=_hyper_wiener(counts),
        wiener_lambda={lam: _wiener_lambda(counts, lam) for lam in lambdas},
        relation_residuals=residuals,
    )
