"""Distance-based tree invariants: Wiener index and its variants, subtree counts.

Every integer-valued index is computed exactly; the vertex-edge Wiener index is
kept as an exact Fraction internally (it carries a 1/2 factor) and the
lambda-Wiener family is the only floating-point quantity.

The other distance indices take one BFS row per vertex, n rows in all, in
O(n) memory, and are summed from their definitions, never through the tree
identities, so the residuals of invariant_report stay checks.  The edge
Wiener index is summed edge by edge too: the row of an edge is read off the
rows of its two ends (see _vertex_pass).
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from math import comb, isfinite

from .tree import Tree, _bfs_order, distances_from


def wiener(t: Tree) -> int:
    """Sum of distances over unordered vertex pairs, by edge contributions.

    Each edge separates the tree into parts of sizes s and n-s and lies on
    exactly s*(n-s) shortest paths.
    """
    order, parent = _bfs_order(t, 0)
    size = [1] * t.n
    for v in reversed(order[1:]):
        size[parent[v]] += size[v]
    return sum(size[v] * (t.n - size[v]) for v in order[1:])


def wiener_pairwise(t: Tree) -> int:
    """Independent Wiener computation: all-pairs BFS, summed. Test oracle."""
    total = 0
    for v in range(t.n):
        total += sum(distances_from(t, v))
    return total // 2


def count_text(count: int) -> str:
    """Decimal text of an exact count, however many digits it has.

    str(int) refuses more than 4 300 digits (sys.set_int_max_str_digits);
    Decimal converts without that limit, which stays on for parsing.
    """
    return str(Decimal(count))


def subtree_count(t: Tree) -> int:
    """Number of subtrees (connected subgraphs with >= 1 vertex), exact.

    Rooted DP: f(v) = prod over children (1 + f(child)) counts the subtrees
    containing v inside v's rooted subtree; summing f over all vertices counts
    each subtree once, at its vertex closest to the root.
    """
    order, parent = _bfs_order(t, 0)
    f = [1] * t.n
    for v in reversed(order[1:]):
        f[parent[v]] *= 1 + f[v]
    return sum(f)


def _nearest_end_sum(row: list[int], edges) -> int:
    """Sum over the edges (a, b) of min(row[a], row[b])."""
    return sum([row[a] if row[a] < row[b] else row[b] for a, b in edges])


def _vertex_pass(t: Tree, sums: bool = True) -> tuple[list[int], int, int, int, int]:
    """One BFS row per vertex: the number of unordered pairs at each distance
    d (0 at d = 0) and, if sums, the Schultz and Gutman indices, the sum of
    all vertex-to-edge distances and the edge Wiener index.  Every pair is
    met from both ends.

    The edge Wiener index is summed over the rows of the edges without
    taking them.  Let near(v) be the sum over the edges (x, y) of
    min(d(v, x), d(v, y)), the vertex-edge term of v's row.  The row of an
    edge (a, b) with sides A and B is min(d(a, .), d(b, .)): that is d(a, .)
    less one on B, so the edge's row sum is near(a) - (|B| - 1), and likewise
    near(b) - (|A| - 1).  As |A| + |B| = n, twice the edge's row sum is
    near(a) + near(b) - (n - 2).  Summed over the edges, the sum of
    deg(v) * near(v) is twice the edges' row sums plus (n - 1)(n - 2), and
    the edges' row sums add up to 2 W_e, each edge pair met from both ends."""
    n = t.n
    deg = t.degrees()
    counts = [0] * n
    schultz = gutman = vertex_edge = edge_ends = 0
    for v in range(n):
        row = distances_from(t, v)
        for d in row:
            counts[d] += 1
        if sums:
            schultz += deg[v] * sum(row)
            gutman += deg[v] * sum([du * d for du, d in zip(deg, row)])
            near = _nearest_end_sum(row, t.edges)
            vertex_edge += near
            edge_ends += deg[v] * near
    edge_wiener = (edge_ends - (n - 1) * (n - 2)) // 4 if sums else 0
    return (
        [0] + [c // 2 for c in counts[1:]],
        schultz,
        gutman // 2,
        vertex_edge,
        edge_wiener,
    )


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
    takes one BFS row per vertex in O(n) memory (see _vertex_pass)."""
    return _vertex_pass(t)[4]


def edge_wiener_line(t: Tree) -> int:
    """Edge Wiener under the line-graph distance d'(e,f) = d(e,f) + 1."""
    return edge_wiener(t) + comb(len(t.edges), 2)


def vertex_edge_wiener(t: Tree) -> Fraction:
    """Half the sum of all vertex-to-edge distances, exact."""
    return Fraction(_vertex_pass(t)[3], 2)


def schultz(t: Tree) -> int:
    """Degree distance: sum of d(u,v) * (deg(u) + deg(v)) over pairs."""
    return _vertex_pass(t)[1]


def gutman(t: Tree) -> int:
    """Sum of d(u,v) * deg(u) * deg(v) over unordered pairs."""
    return _vertex_pass(t)[2]


def hyper_wiener(t: Tree) -> int:
    """Sum of binom(1 + d(u,v), 2) over unordered pairs."""
    return _hyper_wiener(_vertex_pass(t, sums=False)[0])


def wiener_lambda(t: Tree, lam: float) -> float:
    """Sum of d(u,v)**lambda over unordered pairs; lambda must be finite and
    nonzero.  OverflowError when a power or the sum is not a finite float."""
    return _wiener_lambda(_vertex_pass(t, sums=False)[0], lam)


@dataclass(frozen=True)
class InvariantReport:
    n: int
    wiener: int
    subtrees: int
    edge_wiener: int
    edge_wiener_line: int
    vertex_edge_wiener: Fraction
    schultz: int
    gutman: int
    hyper_wiener: int
    wiener_lambda: dict[float, float]
    relation_residuals: dict[str, int]

    def to_dict(self) -> dict:
        if self.vertex_edge_wiener.denominator != 1:
            raise AssertionError(
                f"vertex-edge Wiener index {self.vertex_edge_wiener} is not an integer"
            )
        return {
            "n": self.n,
            "wiener": self.wiener,
            "subtrees": count_text(self.subtrees),
            "edge_wiener": self.edge_wiener,
            "edge_wiener_line": self.edge_wiener_line,
            "vertex_edge_wiener": int(self.vertex_edge_wiener),
            "schultz": self.schultz,
            "gutman": self.gutman,
            "hyper_wiener": self.hyper_wiener,
            "wiener_lambda": {str(k): v for k, v in self.wiener_lambda.items()},
            "relation_residuals": dict(self.relation_residuals),
        }


def invariant_report(t: Tree, lambdas: tuple[float, ...] = ()) -> InvariantReport:
    """All invariants of one tree plus residuals of the tree-only relations.

    The residuals are zero for every tree; nonzero values would flag a defect
    in one of the computations.
    """
    n = t.n
    w = wiener(t)
    counts, wp, wm, vertex_edge, we = _vertex_pass(t)
    wve = Fraction(vertex_edge, 2)
    wel = we + comb(len(t.edges), 2)
    residuals = {
        "edge_wiener": we - (w - (n - 1) ** 2),
        "edge_wiener_line": wel - we - comb(n - 1, 2),
        "vertex_edge_wiener": int(wve - (w - Fraction(n * (n - 1), 2))),
        "schultz": wp - (4 * w - n * (n - 1)),
        "gutman": wm - (4 * w - (n - 1) * (2 * n - 1)),
    }
    return InvariantReport(
        n=n,
        wiener=w,
        subtrees=subtree_count(t),
        edge_wiener=we,
        edge_wiener_line=wel,
        vertex_edge_wiener=wve,
        schultz=wp,
        gutman=wm,
        hyper_wiener=_hyper_wiener(counts),
        wiener_lambda={lam: _wiener_lambda(counts, lam) for lam in lambdas},
        relation_residuals=residuals,
    )
