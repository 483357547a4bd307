"""Distance-based tree invariants: Wiener index and its variants, subtree counts.

Every integer-valued index is computed exactly; the vertex-edge Wiener index is
kept as an exact Fraction internally (it carries a 1/2 factor) and the
lambda-Wiener family is the only floating-point quantity.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .tree import Tree, _bfs_order, distance_matrix, distances_from


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


def _edge_distances(t: Tree) -> tuple[list[tuple[int, int]], list[list[int]]]:
    dm = distance_matrix(t)
    edges = list(t.edges)
    m = len(edges)
    ed = [[0] * m for _ in range(m)]
    for i in range(m):
        u1, v1 = edges[i]
        for j in range(i + 1, m):
            u2, v2 = edges[j]
            d = min(dm[u1][u2], dm[u1][v2], dm[v1][u2], dm[v1][v2])
            ed[i][j] = ed[j][i] = d
    return edges, ed


def edge_wiener(t: Tree) -> int:
    """Sum over unordered edge pairs of the nearest-endpoint distance."""
    _, ed = _edge_distances(t)
    m = len(ed)
    return sum(ed[i][j] for i in range(m) for j in range(i + 1, m))


def edge_wiener_line(t: Tree) -> int:
    """Edge Wiener under the line-graph distance d'(e,f) = d(e,f) + 1."""
    _, ed = _edge_distances(t)
    m = len(ed)
    return sum(ed[i][j] + 1 for i in range(m) for j in range(i + 1, m))


def vertex_edge_wiener(t: Tree) -> Fraction:
    """Half the sum of all vertex-to-edge distances, exact."""
    dm = distance_matrix(t)
    total = 0
    for v in range(t.n):
        for u, w in t.edges:
            total += min(dm[v][u], dm[v][w])
    return Fraction(total, 2)


def schultz(t: Tree) -> int:
    """Degree distance: sum of d(u,v) * (deg(u) + deg(v)) over pairs."""
    dm = distance_matrix(t)
    deg = t.degrees()
    return sum(
        dm[u][v] * (deg[u] + deg[v])
        for u in range(t.n)
        for v in range(u + 1, t.n)
    )


def gutman(t: Tree) -> int:
    """Sum of d(u,v) * deg(u) * deg(v) over unordered pairs."""
    dm = distance_matrix(t)
    deg = t.degrees()
    return sum(
        dm[u][v] * deg[u] * deg[v] for u in range(t.n) for v in range(u + 1, t.n)
    )


def hyper_wiener(t: Tree) -> int:
    """Sum of binom(1 + d(u,v), 2) over unordered pairs."""
    dm = distance_matrix(t)
    return sum(
        comb(1 + dm[u][v], 2) for u in range(t.n) for v in range(u + 1, t.n)
    )


def wiener_lambda(t: Tree, lam: float) -> float:
    """Sum of d(u,v)**lambda over unordered pairs; lambda must be nonzero."""
    if lam == 0:
        raise ValueError("lambda must be nonzero")
    dm = distance_matrix(t)
    return float(
        sum(dm[u][v] ** lam for u in range(t.n) for v in range(u + 1, t.n))
    )


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
            "subtrees": str(self.subtrees),
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
    we = edge_wiener(t)
    wel = edge_wiener_line(t)
    wve = vertex_edge_wiener(t)
    wp = schultz(t)
    wm = gutman(t)
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
        hyper_wiener=hyper_wiener(t),
        wiener_lambda={lam: wiener_lambda(t, lam) for lam in lambdas},
        relation_residuals=residuals,
    )
