"""Exhaustive desk-scale machinery: free-tree generation, sequence filtering,
extremality verification, formula auditing, caterpillar counting, and the
conjecture explorer for the hyper-Wiener and lambda-Wiener indices."""

from __future__ import annotations

from itertools import product

from .extremal import (
    CaterpillarDecomposition,
    build_caterpillar,
    extremal_decomposition,
    extremal_tree,
    max_subtrees_printed_detail,
    max_subtrees_value,
    min_wiener_derivation,
    min_wiener_printed,
    printed_wiener_delta,
)
from .invariants import (
    _distance_sums,
    _hyper_wiener,
    _subtrees_rooted,
    _wiener_lambda,
    _wiener_rooted,
    count_text,
    subtree_count,
    wiener,
)
from .sequence import (
    EccSequence,
    eccentric_sequence,
    require_valid,
    validate_tree_sequence,
)
from .tree import (
    Tree,
    _bfs_order,
    _Record,
    _share_adjacency,
    canonical_code,
    tree_to_text,
)

LAMBDA_TOL = 1e-9  # relative tolerance for lambda-Wiener minimiser ties
DEFAULT_BUDGET = 12


class BudgetExceededError(ValueError):
    """Requested enumeration exceeds the configured order budget."""


def _next_rooted(level: list[int], p: int) -> list[int] | None:
    """Beyer-Hedetniemi successor of a rooted level sequence: from entry p
    on, repeat the segment that starts at p's parent q, so entry p moves one
    level up.  None when p is the root."""
    if p == 0:
        return None
    q = p - 1
    while level[q] != level[p] - 1:
        q -= 1
    out = level[:p]
    for i in range(p, len(level)):
        out.append(out[i - p + q])
    return out


def _second_subtree(level: list[int]) -> int:
    """Index where the root's second subtree starts (len(level) if none)."""
    try:
        return level.index(1, 2)
    except ValueError:
        return len(level)


def _next_free(level: list[int]) -> list[int]:
    """The first sequence from level on, in the rooted successor order,
    that is the canonical (centred) level sequence of a free tree.

    With the root's first subtree L (shifted up one level) and the rest R,
    level is canonical iff (height, size, sequence) of L is at most that of
    R, compared in that order.  Otherwise the successor skips to the next
    candidate, resetting the tail to a path when the first subtree was deep.
    """
    m = _second_subtree(level)
    left = [x - 1 for x in level[1:m]]
    rest = [0] + level[m:]
    if (max(left), len(left), left) <= (max(rest), len(rest), rest):
        return level
    out = _next_rooted(level, m - 1)
    if level[m - 1] > 2:
        height = max(out[1 : _second_subtree(out)])
        out[len(out) - height :] = range(1, height + 1)
    return out


def _free_tree_edges(n: int):
    """Edge tuples of the nonisomorphic trees on n vertices (Wright,
    Richmond, Odlyzko & McKay 1986, over the Beyer-Hedetniemi rooted
    successor).  Vertex i is entry i of the tree's level sequence and is
    joined to its parent p, the last earlier vertex one level up.  The edge
    is pair[p][i] == (p, i), from one table per call, so all the trees share
    at most n(n-1)/2 edge objects (Tree keeps a normalized tuple as is)."""
    if n == 1:
        yield ()
        return
    pair = [[(p, i) for i in range(n)] for p in range(n)]
    # the path rooted at its center comes first
    level: list[int] | None = list(range(n // 2 + 1)) + list(range(1, (n + 1) // 2))
    while level is not None:
        level = _next_free(level)
        last = [0] * n
        edges = []
        for i in range(1, n):
            d = level[i]
            edges.append(pair[last[d - 1]][i])
            last[d] = i
        yield tuple(edges)
        p = n - 1
        while level[p] == 1:
            p -= 1
        level = _next_rooted(level, p)


def free_trees(n: int) -> list[Tree]:
    """All pairwise nonisomorphic trees on n vertices, sorted by canonical
    code, from the in-house level-sequence generator.  The tests cross-check
    it against labelled enumeration plus dedup and, tree by tree, against a
    reference implementation of the same algorithm.  The trees share their
    edge pairs and, through one table per call, their neighbour tuples."""
    if n < 1:
        raise ValueError("n must be >= 1")
    table: dict[tuple[int, ...], tuple[int, ...]] = {}
    trees = [_share_adjacency(Tree(n, edges), table) for edges in _free_tree_edges(n)]
    trees.sort(key=canonical_code)
    return trees


def _sequence_order(s: EccSequence) -> tuple:
    """Sort key of the expanded sequences' order, by n, then lexicographic:
    b1 ascending, then each multiplicity descending (longer runs go first)."""
    return s.n, s.b1, tuple([-m for m in s.mult])


def _trees_by_sequence(n: int) -> dict[EccSequence, list[Tree]]:
    """The free trees on n vertices grouped by eccentric sequence, with the
    sequences in _sequence_order.  Each group keeps the canonical-code order
    of free_trees."""
    groups: dict[EccSequence, list[Tree]] = {}
    for t in free_trees(n):
        groups.setdefault(eccentric_sequence(t), []).append(t)
    return {s: groups[s] for s in sorted(groups, key=_sequence_order)}


def trees_with_sequence(s: EccSequence) -> list[Tree]:
    """The free trees on sum(m) vertices whose eccentric sequence is s,
    sorted by canonical code."""
    if not validate_tree_sequence(s):
        return []
    return _trees_by_sequence(s.n).get(s, [])


def valid_sequences(max_n: int) -> list[EccSequence]:
    """All valid tree eccentric sequences with 3 <= n <= max_n, generated
    directly from the compact-form characterisation, in _sequence_order."""
    out = []
    for n in range(3, max_n + 1):
        for b1 in range(1, n):
            # m_1 = 1: diameter 2*b1, l = b1 + 1 distinct values;
            # m_1 = 2: diameter 2*b1 - 1, l = b1 distinct values
            for m1, l in ((1, b1 + 1), (2, b1)):
                for combo in _compositions(n - m1, l - 1):
                    out.append(EccSequence(b1, (m1,) + combo))
    out.sort(key=_sequence_order)
    return out


def _compositions(total: int, parts: int):
    """Ordered compositions of total into parts entries, each >= 2; none
    when parts < 1."""
    if parts < 1:
        return
    if parts == 1:
        if total >= 2:
            yield (total,)
        return
    for first in range(2, total - 2 * (parts - 1) + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


class ExtremalityReport(_Record):
    sequence: EccSequence
    n: int
    trees_examined: int
    min_wiener: int
    min_wiener_achievers: tuple[bytes, ...]
    max_subtrees: int
    max_subtrees_achievers: tuple[bytes, ...]
    construction_is_min_w: bool
    construction_is_max_n: bool
    unique_min_w: bool
    unique_max_n: bool

    @property
    def holds(self) -> bool:
        """The main result for this sequence: the construction is the
        unique Wiener minimiser and the unique subtree maximiser."""
        return (
            self.construction_is_min_w
            and self.unique_min_w
            and self.construction_is_max_n
            and self.unique_max_n
        )

    def to_dict(self) -> dict:
        return {
            "sequence": self.sequence.compact_str(),
            "n": self.n,
            "trees_examined": self.trees_examined,
            "min_wiener": self.min_wiener,
            "min_wiener_achievers": [c.decode() for c in self.min_wiener_achievers],
            "max_subtrees": count_text(self.max_subtrees),
            "max_subtrees_achievers": [c.decode() for c in self.max_subtrees_achievers],
            "construction_is_min_w": self.construction_is_min_w,
            "construction_is_max_n": self.construction_is_max_n,
            "unique_min_w": self.unique_min_w,
            "unique_max_n": self.unique_max_n,
        }


def _optimum(trees: list[Tree], values: list, tol=0):
    """The least of values, one per tree of a class in canonical-code order,
    with the trees whose value is at most best + |best| * tol + tol, in that
    order, and their canonical codes.  The default int tol keeps int values
    exact; a float tol holds for either sign of best.  For a maximum, pass
    the negated values: the best comes back negated."""
    best = min(values)
    # for best >= 0, bit for bit the cutoff behind the golden digests
    cutoff = best * (1 + tol if best >= 0 else 1 - tol) + tol
    winners = [t for t, value in zip(trees, values) if value <= cutoff]
    return best, winners, tuple(canonical_code(t) for t in winners)


def _extremality_report(s: EccSequence, trees: list[Tree]) -> ExtremalityReport:
    """Check the construction against trees, the realizers of s in
    canonical-code order, so the achievers come out in that order too."""
    rooted = [_bfs_order(t, 0) for t in trees]
    min_w, _, min_achievers = _optimum(
        trees, [_wiener_rooted(order, parent) for order, parent in rooted]
    )
    neg_max_nsub, _, max_achievers = _optimum(
        trees, [-_subtrees_rooted(order, parent) for order, parent in rooted]
    )
    construction_code = canonical_code(extremal_tree(s))
    return ExtremalityReport(
        sequence=s,
        n=s.n,
        trees_examined=len(trees),
        min_wiener=min_w,
        min_wiener_achievers=min_achievers,
        max_subtrees=-neg_max_nsub,
        max_subtrees_achievers=max_achievers,
        construction_is_min_w=construction_code in min_achievers,
        construction_is_max_n=construction_code in max_achievers,
        unique_min_w=len(min_achievers) == 1,
        unique_max_n=len(max_achievers) == 1,
    )


def verify_extremal(s: EccSequence, max_n: int = DEFAULT_BUDGET) -> ExtremalityReport:
    """Enumerate every tree with sequence s and check that the constructed
    caterpillar is the unique Wiener minimiser and subtree maximiser."""
    require_valid(s)
    if s.n > max_n:
        raise BudgetExceededError(
            f"sequence order {s.n} exceeds enumeration budget {max_n}"
        )
    return _extremality_report(s, trees_with_sequence(s))


def _verify_orders(max_n: int):
    """For each order n = 3..max_n in turn, the list of verify_all's
    reports on n vertices, yielded as soon as that order is done."""
    for n in range(3, max_n + 1):
        # no name holds the groups, so order n's trees are freed before the
        # yield, not kept while order n + 1 is enumerated
        yield [
            _extremality_report(s, trees) for s, trees in _trees_by_sequence(n).items()
        ]


def verify_all(max_n: int) -> list[ExtremalityReport]:
    """verify_extremal for every sequence realized by a tree on 3..max_n
    vertices, in valid_sequences' order, enumerating each order once."""
    return [r for reports in _verify_orders(max_n) for r in reports]


def _caterpillar_vectors(s: EccSequence):
    """Pendant vectors c, one per caterpillar with eccentric sequence s up
    to isomorphism.  Pendants at positions j and q+1-j share an
    eccentricity, so s fixes each pair sum |D_j|, and every split of the
    pairs with c_1, c_q >= 1 realizes s.  Keeping c >= reversed(c) keeps
    one of each mirror pair and puts c_1 >= c_q, so c_q is the end to check."""
    if not validate_tree_sequence(s):
        return
    d = extremal_decomposition(s).d_sizes()
    half = (s.bl - 1) // 2
    for left in product(*(range(dj + 1) for dj in d[:half])):
        c = left + d[half:] + tuple(d[j] - left[j] for j in reversed(range(half)))
        if c[-1] and c >= c[::-1]:
            yield c


def caterpillars_with_sequence(s: EccSequence) -> list[Tree]:
    """All nonisomorphic caterpillars with eccentric sequence s, sorted by
    canonical code, generated directly from their pendant vectors."""
    trees = [
        build_caterpillar(CaterpillarDecomposition(c)) for c in _caterpillar_vectors(s)
    ]
    trees.sort(key=canonical_code)
    return trees


def count_caterpillars(s: EccSequence) -> int:
    """Number of nonisomorphic caterpillars with eccentric sequence s."""
    return sum(1 for _ in _caterpillar_vectors(s))


class AuditRow(_Record):
    sequence: EccSequence
    n: int
    oracle_w: int
    printed_w: int
    delta_w: int
    delta_w_identity_ok: bool
    oracle_n: int
    printed_n: Fraction
    delta_n: Fraction
    printed_n_truncated: bool

    @property
    def printed_w_matches(self) -> bool:
        return self.delta_w == 0

    @property
    def printed_n_matches(self) -> bool:
        return self.delta_n == 0

    def to_dict(self) -> dict:
        # the closed-form keys repeat the oracles: _checked_construction checked them
        return {
            "sequence": self.sequence.compact_str(),
            "n": self.n,
            "oracle_W": self.oracle_w,
            "derivation_W": self.oracle_w,
            "printed_W": self.printed_w,
            "delta_W": self.delta_w,
            "delta_W_identity_ok": self.delta_w_identity_ok,
            "oracle_N": count_text(self.oracle_n),
            "decomposition_N": count_text(self.oracle_n),
            "printed_N": str(self.printed_n),
            "delta_N": str(self.delta_n),
            "printed_N_truncated": self.printed_n_truncated,
        }


class AuditReport(_Record):
    max_n: int
    rows: tuple[AuditRow, ...]

    @property
    def mismatching_rows(self) -> tuple[AuditRow, ...]:
        return tuple(
            r for r in self.rows if not (r.printed_w_matches and r.printed_n_matches)
        )

    def to_dict(self) -> dict:
        return {
            "max_n": self.max_n,
            "rows": [r.to_dict() for r in self.rows],
            "mismatching_sequences": [
                r.sequence.compact_str() for r in self.mismatching_rows
            ],
        }


def _checked_construction(s: EccSequence) -> tuple[Tree, int, int]:
    """The extremal tree of a valid s with its W and N from the closed forms
    (the derivation and the subtree decomposition), each checked against
    the oracle on the tree: wiener (edge contributions, independent of the
    derivation's layer sums) and subtree_count.  A mismatch raises
    AssertionError naming s."""
    t = extremal_tree(s)
    w = min_wiener_derivation(s)
    if w != wiener(t):
        raise AssertionError(
            f"derivation Wiener formula disagrees with oracle on {s.compact_str()}"
        )
    nsub = max_subtrees_value(s)
    if nsub != subtree_count(t):
        raise AssertionError(
            f"subtree decomposition disagrees with oracle on {s.compact_str()}"
        )
    return t, w, nsub


def audit_formulas(max_n: int) -> AuditReport:
    """Compare printed theorem formulas against the oracles for every valid
    sequence up to max_n.  The closed forms must equal the oracles
    (_checked_construction raises otherwise), so one field of a row holds
    both; the printed formulas are only reported, with their deltas."""
    rows = []
    for s in valid_sequences(max_n):
        _, w, nsub = _checked_construction(s)
        printed_w = min_wiener_printed(s)
        printed_n, truncated = max_subtrees_printed_detail(s)
        rows.append(
            AuditRow(
                sequence=s,
                n=s.n,
                oracle_w=w,
                printed_w=printed_w,
                delta_w=w - printed_w,
                delta_w_identity_ok=w - printed_w == printed_wiener_delta(s),
                oracle_n=nsub,
                printed_n=printed_n,
                delta_n=nsub - printed_n,
                printed_n_truncated=truncated,
            )
        )
    return AuditReport(max_n=max_n, rows=tuple(rows))


class ConjectureRow(_Record):
    sequence: EccSequence
    index: str  # "HW" or "lambda=<value>"
    minimizers: tuple[bytes, ...]
    construction_is_min: bool
    unique_min: bool
    counterexamples: tuple[str, ...]  # tree files, when the construction loses

    def to_dict(self) -> dict:
        return {
            "sequence": self.sequence.compact_str(),
            "index": self.index,
            "minimizers": [c.decode() for c in self.minimizers],
            "construction_is_min": self.construction_is_min,
            "unique_min": self.unique_min,
            "counterexamples": list(self.counterexamples),
        }


class ConjectureReport(_Record):
    max_n: int
    lambdas: tuple[float, ...]
    rows: tuple[ConjectureRow, ...]

    def to_dict(self) -> dict:
        return {
            "max_n": self.max_n,
            "lambdas": list(self.lambdas),
            "rows": [r.to_dict() for r in self.rows],
        }


def explore_conjecture(max_n: int, lambdas: tuple[float, ...]) -> ConjectureReport:
    """For each valid sequence up to max_n, report which trees minimise the
    hyper-Wiener index and each lambda-Wiener index.  Evidence only: nothing
    is asserted about the open conjecture."""
    rows = []
    for n in range(3, max_n + 1):
        for s, trees in _trees_by_sequence(n).items():
            construction_code = canonical_code(extremal_tree(s))
            counts = [_distance_sums(t)[0] for t in trees]
            # hyper-Wiener: exact integers, exact ties
            indices = [("HW", [_hyper_wiener(c) for c in counts], 0)]
            for lam in lambdas:
                wl = [_wiener_lambda(c, lam) for c in counts]
                indices.append((f"lambda={lam:g}", wl, LAMBDA_TOL))
            for index, values, tol in indices:
                _, winners, codes = _optimum(trees, values, tol)
                is_min = construction_code in codes
                files = () if is_min else tuple(tree_to_text(t) for t in winners)
                rows.append(
                    ConjectureRow(
                        sequence=s,
                        index=index,
                        minimizers=codes,
                        construction_is_min=is_min,
                        unique_min=len(codes) == 1,
                        counterexamples=files,
                    )
                )
    return ConjectureReport(max_n=max_n, lambdas=tuple(lambdas), rows=tuple(rows))
