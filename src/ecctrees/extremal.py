"""Extremal caterpillars for a given eccentric sequence and the closed-form
values of their Wiener index and subtree count.

Two evaluators exist for each invariant: one that follows the published
theorem statements verbatim ("printed"), and one that follows the proof
decompositions and agrees with brute force.  Both are kept; the audit module
reports where they differ.  Nothing here silently corrects a formula.
"""

from __future__ import annotations

from math import comb

from .sequence import EccSequence, eccentric_sequence, require_valid
from .tree import Tree, _Record


class CaterpillarDecomposition(_Record):
    """A caterpillar as the pendant counts c_1..c_q of its backbone positions.

    c_i counts every pendant vertex hanging at backbone position i, including
    the two path-end pendants, so c_1 >= 1 and c_q >= 1 (both ends land on c_1
    when q = 1).
    """

    c: tuple[int, ...]

    def __init__(self, c: tuple[int, ...]):
        q = len(c)
        if q < 1:
            raise ValueError("decomposition needs at least one position")
        if any(ci < 0 for ci in c):
            raise ValueError("pendant counts must be nonnegative")
        if q == 1:
            if c[0] < 2:
                raise ValueError("q=1 needs both path-end pendants on c_1")
        elif c[0] < 1 or c[-1] < 1:
            raise ValueError("path-end pendants require c_1 >= 1 and c_q >= 1")
        super().__init__(c)

    @property
    def q(self) -> int:
        return len(self.c)

    @property
    def order(self) -> int:
        return self.q + sum(self.c)

    def d_sizes(self) -> tuple[int, ...]:
        """|D_j| = c_j + c_{q+1-j}, the middle position counted once."""
        q = self.q
        out = []
        for j in range(1, (q + 1) // 2 + 1):
            mirror = q + 1 - j
            out.append(self.c[j - 1] + (self.c[mirror - 1] if mirror != j else 0))
        return tuple(out)


def build_caterpillar(dec: CaterpillarDecomposition) -> Tree:
    """Construct the caterpillar: path vertices v_0..v_{q+1} get ids 0..q+1
    in order, the other pendants are appended in position order from q+2."""
    q = dec.q
    edges = [(i, i + 1) for i in range(q + 1)]
    next_id = q + 2
    for pos, count in enumerate(dec.c, start=1):
        extra = count - (pos == 1) - (pos == q)
        edges.extend((pos, v) for v in range(next_id, next_id + extra))
        next_id += extra
    return Tree(next_id, tuple(edges))


def extremal_decomposition(s: EccSequence) -> CaterpillarDecomposition:
    """Pendant counts of the extremal caterpillar for a valid sequence s.

    q is diameter-1 and position j = 1..l-1 carries m_{l+1-j} - 2 pendants
    besides the path ends: the largest multiplicity (minus 2) sits closest
    to the path end, and the other half of the path carries only its end.
    """
    require_valid(s)
    c = [m - 2 for m in reversed(s.mult[1:])]
    c += [0] * (s.bl - 1 - len(c))
    c[0] += 1
    c[-1] += 1
    return CaterpillarDecomposition(tuple(c))


def extremal_tree(s: EccSequence) -> Tree:
    """The caterpillar that minimises W and maximises N over all trees with
    eccentric sequence s.  The sequence is re-checked after construction."""
    tree = build_caterpillar(extremal_decomposition(s))
    if eccentric_sequence(tree) != s:
        raise AssertionError(
            f"constructed tree does not realize {s.compact_str()}"
        )
    return tree


def min_wiener_derivation(s: EccSequence) -> int:
    """Minimum Wiener index over trees with sequence s, via the proof
    decomposition (path term + within-layer + cross-layer + layer-to-path).

    Agrees exactly with the pairwise-distance value of the extremal tree.
    """
    require_valid(s)
    q = s.bl - 1
    total = comb(q + 3, 3)
    # a_j = M_j - 2 with M_j = m_{l+1-j}; the cross-layer term
    # sum_{i<j} a_i a_j (2 + j - i) runs on the sums of a_i and of i a_i
    below = weighted = 0
    for j, mj in enumerate(reversed(s.mult[1:]), start=1):
        a = mj - 2
        total += a * (a - 1)
        total += a * ((2 + j) * below - weighted)
        total += ((q + 2) + comb(j + 1, 2) + comb(q + 2 - j, 2)) * a
        below += a
        weighted += j * a
    return total


def min_wiener_printed(s: EccSequence) -> int:
    """The minimum-Wiener formula exactly as displayed in the theorem,
    including its binom(j,2) term; not asserted equal to the oracle."""
    require_valid(s)
    mult = s.mult
    l = s.l
    bl = s.bl
    m = {j: mult[j - 1] for j in range(1, l + 1)}
    total = comb(bl + 2, 3)
    total += sum((m[j] - 2) * (m[j] - 3) for j in range(2, l + 1))
    for i in range(2, l + 1):
        for j in range(i + 1, l + 1):
            total += (m[i] - 2) * (m[j] - 2) * (2 + j - i)
    for j in range(1, l):
        total += (comb(j, 2) + comb(bl + 1 - j, 2)) * (m[l + 1 - j] - 2)
    total += (bl + 1) * (2 - 2 * l + sum(m[j] for j in range(2, l + 1)))
    return total


def printed_wiener_delta(s: EccSequence) -> int:
    """Empirical gap between derivation and printed Wiener formulas:
    sum over j of j * (m_{l+1-j} - 2)."""
    require_valid(s)
    mult = s.mult
    l = s.l
    return sum(j * (mult[l - j] - 2) for j in range(1, l))


def caterpillar_subtree_closed_form(dec: CaterpillarDecomposition) -> int:
    """Subtree count of a caterpillar from its pendant-count vector.

    A subtree is a lone pendant, or a backbone subpath j..p with any subset
    of the pendants hanging off it.  T_p, the count of the latter over all
    j <= p, satisfies T_p = (T_{p-1} + 1) * 2^(c_p) with T_0 = 0.
    """
    total = sum(dec.c)
    ending = 0
    for cp in dec.c:
        ending = (ending + 1) << cp
        total += ending
    return total


def max_subtrees_value(s: EccSequence) -> int:
    """Maximum subtree count over trees with sequence s (proof decomposition
    applied to the extremal caterpillar); agrees exactly with the DP."""
    return caterpillar_subtree_closed_form(extremal_decomposition(s))


def max_subtrees_printed(s: EccSequence) -> Fraction:
    value, _ = max_subtrees_printed_detail(s)
    return value


def max_subtrees_printed_detail(s: EccSequence) -> tuple[Fraction, bool]:
    """The maximum-subtrees formula exactly as displayed in the theorem.

    Empty sums are 0 and empty products 1; the literal exponent m_1 - 2 can be
    -1, so everything is exact rational.  Multiplicity indices below 1 can
    occur in the leading product for large p; those factors are dropped and
    the truncation is flagged in the second return value.  Not asserted equal
    to the oracle.
    """
    from fractions import Fraction

    require_valid(s)
    mult = s.mult
    l = s.l
    bl = s.bl
    m = {j: mult[j - 1] for j in range(1, l + 1)}

    def pow2(exp: int) -> Fraction:
        return Fraction(2) ** exp

    total = Fraction(comb(bl, 2) - 2 * (l - 2) + sum(m[j] for j in range(2, l + 1)))
    truncated = False
    for p in range(0, bl - 1):
        left = pow2(m[l]) - 1
        for i in range(1, p + 1):
            if l - i < 1:
                truncated = True
                continue
            left *= pow2(m[l - i] - 2) - 1
        total += left
        upper = l - 3 + m[1] - p
        if upper < 2:
            truncated = True
        for j in range(2, upper + 1):
            prod = Fraction(1)
            for i in range(0, p + 1):
                idx = l + 1 - i - j
                if idx < 1:
                    truncated = True
                    continue
                prod *= pow2(m[idx] - 2) - 1
            total += prod
    return total, truncated


def min_wiener_order_diameter(n: int, d: int) -> Tree:
    """The n-vertex tree of diameter d minimising W and maximising N:
    all extra pendants at the middle backbone position."""
    if not 1 < d <= n - 1:
        raise ValueError(f"need 1 < d <= n-1, got d={d}, n={n}")
    c = [0] * (d - 1)
    c[(d - 2) // 2] = n - d - 1
    c[0] += 1
    c[-1] += 1
    return build_caterpillar(CaterpillarDecomposition(tuple(c)))
