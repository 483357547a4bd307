"""Extremal caterpillars for a given eccentric sequence and the closed-form
values of their Wiener index and subtree count.

Two evaluators exist for each invariant: one that follows the published
theorem statements verbatim ("printed"), and one that follows the proof
decompositions and agrees with brute force.  Both are kept; the audit module
reports where they differ.  Nothing here silently corrects a formula.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .sequence import EccSequence, eccentric_sequence, require_valid, sequence_of_extremal_params
from .tree import Tree


@dataclass(frozen=True)
class CaterpillarSpec:
    """Caterpillar from a path v_0..v_{q+1} with t_j extra pendants at v_j.

    Pendants may only be attached at positions 1..r where r = ceil(q/2), i.e.
    on one half of the path (middle position included for odd q).
    """

    q: int
    t: tuple[int, ...]

    def __post_init__(self):
        if self.q < 1:
            raise ValueError("path parameter q must be >= 1")
        r = (self.q + 1) // 2
        if len(self.t) != r:
            raise ValueError(
                f"expected {r} pendant counts for q={self.q}, got {len(self.t)}"
            )
        if any(tj < 0 for tj in self.t):
            raise ValueError("pendant counts must be nonnegative")

    @property
    def r(self) -> int:
        return (self.q + 1) // 2

    @property
    def order(self) -> int:
        return self.q + 2 + sum(self.t)


@dataclass(frozen=True)
class CaterpillarDecomposition:
    """Per-backbone-position pendant counts c_1..c_q of a caterpillar.

    c_i counts every pendant vertex hanging at backbone position i, including
    the two path-end pendants, so c_1 >= 1 and c_q >= 1 (both ends land on c_1
    when q = 1).
    """

    c: tuple[int, ...]

    def __post_init__(self):
        q = len(self.c)
        if q < 1:
            raise ValueError("decomposition needs at least one position")
        if any(ci < 0 for ci in self.c):
            raise ValueError("pendant counts must be nonnegative")
        if q == 1:
            if self.c[0] < 2:
                raise ValueError("q=1 needs both path-end pendants on c_1")
        elif self.c[0] < 1 or self.c[-1] < 1:
            raise ValueError("path-end pendants require c_1 >= 1 and c_q >= 1")

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


def build_caterpillar(spec: CaterpillarSpec) -> Tree:
    """Construct the caterpillar: path vertices get ids 0..q+1 in order,
    pendants are appended in position order starting at q+2."""
    edges = [(i, i + 1) for i in range(spec.q + 1)]
    next_id = spec.q + 2
    for pos, count in enumerate(spec.t, start=1):
        for _ in range(count):
            edges.append((pos, next_id))
            next_id += 1
    return Tree(next_id, tuple(edges))


def spec_decomposition(spec: CaterpillarSpec) -> CaterpillarDecomposition:
    """Pendant counts per backbone position, path-end pendants included."""
    c = [0] * spec.q
    for pos, count in enumerate(spec.t, start=1):
        c[pos - 1] += count
    c[0] += 1
    c[-1] += 1
    return CaterpillarDecomposition(tuple(c))


def extremal_spec(s: EccSequence) -> CaterpillarSpec:
    q, t = sequence_of_extremal_params(s)
    return CaterpillarSpec(q, t)


def extremal_tree(s: EccSequence) -> Tree:
    """The caterpillar that minimises W and maximises N over all trees with
    eccentric sequence s.  The sequence is re-checked after construction."""
    tree = build_caterpillar(extremal_spec(s))
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

    Backbone subpaths contribute q(q+1)/2, lone pendants contribute sum(c),
    and each backbone subpath combined with a nonempty subset of the pendants
    hanging off it contributes 2^(sum of its c values) - 1.
    """
    q = dec.q
    c = dec.c
    total = q * (q + 1) // 2 + sum(c)
    for j in range(q):
        running = 0
        for p in range(j, q):
            running += c[p]
            total += (1 << running) - 1
    return total


def max_subtrees_value(s: EccSequence) -> int:
    """Maximum subtree count over trees with sequence s (proof decomposition
    applied to the extremal caterpillar); agrees exactly with the DP."""
    return caterpillar_subtree_closed_form(spec_decomposition(extremal_spec(s)))


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
    q = d - 1
    r = (q + 1) // 2
    t = (0,) * (r - 1) + (n - d - 1,)
    return build_caterpillar(CaterpillarSpec(q, t))
