"""Acceptance suite: one test per headline claim, each printing a pass/fail
line.  Everything here is exact; the only tolerances are the documented
floating-point ones for the lambda-Wiener family.

Criterion 1 runs at n <= 12; `ecctrees verify --max-n K` checks it up to
any K through the same runner and exits 2 if a sequence fails.
"""

from fractions import Fraction
from math import comb

import pytest

from ecctrees.enumeration import (
    audit_formulas,
    explore_conjecture,
    free_trees,
    verify_all,
)
from ecctrees.extremal import (
    extremal_tree,
    max_subtrees_printed,
    max_subtrees_value,
    min_wiener_derivation,
    min_wiener_order_diameter,
    min_wiener_printed,
    printed_wiener_delta,
)
from ecctrees.invariants import (
    edge_wiener,
    edge_wiener_line,
    gutman,
    hyper_wiener,
    schultz,
    subtree_count,
    vertex_edge_wiener,
    wiener,
)
from ecctrees.rewrite import apply_move, find_move
from ecctrees.sequence import parse_sequence
from ecctrees.tree import Tree, canonical_code, eccentricities, is_caterpillar

from .conftest import seeded_random_trees
from .oracles import wiener_bruteforce

MAIN_RESULT_MAX_N = 12


def report(criterion, ok):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}")
    assert ok


def path(n):
    return Tree(n, tuple((i, i + 1) for i in range(n - 1)))


def star(n):
    return Tree(n, tuple((0, i) for i in range(1, n)))


def test_criterion_1_main_result_verification():
    """Unique min-W / max-N at the construction, all sequences n <= 12."""
    ok = all(r.holds for r in verify_all(MAIN_RESULT_MAX_N))
    report(f"1 main-result verification (n <= {MAIN_RESULT_MAX_N})", ok)


def test_criterion_2_formulas_match_oracles():
    """Derivation Wiener formula and subtree decomposition vs brute force,
    for every valid sequence with n <= 14."""
    from ecctrees.enumeration import valid_sequences

    ok = True
    for s in valid_sequences(14):
        t = extremal_tree(s)
        ok = ok and min_wiener_derivation(s) == wiener_bruteforce(t)
        ok = ok and max_subtrees_value(s) == subtree_count(t)
    report("2 formula vs oracle (n <= 14)", ok)


def test_criterion_3_audit_findings():
    """The printed-formula discrepancies, reproduced exactly."""
    s7 = parse_sequence("2,3,3,4,4,4,4")
    s4 = parse_sequence("1,2,2,2")
    t7 = extremal_tree(s7)
    ok = wiener_bruteforce(t7) == 46
    ok = ok and min_wiener_printed(s7) == 44
    ok = ok and printed_wiener_delta(s7) == 2
    ok = ok and subtree_count(t7) == 41
    ok = ok and max_subtrees_printed(s7) == 25
    ok = ok and max_subtrees_printed(s4) == subtree_count(extremal_tree(s4)) == 11
    rows = {r.sequence.raw: r for r in audit_formulas(7).rows}
    row = rows[(2, 3, 3, 4, 4, 4, 4)]
    ok = ok and row.delta_w == 2 and row.delta_w_identity_ok
    report("3 audit findings reproduced", ok)


def test_criterion_4_section5_relations():
    """Linear relations between W and its variants, exact for every tree."""
    trees = [t for n in range(2, 11) for t in free_trees(n)]
    ok = len(free_trees(10)) == 106
    trees += seeded_random_trees(200, max_n=200, seed=42)
    for t in trees:
        n = t.n
        w = wiener(t)
        ok = ok and edge_wiener(t) == w - (n - 1) ** 2
        ok = ok and vertex_edge_wiener(t) == w - Fraction(n * (n - 1), 2)
        ok = ok and schultz(t) == 4 * w - n * (n - 1)
        ok = ok and gutman(t) == 4 * w - (n - 1) * (2 * n - 1)
        ok = ok and edge_wiener_line(t) - edge_wiener(t) == comb(n - 1, 2)
    report("4 linear relations (exhaustive n<=10 + 200 random n<=200)", ok)


def test_criterion_5_closed_identities():
    ok = True
    for n in range(2, 26):
        ok = ok and wiener(path(n)) == comb(n + 1, 3)
        ok = ok and subtree_count(path(n)) == n * (n + 1) // 2
        ok = ok and subtree_count(star(n)) == 2 ** (n - 1) + n - 1
        ok = ok and wiener(star(n)) == (n - 1) ** 2
    report("5 closed identities for paths and stars (n <= 25)", ok)


def test_criterion_6_rewrite_monotonicity():
    """Every non-caterpillar free tree n <= 10: move preserves the
    eccentricity multiset, drops W by exactly |U|(2|R|-2) > 0, raises N."""
    ok = True
    moved = 0
    for n in range(3, 11):
        for t in free_trees(n):
            m = find_move(t)
            if m is None:
                ok = ok and is_caterpillar(t)
                continue
            ok = ok and not is_caterpillar(t)
            t2 = apply_move(t, m)
            ok = ok and sorted(eccentricities(t2)) == sorted(eccentricities(t))
            drop = wiener_bruteforce(t) - wiener_bruteforce(t2)
            expected = len(m.detached) * (2 * len(m.right) - 2)
            ok = ok and drop == expected > 0
            ok = ok and subtree_count(t2) > subtree_count(t)
            moved += 1
    ok = ok and moved > 30
    report("6 rewrite monotonicity (non-caterpillars n <= 10)", ok)


def test_criterion_7_order_diameter_remark():
    """For 3 <= d < n <= 11 the middle-heavy caterpillar is the unique
    Wiener minimiser and subtree maximiser at its order and diameter."""
    ok = True
    for n in range(4, 12):
        by_diameter = {}
        for t in free_trees(n):
            by_diameter.setdefault(max(eccentricities(t)), []).append(t)
        for d in range(3, n):
            construction = min_wiener_order_diameter(n, d)
            code = canonical_code(construction)
            pool = by_diameter.get(d, [])
            ws = [(canonical_code(t), wiener_bruteforce(t)) for t in pool]
            ns = [(canonical_code(t), subtree_count(t)) for t in pool]
            min_w = min(w for _, w in ws)
            max_n_sub = max(v for _, v in ns)
            ok = ok and [c for c, w in ws if w == min_w] == [code]
            ok = ok and [c for c, v in ns if v == max_n_sub] == [code]
    report("7 order+diameter extremality (3 <= d < n <= 11)", ok)


def test_criterion_8_conjecture_explorer():
    rep = explore_conjecture(10, (1.0, 1.5, 2.0, 3.0))
    verified = {r.sequence: r for r in verify_all(10)}
    ok = len(rep.rows) > 0
    for row in rep.rows:
        if row.index == "lambda=1":
            ver = verified[row.sequence]
            ok = ok and set(row.minimizers) == set(ver.min_wiener_achievers)
    hw_rows = [r for r in rep.rows if r.index == "HW"]
    lam_rows = [r for r in rep.rows if r.index.startswith("lambda=")]
    ok = ok and len(hw_rows) * 4 == len(lam_rows)
    report("8 conjecture explorer (n <= 10, lambda in {1,1.5,2,3})", ok)
