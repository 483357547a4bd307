import math
import os
import random
import subprocess
import sys
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings

import ecctrees
import ecctrees.invariants
import ecctrees.tree
from ecctrees.enumeration import _free_tree_edges, free_trees
from ecctrees.extremal import (
    CaterpillarDecomposition,
    build_caterpillar,
    extremal_tree,
)
from ecctrees.invariants import (
    InvariantReport,
    _distance_sums,
    _kronecker_product,
    _subtrees_rooted,
    _wiener_rooted,
    count_text,
    edge_wiener,
    edge_wiener_line,
    gutman,
    hyper_wiener,
    invariant_report,
    schultz,
    subtree_count,
    vertex_edge_wiener,
    wiener,
    wiener_lambda,
)
from ecctrees.sequence import parse_sequence
from ecctrees.tree import Tree, _bfs_order, _ecc_rooted, eccentricities, tree_from_pruefer

from .conftest import random_trees, seeded_random_trees
from .oracles import (
    edge_wiener_bruteforce,
    edge_wiener_line_bruteforce,
    gutman_bruteforce,
    hyper_wiener_bruteforce,
    schoolbook_product,
    schultz_bruteforce,
    subtree_count_bruteforce,
    subtrees_rooted_product,
    vertex_edge_wiener_bruteforce,
    vertex_pass_rows,
    wiener_bruteforce,
    wiener_lambda_bruteforce,
)


def path(n):
    return Tree(n, tuple((i, i + 1) for i in range(n - 1)))


def star(n):
    return Tree(n, tuple((0, i) for i in range(1, n)))


def spider(n, legs=3):
    """legs paths of near-equal length hung on vertex 0."""
    return Tree(n, tuple((max(i - legs, 0), i) for i in range(1, n)))


def broom(n):
    """A path on about half the vertices, the rest leaves on its last one."""
    handle = (n + 1) // 2
    return Tree(n, tuple((min(i, handle) - 1, i) for i in range(1, n)))


class TestWiener:
    def test_p5(self):
        assert wiener(path(5)) == 20

    def test_s4(self):
        assert wiener(star(4)) == 9

    def test_big_caterpillar(self):
        assert wiener(build_caterpillar(CaterpillarDecomposition((3, 1, 0, 0, 1)))) == 130

    @settings(max_examples=150, deadline=None)
    @given(random_trees(max_n=30))
    def test_edge_contribution_matches_bfs(self, t):
        assert wiener(t) == wiener_bruteforce(t)


class TestSubtreeCount:
    def test_paths(self):
        for n in range(1, 8):
            assert subtree_count(path(n)) == n * (n + 1) // 2

    def test_stars(self):
        for n in range(2, 8):
            assert subtree_count(star(n)) == 2 ** (n - 1) + n - 1

    def test_example_caterpillar(self):
        assert subtree_count(build_caterpillar(CaterpillarDecomposition((3, 0, 1)))) == 41

    def test_vs_subset_oracle(self, small_free_trees):
        for n, trees in small_free_trees.items():
            for t in trees:
                assert subtree_count(t) == subtree_count_bruteforce(t)


class TestRootedKernels:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_level_sequence_preorder_matches_tree_functions(self, n):
        """Each kernel fed a level sequence's preorder (range(n), each
        vertex after its parent, but not a BFS order) and its parent array
        agrees with the public function on the built Tree."""
        for edges in _free_tree_edges(n):
            order = range(n)
            parent = [0] + [p for p, _ in edges]
            t = Tree(n, edges)
            assert _ecc_rooted(order, parent) == eccentricities(t)
            assert _wiener_rooted(order, parent) == wiener(t)
            assert _subtrees_rooted(order, parent) == subtree_count(t)
            assert _subtrees_rooted(order, parent) == subtrees_rooted_product(
                order, parent
            )

    def test_subtree_leaf_shift_matches_product(self):
        """The leaf-shifting subtree DP against the one-child-at-a-time
        product, rooted at every vertex of seeded random trees and at the
        centre and a leaf of stars and of hub-shaped extremal trees."""
        trees = seeded_random_trees(40, max_n=60, seed=29)
        trees += [star(n) for n in (2, 3, 200)]
        trees += [
            extremal_tree(parse_sequence(text))
            for text in ("1^1,2^2000", "3^1,4^2,5^2,6^300", "5^1,6^2,7^2,8^2,9^2,10^1990")
        ]
        for t in trees:
            roots = range(t.n) if t.n <= 60 else (0, max(range(t.n), key=t.degree))
            for root in roots:
                order, parent = _bfs_order(t, root)
                assert _subtrees_rooted(order, parent) == subtrees_rooted_product(
                    order, parent
                )


class TestEdgeWiener:
    def test_p3(self):
        assert edge_wiener(path(3)) == 0

    def test_p5(self):
        assert edge_wiener(path(5)) == 4

    def test_line_p3(self):
        assert edge_wiener_line(path(3)) == 1

    def test_line_p4(self):
        assert edge_wiener_line(path(4)) == 4

    def test_vertex_edge_p3(self):
        assert vertex_edge_wiener(path(3)) == 1

    def test_vertex_edge_p4(self):
        assert vertex_edge_wiener(path(4)) == 4


class TestDegreeIndices:
    def test_schultz_p3(self):
        assert schultz(path(3)) == 10

    def test_gutman_p3(self):
        assert gutman(path(3)) == 6

    def test_schultz_s4(self):
        assert schultz(star(4)) == 24

    def test_gutman_s4(self):
        assert gutman(star(4)) == 15


class TestHyperWiener:
    def test_p2(self):
        assert hyper_wiener(path(2)) == 1

    def test_p3(self):
        assert hyper_wiener(path(3)) == 5

    def test_s4(self):
        assert hyper_wiener(star(4)) == 12


class TestWienerLambda:
    def test_lambda_one_is_wiener(self):
        t = build_caterpillar(CaterpillarDecomposition((3, 0, 1)))
        assert wiener_lambda(t, 1) == pytest.approx(wiener(t), rel=1e-12)

    def test_p3_squared(self):
        assert wiener_lambda(path(3), 2) == pytest.approx(6)

    def test_p3_inverse(self):
        assert wiener_lambda(path(3), -1) == pytest.approx(2.5)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            wiener_lambda(path(3), 0)

    @pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, lam):
        with pytest.raises(ValueError):
            wiener_lambda(path(3), lam)

    def test_overflow_raises(self):
        # 4**1e308 overflows as one power; each 2**1023 of the 4-star is a
        # finite float, but the three of them add up past the largest float
        with pytest.raises(OverflowError):
            wiener_lambda(path(5), 1e308)
        with pytest.raises(OverflowError):
            wiener_lambda(star(4), 1023.0)

    def test_hyper_wiener_cross_check(self, small_free_trees):
        # HW = (W + sum of squared distances) / 2
        for trees in small_free_trees.values():
            for t in trees:
                if t.n < 2:
                    continue
                sq = wiener_lambda(t, 2)
                assert hyper_wiener(t) == pytest.approx((wiener(t) + sq) / 2)


def assert_tree_relations(t):
    n = t.n
    w = wiener(t)
    assert edge_wiener(t) == w - (n - 1) ** 2
    assert vertex_edge_wiener(t) == w - Fraction(n * (n - 1), 2)
    assert schultz(t) == 4 * w - n * (n - 1)
    assert gutman(t) == 4 * w - (n - 1) * (2 * n - 1)
    assert edge_wiener_line(t) - edge_wiener(t) == comb(n - 1, 2)


class TestTreeRelations:
    def test_exhaustive_up_to_10(self, small_free_trees):
        for n, trees in small_free_trees.items():
            if n < 2:
                continue
            for t in trees:
                assert_tree_relations(t)

    def test_random_large(self):
        for t in seeded_random_trees(40, max_n=200, seed=7):
            assert_tree_relations(t)


KERNEL_ORACLES = [
    ("edge_wiener", edge_wiener, edge_wiener_bruteforce),
    ("edge_wiener_line", edge_wiener_line, edge_wiener_line_bruteforce),
    ("vertex_edge_wiener", vertex_edge_wiener, vertex_edge_wiener_bruteforce),
    ("schultz", schultz, schultz_bruteforce),
    ("gutman", gutman, gutman_bruteforce),
    ("hyper_wiener", hyper_wiener, hyper_wiener_bruteforce),
]
ORACLE_LAMBDAS = (-1.0, 0.5, 1.5, 2.0, 3.0)


class TestDistanceKernel:
    def test_matches_all_pairs_oracles(self, small_free_trees):
        trees = [t for ts in small_free_trees.values() for t in ts]
        trees += seeded_random_trees(40, max_n=120)
        assert {1, 2} <= {t.n for t in trees}
        for t in trees:
            report = invariant_report(t, ORACLE_LAMBDAS)
            for name, index, oracle in KERNEL_ORACLES:
                expected = oracle(t)
                assert index(t) == expected, (name, t)
                assert getattr(report, name) == expected, (name, t)
            for lam in ORACLE_LAMBDAS:
                expected = wiener_lambda_bruteforce(t, lam)
                assert math.isclose(wiener_lambda(t, lam), expected, rel_tol=1e-12)
                assert math.isclose(report.wiener_lambda[lam], expected, rel_tol=1e-12)

    def test_matches_row_kernel(self):
        """The centroid kernel's whole tuple equals one BFS row per vertex."""
        trees = [t for n in range(1, 12) for t in free_trees(n)]
        trees += seeded_random_trees(300, max_n=300, seed=13)
        trees += [
            family(n)
            for family in (path, star, spider, broom)
            for n in (1, 2, 3, 50, 301)
        ]
        for t in trees:
            assert _distance_sums(t) == vertex_pass_rows(t), t

    @pytest.mark.parametrize(
        "t",
        [Tree(1, ()), path(2), path(9), star(9), seeded_random_trees(1, 60, seed=3)[0]],
        ids=["n1", "n2", "path", "star", "random"],
    )
    def test_no_bfs_rows(self, t, monkeypatch):
        """No index takes a distances_from row, whether by its name in
        ecctrees.tree or by an import of it into ecctrees.invariants, and
        each still returns the all-pairs oracle's value."""
        expected = [
            edge_wiener_bruteforce(t),
            hyper_wiener_bruteforce(t),
            {lam: wiener_lambda_bruteforce(t, lam) for lam in (1, 2)},
        ]

        def refuse(tree, v):
            raise AssertionError("a BFS row was taken")

        monkeypatch.setattr(ecctrees.tree, "distances_from", refuse)
        monkeypatch.setattr(ecctrees.invariants, "distances_from", refuse, raising=False)
        report = invariant_report(t, (1, 2))
        assert [report.edge_wiener, report.hyper_wiener, report.wiener_lambda] == expected
        assert [
            edge_wiener(t),
            hyper_wiener(t),
            {lam: wiener_lambda(t, lam) for lam in (1, 2)},
        ] == expected

    def test_closed_forms_at_scale(self):
        """Distance histograms of a path and a star by their closed forms,
        and zero residuals on 20 000 vertices."""
        n = 20_000
        p, s = path(n), star(n)
        rng = random.Random(17)
        pruefer = tree_from_pruefer([rng.randrange(n) for _ in range(n - 2)], n)
        assert _distance_sums(p)[0] == [0] + [n - d for d in range(1, n)]
        assert _distance_sums(s)[0] == [0, n - 1, comb(n - 1, 2)] + [0] * (n - 3)
        assert wiener(p) == comb(n + 1, 3)
        assert wiener(s) == (n - 1) ** 2
        for t in (p, s, pruefer):
            assert set(invariant_report(t).relation_residuals.values()) == {0}

    def test_kronecker_matches_schoolbook(self):
        """Slots of exactly the width sum(a) * sum(b) needs: entries at
        2^k - 1 and single-slot lists fill them to the last byte, up to the
        full 8-byte slot at k = 64.  The random tops keep sum(a) * sum(b)
        below 2^64, as a tree's pair counts are."""
        rng = random.Random(21)
        cases = [([2**k - 1], [1]) for k in range(1, 65)]
        cases += [([2**k - 1], [2**j - 1]) for k in (1, 8, 16, 33) for j in (1, 8, 24)]
        for length in range(1, 301):
            other = rng.randint(1, 300)
            top = 2 ** rng.choice((1, 8, 16, 23)) - 1
            a = [rng.choice((0, 1, top)) for _ in range(length)]
            b = [rng.choice((1, top, rng.randrange(top + 1))) for _ in range(other)]
            a[rng.randrange(length)] = top
            cases.append((a, b))
        for a, b in cases:
            assert _kronecker_product(a, b) == schoolbook_product(a, b), (a, b)

    def test_edge_wiener_relabelling_invariant(self):
        rng = random.Random(5)
        for t in seeded_random_trees(20, max_n=80, seed=11):
            perm = list(range(t.n))
            while perm[0] == 0:
                rng.shuffle(perm)
            moved = Tree(t.n, tuple((perm[a], perm[b]) for a, b in t.edges))
            assert edge_wiener(moved) == edge_wiener(t) == edge_wiener_bruteforce(t)


class TestReport:
    def test_residuals_zero_and_serializable(self):
        t = build_caterpillar(CaterpillarDecomposition((3, 0, 1)))
        report = invariant_report(t, (1.0, 2.0))
        d = report.to_dict()
        assert d["wiener"] == 46
        assert d["subtrees"] == "41"
        assert all(v == 0 for v in d["relation_residuals"].values())
        assert d["wiener_lambda"]["1.0"] == pytest.approx(46)

    def test_flat_memory(self):
        """The kernel holds O(n) memory: an n x n distance matrix of the
        400-path alone would take megabytes."""
        t = path(400)
        tracemalloc.start()
        try:
            invariant_report(t, (1.0, 2.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 500_000

    def test_vertex_edge_integral_for_trees(self, small_free_trees):
        for n, trees in small_free_trees.items():
            if n < 2:
                continue
            for t in trees:
                assert type(vertex_edge_wiener(t)) is int

    def test_to_dict_subtrees_beyond_int_str_limit(self):
        big = 2**15000 + 15000  # 4 516 digits; str(int) stops at 4 300
        report = InvariantReport(15001, 0, big, 0, 0, 0, 0, 0, 0, {}, {})
        assert Decimal(report.to_dict()["subtrees"]) == big

    def test_count_text_on_either_side_of_int_str_limit(self):
        """str(int) up to 4 300 digits, Decimal past them: the same text."""
        edges = (10**4299, 10**4300 - 1, 10**4300, 2**15000 + 15000)
        for count in (0, 1, 41, 2**64, *edges):
            assert count_text(count) == str(Decimal(count))
        assert len(count_text(10**4300)) == 4301

    def test_odd_vertex_edge_sum_rejected_under_optimize(self):
        """The evenness check of the vertex-to-edge distance sum survives
        python -O, which strips asserts."""
        code = (
            "from ecctrees.invariants import _half_vertex_edge\n"
            "_half_vertex_edge(3)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-O", "-c", code],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(Path(ecctrees.__file__).parents[1])),
        )
        assert proc.returncode == 1
        assert "AssertionError" in proc.stderr
