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
from ecctrees.extremal import CaterpillarSpec, build_caterpillar
from ecctrees.invariants import (
    InvariantReport,
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
    wiener_pairwise,
)
from ecctrees.tree import Tree

from .conftest import random_trees, seeded_random_trees
from .oracles import (
    edge_wiener_bruteforce,
    edge_wiener_line_bruteforce,
    gutman_bruteforce,
    hyper_wiener_bruteforce,
    schultz_bruteforce,
    subtree_count_bruteforce,
    vertex_edge_wiener_bruteforce,
    wiener_bruteforce,
    wiener_lambda_bruteforce,
)


def path(n):
    return Tree(n, tuple((i, i + 1) for i in range(n - 1)))


def star(n):
    return Tree(n, tuple((0, i) for i in range(1, n)))


class TestWiener:
    def test_p5(self):
        assert wiener(path(5)) == 20

    def test_s4(self):
        assert wiener(star(4)) == 9

    def test_big_caterpillar(self):
        assert wiener(build_caterpillar(CaterpillarSpec(5, (2, 1, 0)))) == 130

    @settings(max_examples=150, deadline=None)
    @given(random_trees(max_n=30))
    def test_edge_contribution_matches_bfs(self, t):
        assert wiener(t) == wiener_pairwise(t) == wiener_bruteforce(t)


class TestSubtreeCount:
    def test_paths(self):
        for n in range(1, 8):
            assert subtree_count(path(n)) == n * (n + 1) // 2

    def test_stars(self):
        for n in range(2, 8):
            assert subtree_count(star(n)) == 2 ** (n - 1) + n - 1

    def test_example_caterpillar(self):
        assert subtree_count(build_caterpillar(CaterpillarSpec(3, (2, 0)))) == 41

    def test_vs_subset_oracle(self, small_free_trees):
        for n, trees in small_free_trees.items():
            for t in trees:
                assert subtree_count(t) == subtree_count_bruteforce(t)


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
        t = build_caterpillar(CaterpillarSpec(3, (2, 0)))
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

    @pytest.mark.parametrize(
        "t",
        [Tree(1, ()), path(2), path(9), star(9), seeded_random_trees(1, 60, seed=3)[0]],
        ids=["n1", "n2", "path", "star", "random"],
    )
    def test_one_bfs_row_per_vertex(self, t, monkeypatch):
        calls = []
        kernel = ecctrees.invariants.distances_from

        def counted(tree, v):
            calls.append(v)
            return kernel(tree, v)

        monkeypatch.setattr(ecctrees.invariants, "distances_from", counted)
        invariant_report(t, (1, 2))
        assert len(calls) == t.n
        calls.clear()
        edge_wiener(t)
        assert len(calls) == t.n

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
        t = build_caterpillar(CaterpillarSpec(3, (2, 0)))
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
                assert vertex_edge_wiener(t).denominator == 1

    def test_to_dict_subtrees_beyond_int_str_limit(self):
        big = 2**15000 + 15000  # 4 516 digits; str(int) stops at 4 300
        report = InvariantReport(15001, 0, big, 0, 0, Fraction(0), 0, 0, 0, {}, {})
        assert Decimal(report.to_dict()["subtrees"]) == big

    def test_to_dict_rejects_half_integer_under_optimize(self):
        """The integrality check survives python -O, which strips asserts."""
        code = (
            "from fractions import Fraction\n"
            "from ecctrees.invariants import InvariantReport\n"
            "InvariantReport(1, 0, 1, 0, 0, Fraction(1, 2), 0, 0, 0, {}, {}).to_dict()\n"
        )
        proc = subprocess.run(
            [sys.executable, "-O", "-c", code],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(Path(ecctrees.__file__).parents[1])),
        )
        assert proc.returncode == 1
        assert "AssertionError" in proc.stderr
