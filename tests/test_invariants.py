import os
import subprocess
import sys
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings

import ecctrees
from ecctrees.extremal import CaterpillarSpec, build_caterpillar
from ecctrees.invariants import (
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
from .oracles import subtree_count_bruteforce, wiener_bruteforce


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


class TestReport:
    def test_residuals_zero_and_serializable(self):
        t = build_caterpillar(CaterpillarSpec(3, (2, 0)))
        report = invariant_report(t, (1.0, 2.0))
        d = report.to_dict()
        assert d["wiener"] == 46
        assert d["subtrees"] == "41"
        assert all(v == 0 for v in d["relation_residuals"].values())
        assert d["wiener_lambda"]["1.0"] == pytest.approx(46)

    def test_vertex_edge_integral_for_trees(self, small_free_trees):
        for n, trees in small_free_trees.items():
            if n < 2:
                continue
            for t in trees:
                assert vertex_edge_wiener(t).denominator == 1

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
