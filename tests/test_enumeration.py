import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

import ecctrees
from ecctrees import enumeration
from ecctrees.enumeration import (
    LAMBDA_TOL,
    BudgetExceededError,
    _extremality_report,
    _free_tree_edges,
    _optimum,
    _trees_by_sequence,
    _verify_orders,
    audit_formulas,
    caterpillars_with_sequence,
    count_caterpillars,
    explore_conjecture,
    free_trees,
    trees_with_sequence,
    valid_sequences,
    verify_all,
    verify_extremal,
)
from ecctrees.extremal import extremal_tree
from ecctrees.invariants import subtree_count
from ecctrees.sequence import eccentric_sequence, parse_sequence
from ecctrees.tree import (
    Tree,
    canonical_code,
    eccentricities,
    is_caterpillar,
    tree_to_text,
)

from .oracles import (
    caterpillars_by_filter,
    free_tree_count_bruteforce,
    wiener_bruteforce,
)


def seq(text):
    return parse_sequence(text)


class TestFreeTrees:
    @pytest.mark.parametrize(
        "n,count",
        [(1, 1), (2, 1), (3, 1), (4, 2), (5, 3), (6, 6), (7, 11), (8, 23)],
    )
    def test_known_counts(self, n, count):
        assert len(free_trees(n)) == count

    def test_counts_match_dedup_oracle(self):
        for n in range(1, 8):
            assert len(free_trees(n)) == free_tree_count_bruteforce(n)

    def test_n4_trees(self):
        degs = sorted(tuple(sorted(t.degrees())) for t in free_trees(4))
        assert degs == [(1, 1, 1, 3), (1, 1, 2, 2)]

    def test_all_pass_invariants(self):
        for n in range(1, 9):
            for t in free_trees(n):
                assert t.n == n
                assert len(t.edges) == n - 1

    def test_deterministic_order(self):
        a = [canonical_code(t) for t in free_trees(8)]
        b = [canonical_code(t) for t in free_trees(8)]
        assert a == b == sorted(a)
        assert len(set(a)) == len(a)

    def test_bad_n(self):
        with pytest.raises(ValueError):
            free_trees(0)

    def test_vertex_0_is_a_centre(self):
        """Vertex 0, the root of the level sequence, has the least
        eccentricity, on all 5 447 trees with n <= 14."""
        trees = 0
        for n in range(1, 15):
            for t in free_trees(n):
                ecc = eccentricities(t)
                assert ecc[0] == min(ecc)
                trees += 1
        assert trees == 5447

    @pytest.mark.parametrize("n", [8, 9, 10])
    def test_trees_of_one_order_share_edge_objects(self, n):
        trees = free_trees(n)
        assert len({id(e) for t in trees for e in t.edges}) <= n * (n - 1) // 2

    @pytest.mark.parametrize("n", range(8, 13))
    def test_trees_of_one_order_share_neighbour_tuples(self, n):
        """One tuple object per distinct neighbour list of the order."""
        nbrs = [a for t in free_trees(n) for a in t.adjacency]
        assert len({id(a) for a in nbrs}) == len(set(nbrs))

    def test_shared_adjacency_equals_a_fresh_trees(self):
        for n in range(1, 13):
            for t in free_trees(n):
                assert t.adjacency == Tree(n, t.edges).adjacency

    def test_generator_matches_networkx(self):
        """Same labelled trees in the same order as networkx's generator,
        which implements the same algorithm (test-only oracle)."""
        import networkx as nx

        def edge_set(edges):
            return sorted((min(u, v), max(u, v)) for u, v in edges)

        for n in range(1, 14):
            ours = [edge_set(edges) for edges in _free_tree_edges(n)]
            theirs = [edge_set(g.edges()) for g in nx.nonisomorphic_trees(n)]
            assert ours == theirs, n

    def test_import_does_not_load_networkx(self):
        env = dict(os.environ, PYTHONPATH=str(Path(ecctrees.__file__).parents[1]))
        code = (
            "import sys, ecctrees, ecctrees.cli; "
            "sys.exit('networkx' in sys.modules)"
        )
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


class TestTreesWithSequence:
    def test_unique_path(self):
        trees = trees_with_sequence(seq("2,3,3,4,4"))
        assert len(trees) == 1
        assert sorted(trees[0].degrees()) == [1, 1, 2, 2, 2]

    def test_two_realizers(self):
        trees = trees_with_sequence(seq("2,3,3,4,4,4,4"))
        assert len(trees) == 2
        codes = {canonical_code(t) for t in trees}
        assert canonical_code(extremal_tree(seq("2,3,3,4,4,4,4"))) in codes

    def test_invalid_sequence_empty(self):
        assert trees_with_sequence(seq("2,3,4,4")) == []


@pytest.fixture(scope="module")
def reports_up_to_12():
    return verify_all(12)


class TestVerifyExtremal:
    def test_example_seven_vertices(self):
        report = verify_extremal(seq("2,3,3,4,4,4,4"))
        assert report.trees_examined == 2
        assert report.min_wiener == 46
        assert report.max_subtrees == 41
        assert report.holds
        # the other realizer
        others = [
            t
            for t in trees_with_sequence(seq("2,3,3,4,4,4,4"))
            if canonical_code(t) not in report.min_wiener_achievers
        ]
        assert wiener_bruteforce(others[0]) == 48
        assert subtree_count(others[0]) == 37

    @pytest.mark.parametrize("text", ["2,2,3,3", "1,2,2,2"])
    def test_single_tree_sequences(self, text):
        report = verify_extremal(seq(text))
        assert report.trees_examined == 1
        assert report.unique_min_w and report.unique_max_n

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            verify_extremal(seq("1," + "2," * 12 + "2"), max_n=12)

    def test_main_result_up_to_12(self, reports_up_to_12):
        """The per-order sweep gives the per-sequence reports, in order."""
        assert reports_up_to_12 == [verify_extremal(s) for s in valid_sequences(12)]

    def test_each_order_is_freed_before_the_next(self, monkeypatch):
        """verify_all holds the trees of one order at a time."""

        class Groups(dict):
            pass

        earlier = []

        def tracked(n):
            assert all(ref() is None for ref in earlier), n
            groups = Groups(_trees_by_sequence(n))
            earlier.append(weakref.ref(groups))
            return groups

        monkeypatch.setattr(enumeration, "_trees_by_sequence", tracked)
        reports = [r for order in _verify_orders(9) for r in order]
        assert len(earlier) == 7
        assert reports == [verify_extremal(s) for s in valid_sequences(9)]

    def test_counts_per_order(self, reports_up_to_12):
        """Per order, the classes partition the free trees (A000055) and
        there are F(n-1) sequences."""
        a000055 = [1, 2, 3, 6, 11, 23, 47, 106, 235, 551]
        fib = [1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89]
        for n, count in zip(range(3, 13), a000055):
            order = [r for r in reports_up_to_12 if r.n == n]
            assert sum(r.trees_examined for r in order) == count
            assert len(order) == fib[n - 2]


SEVEN = seq("2,3,3,4,4,4,4")


def seven_vertex_class():
    """The construction and the other realizer of 2,3,3,4,4,4,4."""
    construction = extremal_tree(SEVEN)
    code = canonical_code(construction)
    (other,) = [t for t in trees_with_sequence(SEVEN) if canonical_code(t) != code]
    return construction, other


class TestOptimum:
    """The one rule by which verify and explore pick a class's extremes."""

    def test_exact_ties_keep_every_tied_tree_in_class_order(self):
        trees = free_trees(6)[:4]
        best, winners, codes = _optimum(trees, [5, 3, 4, 3])
        assert best == 3
        assert winners == [trees[1], trees[3]]
        assert codes == (canonical_code(trees[1]), canonical_code(trees[3]))

    def test_ints_past_float_precision_do_not_tie(self):
        trees = free_trees(5)[:2]
        big = 2**60
        assert float(big + 2) == float(big + 1) == float(big)
        best, winners, _ = _optimum(trees, [big + 2, big + 1])
        assert best == big + 1
        assert winners == [trees[1]]

    def test_lambda_tolerance(self):
        trees = free_trees(5)
        values = [10.0, 10.0 * (1 + LAMBDA_TOL / 2), 10.0 + 1e-6]
        best, winners, _ = _optimum(trees, values, LAMBDA_TOL)
        assert best == 10.0
        assert winners == trees[:2]

    def test_lambda_tolerance_below_zero(self):
        """A negated float maximum keeps its best and the ties within
        LAMBDA_TOL above it."""
        trees = free_trees(5)
        values = [-10.0, -10.0 * (1 - LAMBDA_TOL / 2), -10.0 + 1e-6]
        best, winners, _ = _optimum(trees, values, LAMBDA_TOL)
        assert best == -10.0
        assert winners == trees[:2]
        assert _optimum(trees[:2], [-5.0, -4.0], 1e-9)[1] == trees[:1]

    def test_maximum_through_negated_values(self):
        trees = free_trees(5)
        best, winners, _ = _optimum(trees, [-3, -7, -5])
        assert -best == 7
        assert winners == [trees[1]]

    @pytest.mark.parametrize(
        "members,in_class,unique",
        [((1,), False, True), ((0, 1, 0), True, False), ((1, 1), False, False)],
    )
    def test_synthetic_class_flags(self, members, in_class, unique):
        """By the theorem every real class has the construction as its one
        optimum, so only a made-up class reaches the other flag values."""
        pair = seven_vertex_class()
        report = _extremality_report(SEVEN, [pair[i] for i in members])
        assert report.construction_is_min_w == report.construction_is_max_n == in_class
        assert report.unique_min_w == report.unique_max_n == unique
        assert not report.holds


class TestCaterpillarCounting:
    @pytest.mark.parametrize(
        "text,count",
        [("2,3,3,4,4", 1), ("2,3,3,4,4,4,4", 2), ("1,2,2,2", 1)],
    )
    def test_examples(self, text, count):
        assert count_caterpillars(seq(text)) == count

    def test_every_valid_sequence_has_a_caterpillar(self):
        for s in valid_sequences(10):
            assert count_caterpillars(s) >= 1

    def test_consistency_with_tree_filter(self):
        for s in valid_sequences(10):
            from_filter = {
                canonical_code(t)
                for t in trees_with_sequence(s)
                if is_caterpillar(t)
            }
            from_generator = {
                canonical_code(t) for t in caterpillars_with_sequence(s)
            }
            assert from_filter == from_generator

    def test_matches_composition_filter_up_to_12(self):
        for s in valid_sequences(12):
            generated = caterpillars_with_sequence(s)
            assert [canonical_code(t) for t in generated] == [
                canonical_code(t) for t in caterpillars_by_filter(s)
            ]
            assert all(eccentric_sequence(t) == s for t in generated)

    def test_harary_schwenk_totals(self):
        # Harary & Schwenk (1973): n >= 4 vertices carry
        # 2^(n-4) + 2^(floor(n/2)-2) caterpillars
        totals = dict.fromkeys(range(4, 21), 0)
        for s in valid_sequences(20):
            if s.n >= 4:
                totals[s.n] += count_caterpillars(s)
        assert totals == {n: 2 ** (n - 4) + 2 ** (n // 2 - 2) for n in range(4, 21)}

    def test_invalid_sequence_has_none(self):
        s = seq("2,3,4,4")
        assert caterpillars_with_sequence(s) == []
        assert count_caterpillars(s) == 0


class TestAudit:
    def test_headline_rows(self):
        report = audit_formulas(9)
        rows = {r.sequence.raw: r for r in report.rows}
        row = rows[(2, 3, 3, 4, 4, 4, 4)]
        assert row.oracle_w == 46
        assert row.printed_w == 44
        assert row.delta_w == 2
        assert row.oracle_n == 41
        assert row.printed_n == 25
        star_row = rows[(1, 2, 2, 2)]
        assert star_row.printed_n == star_row.oracle_n == 11
        assert all(r.delta_w_identity_ok for r in report.rows)

    def test_mismatching_summary(self):
        report = audit_formulas(8)
        assert any(not r.printed_n_matches for r in report.rows)
        for r in report.mismatching_rows:
            assert r.delta_w != 0 or r.delta_n != 0


class TestExplore:
    def test_lambda_one_matches_wiener_minimizers(self):
        report = explore_conjecture(8, (1.0,))
        verified = {r.sequence: r for r in verify_all(8)}
        for row in report.rows:
            if not row.index.startswith("lambda"):
                continue
            ver = verified[row.sequence]
            assert set(row.minimizers) == set(ver.min_wiener_achievers)

    def test_hw_rows_present(self):
        report = explore_conjecture(7, (2.0,))
        hw_rows = [r for r in report.rows if r.index == "HW"]
        assert hw_rows
        target = [r for r in hw_rows if r.sequence.raw == (2, 3, 3, 4, 4, 4, 4)]
        assert len(target) == 1
        assert len(target[0].minimizers) >= 1

    def test_counterexamples_only_when_not_min(self):
        report = explore_conjecture(8, (1.5,))
        for row in report.rows:
            if row.construction_is_min:
                assert row.counterexamples == ()
            else:
                assert row.counterexamples

    def test_synthetic_class_lists_the_winners_as_counterexamples(
        self, monkeypatch
    ):
        _, other = seven_vertex_class()
        monkeypatch.setattr(
            enumeration,
            "_trees_by_sequence",
            lambda n: {SEVEN: [other, other]} if n == 7 else {},
        )
        rows = explore_conjecture(7, (2.0, -1.0)).rows
        assert [r.index for r in rows] == ["HW", "lambda=2", "lambda=-1"]
        for row in rows:
            assert row.minimizers == (canonical_code(other),) * 2
            assert not row.construction_is_min and not row.unique_min
            assert row.counterexamples == (tree_to_text(other),) * 2
