import random

import pytest
from hypothesis import given, settings

import ecctrees.rewrite
from ecctrees.enumeration import free_trees
from ecctrees.invariants import subtree_count
from ecctrees.rewrite import StaleMoveError, apply_move, caterpillarize, find_move
from ecctrees.sequence import eccentric_sequence
from ecctrees.tree import Tree, _diametral_path, is_caterpillar

from .conftest import random_trees, seeded_random_trees
from .oracles import (
    caterpillarize_closed_form,
    find_move_by_components,
    relabel,
    wiener_bruteforce,
)


SPIDER = Tree(7, ((0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)))


def hung_path():
    # P5 with a path of length 2 hung at its center
    return Tree(7, ((0, 1), (1, 2), (2, 3), (3, 4), (2, 5), (5, 6)))


class TestFindMove:
    def test_caterpillar_has_no_move(self, small_free_trees):
        for trees in small_free_trees.values():
            for t in trees:
                if is_caterpillar(t):
                    assert find_move(t) is None

    def test_spider_has_move(self):
        m = find_move(SPIDER)
        assert m is not None
        assert m.u not in m.path
        assert m.path[m.j] in SPIDER.adjacency[m.u]

    def test_hung_path_pivot_is_mid_vertex(self):
        m = find_move(hung_path())
        assert m.u == 5

    def test_matches_component_oracle(self, small_free_trees):
        trees = [t for ts in small_free_trees.values() for t in ts]
        for t in trees + seeded_random_trees(100, max_n=80):
            assert find_move(t) == find_move_by_components(t)

    def test_pivot_on_far_half(self):
        for t in [SPIDER, hung_path()]:
            m = find_move(t)
            assert 2 * m.j >= len(m.path) - 1


class TestApplyMove:
    def test_spider_wiener_drops(self):
        m = find_move(SPIDER)
        t2 = apply_move(SPIDER, m)
        assert wiener_bruteforce(SPIDER) == 48
        assert wiener_bruteforce(t2) < 48
        assert wiener_bruteforce(t2) - wiener_bruteforce(SPIDER) == m.wiener_delta()

    def test_spider_subtrees_grow(self):
        m = find_move(SPIDER)
        assert subtree_count(apply_move(SPIDER, m)) > subtree_count(SPIDER)

    def test_sequence_preserved(self):
        for t in [SPIDER, hung_path()]:
            m = find_move(t)
            assert eccentric_sequence(apply_move(t, m)) == eccentric_sequence(t)

    def test_stale_move_rejected(self):
        m = find_move(SPIDER)
        t2 = apply_move(SPIDER, m)
        with pytest.raises(StaleMoveError):
            apply_move(t2, m)

    def test_exhaustive_monotonicity_up_to_10(self, small_free_trees):
        checked = 0
        for trees in small_free_trees.values():
            for t in trees:
                m = find_move(t)
                if m is None:
                    continue
                t2 = apply_move(t, m)
                assert t2.n == t.n
                assert eccentric_sequence(t2) == eccentric_sequence(t)
                delta = wiener_bruteforce(t2) - wiener_bruteforce(t)
                assert delta == m.wiener_delta() < 0
                assert subtree_count(t2) > subtree_count(t)
                checked += 1
        assert checked > 30


class TestCaterpillarize:
    def test_caterpillar_unchanged(self, small_free_trees):
        for trees in small_free_trees.values():
            for t in trees:
                if is_caterpillar(t):
                    assert caterpillarize(t) == t

    def test_spider(self):
        cat = caterpillarize(SPIDER)
        assert is_caterpillar(cat)
        assert eccentric_sequence(cat) == eccentric_sequence(SPIDER)
        assert wiener_bruteforce(cat) < wiener_bruteforce(SPIDER)
        assert subtree_count(cat) > subtree_count(SPIDER)

    def test_idempotent(self, small_free_trees):
        for trees in small_free_trees.values():
            for t in trees:
                cat = caterpillarize(t)
                assert caterpillarize(cat) == cat

    def test_matches_move_loop_finding_each_move_once(self, monkeypatch):
        calls = []

        def counted(t):
            calls.append(t)
            return _diametral_path(t)

        monkeypatch.setattr(ecctrees.rewrite, "_diametral_path", counted)
        trees = (
            seeded_random_trees(30, max_n=60, seed=2)
            + seeded_random_trees(3, max_n=499, seed=22, min_n=200)
            + seeded_random_trees(1, max_n=500, seed=1, min_n=500)
        )
        for t in trees:
            looped = t
            while (m := find_move(looped)) is not None:
                looped = apply_move(looped, m)
            calls.clear()
            assert caterpillarize(t) == looped == caterpillarize_closed_form(t)
            # the path is found once: a move keeps it
            assert len(calls) == 1

    def test_matches_closed_form_up_to_12(self):
        """Each vertex's final place is read off where it hangs off the
        diametral path (caterpillarize_closed_form), on every tree with
        n <= 12, as generated and under a relabelling."""
        rng = random.Random(12)
        for n in range(1, 13):
            for t in free_trees(n):
                perm = list(range(n))
                rng.shuffle(perm)
                for u in (t, relabel(t, perm)):
                    assert caterpillarize(u) == caterpillarize_closed_form(u)

    @settings(max_examples=100, deadline=None)
    @given(random_trees(min_n=3, max_n=14))
    def test_random_trees_monotone(self, t):
        cat = caterpillarize(t)
        assert is_caterpillar(cat)
        assert eccentric_sequence(cat) == eccentric_sequence(t)
        assert wiener_bruteforce(cat) <= wiener_bruteforce(t)
        assert subtree_count(cat) >= subtree_count(t)
        if not is_caterpillar(t):
            assert wiener_bruteforce(cat) < wiener_bruteforce(t)
            assert subtree_count(cat) > subtree_count(t)


def moves_keeping_diametral_path(t) -> int:
    """Run the move loop on t and return its number of moves, asserting
    that each move leaves the canonical diametral path as it was (the
    argument is in the rewrite.py docstring)."""
    path = _diametral_path(t)
    moves = 0
    while (m := find_move(t)) is not None:
        t = apply_move(t, m)
        assert _diametral_path(t) == path
        moves += 1
    return moves


class TestMoveKeepsDiametralPath:
    def test_every_tree_up_to_12_under_relabellings(self):
        rng = random.Random(14)
        moves = 0
        for n in range(5, 13):
            for t in free_trees(n):
                for _ in range(3):
                    perm = list(range(n))
                    rng.shuffle(perm)
                    moves += moves_keeping_diametral_path(relabel(t, perm))
        assert moves > 1500

    def test_seeded_random_trees_up_to_200(self):
        trees = seeded_random_trees(40, max_n=200, seed=14, min_n=5)
        assert sum(moves_keeping_diametral_path(t) for t in trees) > 1000
