import copy
import itertools
import pickle
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ecctrees.tree
from ecctrees.tree import (
    Tree,
    TreeError,
    TreeParseError,
    backbone,
    canonical_code,
    distances_from,
    eccentricities,
    is_caterpillar,
    parse_tree,
    tree_from_pruefer,
    tree_to_text,
)
from ecctrees.extremal import CaterpillarDecomposition, build_caterpillar

from .conftest import random_trees, seeded_random_trees
from .oracles import (
    backbone_core_walk,
    canonical_code_recursive,
    ecc_bruteforce,
    free_tree_count_bruteforce,
    labeled_trees,
    relabel,
)


def path(n):
    return Tree(n, tuple((i, i + 1) for i in range(n - 1)))


def star(n):
    return Tree(n, tuple((0, i) for i in range(1, n)))


class TestParse:
    def test_path3(self):
        t = parse_tree("3\n0 1\n1 2")
        assert t.n == 3
        assert t.edges == ((0, 1), (1, 2))

    def test_single_edge(self):
        t = parse_tree("2\n0 1")
        assert t.n == 2

    def test_cycle_rejected(self):
        with pytest.raises(TreeParseError):
            parse_tree("4\n0 1\n1 2\n2 0")

    def test_comments_and_whitespace(self):
        t = parse_tree("# a path\n 3 \n0 1  # first edge\n\n  1 2\n")
        assert t.edges == ((0, 1), (1, 2))

    def test_out_of_range_reports_line(self):
        # out of range, non-integer, self-loop
        for text, line in [("3\n0 1\n1 5", 3), ("3\n0 x\n1 2", 2), ("3\n0 1\n\n2 2", 4)]:
            with pytest.raises(TreeParseError) as exc:
                parse_tree(text)
            assert exc.value.line == line

    def test_duplicate_edge(self):
        with pytest.raises(TreeParseError):
            parse_tree("3\n0 1\n1 0")

    def test_roundtrip(self):
        t = build_caterpillar(CaterpillarDecomposition((3, 0, 1)))
        assert parse_tree(tree_to_text(t)) == t

    @given(st.text() | st.text(alphabet="0123456789 \n#-"))
    def test_arbitrary_text(self, text):
        try:
            assert isinstance(parse_tree(text), Tree)
        except TreeError:
            pass

    def test_disconnected(self):
        # disconnected, no vertex, n - 2 edges, out of range, self-loop
        for n, edges in [
            (4, ((0, 1), (2, 3), (0, 1))),
            (0, ()),
            (4, ((0, 1), (1, 2))),
            (3, ((0, 1), (1, 3))),
            (3, ((0, 1), (2, 2))),
        ]:
            with pytest.raises(TreeError):
                Tree(n, edges)


class TestLayout:
    @pytest.mark.parametrize(
        "edges",
        [
            [[2, 3], [0, 1], [1, 2]],
            ((3, 2), (1, 0), (2, 1)),
            ([3, 2], (0, 1), (2, 1)),
        ],
        ids=["lists", "reversed", "mixed"],
    )
    def test_edges_are_sorted_normalized_tuples(self, edges):
        t = Tree(4, edges)
        assert t.edges == ((0, 1), (1, 2), (2, 3))
        assert type(t.edges) is tuple
        assert all(type(e) is tuple for e in t.edges)
        assert t == path(4)

    def test_no_instance_dict(self):
        assert not hasattr(path(4), "__dict__")

    def test_pickle_and_deepcopy_round_trip(self, small_free_trees):
        # the enumerated trees hold neighbour tuples shared across their order
        for t in [Tree(5, ((0, 1), (1, 2), (1, 3), (3, 4))), *small_free_trees[9]]:
            for other in (pickle.loads(pickle.dumps(t)), copy.deepcopy(t)):
                assert other == t
                assert hash(other) == hash(t)
                assert other.adjacency == t.adjacency


class TestPruefer:
    @pytest.mark.parametrize(
        "seq, n",
        [((5,), 3), ((0, 0, 0), 4), ((0,), 2), ((), 0)],
        ids=["label-out-of-range", "too-long", "too-long-for-an-edge", "no-vertex"],
    )
    def test_malformed_input_is_tree_error(self, seq, n):
        with pytest.raises(TreeError):
            tree_from_pruefer(seq, n)

    def test_smallest_trees(self):
        assert tree_from_pruefer((), 1) == Tree(1, ())
        assert tree_from_pruefer(()) == path(2)
        assert tree_from_pruefer((0, 0)) == star(4)


class TestDistances:
    def test_path_endpoint(self):
        assert distances_from(path(5), 0) == [0, 1, 2, 3, 4]

    def test_star_center(self):
        assert distances_from(star(4), 0) == [0, 1, 1, 1]

    def test_caterpillar_pendant(self):
        # pendants 5, 6 hang at position 1 of the path 0..4
        t = build_caterpillar(CaterpillarDecomposition((3, 0, 1)))
        assert distances_from(t, 5)[:5] == [2, 1, 2, 3, 4]

    def test_bad_vertex(self):
        with pytest.raises(TreeError):
            distances_from(path(3), 7)


class TestEccentricities:
    def test_path(self):
        assert eccentricities(path(5)) == [4, 3, 2, 3, 4]

    def test_star(self):
        assert eccentricities(star(4)) == [1, 2, 2, 2]

    def test_caterpillar(self):
        t = build_caterpillar(CaterpillarDecomposition((3, 0, 1)))
        assert sorted(eccentricities(t)) == [2, 3, 3, 4, 4, 4, 4]

    def test_exhaustive_vs_bruteforce(self, small_free_trees):
        for n, trees in small_free_trees.items():
            for t in trees:
                assert eccentricities(t) == ecc_bruteforce(t)

    @settings(max_examples=150, deadline=None)
    @given(random_trees(max_n=40))
    def test_heights_match_bruteforce(self, t):
        assert eccentricities(t) == ecc_bruteforce(t)

    @pytest.mark.parametrize(
        "t",
        [path(30), star(30), seeded_random_trees(1, max_n=60, min_n=60, seed=7)[0]],
        ids=["path", "star", "random"],
    )
    def test_one_bfs_and_no_distance_rows(self, t, monkeypatch):
        calls = {"_bfs_order": 0, "distances_from": 0}

        def counted(name):
            fn = getattr(ecctrees.tree, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        expected = ecc_bruteforce(t)
        for name in calls:
            monkeypatch.setattr(ecctrees.tree, name, counted(name))
        assert eccentricities(t) == expected
        assert calls == {"_bfs_order": 1, "distances_from": 0}

    @settings(max_examples=100, deadline=None)
    @given(random_trees(min_n=2, max_n=25))
    def test_radius_diameter(self, t):
        ecc = eccentricities(t)
        assert max(ecc) <= 2 * min(ecc)

    def test_distance_to_the_centre(self):
        """Jordan: ecc(v) = rad + d(v, C), C the one or two centres, on
        every tree with n <= 12."""
        from ecctrees.enumeration import free_trees

        for n in range(1, 13):
            for t in free_trees(n):
                ecc = ecc_bruteforce(t)
                rad = min(ecc)
                rows = [distances_from(t, c) for c in range(n) if ecc[c] == rad]
                assert len(rows) <= 2
                for v in range(n):
                    assert ecc[v] == rad + min(row[v] for row in rows)


class TestBackbone:
    def test_path(self):
        bb = backbone(path(5))
        assert bb.is_caterpillar
        assert bb.path == (1, 2, 3)

    def test_star_backbone_is_center(self):
        bb = backbone(star(4))
        assert bb.is_caterpillar
        assert bb.path == (0,)

    def test_edge_backbone_empty(self):
        bb = backbone(path(2))
        assert bb.is_caterpillar
        assert bb.path == ()

    def test_spider_not_caterpillar(self):
        spider = Tree(7, ((0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)))
        assert not backbone(spider).is_caterpillar

    def test_caterpillar_backbone_length(self):
        t = build_caterpillar(CaterpillarDecomposition((3, 1, 0, 0, 1)))
        bb = backbone(t)
        assert bb.is_caterpillar
        assert len(bb.path) == 5

    def test_orientation_deterministic(self):
        t = build_caterpillar(CaterpillarDecomposition((3, 0, 1)))
        assert backbone(t).path[0] < backbone(t).path[-1]

    def test_matches_definition(self, small_free_trees):
        from .oracles import is_caterpillar_bruteforce

        for trees in small_free_trees.values():
            for t in trees:
                assert backbone(t).is_caterpillar == is_caterpillar_bruteforce(t)

    def test_matches_core_walk_oracle(self, small_free_trees):
        for trees in small_free_trees.values():
            for t in trees:
                assert backbone(t) == backbone_core_walk(t)
        for t in seeded_random_trees(100, max_n=80):
            assert backbone(t) == backbone_core_walk(t)


class TestCanonicalCode:
    def test_relabeling_invariance(self):
        t = path(5)
        for perm in itertools.permutations(range(5)):
            assert canonical_code(relabel(t, perm)) == canonical_code(t)

    def test_separates_path_and_star(self):
        assert canonical_code(path(4)) != canonical_code(star(4))

    @settings(max_examples=100, deadline=None)
    @given(random_trees(min_n=2, max_n=12), st.randoms(use_true_random=False))
    def test_random_relabeling_invariance(self, t, rnd):
        perm = list(range(t.n))
        rnd.shuffle(perm)
        assert canonical_code(relabel(t, perm)) == canonical_code(t)

    @pytest.mark.parametrize(
        "n,count", [(1, 1), (2, 1), (3, 1), (4, 2), (5, 3), (6, 6), (7, 11)]
    )
    def test_free_tree_counts_small(self, n, count):
        assert free_tree_count_bruteforce(n) == count

    def test_six_vertices_six_codes(self):
        codes = {canonical_code(t) for t in labeled_trees(6)}
        assert len(codes) == 6

    def test_matches_recursive_oracle(self):
        from ecctrees.enumeration import free_trees

        for n in range(1, 13):
            for t in free_trees(n):
                assert canonical_code(t) == canonical_code_recursive(t)
        for t in seeded_random_trees(200, max_n=60):
            assert canonical_code(t) == canonical_code_recursive(t)

    @pytest.mark.parametrize(
        "t",
        [
            path(5000),
            # broom: a 1500-vertex handle ending in 1500 bristles
            Tree(3000, tuple((i, i + 1) for i in range(1499))
                 + tuple((1499, i) for i in range(1500, 3000))),
        ],
        ids=["path5000", "broom3000"],
    )
    def test_deep_trees_need_no_recursion(self, t):
        perm = list(range(t.n))
        random.Random(t.n).shuffle(perm)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)  # the interpreter default
        try:
            code = canonical_code(t)
            assert canonical_code(relabel(t, perm)) == code
        finally:
            sys.setrecursionlimit(limit)
        assert len(code) == 2 * t.n
