import random

import pytest

from ecctrees.enumeration import free_trees, valid_sequences
from ecctrees.extremal import (
    CaterpillarDecomposition,
    build_caterpillar,
    caterpillar_subtree_closed_form,
    extremal_decomposition,
    extremal_tree,
    max_subtrees_printed,
    max_subtrees_printed_detail,
    max_subtrees_value,
    min_wiener_derivation,
    min_wiener_order_diameter,
    min_wiener_printed,
    printed_wiener_delta,
)
from ecctrees.invariants import subtree_count
from ecctrees.sequence import (
    EccSequence,
    InvalidSequenceError,
    eccentric_sequence,
    parse_sequence,
)
from ecctrees.tree import canonical_code, eccentricities, is_caterpillar

from .oracles import (
    decomposition_of,
    max_subtrees_printed_pow2,
    min_wiener_derivation_double_loop,
    min_wiener_printed_double_loop,
    subtree_closed_form_double_loop,
    subtree_count_bruteforce,
    wiener_bruteforce,
)


def seq(text):
    return parse_sequence(text)


def random_pendant_vectors(seed, per_q=12, max_q=8):
    """Seeded valid pendant vectors, per_q of each q = 1..max_q."""
    rng = random.Random(seed)
    for q in range(1, max_q + 1):
        for _ in range(per_q):
            c = [rng.randint(0, 4) for _ in range(q)]
            if q == 1:
                c[0] = rng.randint(2, 6)
            else:
                c[0] = rng.randint(1, 4)
                c[-1] = rng.randint(1, 4)
            yield tuple(c)


def random_valid_sequences(seed, count=40, max_l=60, max_m=9):
    """Seeded valid sequences with up to max_l distinct values, each past
    the centre with multiplicity 2..max_m."""
    rng = random.Random(seed)
    for _ in range(count):
        m1 = rng.choice((1, 2))
        l = rng.randint(2, max_l)
        b1 = l - 1 if m1 == 1 else l
        yield EccSequence(b1, [m1] + [rng.randint(2, max_m) for _ in range(l - 1)])


class TestBuildCaterpillar:
    def test_star(self):
        t = build_caterpillar(CaterpillarDecomposition((3,)))
        assert t.n == 4
        assert sorted(t.degrees()) == [1, 1, 1, 3]

    def test_path(self):
        t = build_caterpillar(CaterpillarDecomposition((1, 0, 1)))
        assert t.edges == ((0, 1), (1, 2), (2, 3), (3, 4))

    def test_sequence_of_example(self):
        t = build_caterpillar(CaterpillarDecomposition((3, 0, 1)))
        assert sorted(eccentricities(t)) == [2, 3, 3, 4, 4, 4, 4]

    def test_always_caterpillar(self):
        for q in range(1, 6):
            r = (q + 1) // 2
            c = [2] * r + [0] * (q - r)
            c[0] += 1
            c[-1] += 1
            t = build_caterpillar(CaterpillarDecomposition(tuple(c)))
            assert is_caterpillar(t)

    def test_random_vectors(self):
        for c in random_pendant_vectors(seed=12):
            dec = CaterpillarDecomposition(c)
            t = build_caterpillar(dec)
            assert t.n == dec.order
            assert is_caterpillar(t)
            assert decomposition_of(t).c == max(c, c[::-1])
            assert caterpillar_subtree_closed_form(dec) == subtree_count(t)


class TestExtremalParams:
    @pytest.mark.parametrize(
        "text,c",
        [
            ("1,2,2,2", (3,)),
            ("2,3,3,4,4,4,4", (3, 0, 1)),
            ("3,4,4,5,5,5,6,6,6,6", (3, 1, 0, 0, 1)),
        ],
    )
    def test_examples(self, text, c):
        assert extremal_decomposition(seq(text)).c == c

    def test_invalid_rejected(self):
        with pytest.raises(InvalidSequenceError):
            extremal_decomposition(seq("2,3,4,4"))

    def test_compact_constraints_for_all_valid(self):
        for s in valid_sequences(12):
            dec = extremal_decomposition(s)
            assert dec.q == s.bl - 1
            assert dec.order == s.n
            assert len(dec.d_sizes()) == s.l - 1
            if dec.q > 1:
                # past the first half only the far path end is left
                assert dec.c[s.l - 1 :] == (0,) * (dec.q - s.l) + (1,)
            assert s.mult[0] in (1, 2)
            if s.mult[0] == 1:
                assert s.bl == 2 * s.b1
            else:
                assert s.bl == 2 * s.b1 - 1


class TestExtremalTree:
    @pytest.mark.parametrize(
        "text,expected_seq",
        [
            ("1,2,2,2", (1, 2, 2, 2)),
            ("2,3,3,4,4,4,4", (2, 3, 3, 4, 4, 4, 4)),
            ("2,2,3,3", (2, 2, 3, 3)),
        ],
    )
    def test_realizes_sequence(self, text, expected_seq):
        t = extremal_tree(seq(text))
        assert eccentric_sequence(t).raw == expected_seq

    def test_star_case(self):
        t = extremal_tree(seq("1,2,2,2"))
        assert sorted(t.degrees()) == [1, 1, 1, 3]

    def test_path_case(self):
        t = extremal_tree(seq("2,2,3,3"))
        assert sorted(t.degrees()) == [1, 1, 2, 2]

    def test_sequence_roundtrip_exhaustive_up_to_16(self):
        for s in valid_sequences(16):
            assert eccentric_sequence(extremal_tree(s)) == s

    def test_sequence_roundtrip_sampled_up_to_40(self):
        # exhaustive beyond ~16 is combinatorially explosive; fixed sample
        rng = random.Random(0)
        for n in range(17, 41):
            for _ in range(20):
                m1 = rng.choice((1, 2))
                mult = [m1]
                while sum(mult) < n - 1:
                    mult.append(rng.randint(2, 4))
                mult[-1] += n - sum(mult)
                if mult[-1] < 2:
                    continue
                b1 = len(mult) if m1 == 2 else len(mult) - 1
                if b1 < 1 or (m1 == 2 and b1 < 2):
                    continue
                s = EccSequence(b1, mult)
                from ecctrees.sequence import validate_tree_sequence

                assert validate_tree_sequence(s).valid
                assert eccentric_sequence(extremal_tree(s)) == s


class TestWienerFormulas:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("2,3,3,4,4", 20),
            ("1,2,2,2", 9),
            ("2,3,3,4,4,4,4", 46),
            ("3,4,4,5,5,5,6,6,6,6", 130),
        ],
    )
    def test_derivation_examples(self, text, value):
        assert min_wiener_derivation(seq(text)) == value

    @pytest.mark.parametrize(
        "text,value",
        [("2,3,3,4,4,4,4", 44), ("1,2,2,2", 8), ("2,3,3,4,4", 20)],
    )
    def test_printed_examples(self, text, value):
        assert min_wiener_printed(seq(text)) == value

    def test_derivation_matches_oracle_up_to_14(self):
        for s in valid_sequences(14):
            assert min_wiener_derivation(s) == wiener_bruteforce(extremal_tree(s))

    def test_derivation_matches_double_loop(self):
        for s in valid_sequences(16):
            assert min_wiener_derivation(s) == min_wiener_derivation_double_loop(s)
        for s in random_valid_sequences(seed=7):
            assert min_wiener_derivation(s) == min_wiener_derivation_double_loop(s)

    def test_printed_matches_double_loop(self):
        sequences = list(valid_sequences(16))
        sequences += random_valid_sequences(seed=29, count=200, max_l=30, max_m=12)
        for s in sequences:
            assert min_wiener_printed(s) == min_wiener_printed_double_loop(s), (
                s.compact_str()
            )

    def test_printed_delta_identity(self):
        for s in valid_sequences(12):
            assert (
                min_wiener_derivation(s) - min_wiener_printed(s)
                == printed_wiener_delta(s)
            )


class TestSubtreeFormulas:
    @pytest.mark.parametrize(
        "c,value",
        [((3,), 11), ((3, 0, 1), 41), ((3, 1, 0, 0, 1), 112)],
    )
    def test_closed_form_examples(self, c, value):
        assert caterpillar_subtree_closed_form(CaterpillarDecomposition(c)) == value

    @pytest.mark.parametrize(
        "text,value",
        [("1,2,2,2", 11), ("2,3,3,4,4,4,4", 41), ("2,3,3,4,4", 15)],
    )
    def test_max_value_examples(self, text, value):
        assert max_subtrees_value(seq(text)) == value

    @pytest.mark.parametrize(
        "text,value", [("1,2,2,2", 11), ("2,3,3,4,4,4,4", 25)]
    )
    def test_printed_examples(self, text, value):
        assert max_subtrees_printed(seq(text)) == value

    def test_printed_matches_pow2_reference(self):
        sequences = list(valid_sequences(16))
        sequences += random_valid_sequences(seed=28, count=200, max_l=30, max_m=12)
        non_integer = 0
        for s in sequences:
            value = max_subtrees_printed(s)
            assert value == max_subtrees_printed_pow2(s), s.compact_str()
            non_integer += value.denominator != 1
        # m_1 = 1 gives the factor 2^(-1) - 1, and a non-integer value
        assert non_integer > 100

    def test_printed_matches_pow2_reference_for_long_sequences(self):
        # windows of up to l - 1 factors, and with b_1 = l - 1 or l the steps
        # run about l past the leading product's last factor; m_k >= 3 for
        # k >= 2 keeps every factor but f_1 nonzero, so no product vanishes
        rng = random.Random(29)
        for m1, l in ((1, 40), (2, 40), (1, 51), (2, 55), (1, 60), (2, 60)):
            b1 = l - 1 if m1 == 1 else l
            s = EccSequence(b1, [m1] + [rng.randint(3, 9) for _ in range(l - 1)])
            value, truncated = max_subtrees_printed_detail(s)
            assert truncated, s.compact_str()
            assert value == max_subtrees_printed_pow2(s), s.compact_str()

    def test_printed_truncated_exactly_when_b1_at_least_3(self):
        # p runs to bl - 2 = b_1 + l - 3, so the leading product's last
        # index l - p falls below 1 exactly when b_1 >= 3
        flags = {s: max_subtrees_printed_detail(s)[1] for s in valid_sequences(16)}
        assert {s: flag for s, flag in flags.items() if flag != (s.b1 >= 3)} == {}
        assert any(flags.values()) and not all(flags.values())

    def test_value_matches_dp_up_to_14(self):
        for s in valid_sequences(14):
            assert max_subtrees_value(s) == subtree_count(extremal_tree(s))

    def test_closed_form_over_all_caterpillars_up_to_12(self, small_free_trees):
        checked = 0
        for n, trees in small_free_trees.items():
            for t in trees:
                if n >= 3 and is_caterpillar(t):
                    dec = decomposition_of(t)
                    assert caterpillar_subtree_closed_form(dec) == subtree_count(t)
                    checked += 1
        assert checked > 50

    def test_closed_form_matches_double_loop(self):
        extremal = [extremal_decomposition(s) for s in valid_sequences(16)]
        random_vectors = random_pendant_vectors(seed=5, per_q=20, max_q=40)
        for dec in extremal + [CaterpillarDecomposition(c) for c in random_vectors]:
            assert caterpillar_subtree_closed_form(dec) == subtree_closed_form_double_loop(
                dec.c
            )

    def test_closed_form_vs_subset_oracle(self):
        for text in ["1,2,2,2", "2,3,3,4,4,4,4", "2,3,3,4,4"]:
            s = seq(text)
            assert max_subtrees_value(s) == subtree_count_bruteforce(extremal_tree(s))


class TestOrderDiameter:
    def test_path_when_no_spare(self):
        t = min_wiener_order_diameter(5, 4)
        assert sorted(t.degrees()) == [1, 1, 2, 2, 2]

    def test_star(self):
        t = min_wiener_order_diameter(4, 2)
        assert sorted(t.degrees()) == [1, 1, 1, 3]

    def test_diameter_and_order(self):
        for n in range(4, 12):
            for d in range(2, n):
                t = min_wiener_order_diameter(n, d)
                assert t.n == n
                assert max(eccentricities(t)) == d

    def test_extremal_among_diameter_class(self):
        # n=7, d=4: unique min-W and max-N over all 7-vertex diameter-4 trees
        t = min_wiener_order_diameter(7, 4)
        code = canonical_code(t)
        competitors = [
            u for u in free_trees(7) if max(eccentricities(u)) == 4
        ]
        w = {canonical_code(u): wiener_bruteforce(u) for u in competitors}
        nsub = {canonical_code(u): subtree_count(u) for u in competitors}
        assert [c for c, v in w.items() if v == min(w.values())] == [code]
        assert [c for c, v in nsub.items() if v == max(nsub.values())] == [code]

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            min_wiener_order_diameter(5, 5)
        with pytest.raises(ValueError):
            min_wiener_order_diameter(5, 1)


class TestDecomposition:
    def test_builder_places_ends(self):
        t = build_caterpillar(CaterpillarDecomposition((3, 0, 1)))
        assert t.edges == ((0, 1), (1, 2), (1, 5), (1, 6), (2, 3), (3, 4))

    def test_q1_both_ends(self):
        t = build_caterpillar(CaterpillarDecomposition((2,)))
        assert t.edges == ((0, 1), (1, 2))
        with pytest.raises(ValueError):
            CaterpillarDecomposition((1,))

    def test_d_sizes(self):
        dec = CaterpillarDecomposition((3, 1, 0, 0, 1))
        assert dec.d_sizes() == (4, 1, 0)

    def test_invalid_ends_rejected(self):
        # a missing end pendant, no position, a negative count
        for c in [(0, 1, 1), (), (1, -1, 1)]:
            with pytest.raises(ValueError):
                CaterpillarDecomposition(c)
