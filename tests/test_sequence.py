import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ecctrees.enumeration import free_trees
from ecctrees.sequence import (
    EccSequence,
    SequenceError,
    eccentric_sequence,
    parse_sequence,
    validate_tree_sequence,
)


class TestParse:
    def test_raw_list(self):
        s = parse_sequence("2,3,3,4,4")
        assert s.b1 == 2
        assert s.l == 3
        assert s.mult == (1, 2, 2)

    def test_compact_form(self):
        assert parse_sequence("2^1,3^2,4^2") == parse_sequence("2,3,3,4,4")

    def test_gap_rejected(self):
        with pytest.raises(SequenceError):
            parse_sequence("2,3,5")

    def test_decreasing_rejected(self):
        with pytest.raises(SequenceError):
            parse_sequence("3,2,2")

    def test_zero_multiplicity_rejected(self):
        with pytest.raises(SequenceError):
            parse_sequence("2^0,3^2")

    def test_non_consecutive_compact_rejected(self):
        with pytest.raises(SequenceError):
            parse_sequence("2^1,4^2")

    def test_non_integer_rejected(self):
        with pytest.raises(SequenceError):
            parse_sequence("2,x,3")

    def test_json_roundtrip(self):
        s = parse_sequence("2,3,3,4,4")
        assert json.loads(s.to_json()) == {"b1": 2, "mult": [1, 2, 2]}
        assert EccSequence.from_json(s.to_json()) == s

    @pytest.mark.parametrize(
        "text",
        [
            '{"b1": 1.5, "mult": [1, 2]}',
            '{"b1": true, "mult": [1, 2]}',
            '{"b1": 1, "mult": [1, true]}',
            '{"b1": 1, "mult": [1, "2"]}',
            '{"b1": 1, "mult": 3}',
            '{"b1": 1, "mult": "12"}',
            '{"b1": 1}',
            '{"mult": [1, 2]}',
            '{"b1": 1, "mult": [1, 2], "n": 3}',
            "[1, 2]",
            '"1,2,2"',
            "null",
            "1,2,2",
            "",
            pytest.param("[" * 100_000, id="deep-nesting"),
            '{"b1": 0, "mult": [1, 2]}',
            '{"b1": 1, "mult": []}',
            '{"b1": 1, "mult": [1, 0]}',
        ],
    )
    def test_from_json_rejects(self, text):
        with pytest.raises(SequenceError):
            EccSequence.from_json(text)

    @given(st.text() | st.text(alphabet="0123456789^,- "))
    def test_arbitrary_text(self, text):
        try:
            assert isinstance(parse_sequence(text), EccSequence)
        except SequenceError:
            pass

    @given(
        st.builds(
            EccSequence,
            st.integers(1, 30),
            st.lists(st.integers(1, 5), min_size=1, max_size=8),
        )
    )
    def test_compact_and_raw_round_trip(self, s):
        assert s.n == len(s.raw)
        assert parse_sequence(s.compact_str()) == s
        assert parse_sequence(",".join(map(str, s.raw))) == s

    @pytest.mark.parametrize("b1,mult", [(0, (1, 2)), (2, ()), (2, (1, 0, 2))])
    def test_constructor_rejects(self, b1, mult):
        with pytest.raises(SequenceError):
            EccSequence(b1, mult)


class TestValidate:
    @pytest.mark.parametrize("text", ["2,3,3,4,4", "2,2,3,3", "1,2,2,2"])
    def test_valid(self, text):
        assert validate_tree_sequence(parse_sequence(text)).valid

    def test_cond_ii(self):
        result = validate_tree_sequence(parse_sequence("2,3,4,4"))
        assert not result.valid
        assert result.reason == "CondII"

    def test_cond_i(self):
        result = validate_tree_sequence(parse_sequence("3,3,4,4"))
        assert not result.valid
        assert result.reason == "CondI"

    def test_too_short(self):
        result = validate_tree_sequence(parse_sequence("1,1"))
        assert result.reason == "TooShort"

    def test_single_vertex(self):
        """The lone vertex has eccentricity 0: its sequence exists but is
        TooShort, and 0 stays unparseable as text."""
        from ecctrees.enumeration import _trees_by_sequence
        from ecctrees.tree import Tree

        s = eccentric_sequence(Tree(1, ()))
        assert s == EccSequence(0, (1,))
        assert validate_tree_sequence(s).reason == "TooShort"
        assert _trees_by_sequence(1) == {s: [Tree(1, ())]}
        for text in ("0", "0^1"):
            with pytest.raises(SequenceError, match="positive integers"):
                parse_sequence(text)

    def test_round_trip_all_trees(self, small_free_trees):
        for n, trees in small_free_trees.items():
            if n <= 2:
                continue
            for t in trees:
                assert validate_tree_sequence(eccentric_sequence(t)).valid

    def test_completeness_up_to_10(self):
        """Valid iff some free tree realizes the sequence."""
        realized = set()
        for n in range(3, 11):
            for t in free_trees(n):
                realized.add(eccentric_sequence(t).raw)
        for n in range(3, 11):
            for s in _all_candidate_sequences(n, max_value=9):
                assert validate_tree_sequence(s).valid == (s.raw in realized), s.raw


def _all_candidate_sequences(n, max_value):
    """All nondecreasing gap-free sequences of length n with values <= max_value."""
    for lo in range(1, max_value + 1):
        for hi in range(lo, max_value + 1):
            span = hi - lo + 1
            if span > n:
                continue
            for mult in _compositions(n, span):
                yield EccSequence(lo, mult)


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest

