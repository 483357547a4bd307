"""Eccentric sequences in compact form: parsing, and the Lesniak-style
validity test for tree eccentric sequences."""

from __future__ import annotations

import json

from .tree import Tree, _Record, _set, eccentricities


class SequenceError(ValueError):
    """Text does not describe a well-formed eccentric sequence."""


class EccSequence(_Record):
    """Nondecreasing gap-free sequence of positive integers in compact form
    EccSequence(b1, mult): m_1..m_l count the values b1, b1+1, ..., b1+l-1.
    Gap-freeness holds for the eccentricities of any connected graph.  The
    single vertex's EccSequence(0, (1,)) is the one sequence holding a 0.
    """

    __slots__ = ("b1", "_mult")
    b1: int
    _mult: tuple[int, ...]

    def __init__(self, b1: int, _mult: tuple[int, ...]):
        mult = tuple(_mult)
        if b1 < 1 and (b1, mult) != (0, (1,)):
            raise SequenceError("entries must be positive integers")
        if not mult:
            raise SequenceError("empty sequence")
        if min(mult) < 1:
            raise SequenceError("multiplicities must be positive")
        _set(self, "b1", b1)
        _set(self, "_mult", mult)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.b1 == other.b1 and self._mult == other._mult

    def __hash__(self):
        return hash((self.b1, self._mult))

    @property
    def mult(self) -> tuple[int, ...]:
        """Multiplicities m_1..m_l of the distinct values b1..bl."""
        return self._mult

    @property
    def n(self) -> int:
        return sum(self._mult)

    @property
    def bl(self) -> int:
        """Largest value (the diameter, once validated)."""
        return self.b1 + len(self._mult) - 1

    @property
    def l(self) -> int:
        """Number of distinct values."""
        return len(self._mult)

    @property
    def raw(self) -> tuple[int, ...]:
        """The expanded sequence, O(n): each value repeated m times."""
        return tuple(self.b1 + j for j, m in enumerate(self._mult) for _ in range(m))

    def compact_str(self) -> str:
        return ",".join(f"{self.b1 + j}^{m}" for j, m in enumerate(self._mult))

    def to_json(self) -> str:
        return json.dumps({"b1": self.b1, "mult": list(self._mult)})

    @classmethod
    def from_json(cls, text: str) -> "EccSequence":
        obj = json.loads(text)
        return cls(obj["b1"], obj["mult"])


def _count_values(values) -> EccSequence:
    """The sequence holding the values of a nonempty collection, in any
    order; a missing value in between is an empty multiplicity."""
    b1 = min(values)
    mult = [0] * (max(values) - b1 + 1)
    for a in values:
        mult[a - b1] += 1
    return EccSequence(b1, mult)


def parse_sequence(text: str) -> EccSequence:
    """Parse either a comma list "2,3,3,4,4" or compact form "2^1,3^2,4^2"."""
    text = text.strip()
    if not text:
        raise SequenceError("empty sequence")
    tokens = [tok.strip() for tok in text.split(",")]
    if any("^" in tok for tok in tokens):
        values, mult = [], []
        for tok in tokens:
            try:
                value_s, mult_s = tok.split("^")
                value, m = int(value_s), int(mult_s)
            except ValueError:
                raise SequenceError(f"bad compact token {tok!r}")
            if m < 1:
                raise SequenceError(f"zero or negative multiplicity in {tok!r}")
            if values and value != values[-1] + 1:
                raise SequenceError(
                    f"compact values must be consecutive, got {values[-1]} then {value}"
                )
            values.append(value)
            mult.append(m)
        if values[0] < 1:
            raise SequenceError("entries must be positive integers")
        return EccSequence(values[0], mult)
    try:
        raw = [int(tok) for tok in tokens]
    except ValueError:
        raise SequenceError(f"non-integer token in {text!r}")
    if any(a < 1 for a in raw):
        raise SequenceError("entries must be positive integers")
    if any(a > b for a, b in zip(raw, raw[1:])):
        raise SequenceError("sequence must be nondecreasing")
    for a, b in zip(raw, raw[1:]):
        if b > a + 1:
            raise SequenceError(
                f"gap between eccentricities {a} and {b}: "
                "impossible for a connected graph"
            )
    return _count_values(raw)


def eccentric_sequence(t: Tree) -> EccSequence:
    """The nondecreasing sequence of all vertex eccentricities of t."""
    return _count_values(eccentricities(t))


class ValidationResult(_Record):
    valid: bool
    reason: str | None = None  # one of "TooShort", "CondI", "CondII"

    def __bool__(self) -> bool:
        return self.valid


def validate_tree_sequence(s: EccSequence) -> ValidationResult:
    """Test whether s is the eccentric sequence of some tree (n > 2).

    Condition I: either the smallest value appears once and the largest equals
    twice the smallest, or it appears exactly twice and the largest equals
    twice the smallest minus one.  Condition II: every value strictly between
    the smallest and the largest, and the largest itself, appears at least
    twice.  Reasons are checked in the order TooShort, CondI, CondII.
    """
    if s.n <= 2:
        return ValidationResult(False, "TooShort")
    mult = s.mult
    cond_i = (mult[0] == 1 and s.bl == 2 * s.b1) or (
        mult[0] == 2 and s.bl == 2 * s.b1 - 1
    )
    if not cond_i:
        return ValidationResult(False, "CondI")
    if any(m < 2 for m in mult[1:]):
        return ValidationResult(False, "CondII")
    return ValidationResult(True)


class InvalidSequenceError(ValueError):
    """A valid tree eccentric sequence was required."""

    def __init__(self, s: EccSequence, result: ValidationResult):
        super().__init__(
            f"{s.compact_str()} is not a tree eccentric sequence ({result.reason})"
        )
        self.result = result


def require_valid(s: EccSequence) -> None:
    result = validate_tree_sequence(s)
    if not result:
        raise InvalidSequenceError(s, result)

