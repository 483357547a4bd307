"""The frozen value records: construction, equality, hashing, repr,
immutability, pickling and copying, and an import that needs no dataclasses."""

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import ecctrees as ec
from ecctrees.enumeration import AuditRow, ConjectureRow

S = ec.EccSequence(2, (1, 2, 2))

# name: (make, repr of make(0)); make(0) == make(0) != make(1).  The repr
# strings are the ones the records printed as dataclasses.
RECORDS = {
    "Tree": (
        lambda k: ec.Tree(3 + k, ((0, 1), (1, 2)) + ((2, 3),) * k),
        "Tree(n=3, edges=((0, 1), (1, 2)))",
    ),
    "Backbone": (
        lambda k: ec.Backbone((1,), k == 0),
        "Backbone(path=(1,), is_caterpillar=True)",
    ),
    "EccSequence": (
        lambda k: ec.EccSequence(2, (1, 2 + k)),
        "EccSequence(b1=2, _mult=(1, 2))",
    ),
    "ValidationResult": (
        lambda k: ec.ValidationResult(False, "CondI" if k == 0 else "CondII"),
        "ValidationResult(valid=False, reason='CondI')",
    ),
    "CaterpillarDecomposition": (
        lambda k: ec.CaterpillarDecomposition((2 + k, 0, 1)),
        "CaterpillarDecomposition(c=(2, 0, 1))",
    ),
    "InvariantReport": (
        lambda k: ec.InvariantReport(
            n=3, wiener=4 + k, subtrees=6, edge_wiener=0, edge_wiener_line=1,
            vertex_edge_wiener=Fraction(2), schultz=8, gutman=4, hyper_wiener=5,
            wiener_lambda={1.0: 4.0}, relation_residuals={"schultz": 0},
        ),
        "InvariantReport(n=3, wiener=4, subtrees=6, edge_wiener=0, "
        "edge_wiener_line=1, vertex_edge_wiener=Fraction(2, 1), schultz=8, "
        "gutman=4, hyper_wiener=5, wiener_lambda={1.0: 4.0}, "
        "relation_residuals={'schultz': 0})",
    ),
    "RewriteMove": (
        lambda k: ec.RewriteMove(
            path=(0, 1, 2, 3), j=2, u=4, moved=(5,), target=3,
            detached=frozenset({5}), right=frozenset({3 - k}),
        ),
        "RewriteMove(path=(0, 1, 2, 3), j=2, u=4, moved=(5,), target=3, "
        "detached=frozenset({5}), right=frozenset({3}))",
    ),
    "ExtremalityReport": (
        lambda k: ec.ExtremalityReport(
            sequence=S, n=5, trees_examined=1, min_wiener=18 - k,
            min_wiener_achievers=(b"((()())(()))",), max_subtrees=16,
            max_subtrees_achievers=(b"((()())(()))",), construction_is_min_w=True,
            construction_is_max_n=True, unique_min_w=True, unique_max_n=True,
        ),
        "ExtremalityReport(sequence=EccSequence(b1=2, _mult=(1, 2, 2)), n=5, "
        "trees_examined=1, min_wiener=18, min_wiener_achievers=(b'((()())(()))',), "
        "max_subtrees=16, max_subtrees_achievers=(b'((()())(()))',), "
        "construction_is_min_w=True, construction_is_max_n=True, "
        "unique_min_w=True, unique_max_n=True)",
    ),
    "AuditRow": (
        lambda k: AuditRow(
            sequence=S, n=5, oracle_w=18, derivation_w=18, printed_w=18 + k,
            delta_w=-k, delta_w_identity_ok=True, oracle_n=16, decomposition_n=16,
            printed_n=Fraction(33, 2), delta_n=Fraction(-1, 2),
            printed_n_truncated=False,
        ),
        "AuditRow(sequence=EccSequence(b1=2, _mult=(1, 2, 2)), n=5, oracle_w=18, "
        "derivation_w=18, printed_w=18, delta_w=0, delta_w_identity_ok=True, "
        "oracle_n=16, decomposition_n=16, printed_n=Fraction(33, 2), "
        "delta_n=Fraction(-1, 2), printed_n_truncated=False)",
    ),
    "AuditReport": (
        lambda k: ec.AuditReport(max_n=5 + k, rows=()),
        "AuditReport(max_n=5, rows=())",
    ),
    "ConjectureRow": (
        lambda k: ConjectureRow(
            sequence=S, index="HW", minimizers=(b"(()())",),
            construction_is_min=k == 0, unique_min=True, counterexamples=(),
        ),
        "ConjectureRow(sequence=EccSequence(b1=2, _mult=(1, 2, 2)), index='HW', "
        "minimizers=(b'(()())',), construction_is_min=True, unique_min=True, "
        "counterexamples=())",
    ),
    "ConjectureReport": (
        lambda k: ec.ConjectureReport(max_n=5, lambdas=(1.0, 2.0 + k), rows=()),
        "ConjectureReport(max_n=5, lambdas=(1.0, 2.0), rows=())",
    ),
}


@pytest.mark.parametrize("name", list(RECORDS))
def test_record_behaviour(name):
    make, text = RECORDS[name]
    a, b, other = make(0), make(0), make(1)
    cls = type(a)
    assert cls.__name__ == name
    assert repr(a) == text
    assert a == b and not a != b
    assert a != other and not a == other
    if name == "InvariantReport":  # dict fields, unhashable as before
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
        assert len({a, b, other}) == 2
    # by position and by keyword; the fields are the annotated names, in
    # order, but for the tree's derived adjacency
    fields = [key for key in cls.__annotations__ if key != "adjacency"]
    values = [getattr(a, key) for key in fields]
    assert cls(*values) == a
    assert cls(**dict(zip(fields, values))) == a
    # a record, not a tuple: unordered, not iterable, unequal to its values
    assert a != tuple(values)
    with pytest.raises(TypeError):
        a < b
    with pytest.raises(TypeError):
        iter(a)
    for key in (fields[0], "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(a, key, 1)
        with pytest.raises(AttributeError):
            delattr(a, key)
    assert repr(a) == text
    for twin in (pickle.loads(pickle.dumps(a)), copy.deepcopy(a), copy.copy(a)):
        assert type(twin) is cls
        assert twin == a
        assert repr(twin) == text


def test_constructor_arguments():
    assert ec.ValidationResult(True) == ec.ValidationResult(True, None)
    assert ec.ValidationResult(valid=True).reason is None
    for args, kwargs in [
        ((), {}),  # missing field
        ((True, None, 1), {}),  # too many
        ((True,), {"valid": True}),  # repeated
        ((True,), {"cause": "x"}),  # unknown
    ]:
        with pytest.raises(TypeError):
            ec.ValidationResult(*args, **kwargs)
    with pytest.raises(TypeError):
        ec.Backbone((1,))
    assert ec.EccSequence(b1=2, _mult=[1, 2]) == ec.EccSequence(2, (1, 2))


def test_cli_import_leaves_out_dataclasses():
    code = "import sys, ecctrees.cli; sys.exit('dataclasses' in sys.modules)"
    src = str(Path(ec.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src)
    )
    assert proc.returncode == 0
