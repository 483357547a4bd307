"""Byte identity of the package's outputs.

Each output below is hashed with sha256 and compared with the digest
recorded in golden_digests.json.  A change that alters an output on purpose
records the new digest and says why in CHANGES.md.  Every lambda is
integral, so every Python version and either byte order give the same
bytes.  The test needs nothing but pytest, so a big-endian host can run it.
"""

import hashlib
import json
import random
from pathlib import Path

import pytest

from ecctrees.cli import main
from ecctrees.enumeration import valid_sequences
from ecctrees.rewrite import caterpillarize
from ecctrees.tree import tree_from_pruefer, tree_to_text

DIGESTS = json.loads(Path(__file__).with_name("golden_digests.json").read_text())


def _pruefer_trees():
    """Random trees of orders 1000 and 500, drawn in turn from one
    random.Random(1), as the benchmark's large workload draws them."""
    rng = random.Random(1)
    return [
        tree_from_pruefer(tuple(rng.randrange(n) for _ in range(n - 2)), n)
        for n in (1000, 500)
    ]


def _stdout(capsys, *argv):
    assert main(list(argv)) == 0
    return capsys.readouterr().out


def _cli(*argv):
    return lambda capsys, tmp_path: _stdout(capsys, *argv)


def _invariants(capsys, tmp_path):
    tree_file = tmp_path / "pruefer.tree"
    tree_file.write_text(tree_to_text(_pruefer_trees()[0]))
    return _stdout(
        capsys, "invariants", str(tree_file), "--lambda", "1,2,3", "--format", "json"
    )


OUTPUTS = {
    "audit --max-n 16": _cli("audit", "--max-n", "16", "--format", "json"),
    "verify --max-n 14": _cli("verify", "--max-n", "14", "--format", "json"),
    "explore --max-n 12 --lambda 1,2,3": _cli(
        "explore", "--max-n", "12", "--lambda", "1,2,3", "--format", "json"
    ),
    "explore --max-n 10 --lambda=-1,-2": _cli(
        "explore", "--max-n", "10", "--lambda=-1,-2", "--format", "json"
    ),
    "valid_sequences(22)": lambda capsys, tmp_path: "\n".join(
        s.compact_str() for s in valid_sequences(22)
    ),
    "invariants --lambda 1,2,3 (Pruefer n = 1000)": _invariants,
    "extremal 2^1,3^2,4^4": _cli("extremal", "2^1,3^2,4^4", "--format", "json"),
    "extremal 1^1,2^15000": _cli("extremal", "1^1,2^15000", "--format", "json"),
    "caterpillarize (Pruefer n = 500)": lambda capsys, tmp_path: tree_to_text(
        caterpillarize(_pruefer_trees()[1])
    ),
}


def test_every_output_has_one_digest():
    assert sorted(DIGESTS) == sorted(OUTPUTS)


@pytest.mark.parametrize("name", list(OUTPUTS))
def test_output_matches_digest(name, capsys, tmp_path):
    text = OUTPUTS[name](capsys, tmp_path)
    assert hashlib.sha256(text.encode()).hexdigest() == DIGESTS[name]
