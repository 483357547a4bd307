"""The four workloads: inputs from the seed, the timed operations, checks.

``make_inputs`` runs in the benchmark process and returns plain JSON data.
``files`` lists the input files a pass finds in its working directory.
``prepare`` and ``run`` execute in the worker, after ``import ecctrees``:
``prepare`` builds in-memory inputs outside the timed region, ``run`` issues
the operations through ``op(label, call, to_json)``.
"""

from __future__ import annotations

import io
import random
from contextlib import redirect_stderr, redirect_stdout

import checks

LAMBDAS = (1, 1.5, 2, 3)


def cli_call(argv: list[str]) -> dict:
    """``ecctrees.cli.main`` in-process, with stdout and stderr captured."""
    from ecctrees.cli import main

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _same(value):
    return value


class Workload:
    """Defaults: no input files, nothing to build before the clock starts."""

    @staticmethod
    def files(inputs: dict) -> dict[str, str]:
        return {}

    @staticmethod
    def prepare(inputs: dict):
        return inputs


class Sweep(Workload):
    """Criterion 1 at n <= 12 plus the conjecture explorer: every sequence
    re-enumerates all free trees of its order, so work is shared across
    inputs.  The seed fixes the order in which sequences are verified."""

    MAX_N = 12

    @staticmethod
    def make_inputs(seed: int) -> dict:
        return {"seed": seed, "max_n": Sweep.MAX_N, "lambdas": list(LAMBDAS)}

    @staticmethod
    def run(inputs: dict, op) -> None:
        import ecctrees as ec

        max_n = inputs["max_n"]
        seqs = op("valid_sequences", lambda: ec.valid_sequences(max_n),
                  lambda r: [s.compact_str() for s in r])
        seqs = list(seqs or ())
        random.Random(inputs["seed"]).shuffle(seqs)
        for s in seqs:
            op("verify_extremal", lambda s=s: ec.verify_extremal(s, max_n=max_n),
               lambda r: r.to_dict())
        op("explore_conjecture",
           lambda: ec.explore_conjecture(max_n, tuple(inputs["lambdas"])),
           lambda r: r.to_dict())

    check = staticmethod(checks.check_sweep)

    @staticmethod
    def expected_ops(inputs: dict) -> int:
        return 2 + sum(len(s) for s in checks.expected_sequences(inputs["max_n"]).values())


class Single(Workload):
    """Two one-shot ``verify`` commands at n = 15, the largest and the
    smallest class: nothing is shared between the two calls."""

    CASES = (("4^2,5^4,6^5,7^4", 183), ("1^1,2^14", 1))

    @staticmethod
    def make_inputs(seed: int) -> dict:
        cases = [list(c) for c in Single.CASES]
        random.Random(seed).shuffle(cases)
        return {"seed": seed, "max_n": 15, "cases": cases}

    @staticmethod
    def run(inputs: dict, op) -> None:
        for seq, _ in inputs["cases"]:
            argv = ["verify", seq, "--max-n", str(inputs["max_n"]), "--format", "json"]
            op("cli.verify", lambda argv=argv: cli_call(argv), _same)

    check = staticmethod(checks.check_single)

    @staticmethod
    def expected_ops(inputs: dict) -> int:
        return len(inputs["cases"])


class Audit(Workload):
    """The formula audit over all 4179 sequences with n <= 18: many small
    sequences, closed forms and caterpillar oracles, no enumeration.  The
    command takes no input the seed could vary."""

    @staticmethod
    def make_inputs(seed: int) -> dict:
        return {
            "seed": seed,
            "max_n": 18,
            "discrepancy": {"sequence": "2^1,3^2,4^4", "oracle_W": 46,
                            "printed_W": 44, "oracle_N": 41, "printed_N": 25},
        }

    @staticmethod
    def run(inputs: dict, op) -> None:
        argv = ["audit", "--max-n", str(inputs["max_n"]), "--format", "json"]
        op("cli.audit", lambda: cli_call(argv), _same)

    check = staticmethod(checks.check_audit)

    @staticmethod
    def expected_ops(inputs: dict) -> int:
        return 1


class Large(Workload):
    """A few big single inputs: invariants of a random tree (n = 1000), the
    extremal tree of an n = 1999 sequence, validating a sequence with a
    multiplicity of 10^6, and caterpillarizing a random tree (n = 500)."""

    TREE_FILE = "pruefer.tree"

    @staticmethod
    def make_inputs(seed: int) -> dict:
        rng = random.Random(seed)
        inv_n, cat_n = 1000, 500
        return {
            "seed": seed,
            "invariants_n": inv_n,
            "invariants_pruefer": [rng.randrange(inv_n) for _ in range(inv_n - 2)],
            "lambdas": list(LAMBDAS),
            "extremal": "5^1,6^2,7^2,8^2,9^2,10^1990",
            "validate": [1, [1, 1000000]],
            "caterpillarize_n": cat_n,
            "caterpillarize_pruefer": [rng.randrange(cat_n) for _ in range(cat_n - 2)],
        }

    @staticmethod
    def files(inputs: dict) -> dict[str, str]:
        n = inputs["invariants_n"]
        edges = checks.pruefer_edges(inputs["invariants_pruefer"], n)
        return {Large.TREE_FILE: checks.tree_text(n, edges)}

    @staticmethod
    def prepare(inputs: dict):
        from ecctrees import Tree

        n = inputs["caterpillarize_n"]
        edges = checks.pruefer_edges(inputs["caterpillarize_pruefer"], n)
        return dict(inputs, caterpillarize_tree=Tree(n, tuple(edges)))

    @staticmethod
    def run(state: dict, op) -> None:
        import ecctrees as ec

        lambdas = ",".join(f"{lam:g}" for lam in state["lambdas"])
        b1, mult = state["validate"]
        calls = [
            ["invariants", Large.TREE_FILE, "--format", "json", "--lambda", lambdas],
            ["extremal", state["extremal"], "--format", "json"],
            ["validate", checks.compact(b1, mult), "--format", "json"],
        ]
        for argv in calls:
            op(f"cli.{argv[0]}", lambda argv=argv: cli_call(argv), _same)
        op("caterpillarize", lambda: ec.caterpillarize(state["caterpillarize_tree"]),
           lambda t: {"n": t.n, "edges": [list(e) for e in t.edges]})

    check = staticmethod(checks.check_large)

    @staticmethod
    def expected_ops(inputs: dict) -> int:
        return 4


WORKLOADS = {"sweep": Sweep, "single": Single, "audit": Audit, "large": Large}
