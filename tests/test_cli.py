import errno
import io
import json
import os
import subprocess
import sys
import time
from decimal import Decimal
from importlib import resources
from math import comb
from pathlib import Path

import jsonschema
import pytest

import ecctrees
from ecctrees import cli, enumeration
from ecctrees.cli import main
from ecctrees.enumeration import _verify_orders, audit_formulas, verify_extremal
from ecctrees.sequence import parse_sequence

SRC = str(Path(ecctrees.__file__).parents[1])


@pytest.fixture(scope="module")
def schemas():
    text = (
        resources.files("ecctrees") / "schemas" / "cli_output.schema.json"
    ).read_text()
    return json.loads(text)["commands"]


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def run_json(capsys, schemas, command, *argv):
    """Run a command with --format json; its output must be standard JSON
    (no NaN or Infinity) that matches the command's schema."""
    code, out, _ = run(capsys, command, *argv, "--format", "json")
    payload = json.loads(out, parse_constant=_reject_constant)
    jsonschema.validate(payload, schemas[command])
    return code, payload


class TestValidate:
    def test_valid_sequence(self, capsys):
        code, out, _ = run(capsys, "validate", "2,3,3,4,4")
        assert code == 0
        assert "valid" in out

    def test_invalid_sequence(self, capsys):
        code, out, _ = run(capsys, "validate", "2,3,4,4")
        assert code == 2
        assert "CondII" in out

    def test_empty_is_usage_error(self, capsys):
        code, _, err = run(capsys, "validate", "")
        assert code == 1

    def test_json(self, capsys, schemas):
        code, payload = run_json(capsys, schemas, "validate", "2,3,3,4,4")
        assert code == 0
        assert payload["valid"] is True
        assert payload["mult"] == [1, 2, 2]

    def test_huge_multiplicity(self, capsys, schemas):
        code, payload = run_json(capsys, schemas, "validate", "1^1,2^1000000000")
        assert code == 0
        assert payload["mult"] == [1, 1000000000]


class TestExtremal:
    def test_seven_vertex_example(self, capsys, schemas):
        code, payload = run_json(capsys, schemas, "extremal", "2,3,3,4,4,4,4")
        assert code == 0
        assert payload["wiener"] == 46
        assert payload["subtrees"] == "41"
        assert payload["tree"].startswith("7\n")

    def test_star(self, capsys, schemas):
        code, payload = run_json(capsys, schemas, "extremal", "1,2,2,2")
        assert code == 0
        assert payload["wiener"] == 9
        assert payload["subtrees"] == "11"

    def test_subtree_count_beyond_int_str_limit(self, capsys, schemas):
        """N of the 15 001-vertex star has 4 516 digits, more than the
        4 300 that str(int) accepts by default."""
        expected = 2**15000 + 15000
        code, payload = run_json(capsys, schemas, "extremal", "1^1,2^15000")
        assert code == 0
        assert len(payload["subtrees"]) == 4516
        assert Decimal(payload["subtrees"]) == expected
        code, out, _ = run(capsys, "extremal", "1^1,2^15000")
        assert code == 0
        assert Decimal(out.splitlines()[-1].removeprefix("N=")) == expected

    def test_invalid_sequence(self, capsys):
        _, validate_line, _ = run(capsys, "validate", "2,3,4,4")
        for command in ("extremal", "verify"):
            assert run(capsys, command, "2,3,4,4")[:2] == (2, validate_line)

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_order_past_cap_exits_before_building(self, capsys, monkeypatch, fmt):
        def build(s):
            raise RuntimeError(f"built order {s.n}")

        monkeypatch.setattr(enumeration, "extremal_tree", build)
        huge = "1^1,2^1000000000000"
        start = time.perf_counter()
        code, out, err = run(capsys, "extremal", huge, "--format", fmt)
        assert time.perf_counter() - start < 5
        assert code == 1 and out == ""
        assert err == (
            "error: sequence order 1000000000001 exceeds the extremal order "
            f"cap {cli.EXTREMAL_MAX_N}\n"
        )
        # one past the cap is refused; the cap itself reaches the build
        m = cli.EXTREMAL_MAX_N - 1
        assert run(capsys, "extremal", f"1^1,2^{m + 1}", "--format", fmt)[0] == 1
        code, _, err = run(capsys, "extremal", f"1^1,2^{m}", "--format", fmt)
        assert code == 3
        assert err.endswith(f"built order {cli.EXTREMAL_MAX_N}\n")

    @pytest.mark.parametrize("closed_form", ["min_wiener_derivation", "max_subtrees_value"])
    def test_closed_form_off_the_oracle_exits_3(self, capsys, monkeypatch, closed_form):
        """extremal and audit share one check of the closed forms against
        wiener and subtree_count; a wrong closed form fails both."""
        right = getattr(enumeration, closed_form)
        monkeypatch.setattr(enumeration, closed_form, lambda s: right(s) + 1)
        code, out, err = run(capsys, "extremal", "2,3,3,4,4", "--format", "json")
        assert code == 3 and out == ""
        assert err.startswith("internal assertion failed: ")
        assert err.endswith(" disagrees with oracle on 2^1,3^2,4^2\n")
        assert err.count("\n") == 1
        with pytest.raises(AssertionError, match="disagrees with oracle on 1\\^1,2\\^2$"):
            audit_formulas(5)


class TestSequenceFromStdin:
    """A sequence argument "-" is read from stdin, through the same parser
    and exit codes as an argument."""

    @pytest.mark.parametrize(
        "command, text",
        [
            ("validate", "2^1,3^2,4^2\n"),
            ("validate", "2,3,3,4,4"),
            ("extremal", "2,3,3,4,4,4,4\n"),
            ("extremal", "2^1,3^2,4^4"),
            ("verify", "2,3,3,4,4\n"),
            ("validate", "2,3,4,4"),
            ("extremal", "2^1,3^1,4^2"),
        ],
    )
    def test_same_as_argument(self, capsys, monkeypatch, command, text):
        expected = run(capsys, command, text.strip(), "--format", "json")
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        assert run(capsys, command, "-", "--format", "json") == expected

    @pytest.mark.parametrize("command", ["validate", "extremal", "verify"])
    def test_empty_stdin_is_usage_error(self, capsys, monkeypatch, command):
        monkeypatch.setattr(sys, "stdin", io.StringIO(""))
        code, out, err = run(capsys, command, "-")
        assert code == 1 and out == ""
        assert err.startswith("usage error:") and err.count("\n") == 1

    def test_path_like_sequence_past_argument_limit(self):
        """n = 100 001, about 400 KB: more than Linux passes in one argument."""
        b = 50_000
        text = ",".join([f"{b}^1"] + [f"{v}^2" for v in range(b + 1, 2 * b + 1)])
        assert len(text) > 128 * 1024
        proc = subprocess.run(
            [sys.executable, "-m", "ecctrees.cli", "extremal", "-", "--format", "json"],
            input=text,
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=SRC),
        )
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["sequence"] == text
        assert payload["tree"].startswith("100001\n")
        # a path on 2b + 1 vertices
        assert payload["wiener"] == comb(2 * b + 2, 3)
        assert payload["subtrees"] == str(comb(2 * b + 2, 2))


class TestInvariants:
    def test_p5(self, tmp_path, capsys, schemas):
        f = tmp_path / "p5.tree"
        f.write_text("5\n0 1\n1 2\n2 3\n3 4\n")
        code, payload = run_json(capsys, schemas, "invariants", str(f))
        assert code == 0
        assert payload["wiener"] == 20
        assert payload["subtrees"] == "15"
        assert all(v == 0 for v in payload["relation_residuals"].values())

    def test_star_file(self, tmp_path, capsys, schemas):
        f = tmp_path / "s4.tree"
        f.write_text("4\n0 1\n0 2\n0 3\n")
        code, payload = run_json(capsys, schemas, "invariants", str(f))
        assert payload["subtrees"] == "11"

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "invariants", "/nonexistent.tree")
        assert code == 1


class TestVerifyAuditExplore:
    def test_verify(self, capsys, schemas):
        code, payload = run_json(capsys, schemas, "verify", "2,3,3,4,4,4,4")
        assert code == 0
        assert payload["unique_min_w"] and payload["unique_max_n"]

    def test_audit(self, capsys, schemas):
        code, payload = run_json(capsys, schemas, "audit", "--max-n", "8")
        assert code == 0
        deltas = {row["sequence"]: row["delta_W"] for row in payload["rows"]}
        assert deltas["2^1,3^2,4^4"] == 2

    def test_explore(self, capsys, schemas):
        code, payload = run_json(
            capsys, schemas, "explore", "--max-n", "7", "--lambda", "1"
        )
        assert code == 0
        assert all(r["construction_is_min"] for r in payload["rows"])

    def test_verify_budget_with_huge_multiplicity(self, capsys):
        code, _, err = run(capsys, "verify", "1^1,2^1000000000", "--max-n", "12")
        assert code == 1
        assert "exceeds enumeration budget 12" in err

    def test_byte_identical_runs(self, capsys):
        outputs = []
        for _ in range(2):
            code, out, _ = run(
                capsys, "verify", "3,4,4,5,5,5,6,6,6,6", "--format", "json"
            )
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1]

    def test_audit_text_summary(self, capsys):
        code, out, _ = run(capsys, "audit", "--max-n", "7")
        assert code == 0
        assert out.splitlines()[-1].endswith("with printed-formula mismatches")

    def test_explore_text_prints_counterexamples(self, capsys):
        code, out, _ = run(capsys, "explore", "--max-n", "7", "--lambda", "-1")
        assert code == 0
        lines = out.splitlines()
        losses = [i for i, line in enumerate(lines) if "NOT-min" in line]
        assert losses
        assert all(lines[i + 1].isdigit() for i in losses)  # a tree file follows
        assert lines[-1] == f"rows: 38, construction not minimal: {len(losses)}, ties: 0"


P5 = "5\n0 1\n1 2\n2 3\n3 4\n"

# one call of each command; json, argparse, fractions and decimal are
# imported by the code that runs it, not by importing the CLI
EACH_COMMAND = [
    ["validate", "2,3,3,4,4"],
    ["extremal", "2,3,3,4,4,4,4"],
    ["invariants", "p5.tree", "--lambda", "-1,2"],
    ["verify", "2,3,3,4,4,4,4"],
    ["audit", "--max-n", "7"],
    ["explore", "--max-n", "6", "--lambda", "1,2"],
]


class TestEachCommand:
    @pytest.mark.parametrize("argv", EACH_COMMAND, ids=lambda argv: argv[0])
    def test_text_and_json(self, capsys, schemas, tmp_path, monkeypatch, argv):
        (tmp_path / "p5.tree").write_text(P5)
        monkeypatch.chdir(tmp_path)
        code, payload = run_json(capsys, schemas, *argv)
        assert code == 0
        code, out, err = run(capsys, *argv)
        assert code == 0 and err == ""
        assert out.endswith("\n") and not out.startswith("{")
        if argv[0] in ("invariants", "verify"):  # one "key: value" line per field
            keys = [line.split(":")[0] for line in out.splitlines()]
            assert sorted(keys) == sorted(payload)


class TestVerifyEverySequence:
    """verify without a sequence: every sequence up to --max-n vertices."""

    def test_json_lines(self, capsys, schemas):
        code, out, _ = run(capsys, "verify", "--max-n", "9", "--format", "json")
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        for row in rows:
            jsonschema.validate(row, schemas["verify"])
        orders = range(3, 10)
        # F(n - 1) sequences and A000055(n) trees of each order n
        assert [sum(r["n"] == n for r in rows) for n in orders] == [
            1, 2, 3, 5, 8, 13, 21
        ]
        assert [
            sum(r["trees_examined"] for r in rows if r["n"] == n) for n in orders
        ] == [1, 2, 3, 6, 11, 23, 47]

    def test_text_table(self, capsys):
        code, out, _ = run(capsys, "verify", "--max-n", "7")
        assert code == 0
        assert out.splitlines()[0].split() == [
            "1^1,2^2", "trees=", "1", "minW=", "4", "maxN=", "6", "ok"
        ]
        assert out.endswith("\nfailures: 0\n")

    def test_a_failing_row_exits_2(self, capsys, monkeypatch):
        r = verify_extremal(parse_sequence("2,3,3,4,4,4,4"))
        fields = dict(zip(r._fields, r._values()), unique_min_w=False)
        monkeypatch.setattr(cli, "_verify_orders", lambda max_n: [[type(r)(**fields)]])
        code, out, _ = run(capsys, "verify")
        assert code == 2
        assert out.splitlines()[0].endswith(" FAIL")
        assert out.endswith("\nfailures: 1\n")

    def test_each_order_is_flushed_when_done(self, capsys, monkeypatch):
        """The rows of orders 3..7 reach the reader before order 8 fails."""

        class RecordingStdout(io.StringIO):
            def __init__(self):
                super().__init__()
                self.flushed = []

            def flush(self):
                self.flushed.append(self.getvalue())

        def orders_then_error(max_n):
            for n, reports in enumerate(_verify_orders(max_n), start=3):
                if n == 8:
                    raise RuntimeError("order 8")
                yield reports

        stdout = RecordingStdout()
        monkeypatch.setattr(sys, "stdout", stdout)
        monkeypatch.setattr(cli, "_verify_orders", orders_then_error)
        code, _, err = run(capsys, "verify", "--max-n", "9")
        assert (code, err) == (3, "internal error: RuntimeError: order 8\n")
        # one flush per order, each adding that order's F(n - 1) rows
        assert [len(text.splitlines()) for text in stdout.flushed] == [1, 3, 6, 11, 19]
        rows = stdout.flushed[-1].splitlines()
        assert [parse_sequence(row.split()[0]).n for row in rows] == (
            [3] + [4] * 2 + [5] * 3 + [6] * 5 + [7] * 8
        )
        assert stdout.getvalue() == stdout.flushed[-1]


class TestClosedStdout:
    """A reader that goes away (e.g. "| head") ends the run with exit 1 and
    no message; any other failed write exits 1 with one "error:" line."""

    @pytest.mark.parametrize(
        "exc, err",
        [
            (BrokenPipeError(errno.EPIPE, "Broken pipe"), ""),
            (
                OSError(errno.ENOSPC, "No space left on device"),
                "error: [Errno 28] No space left on device\n",
            ),
        ],
        ids=["broken_pipe", "enospc"],
    )
    def test_write_raises(self, capsys, monkeypatch, exc, err):
        class FailingStdout(io.StringIO):
            def write(self, text):
                raise exc

        monkeypatch.setattr(sys, "stdout", FailingStdout())
        assert run(capsys, "verify", "--max-n", "6") == (1, "", err)

    def test_no_descriptor_leaks(self, capsys, monkeypatch):
        """The devnull descriptor is closed once it is copied onto stdout,
        so the lowest free descriptor is the same before and after."""
        stdout_fd = os.dup(1)

        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def fileno(self):
                return stdout_fd

        def lowest_free_fd():
            fd = os.open(os.devnull, os.O_RDONLY)
            os.close(fd)
            return fd

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        try:
            before = lowest_free_fd()
            assert run(capsys, "verify", "1^1,2^2")[0] == 1
            assert lowest_free_fd() == before
        finally:
            os.close(stdout_fd)

    def test_closed_pipe(self):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "ecctrees.cli", "verify", "1^1,2^2"],
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
                env=dict(os.environ, PYTHONPATH=SRC),
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert proc.stderr == ""


class TestUsage:
    def test_unknown_command(self, capsys):
        assert run(capsys, "frobnicate")[0] == 1

    @pytest.mark.parametrize(
        "argv", [["frobnicate"], ["validate"], ["audit", "--seed", "1"]]
    )
    def test_parser_error_is_one_usage_line(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("usage error: ") and err.count("\n") == 1

    def test_bad_max_n(self, capsys):
        assert run(capsys, "audit", "--max-n", "2")[0] == 1

    def test_bad_lambda(self, capsys):
        for lam in ("0", "a"):
            assert run(capsys, "explore", "--max-n", "5", "--lambda", lam)[0] == 1

    @pytest.mark.parametrize("lam", ["nan", "inf", "-inf", "1,nan"])
    def test_non_finite_lambda(self, capsys, tmp_path, lam):
        f = tmp_path / "p5.tree"
        f.write_text("5\n0 1\n1 2\n2 3\n3 4\n")
        assert run(capsys, "invariants", str(f), f"--lambda={lam}")[0] == 1
        assert run(capsys, "explore", "--max-n", "5", f"--lambda={lam}")[0] == 1
        assert run(capsys, "invariants", str(f), "--lambda", lam)[0] == 1
        assert run(capsys, "explore", "--max-n", "5", "--lambda", lam)[0] == 1

    @pytest.mark.parametrize("command", ["invariants", "explore"])
    def test_negative_lambda_list_either_spelling(self, capsys, tmp_path, command):
        f = tmp_path / "p5.tree"
        f.write_text("5\n0 1\n1 2\n2 3\n3 4\n")
        target = [str(f)] if command == "invariants" else ["--max-n", "6"]
        apart = run(capsys, command, *target, "--lambda", "-1,2", "--format", "json")
        joined = run(capsys, command, *target, "--lambda=-1,2", "--format", "json")
        short = run(capsys, command, *target, "--lam", "-1,2", "--format", "json")
        assert apart == joined == short
        assert apart[0] == 0 and "-1.0" in apart[1]

    def test_lambda_overflow(self, capsys, tmp_path):
        f = tmp_path / "p5.tree"
        f.write_text("5\n0 1\n1 2\n2 3\n3 4\n")
        code, _, err = run(capsys, "invariants", str(f), "--lambda", "1e308")
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "--lambda 1e308" in err

    def test_lambda_sum_overflow(self, capsys, tmp_path):
        # each 2**1023 of the 4-star is finite, but their sum is not
        f = tmp_path / "s4.tree"
        f.write_text("4\n0 1\n0 2\n0 3\n")
        code, out, err = run(
            capsys, "invariants", str(f), "--lambda", "1023", "--format", "json"
        )
        assert code == 1 and out == ""
        assert err.startswith("error: --lambda 1023: ") and err.count("\n") == 1
        code, out, err = run(capsys, "explore", "--max-n", "4", "--lambda", "1023")
        assert code == 1 and out == ""
        assert err.startswith("error: --lambda 1023: ") and err.count("\n") == 1

    def test_unexpected_error_exits_3(self, capsys, monkeypatch):
        from ecctrees import cli

        def boom(args):
            raise RuntimeError("boom")

        monkeypatch.setitem(cli._COMMANDS, "validate", boom)
        code, out, err = run(capsys, "validate", "2,3,3,4,4")
        assert code == 3
        assert err == "internal error: RuntimeError: boom\n"

    def test_directory_as_tree_file(self, capsys, tmp_path):
        assert run(capsys, "invariants", str(tmp_path))[0] == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "2,3,3,4,4", "--jobs", "2"],
            ["audit", "--seed", "1"],
            ["validate", "2,3,3,4,4", "--max-n", "5"],
            ["extremal", "2,3,3,4,4", "--lambda", "2"],
            ["verify", "2,3,3,4,4", "--lambda", "2"],
            ["invariants", "p5.tree", "--max-n", "5"],
        ],
    )
    def test_flags_a_command_does_not_read(self, capsys, argv):
        assert run(capsys, *argv)[0] == 1
