"""Command-line front end.

Exit codes: 0 success, 1 usage error or an input past a limit, 2
domain-negative result (invalid sequence, failed verification), 3 internal
assertion failure or any other unexpected error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .enumeration import (
    BudgetExceededError,
    audit_formulas,
    explore_conjecture,
    verify_extremal,
)
from .extremal import extremal_tree, max_subtrees_value, min_wiener_derivation
from .invariants import count_text, invariant_report, subtree_count, wiener
from .sequence import SequenceError, parse_sequence, validate_tree_sequence
from .tree import TreeError, parse_tree, tree_to_text

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_INTERNAL = 3

# extremal exits 1, before it builds anything, above this order
EXTREMAL_MAX_N = 2**20


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _parse_lambdas(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise UsageError(f"bad --lambda list {text!r}")
    if not values or any(v == 0 or not math.isfinite(v) for v in values):
        raise UsageError("--lambda needs a nonempty list of finite nonzero values")
    return values


def _attach_lambda_values(argv: list[str]) -> list[str]:
    """Spell "--lambda VALUE" as "--lambda=VALUE" when VALUE starts with a
    single "-", so that argparse reads a negative list such as -1,2 or -inf
    as the value and not as an unknown option.  Abbreviations of --lambda,
    which argparse accepts, are treated alike."""
    out: list[str] = []
    for arg in argv:
        flag = out[-1] if out else ""
        if (
            len(flag) > 2
            and "--lambda".startswith(flag)
            and arg[:1] == "-"
            and arg[:2] != "--"
        ):
            out[-1] = f"{flag}={arg}"
        else:
            out.append(arg)
    return out


def _lambda_overflow(text: str) -> OverflowError:
    return OverflowError(f"--lambda {text}: a lambda-Wiener index overflows a float")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ecctrees", description=__doc__)
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("text", "json"), default="text")
    max_n = argparse.ArgumentParser(add_help=False)
    max_n.add_argument("--max-n", type=int, default=12, metavar="K")
    lam = argparse.ArgumentParser(add_help=False)
    lam.add_argument("--lambda", dest="lambdas", default="1", metavar="a,b,c")
    sub = parser.add_subparsers(dest="command", required=True)

    seq_help = 'raw "2,3,3,4,4" or compact "2^1,3^2,4^2"; "-" reads it from stdin'
    p = sub.add_parser("validate", parents=[fmt], help="validate an eccentric sequence")
    p.add_argument("sequence", help=seq_help)
    p = sub.add_parser("extremal", parents=[fmt], help="build the extremal caterpillar")
    p.add_argument("sequence", help=seq_help)
    p = sub.add_parser("invariants", parents=[fmt, lam], help="invariant report for a tree file")
    p.add_argument("treefile")
    p = sub.add_parser("verify", parents=[fmt, max_n], help="exhaustively verify extremality")
    p.add_argument("sequence", help=seq_help)
    sub.add_parser("audit", parents=[fmt, max_n], help="audit printed formulas vs oracles")
    sub.add_parser(
        "explore", parents=[fmt, max_n, lam], help="explore the HW / lambda-Wiener conjecture"
    )
    return parser


def cmd_validate(args) -> int:
    s = parse_sequence(args.sequence)
    result = validate_tree_sequence(s)
    if args.format == "json":
        payload = {
            "sequence": s.compact_str(),
            "valid": result.valid,
            "reason": result.reason,
            "b1": s.b1,
            "mult": list(s.mult),
        }
        sys.stdout.write(_dump_json(payload))
    elif result.valid:
        print(f"{s.compact_str()}: valid tree eccentric sequence")
    else:
        print(f"{s.compact_str()}: invalid ({result.reason})")
    return EXIT_OK if result.valid else EXIT_DOMAIN


def cmd_extremal(args) -> int:
    s = parse_sequence(args.sequence)
    if not validate_tree_sequence(s):
        return cmd_validate(args)
    if s.n > EXTREMAL_MAX_N:
        raise BudgetExceededError(
            f"sequence order {s.n} exceeds the extremal order cap {EXTREMAL_MAX_N}"
        )
    t = extremal_tree(s)
    w = min_wiener_derivation(s)
    nsub = max_subtrees_value(s)
    if w != wiener(t) or nsub != subtree_count(t):
        print("internal error: closed form disagrees with oracle", file=sys.stderr)
        return EXIT_INTERNAL
    if args.format == "json":
        payload = {
            "sequence": s.compact_str(),
            "tree": tree_to_text(t),
            "wiener": w,
            "subtrees": count_text(nsub),
        }
        sys.stdout.write(_dump_json(payload))
    else:
        sys.stdout.write(tree_to_text(t))
        print(f"W={w}")
        print(f"N={count_text(nsub)}")
    return EXIT_OK


def cmd_invariants(args) -> int:
    text = Path(args.treefile).read_text()
    t = parse_tree(text)
    lambdas = _parse_lambdas(args.lambdas)
    try:
        report = invariant_report(t, lambdas)
    except OverflowError:
        raise _lambda_overflow(args.lambdas) from None
    payload = report.to_dict()
    if args.format == "json":
        sys.stdout.write(_dump_json(payload))
    else:
        for key, value in payload.items():
            print(f"{key}: {value}")
    if any(payload["relation_residuals"].values()):
        return EXIT_INTERNAL
    return EXIT_OK


def cmd_verify(args) -> int:
    s = parse_sequence(args.sequence)
    if not validate_tree_sequence(s):
        return cmd_validate(args)
    report = verify_extremal(s, max_n=args.max_n)
    payload = report.to_dict()
    if args.format == "json":
        sys.stdout.write(_dump_json(payload))
    else:
        for key, value in payload.items():
            print(f"{key}: {value}")
    ok = (
        report.construction_is_min_w
        and report.construction_is_max_n
        and report.unique_min_w
        and report.unique_max_n
    )
    return EXIT_OK if ok else EXIT_DOMAIN


def cmd_audit(args) -> int:
    report = audit_formulas(args.max_n)
    if args.format == "json":
        sys.stdout.write(_dump_json(report.to_dict()))
    else:
        header = (
            f"{'sequence':24} {'W':>5} {'W_print':>7} {'dW':>4} "
            f"{'N':>8} {'N_print':>10} {'dN':>8}"
        )
        print(header)
        print("-" * len(header))
        for r in report.rows:
            print(
                f"{r.sequence.compact_str():24} {r.oracle_w:>5} {r.printed_w:>7} "
                f"{r.delta_w:>4} {count_text(r.oracle_n):>8} {str(r.printed_n):>10} "
                f"{str(r.delta_n):>8}"
            )
        print(
            f"\n{len(report.rows)} sequences, "
            f"{len(report.mismatching_rows)} with printed-formula mismatches"
        )
    return EXIT_OK


def cmd_explore(args) -> int:
    lambdas = _parse_lambdas(args.lambdas)
    try:
        report = explore_conjecture(args.max_n, lambdas)
    except OverflowError:
        raise _lambda_overflow(args.lambdas) from None
    if args.format == "json":
        sys.stdout.write(_dump_json(report.to_dict()))
    else:
        losses = ties = 0
        for r in report.rows:
            status = "min" if r.construction_is_min else "NOT-min"
            unique = "unique" if r.unique_min else "tied"
            print(f"{r.sequence.compact_str()} {r.index}: construction {status} ({unique})")
            for tree_text in r.counterexamples:
                sys.stdout.write(tree_text)
            losses += not r.construction_is_min
            ties += r.construction_is_min and not r.unique_min
        print(
            f"rows: {len(report.rows)}, construction not minimal: {losses}, ties: {ties}"
        )
    return EXIT_OK


_COMMANDS = {
    "validate": cmd_validate,
    "extremal": cmd_extremal,
    "invariants": cmd_invariants,
    "verify": cmd_verify,
    "audit": cmd_audit,
    "explore": cmd_explore,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(
            _attach_lambda_values(sys.argv[1:] if argv is None else argv)
        )
        if getattr(args, "max_n", 3) < 3:
            raise UsageError("--max-n must be >= 3")
        # "-" takes the sequence from stdin, as one may be longer than an
        # argument can be (128 KiB on Linux)
        if getattr(args, "sequence", None) == "-":
            args.sequence = sys.stdin.read()
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (SequenceError, TreeError, OSError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (BudgetExceededError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except AssertionError as exc:
        print(f"internal assertion failed: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
