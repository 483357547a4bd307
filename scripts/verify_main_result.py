#!/usr/bin/env python3
"""Exhaustively verify, for every eccentric sequence realized by a tree on at
most --max-n vertices, that the constructed caterpillar is the unique Wiener
minimiser and the unique subtree maximiser."""

import argparse
import sys

from ecctrees.enumeration import verify_all


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-n", type=int, default=12)
    args = ap.parse_args()

    failures = 0
    for r in verify_all(args.max_n):
        ok = (
            r.construction_is_min_w
            and r.unique_min_w
            and r.construction_is_max_n
            and r.unique_max_n
        )
        status = "ok" if ok else "FAIL"
        print(
            f"{r.sequence.compact_str():28} trees={r.trees_examined:4} "
            f"minW={r.min_wiener:6} maxN={r.max_subtrees:10} {status}"
        )
        failures += not ok
    print(f"\nfailures: {failures}")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
