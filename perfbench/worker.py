"""One pass of one workload in a fresh interpreter.

Usage: python3 perfbench/worker.py WORKLOAD TRACE

Started by run.py in an empty directory of its own, which holds
``inputs.json`` and the workload's input files.  Imports ecctrees, builds the
in-memory inputs, then times the operations (with spans recorded when TRACE
is 1) and writes ``result.json``: wall time, peak RSS, the serialized output
of every operation and, when traced, the span summary.
"""

from __future__ import annotations

import json
import resource
import sys
import time

import ecctrees  # noqa: F401  imported before the timed region
import ecctrees.cli  # noqa: F401

import workloads
from spans import Tracer


def main(argv: list[str]) -> int:
    workload = workloads.WORKLOADS[argv[1]]
    tracer = Tracer() if argv[2] == "1" else None
    with open("inputs.json") as fh:
        state = workload.prepare(json.load(fh))
    results = []

    def op(label, call, to_json):
        if tracer:
            tracer.current_op = len(results)
        try:
            value = call()
        except Exception as exc:  # a failed operation is counted, not fatal
            results.append((label, None, to_json, f"{type(exc).__name__}: {exc}"))
            return None
        results.append((label, value, to_json, None))
        return value

    if tracer:
        tracer.install()
    start = time.perf_counter()
    workload.run(state, op)
    wall = time.perf_counter() - start
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer:
        tracer.uninstall()

    outputs = []
    for label, value, to_json, error in results:
        if error is None:
            try:
                outputs.append({"op": label, "ok": to_json(value)})
                continue
            except Exception as exc:  # a malformed result is a failed operation
                error = f"unserializable result: {type(exc).__name__}: {exc}"
        outputs.append({"op": label, "error": error})
    result = {
        "wall_s": wall,
        "peak_rss_mb": peak_kb / 1024,
        "outputs": outputs,
        "trace": tracer.summary() if tracer else None,
    }
    with open("result.json", "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
