"""ecctrees benchmark: one workload, end-to-end metrics or a per-layer trace.

Usage (from the repository root):
    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

With --trace 0 it measures set-up (the median of several fresh imports of
ecctrees and ecctrees.cli), then repeats timed passes of the workload, each
in a fresh worker process with an empty directory of its own as working
directory and HOME, while another pass should end within --seconds, and
reports medians.  With
--trace 1 it runs one untraced and one traced pass and reports per-layer
counts and self times.  Every output is checked outside the timed region.
The last line of stdout is a JSON object with the keys correct, attempted,
failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

from spans import LAYERS
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCHEMA = SRC / "ecctrees" / "schemas" / "cli_output.schema.json"
WORK = ROOT / ".bench_work"
WORKER = Path(__file__).resolve().parent / "worker.py"

SETUP_REPEATS = 7
PASS_TIMEOUT_S = 170
SETUP_CODE = (
    "import time\n"
    "start = time.perf_counter()\n"
    "import ecctrees, ecctrees.cli\n"
    "print(time.perf_counter() - start)\n"
)

# Per-layer metrics of the traced run.  "<span>.calls" and "<span>.self_s"
# read the span summary; the remaining names are computed in layer_metrics.
PER_LAYER = [
    "enumeration.free_trees.calls",
    "enumeration.free_trees.trees",
    "enumeration.free_trees.self_s",
    "enumeration.filter_yield",
    "enumeration.trees_with_sequence.self_s",
    "enumeration.verify_extremal.self_s",
    "enumeration.explore_conjecture.self_s",
    "enumeration.audit_formulas.self_s",
    "tree.Tree.calls",
    "tree.Tree.self_s",
    "tree.canonical_code.calls",
    "tree.canonical_code.self_s",
    "tree.eccentricities.calls",
    "tree.eccentricities.self_s",
    "tree.distances_from.calls",
    "tree.parse_tree.self_s",
    "tree.distance_matrix.calls",
    "sequence.eccentric_sequence.calls",
    "sequence.eccentric_sequence.self_s",
    "sequence.validate_tree_sequence.calls",
    "sequence.validate_tree_sequence.self_s",
    "sequence.EccSequence.mult.calls",
    "sequence.parse_sequence.self_s",
    "extremal.extremal_tree.calls",
    "extremal.extremal_tree.self_s",
    "extremal.min_wiener_derivation.self_s",
    "extremal.min_wiener_printed.self_s",
    "extremal.max_subtrees_printed_detail.self_s",
    "extremal.caterpillar_subtree_closed_form.self_s",
    "invariants.wiener_pairwise.calls",
    "invariants.wiener_pairwise.self_s",
    "invariants.subtree_count.self_s",
    "invariants.wiener.self_s",
    "invariants.invariant_report.self_s",
    "invariants.hyper_wiener.self_s",
    "invariants.wiener_lambda.self_s",
    "rewrite.caterpillarize.self_s",
    "rewrite.find_move.calls",
    "rewrite.apply_move.calls",
    "cli.main.self_s",
    "cli.output_bytes",
    *(f"{layer}.self_s" for layer in LAYERS),
    "trace.spans",
    "trace.overhead_s",
]


def metric_unit(name: str) -> tuple[str, str]:
    """(unit, better) of a per-layer metric, from its name."""
    if name.endswith("_s"):
        return "s", "lower"
    if name.endswith("filter_yield"):
        return "ratio", "higher"
    if name.endswith("_bytes"):
        return "bytes", "lower"
    return "count", "lower"


def isolated_env(tmp: Path) -> dict[str, str]:
    env = {
        "HOME": str(tmp),
        "XDG_CACHE_HOME": str(tmp / ".cache"),
        "PYTHONPATH": str(SRC),
        "PYTHONHASHSEED": "0",
        "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
    }
    if "LD_LIBRARY_PATH" in os.environ:
        env["LD_LIBRARY_PATH"] = os.environ["LD_LIBRARY_PATH"]
    return env


def fresh_dir() -> Path:
    WORK.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(dir=WORK))


def import_seconds() -> float:
    """Seconds a fresh interpreter takes to import ecctrees and its CLI."""
    tmp = fresh_dir()
    try:
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], cwd=tmp, env=isolated_env(tmp),
            capture_output=True, text=True, timeout=60, check=True,
        )
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return float(proc.stdout.strip())


def run_pass(name: str, inputs: dict, trace: bool) -> dict | None:
    """One pass in a fresh worker process; its result, or None if it died."""
    workload = WORKLOADS[name]
    tmp = fresh_dir()
    try:
        (tmp / "inputs.json").write_text(json.dumps(inputs))
        for fname, text in workload.files(inputs).items():
            (tmp / fname).write_text(text)
        try:
            proc = subprocess.run(
                [sys.executable, str(WORKER), name, "1" if trace else "0"],
                cwd=tmp, env=isolated_env(tmp), capture_output=True, text=True,
                timeout=PASS_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            print(f"{name}: pass timed out", file=sys.stderr)
            return None
        if proc.returncode != 0:
            print(f"{name}: worker exited {proc.returncode}\n{proc.stderr[-2000:]}",
                  file=sys.stderr)
            return None
        return json.loads((tmp / "result.json").read_text())
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def load_validators() -> dict:
    import jsonschema

    commands = json.loads(SCHEMA.read_text())["commands"]
    return {cmd: jsonschema.Draft202012Validator(s) for cmd, s in commands.items()}


def check_pass(name: str, inputs: dict, result: dict | None, validators) -> tuple[int, int]:
    """(attempted, failed) for one pass; failure reasons go to stderr."""
    workload = WORKLOADS[name]
    if result is None:
        n = workload.expected_ops(inputs)
        return n, n
    outputs = result["outputs"]
    failures = workload.check(inputs, outputs, validators)
    for i, reason in sorted(failures.items())[:5]:
        print(f"{name}: operation {i} ({outputs[i]['op']}) failed: {reason}", file=sys.stderr)
    attempted = max(len(outputs), workload.expected_ops(inputs))
    return attempted, len(failures) + attempted - len(outputs)


def output_bytes(result: dict) -> int:
    return sum(len(out["ok"]["stdout"].encode()) for out in result["outputs"]
               if out["op"].startswith("cli.") and "ok" in out)


def layer_metrics(plain: dict, traced: dict) -> dict[str, float]:
    summary = traced["trace"]
    functions = summary["functions"]

    def field(span: str, key: str):
        return functions.get(span, {}).get(key, 0)

    kept = field("enumeration.trees_with_sequence", "items")
    scanned = summary["filter_scanned"]
    special = {
        "enumeration.free_trees.trees": field("enumeration.free_trees", "items"),
        "enumeration.filter_yield": kept / scanned if scanned else 0.0,
        "cli.output_bytes": output_bytes(traced),
        "trace.spans": summary["spans"],
        "trace.overhead_s": traced["wall_s"] - plain["wall_s"],
    }
    for layer in LAYERS:
        special[f"{layer}.self_s"] = sum(
            row["self_s"] for span, row in functions.items() if span.startswith(layer + ".")
        )
    values = {}
    for name in PER_LAYER:
        if name in special:
            values[name] = special[name]
        else:
            span, key = name.rsplit(".", 1)
            values[name] = field(span, key)
    return values


def commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def describe(name: str, args, passes: int) -> str:
    try:
        nx_version = metadata.version("networkx")
    except metadata.PackageNotFoundError:
        nx_version = "absent"
    return (f"# perfbench workload={name} seed={args.seed} trace={args.trace} "
            f"passes={passes} commit={commit()} python={platform.python_version()} "
            f"networkx={nx_version} nproc={len(os.sched_getaffinity(0))}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "ecctrees" / "__init__.py").is_file() or not SCHEMA.is_file():
        print(f"error: no ecctrees sources under {SRC}", file=sys.stderr)
        return 2
    validators = load_validators()
    name = args.workload
    inputs = WORKLOADS[name].make_inputs(args.seed)

    attempted = failed = 0
    results = []

    def measured(trace: bool) -> dict | None:
        nonlocal attempted, failed
        result = run_pass(name, inputs, trace)
        a, f = check_pass(name, inputs, result, validators)
        attempted, failed = attempted + a, failed + f
        if result is not None:
            results.append(result)
        return result

    if args.trace:
        plain, traced = measured(False), measured(True)
        if plain is None or traced is None:
            print("error: a pass failed to complete", file=sys.stderr)
            return 1
        values = layer_metrics(plain, traced)
        units = {m: metric_unit(m)[0] for m in PER_LAYER}
    else:
        import_seconds()  # warm-up: compiles bytecode into the checkout
        setup = statistics.median(import_seconds() for _ in range(SETUP_REPEATS))
        # Start another pass only while it should end within --seconds.
        start = last = time.perf_counter()
        while True:
            measured(False)
            now = time.perf_counter()
            if now + (now - last) - start > args.seconds:
                break
            last = now
        if not results:
            print("error: no pass completed", file=sys.stderr)
            return 1
        values = {
            "setup_s": setup,
            "wall_s": statistics.median(r["wall_s"] for r in results),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
        }
        units = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

    print(describe(name, args, len(results)))
    if not args.trace:
        print("# wall_s per pass: " + " ".join(f"{r['wall_s']:.4f}" for r in results))
    for metric, value in values.items():
        print(f"{metric:48s} {value:14.6g} {units[metric]}")
    print(f"{'error_rate':48s} {failed / attempted:14.6g} 1  ({failed} of {attempted} operations)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    finally:
        try:
            WORK.rmdir()
        except OSError:
            pass
