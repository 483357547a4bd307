"""Self-tests of the benchmark: metric names, checkers, tracing.

Run from the repository root: python3 -m pytest perfbench
The checker tests run one real pass of every workload (about half a minute).
"""

from __future__ import annotations

import copy
import json
import re
import shutil
import subprocess
import sys

import pytest

import run
from checks import pruefer_edges
from spans import Tracer
from workloads import WORKLOADS

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SEED = 11


@pytest.fixture(scope="module", autouse=True)
def work_dir():
    yield
    try:
        run.WORK.rmdir()
    except OSError:
        pass


@pytest.fixture(scope="module")
def spec():
    return json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def validators():
    return run.load_validators()


@pytest.fixture(scope="module")
def passes():
    """One untraced pass of every workload: inputs and outputs."""
    out = {}
    for name, workload in WORKLOADS.items():
        inputs = workload.make_inputs(SEED)
        result = run.run_pass(name, inputs, trace=False)
        assert result is not None, f"{name} pass died"
        out[name] = (inputs, result["outputs"])
    return out


def failures(name, passes, validators, corrupt):
    inputs, outputs = passes[name]
    outputs = copy.deepcopy(outputs)
    corrupt(outputs)
    return WORKLOADS[name].check(inputs, outputs, validators)


def cli_payload(out):
    return json.loads(out["ok"]["stdout"])


def set_cli_payload(out, payload):
    out["ok"]["stdout"] = json.dumps(payload)


# --- BENCHMARK.json -----------------------------------------------------------

def test_metric_and_workload_names(spec):
    names = ([m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
             + [w["name"] for w in spec["workloads"]])
    assert all(NAME.fullmatch(n) for n in names)
    assert len(names) == len(set(names))


def test_spec_matches_runner(spec):
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == ["setup_s", "wall_s", "peak_rss_mb"]
    layer = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert layer == [(n, *run.metric_unit(n)) for n in run.PER_LAYER]


# --- checkers -----------------------------------------------------------------

def test_real_outputs_pass(passes, validators):
    for name, (inputs, outputs) in passes.items():
        assert WORKLOADS[name].check(inputs, outputs, validators) == {}, name


def test_sweep_flags_corruption(passes, validators):
    def flip_unique(outputs):
        outputs[5]["ok"]["unique_min_w"] = False

    def drop_report(outputs):
        del outputs[7]

    def lose_minimiser(outputs):
        outputs[-1]["ok"]["rows"][3]["minimizers"] = []

    def drop_sequence(outputs):
        outputs[0]["ok"].pop()

    def raise_in_verify(outputs):
        outputs[9] = {"op": "verify_extremal", "error": "ValueError: boom"}

    assert 5 in failures("sweep", passes, validators, flip_unique)
    assert failures("sweep", passes, validators, drop_report)
    assert len(passes["sweep"][1]) - 1 in failures("sweep", passes, validators, lose_minimiser)
    assert 0 in failures("sweep", passes, validators, drop_sequence)
    assert 9 in failures("sweep", passes, validators, raise_in_verify)


def test_single_flags_corruption(passes, validators):
    def wrong_count(outputs):
        payload = cli_payload(outputs[0])
        payload["trees_examined"] += 1
        set_cli_payload(outputs[0], payload)

    def exit_code(outputs):
        outputs[1]["ok"]["exit"] = 2

    def schema(outputs):
        payload = cli_payload(outputs[0])
        del payload["unique_max_n"]
        set_cli_payload(outputs[0], payload)

    def not_json(outputs):
        outputs[1]["ok"]["stdout"] = "NaN"

    assert 0 in failures("single", passes, validators, wrong_count)
    assert 1 in failures("single", passes, validators, exit_code)
    assert 0 in failures("single", passes, validators, schema)
    assert 1 in failures("single", passes, validators, not_json)


def test_audit_flags_corruption(passes, validators):
    target = passes["audit"][0]["discrepancy"]["sequence"]

    def edit(change):
        def corrupt(outputs):
            payload = cli_payload(outputs[0])
            change(payload)
            set_cli_payload(outputs[0], payload)
        return corrupt

    def drop_row(payload):
        payload["rows"] = [r for r in payload["rows"] if r["sequence"] != target]

    def fix_formula(payload):
        row = next(r for r in payload["rows"] if r["sequence"] == target)
        row["printed_W"] = row["oracle_W"]

    def hide_mismatch(payload):
        payload["mismatching_sequences"].remove(target)

    def oracle_disagrees(payload):
        payload["rows"][0]["derivation_W"] += 1

    for change in (drop_row, fix_formula, hide_mismatch, oracle_disagrees):
        assert 0 in failures("audit", passes, validators, edit(change)), change.__name__


def test_large_flags_corruption(passes, validators):
    inputs = passes["large"][0]

    def residual(outputs):
        payload = cli_payload(outputs[0])
        payload["relation_residuals"]["schultz"] = 1
        set_cli_payload(outputs[0], payload)

    def wrong_tree(outputs):
        payload = cli_payload(outputs[1])
        lines = payload["tree"].splitlines()
        u, v = lines[1].split()
        lines[1] = f"{u} {int(v) + 1}"
        payload["tree"] = "\n".join(lines) + "\n"
        set_cli_payload(outputs[1], payload)

    def invalid(outputs):
        payload = cli_payload(outputs[2])
        payload["valid"] = False
        set_cli_payload(outputs[2], payload)

    def not_caterpillar(outputs):
        n = inputs["caterpillarize_n"]
        edges = pruefer_edges(inputs["caterpillarize_pruefer"], n)
        outputs[3]["ok"] = {"n": n, "edges": [list(e) for e in edges]}

    assert 0 in failures("large", passes, validators, residual)
    assert 1 in failures("large", passes, validators, wrong_tree)
    assert 2 in failures("large", passes, validators, invalid)
    assert 3 in failures("large", passes, validators, not_caterpillar)


# --- tracing ------------------------------------------------------------------

def test_self_time_excludes_children():
    tracer = Tracer()
    inner = tracer.wrap("toy.inner", lambda: sum(range(1000)))
    outer = tracer.wrap("toy.outer", lambda: inner() + inner())
    outer()
    rows = tracer.summary()["functions"]
    assert rows["toy.outer"]["calls"] == 1 and rows["toy.inner"]["calls"] == 2
    assert rows["toy.outer"]["self_s"] + rows["toy.inner"]["total_s"] == \
        pytest.approx(rows["toy.outer"]["total_s"])


def test_traced_calls_repeat_exactly(validators):
    inputs = WORKLOADS["single"].make_inputs(SEED)
    counts = []
    for _ in range(2):
        result = run.run_pass("single", inputs, trace=True)
        assert WORKLOADS["single"].check(inputs, result["outputs"], validators) == {}
        counts.append({k: v["calls"] for k, v in result["trace"]["functions"].items()})
    assert counts[0] == counts[1]
    assert counts[0]["enumeration.free_trees"] == 2


def test_fails_without_sources():
    """Run from a copy that holds only the benchmark: no result, non-zero exit."""
    run.WORK.mkdir(exist_ok=True)
    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(run.ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "single", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout == ""
