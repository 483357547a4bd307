"""Correctness checks on workload outputs, independent of ecctrees.

Every checker takes the workload inputs and the serialized outputs of one
pass (one entry per operation, ``{"ok": value}`` or ``{"error": text}``) and
returns ``{op_index: reason}`` for the operations that failed.  The tree
helpers below are the benchmark's own code, so a defect shared by the
program and its oracles still shows here.
"""

from __future__ import annotations

import json
from collections import deque

# A000055: free trees on n vertices.
FREE_TREES = {3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47, 10: 106, 11: 235, 12: 551}
VERIFY_FLAGS = ("construction_is_min_w", "unique_min_w", "construction_is_max_n", "unique_max_n")


def fibonacci(k: int) -> int:
    a, b = 0, 1
    for _ in range(k):
        a, b = b, a + b
    return a


def compositions(total: int, parts: int, minimum: int):
    if parts == 1:
        if total >= minimum:
            yield (total,)
        return
    for first in range(minimum, total - minimum * (parts - 1) + 1):
        for rest in compositions(total - first, parts - 1, minimum):
            yield (first,) + rest


def compact(b1: int, mult) -> str:
    return ",".join(f"{b1 + j}^{m}" for j, m in enumerate(mult))


def expected_sequences(max_n: int) -> dict[int, set[str]]:
    """Tree eccentric sequences by order, from the characterisation: m_1 = 1
    and diameter 2*b1, or m_1 = 2 and diameter 2*b1 - 1; every later value
    at least twice."""
    out: dict[int, set[str]] = {}
    for n in range(3, max_n + 1):
        seqs = out.setdefault(n, set())
        for b1 in range(1, n):
            for m1, distinct in ((1, b1 + 1), (2, b1)):
                if distinct < 2:
                    continue
                for rest in compositions(n - m1, distinct - 1, 2):
                    seqs.add(compact(b1, (m1,) + rest))
    return out


# --- trees: vertex count plus edge list --------------------------------------

def pruefer_edges(seq: list[int], n: int) -> list[tuple[int, int]]:
    """Edges of the labelled tree with Pruefer sequence seq (n >= 3)."""
    import heapq

    degree = [1] * n
    for v in seq:
        degree[v] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for v in seq:
        edges.append((heapq.heappop(leaves), v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return edges


def tree_text(n: int, edges) -> str:
    return "\n".join([str(n)] + [f"{u} {v}" for u, v in edges]) + "\n"


def parse_tree_text(text: str) -> tuple[int, list[tuple[int, int]]]:
    rows = [line.split() for line in text.splitlines() if line.strip()]
    n = int(rows[0][0])
    return n, [(int(u), int(v)) for u, v in rows[1:]]


def adjacency(n: int, edges) -> list[list[int]]:
    if len(edges) != n - 1:
        raise ValueError(f"{len(edges)} edges for {n} vertices")
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def bfs(adj, source: int) -> tuple[list[int], list[int]]:
    """Distances from source and the BFS order; raises if disconnected."""
    dist = [-1] * len(adj)
    dist[source] = 0
    order = [source]
    queue = deque(order)
    while queue:
        x = queue.popleft()
        for y in adj[x]:
            if dist[y] < 0:
                dist[y] = dist[x] + 1
                order.append(y)
                queue.append(y)
    if len(order) != len(adj):
        raise ValueError("not connected")
    return dist, order


def ecc_compact(adj) -> str:
    """Eccentric sequence in compact form, from the two ends of a diameter."""
    d0, _ = bfs(adj, 0)
    du, _ = bfs(adj, d0.index(max(d0)))
    dv, _ = bfs(adj, du.index(max(du)))
    ecc = [max(a, b) for a, b in zip(du, dv)]
    b1 = min(ecc)
    mult = [0] * (max(ecc) - b1 + 1)
    for e in ecc:
        mult[e - b1] += 1
    return compact(b1, mult)


def wiener(adj) -> int:
    """Wiener index by edge contributions s * (n - s)."""
    n = len(adj)
    dist, order = bfs(adj, 0)
    size = [1] * n
    total = 0
    for v in reversed(order[1:]):
        parent = next(w for w in adj[v] if dist[w] == dist[v] - 1)
        size[parent] += size[v]
        total += size[v] * (n - size[v])
    return total


def is_caterpillar(adj) -> bool:
    """Removing the leaves leaves a path (possibly empty)."""
    core = [v for v in range(len(adj)) if len(adj[v]) > 1]
    core_set = set(core)
    return all(sum(w in core_set for w in adj[v]) <= 2 for v in core)


# --- per-workload checkers ---------------------------------------------------

def _cli_payload(out: dict, validator, failures: dict, i: int):
    """The JSON payload of a CLI operation that exited 0, or None."""
    if "error" in out:
        failures[i] = f"exception: {out['error']}"
        return None
    res = out["ok"]
    if res["exit"] != 0:
        failures[i] = f"exit code {res['exit']}: {res['stderr'].strip()}"
        return None
    try:
        payload = json.loads(res["stdout"])
    except ValueError as exc:
        failures[i] = f"invalid JSON: {exc}"
        return None
    error = next(validator.iter_errors(payload), None)
    if error is not None:
        failures[i] = f"schema: {error.message}"
        return None
    return payload


def check_sweep(inputs: dict, outputs: list, validators: dict) -> dict[int, str]:
    failures: dict[int, str] = {}
    max_n = inputs["max_n"]
    expected = expected_sequences(max_n)
    all_expected = set().union(*expected.values())
    for n, seqs in expected.items():
        if len(seqs) != fibonacci(n - 1):
            raise AssertionError(f"benchmark enumeration wrong at n={n}")
    n_ops = len(outputs)
    if n_ops == 0 or "error" in outputs[0]:
        return {0: "valid_sequences failed", **{i: "no input" for i in range(1, n_ops)}}
    listed = outputs[0]["ok"]
    if sorted(listed) != sorted(all_expected):
        failures[0] = (f"valid_sequences gave {len(listed)} sequences "
                       f"({len(set(listed))} distinct), expected {len(all_expected)}")
    verify = range(1, n_ops - 1)
    trees_by_order: dict[int, int] = {}
    ops_by_order: dict[int, list[int]] = {}
    seen = set()
    for i in verify:
        out = outputs[i]
        if "error" in out:
            failures[i] = f"exception: {out['error']}"
            continue
        rep = out["ok"]
        bad = [flag for flag in VERIFY_FLAGS if rep.get(flag) is not True]
        if bad:
            failures[i] = f"{rep['sequence']}: {', '.join(bad)} not true"
        if rep["sequence"] in seen or rep["sequence"] not in all_expected:
            failures[i] = f"{rep['sequence']}: unexpected or repeated sequence"
        seen.add(rep["sequence"])
        n = rep["n"]
        trees_by_order[n] = trees_by_order.get(n, 0) + rep["trees_examined"]
        ops_by_order.setdefault(n, []).append(i)
    for n, ops in ops_by_order.items():
        if trees_by_order[n] != FREE_TREES.get(n):
            for i in ops:
                failures.setdefault(
                    i, f"order {n}: {trees_by_order[n]} trees examined, "
                       f"expected {FREE_TREES.get(n)}")
    last = n_ops - 1
    out = outputs[last]
    if "error" in out:
        failures[last] = f"exception: {out['error']}"
    else:
        rows = out["ok"]["rows"]
        indices = ["HW"] + [f"lambda={lam:g}" for lam in inputs["lambdas"]]
        by_seq: dict[str, list[str]] = {}
        for row in rows:
            by_seq.setdefault(row["sequence"], []).append(row["index"])
            if not row["minimizers"]:
                failures[last] = f"{row['sequence']} {row['index']}: no minimiser"
        if set(by_seq) != all_expected:
            failures[last] = f"explore covers {len(by_seq)} sequences, expected {len(all_expected)}"
        elif any(v != indices for v in by_seq.values()):
            failures[last] = "explore rows per sequence differ from HW + lambdas"
        elif len(rows) != len(indices) * len(all_expected):
            failures[last] = f"explore gave {len(rows)} rows"
    return failures


def check_single(inputs: dict, outputs: list, validators: dict) -> dict[int, str]:
    failures: dict[int, str] = {}
    for i, (out, (seq, trees)) in enumerate(zip(outputs, inputs["cases"])):
        payload = _cli_payload(out, validators["verify"], failures, i)
        if payload is None:
            continue
        if payload["sequence"] != seq:
            failures[i] = f"answered for {payload['sequence']}, asked {seq}"
        elif payload["trees_examined"] != trees:
            failures[i] = f"{seq}: {payload['trees_examined']} trees examined, expected {trees}"
        elif not all(payload[flag] for flag in VERIFY_FLAGS):
            failures[i] = f"{seq}: extremality flags not all true"
    return failures


def check_audit(inputs: dict, outputs: list, validators: dict) -> dict[int, str]:
    failures: dict[int, str] = {}
    payload = _cli_payload(outputs[0], validators["audit"], failures, 0)
    if payload is None:
        return failures
    rows = payload["rows"]
    expected = set().union(*expected_sequences(inputs["max_n"]).values())
    by_seq = {row["sequence"]: row for row in rows}
    want = inputs["discrepancy"]
    row = by_seq.get(want["sequence"])
    if len(rows) != len(expected) or set(by_seq) != expected:
        failures[0] = f"{len(rows)} rows, expected {len(expected)}"
    elif any(r["derivation_W"] != r["oracle_W"] or r["decomposition_N"] != r["oracle_N"]
             or not r["delta_W_identity_ok"] for r in rows):
        failures[0] = "a derivation formula disagrees with its oracle"
    elif row is None or any(str(row[k]) != str(v) for k, v in want.items()):
        failures[0] = f"discrepancy row {want['sequence']} changed: {row}"
    elif want["sequence"] not in payload["mismatching_sequences"]:
        failures[0] = f"{want['sequence']} missing from mismatching_sequences"
    return failures


def check_large(inputs: dict, outputs: list, validators: dict) -> dict[int, str]:
    failures: dict[int, str] = {}
    # 0: invariants of the Pruefer tree
    inv_adj = adjacency(inputs["invariants_n"],
                        pruefer_edges(inputs["invariants_pruefer"], inputs["invariants_n"]))
    payload = _cli_payload(outputs[0], validators["invariants"], failures, 0)
    if payload is not None:
        if any(payload["relation_residuals"].values()):
            failures[0] = f"nonzero residuals {payload['relation_residuals']}"
        elif payload["n"] != len(inv_adj) or payload["wiener"] != wiener(inv_adj):
            failures[0] = "invariants: n or W differs from the input tree"
        elif set(payload["wiener_lambda"]) != {str(float(lam)) for lam in inputs["lambdas"]}:
            failures[0] = f"lambda keys {sorted(payload['wiener_lambda'])}"
    # 1: extremal tree of a long sequence
    payload = _cli_payload(outputs[1], validators["extremal"], failures, 1)
    if payload is not None:
        adj = adjacency(*parse_tree_text(payload["tree"]))
        if payload["sequence"] != inputs["extremal"]:
            failures[1] = f"answered for {payload['sequence']}"
        elif ecc_compact(adj) != inputs["extremal"]:
            failures[1] = "extremal tree does not realise the sequence"
        elif not is_caterpillar(adj) or payload["wiener"] != wiener(adj):
            failures[1] = "extremal tree is not a caterpillar with the reported W"
    # 2: validate a sequence with a huge multiplicity
    payload = _cli_payload(outputs[2], validators["validate"], failures, 2)
    if payload is not None:
        b1, mult = inputs["validate"]
        if (payload["valid"] is not True or payload["b1"] != b1
                or payload["mult"] != mult or payload["sequence"] != compact(b1, mult)):
            failures[2] = f"validate answered {dict(payload, mult='...')}"
    # 3: caterpillarize a random tree
    out = outputs[3]
    if "error" in out:
        failures[3] = f"exception: {out['error']}"
    else:
        n = inputs["caterpillarize_n"]
        src = adjacency(n, pruefer_edges(inputs["caterpillarize_pruefer"], n))
        res = out["ok"]
        try:
            adj = adjacency(res["n"], [tuple(e) for e in res["edges"]])
            ok = (is_caterpillar(adj) and ecc_compact(adj) == ecc_compact(src)
                  and wiener(adj) <= wiener(src))
        except ValueError as exc:
            ok = False
            failures[3] = f"caterpillarize output is not a tree: {exc}"
        if not ok:
            failures.setdefault(3, "caterpillarize output is not a caterpillar "
                                   "with the input's sequence and no larger W")
    return failures
