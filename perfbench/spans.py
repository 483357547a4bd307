"""Span recording around calls into the ecctrees layers.

The tracer wraps functions from the outside, at every name a caller looks
up: the defining module, each ``ecctrees`` module that imported the name,
and the class attribute for methods.  Each wrapped call records one span
(name, start, end, parent, operation).  Spans stay in compact arrays until
the pass ends; ``summary`` then derives calls, self time and item counts.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

# Layers are the package's modules.  In ``cli`` only ``main`` is wrapped, so
# that its self time is argument parsing plus JSON formatting.
LAYERS = ("tree", "sequence", "extremal", "invariants", "rewrite", "enumeration", "cli")
CLI_WRAPPED = ("main",)
# Functions whose list result is counted (span items).
COUNTED = ("enumeration.free_trees", "enumeration.trees_with_sequence")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.items = array("q")
        self.current_op = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        """Return fn wrapped so that every call records one span."""
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        counted = name in COUNTED
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.name)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.current_op)
            self.items.append(-1)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            if counted:
                self.items[idx] = len(result)
            return result

        return traced

    def install(self) -> None:
        """Wrap the public functions of every layer, plus ``Tree``
        construction and ``EccSequence.mult``, wherever they are bound."""
        modules = [m for k, m in list(sys.modules.items())
                   if k == "ecctrees" or k.startswith("ecctrees.")]
        for layer in LAYERS:
            mod = sys.modules[f"ecctrees.{layer}"]
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                if layer == "cli" and attr not in CLI_WRAPPED:
                    continue
                wrapped = self.wrap(f"{layer}.{attr}", fn)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is fn:
                            self._set(m, key, wrapped)
        tree_cls = sys.modules["ecctrees.tree"].Tree
        self._set(tree_cls, "__post_init__",
                  self.wrap("tree.Tree", tree_cls.__post_init__))
        seq_cls = sys.modules["ecctrees.sequence"].EccSequence
        self._set(seq_cls, "mult",
                  property(self.wrap("sequence.EccSequence.mult", seq_cls.mult.fget)))

    def _set(self, owner, key: str, value) -> None:
        self._restore.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def summary(self) -> dict:
        """Per span name: calls, self_s (duration minus child spans),
        total_s and items; plus the trees scanned by the sequence filter."""
        count = len(self.name)
        child = [0.0] * count
        for i in range(count):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        per = {n: {"calls": 0, "self_s": 0.0, "total_s": 0.0, "items": 0}
               for n in self.names}
        filter_id = self._ids.get("enumeration.trees_with_sequence", -2)
        scanned = 0
        for i in range(count):
            row = per[self.names[self.name[i]]]
            duration = self.end[i] - self.start[i]
            row["calls"] += 1
            row["total_s"] += duration
            row["self_s"] += duration - child[i]
            if self.items[i] >= 0:
                row["items"] += self.items[i]
                p = self.parent[i]
                if p >= 0 and self.name[p] == filter_id:
                    scanned += self.items[i]
        return {"functions": per, "filter_scanned": scanned, "spans": count}
