"""Spans around calls into episcope's public functions, installed from outside.

The tracer replaces a public function with a timing wrapper in every episcope
module namespace that holds it, so callers that go through a module attribute
(``cli`` calls ``planner.*``, ``ep.*``, ``montecarlo.*`` and ``featureio.*``
that way) are traced without editing the program. Spans live in flat arrays
until the run ends.

Two kinds of wrapper exist. A span wrapper records name, start, end, parent
span, operation id, a work count taken from the call, and whether it raised.
A leaf wrapper is for functions called hundreds of thousands of times per
operation (the planner's per-Kq solve, the per-replication rekey): it only
adds to a call count and a time total, and charges its time to the enclosing
span so that span's self time excludes it.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from typing import Any, Callable

WorkFn = Callable[[tuple, dict, Any], int]

SPAN = "span"
LEAF = "leaf"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.work = array("q")
        self.err = array("b")
        self.leaf_ns = array("q")
        self.op_id = -1
        self._stack: list[int] = []
        # leaf name -> [calls, ns, errors], running totals
        self._leaf_totals: dict[str, list[int]] = {}
        self._leaf_at_op_start: dict[str, tuple[int, int, int]] = {}
        # (leaf name, op id) -> (calls, ns, errors)
        self.leaf_by_op: dict[tuple[str, int], tuple[int, int, int]] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- operations -----------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        self._leaf_at_op_start = {k: tuple(v) for k, v in self._leaf_totals.items()}

    def end_op(self) -> None:
        for name, totals in self._leaf_totals.items():
            before = self._leaf_at_op_start.get(name, (0, 0, 0))
            delta = tuple(t - b for t, b in zip(totals, before))
            if delta[0]:
                self.leaf_by_op[(name, self.op_id)] = delta
        self.op_id = -1

    # -- wrappers -------------------------------------------------------

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def _span(self, fn: Callable, name: str, work_fn: WorkFn | None) -> Callable:
        nid = self._name_id(name)
        stack, clock = self._stack, time.perf_counter_ns
        names, starts, ends, parents = self.name, self.start, self.end, self.parent
        ops, works, errs, leaf_ns = self.op, self.work, self.err, self.leaf_ns

        def wrapper(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op_id)
            works.append(0)
            errs.append(0)
            leaf_ns.append(0)
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                ends[i] = clock()
                errs[i] = 1
                stack.pop()
                raise
            ends[i] = clock()
            stack.pop()
            if work_fn is not None:
                works[i] = int(work_fn(args, kwargs, result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _leaf(self, fn: Callable, name: str) -> Callable:
        totals = self._leaf_totals.setdefault(name, [0, 0, 0])
        stack, clock, leaf_ns = self._stack, time.perf_counter_ns, self.leaf_ns

        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                totals[2] += 1
                raise
            finally:
                dt = clock() - t0
                totals[0] += 1
                totals[1] += dt
                if stack:
                    leaf_ns[stack[-1]] += dt

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ---------------------------------------------------

    def install(self, targets: list[tuple[str, str, str, WorkFn | None]]) -> None:
        """Wrap each (module, attribute, kind, work_fn) target.

        ``attribute`` may be ``Class.method`` for a classmethod. A plain
        function is replaced in every loaded episcope module that binds it.
        """
        modules = [m for n, m in sys.modules.items() if n == "episcope" or n.startswith("episcope.")]
        for module_name, attr, kind, work_fn in targets:
            module = sys.modules[module_name]
            name = f"{module_name.rsplit('.', 1)[-1]}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                func = original.__func__
                wrapped = self._span(func, name, work_fn) if kind == SPAN else self._leaf(func, name)
                self._patches.append((cls, meth, original))
                setattr(cls, meth, classmethod(wrapped))
                continue
            original = getattr(module, attr)
            wrapped = self._span(original, name, work_fn) if kind == SPAN else self._leaf(original, name)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    # -- reduction ------------------------------------------------------

    def spans(self) -> list[dict]:
        """Every span with its duration and self time, in nanoseconds."""
        child_ns = [0] * len(self.start)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child_ns[p] += self.end[i] - self.start[i]
        out = []
        for i in range(len(self.start)):
            dur = self.end[i] - self.start[i]
            out.append(
                {
                    "name": self.names[self.name[i]],
                    "op": self.op[i],
                    "parent": self.parent[i],
                    "start_ns": self.start[i],
                    "end_ns": self.end[i],
                    "dur_ns": dur,
                    "self_ns": dur - child_ns[i] - self.leaf_ns[i],
                    "work": self.work[i],
                    "error": bool(self.err[i]),
                }
            )
        return out

    def dump(self, path, op_labels: list[str]) -> None:
        """Write spans, leaf totals and operation labels as one JSON file."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "ops": op_labels,
                    "spans": self.spans(),
                    "leaves": [
                        {"name": n, "op": op, "calls": c, "ns": ns, "errors": e}
                        for (n, op), (c, ns, e) in self.leaf_by_op.items()
                    ],
                },
                fh,
            )
