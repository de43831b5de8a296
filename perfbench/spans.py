"""Per-layer tracing from outside the package.

Each module of the package is one layer.  ``Tracer.install`` replaces every
public function of every layer with a timing wrapper, in every package module
that holds the same function object: the modules import each other's
functions with ``from .x import y``, so patching only the defining module
would let cross-module calls escape the trace.  Calls inside a module go
through its globals and are caught too.  Private helpers are not wrapped;
their time is self time of the public function that called them.

A stack of child-time accumulators gives each call's self time (its duration
minus the time its traced callees took).  Spans are kept in memory, up to a
limit, and written out by ``write_spans`` when the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from array import array

PACKAGE = "entropic_uncertainty"
LAYERS = ("cli", "sweep", "applications", "bounds", "measures", "channels", "linalg", "states")
# Calls made inside this function are also counted separately (per-solve work).
SCOPE = "applications.witness_threshold"
SPAN_LIMIT = 100_000


class Tracer:
    """Call counts and self times of the package's public functions."""

    def __init__(self):
        self.names: list[str] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        # calls made while the SCOPE function is on the stack
        self.scoped_calls: list[int] = []
        self.job = -1
        self.dropped_spans = 0
        self._scope_depth = [0]
        self._stack: list[float] = []
        self._ids: list[int] = []
        self._next_id = [0]
        self._span_name = array("l")
        self._span_job = array("l")
        self._span_id = array("l")
        self._span_parent = array("l")
        self._span_start = array("d")
        self._span_end = array("d")
        self._wrappers: dict[types.FunctionType, types.FunctionType] = {}
        self._patched: list[tuple[types.ModuleType, str, types.FunctionType]] = []
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for name, obj in sorted(vars(module).items()):
                if (isinstance(obj, types.FunctionType) and not name.startswith("_")
                        and obj.__module__ == module.__name__):
                    self._wrappers[obj] = self._wrap(len(self.names), obj,
                                                     f"{layer}.{name}" == SCOPE)
                    self.names.append(f"{layer}.{name}")
                    self.calls.append(0)
                    self.self_s.append(0.0)
                    self.scoped_calls.append(0)

    def _wrap(self, idx: int, fn: types.FunctionType, is_scope: bool):
        clock = time.perf_counter
        calls, self_s, scoped = self.calls, self.self_s, self.scoped_calls
        stack, ids, next_id, depth = self._stack, self._ids, self._next_id, self._scope_depth
        span_name, span_job, span_id = self._span_name, self._span_job, self._span_id
        span_parent, span_start, span_end = self._span_parent, self._span_start, self._span_end
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next_id[0]
            next_id[0] = sid + 1
            parent = ids[-1] if ids else -1
            ids.append(sid)
            if depth[0]:
                scoped[idx] += 1
            if is_scope:
                depth[0] += 1
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                duration = end - start
                self_s[idx] += duration - stack.pop()
                if stack:
                    stack[-1] += duration
                calls[idx] += 1
                if is_scope:
                    depth[0] -= 1
                ids.pop()
                if len(span_id) < SPAN_LIMIT:
                    span_name.append(idx)
                    span_job.append(tracer.job)
                    span_id.append(sid)
                    span_parent.append(parent)
                    span_start.append(start)
                    span_end.append(end)
                else:
                    tracer.dropped_spans += 1

        return traced

    def install(self) -> None:
        if self._patched:
            return
        for mod_name, module in list(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                if isinstance(value, types.FunctionType) and value in self._wrappers:
                    setattr(module, attr, self._wrappers[value])
                    self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, original in self._patched:
            setattr(module, attr, original)
        self._patched.clear()

    def totals(self) -> dict[str, tuple[int, float, int]]:
        """(calls, self seconds, calls under the scope function) by name."""
        return {
            name: (self.calls[i], self.self_s[i], self.scoped_calls[i])
            for i, name in enumerate(self.names)
        }

    def layer_self_s(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for name, s in zip(self.names, self.self_s):
            out[name.split(".", 1)[0]] += s
        return out

    def write_spans(self, path) -> int:
        """Write kept spans as CSV (times in microseconds from the first span)."""
        t0 = min(self._span_start, default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,parent,job,function,start_us,end_us\n")
            for i in range(len(self._span_id)):
                fh.write(
                    f"{self._span_id[i]},{self._span_parent[i]},{self._span_job[i]},"
                    f"{self.names[self._span_name[i]]},"
                    f"{(self._span_start[i] - t0) * 1e6:.1f},{(self._span_end[i] - t0) * 1e6:.1f}\n"
                )
        return len(self._span_id)
