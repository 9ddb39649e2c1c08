"""Spans and counts around the public functions of each sfpas layer.

``Tracer.install`` replaces each named function (``layer.function``) by a
wrapper, in its own module and wherever another sfpas module imported it
by name.  While the tracer is active, every call records a span (name,
start, end, parent) in memory, and a few calls add to counters.  The
program's private helpers and its kernel lane are never wrapped, and a
name that no longer exists is reported missing instead of failing.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time

def _count_flow(counts, result):
    counts["quiver.flow_iterations"] += result.iterations
    verdict = getattr(result.verdict, "value", result.verdict)
    if verdict == "Unstable":
        counts["quiver.unstable_iterations"] += result.iterations
    elif verdict == "Borderline":
        counts["quiver.borderline_verdicts"] += 1


def _count_newton(counts, result):
    counts["vortex.newton_steps"] += result.newton_iterations


HOOKS = {"quiver.kempf_ness_flow": _count_flow, "vortex.solve_vortex": _count_newton}


class Tracer:
    def __init__(self, names):
        self.names = names
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = {}
        self.active = False
        self.missing = []
        self._local = threading.local()
        self._main_stack = []

    def reset(self):
        self.spans = []
        self.counts = {name: 0 for name in (
            "quiver.flow_iterations", "quiver.unstable_iterations",
            "quiver.borderline_verdicts", "vortex.newton_steps")}

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._main_stack if threading.current_thread() is threading.main_thread() else []
            self._local.stack = stack
        return stack

    def _wrap(self, name, fn):
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stack = self._stack()
            # a worker thread's first span hangs under the caller that is open in the main thread
            parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else -1)
            span = [name, time.perf_counter(), 0.0, parent]
            self.spans.append(span)
            stack.append(len(self.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if hook is not None:
                hook(self.counts, result)
            return result

        return wrapper

    def install(self):
        replaced = {}
        for dotted in self.names:
            layer, name = dotted.split(".")
            fn = getattr(importlib.import_module(f"sfpas.{layer}"), name, None)
            if not callable(fn):
                self.missing.append(dotted)
                continue
            replaced[id(fn)] = (fn, self._wrap(dotted, fn))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "sfpas" and not mod_name.startswith("sfpas."):
                continue
            for attr, value in list(vars(module).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
        self.reset()

    def totals(self):
        """name -> (calls, total ms, self ms); self time is the span minus
        the union of its children's intervals."""
        children = {}
        for i, (_, start, end, parent) in enumerate(self.spans):
            if parent >= 0:
                children.setdefault(parent, []).append((start, end))
        out = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            covered = 0.0
            reach = start
            for c_start, c_end in sorted(children.get(i, ())):
                c_start = max(c_start, reach)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            calls, total, self_ms = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, total + (end - start) * 1e3, self_ms + (end - start - covered) * 1e3)
        return out
