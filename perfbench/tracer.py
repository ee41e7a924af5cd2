"""Spans and call counts recorded from outside the program.

The tracer wraps public functions of the ``dcsam`` package and rebinds every
module attribute that refers to them, so a caller that imported a name
(``dcsam.trainer.gen_episode``) is traced as well as the defining module
(``dcsam.episodes.gen_episode``). Spans (name, start, end, parent, operation)
are kept in memory and written out by the caller. A hooked name that no
longer exists is reported as absent instead of failing the run.
"""
from __future__ import annotations

import contextlib
import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

PACKAGE = "dcsam"


def _package_modules():
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


class Tracer:
    """Spans every (metric name, module, qualname) in ``layers`` and counts
    calls to every name in ``tensor_ops`` of the tensor module, while inside
    ``tracing``."""

    def __init__(self, layers, tensor_ops=(), bias_layer: str | None = None):
        self.layers, self.tensor_ops, self.bias_layer = layers, tensor_ops, bias_layer
        self.spans: list[list] = []      # [name, start, end, parent index, op id]
        self.op = None                   # id of the operation in progress
        self.op_calls: Counter = Counter()
        self.keep = [0, 0]               # cycle-bias positions kept, positions scored
        self.absent: set[str] = set()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, name: str, fn, on_return=None):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, perf_counter(), 0.0, stack[-1] if stack else -1, self.op])
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = perf_counter()
            if on_return is not None:
                on_return(out)
            return out

        return functools.update_wrapper(wrapper, fn)

    def _count(self, name: str, fn):
        counts = self.op_calls

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return functools.update_wrapper(wrapper, fn)

    def _count_bias(self, bias) -> None:
        # Works whether cycle_bias returns a CycleBias, a Tensor or an array.
        values = getattr(bias, "values", bias)
        values = np.asarray(getattr(values, "data", values))
        self.keep[0] += int((values == 0.0).sum())
        self.keep[1] += int(values.size)

    # -- patching ---------------------------------------------------------

    def _replace(self, module_name: str, qualname: str, make) -> bool:
        owner = sys.modules.get(f"{PACKAGE}.{module_name}")
        parts = qualname.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part, None)
        attr = parts[-1]
        if owner is None or not callable(getattr(owner, attr, None)):
            return False
        old = getattr(owner, attr)
        new = make(old)
        if len(parts) > 1:                       # method: patch the class only
            self._undo.append((owner, attr, old))
            setattr(owner, attr, new)
            return True
        for mod in _package_modules():           # function: every binding of it
            for key, value in list(vars(mod).items()):
                if value is old:
                    self._undo.append((mod, key, old))
                    setattr(mod, key, new)
        return True

    @contextlib.contextmanager
    def tracing(self, op):
        """Record spans and counts under operation id ``op`` inside the block."""
        try:
            for name, module_name, qualname in self.layers:
                on_return = self._count_bias if name == self.bias_layer else None
                if not self._replace(module_name, qualname,
                                     lambda fn, n=name, cb=on_return: self._span(n, fn, cb)):
                    self.absent.add(name)
            for op_name in self.tensor_ops:
                self._replace("tensor", op_name, lambda fn, n=op_name: self._count(n, fn))
            self.op = op
            yield self
        finally:
            self.op = None
            for owner, attr, old in reversed(self._undo):
                setattr(owner, attr, old)
            self._undo.clear()

    # -- aggregation ------------------------------------------------------

    def layer_totals(self) -> dict[str, tuple[int, float]]:
        """Per span name: (calls, self seconds).

        Self time is the span's duration minus the durations of its direct
        children; the program is single-threaded, so children never overlap.
        """
        child_time: defaultdict[int, float] = defaultdict(float)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls: Counter = Counter()
        self_s: defaultdict[str, float] = defaultdict(float)
        for idx, (name, start, end, _parent, _op) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - child_time[idx]
        return {name: (calls[name], self_s[name]) for name in calls}
