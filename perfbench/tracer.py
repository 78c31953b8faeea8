"""Outside-in span tracer for the qtsim modules.

The tracer wraps named functions of the loaded ``qtsim`` modules without
touching their source.  ``from .x import y`` copies a function into every
importing module, so one function can be reachable under several module
attributes (``shor_encode`` in ``shor``, ``qsdc`` and ``sweeps``).  The tracer
therefore rebinds every attribute of every loaded ``qtsim`` module that *is*
the original function, and restores exactly those bindings on exit.

Each wrapped call records one span ``(name, start, end, parent, op)``.
``parent`` is the index of the enclosing traced span (-1 at top level), and
``op`` is shared by all spans below one call of an op-root function (a
session or a sweep).  Spans stay in memory until the run ends.  A layer's
self time is its span's duration minus the time its child spans cover.
"""
from __future__ import annotations

import functools
import gzip
import sys
import time
from collections import defaultdict

_MARK = "_perfbench_traced"


class Tracer:
    """Context manager that traces ``targets`` while it is active.

    ``targets`` are ``"<layer>.<function>"`` names, the layer being the
    module under ``qtsim``.  ``hooks`` maps a target to a function of
    ``(args, kwargs, result)`` that returns counter increments.  Calls of a
    target in ``op_roots`` open a new op id.
    """

    def __init__(self, targets, hooks=None, op_roots=()):
        self.targets = tuple(targets)
        self.hooks = dict(hooks or {})
        self.op_roots = frozenset(op_roots)
        self.spans: list = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._ops = 0
        self._saved: list[tuple] = []

    # -- installation -----------------------------------------------------

    def __enter__(self) -> "Tracer":
        wrappers = {}
        for target in self.targets:
            layer, fn_name = target.split(".")
            original = getattr(sys.modules[f"qtsim.{layer}"], fn_name)
            wrappers[id(original)] = (original, self._wrap(target, original))
        try:
            for module in _qtsim_modules():
                for attr, value in list(vars(module).items()):
                    entry = wrappers.get(id(value))
                    if entry is not None and value is entry[0]:
                        self._saved.append((module, attr, value))
                        setattr(module, attr, entry[1])
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._saved:
            module, attr, value = self._saved.pop()
            setattr(module, attr, value)

    def _wrap(self, name, func):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        hook = self.hooks.get(name)
        is_root = name in self.op_roots

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if is_root:
                self._ops += 1
                op = self._ops
            else:
                op = spans[parent][4] if parent >= 0 else 0
            index = len(spans)
            spans.append([name, 0.0, 0.0, parent, op])
            stack.append(index)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index][1] = start
                spans[index][2] = end
            if hook is not None:
                for key, value in hook(args, kwargs, result).items():
                    self.counts[key] += value
            return result

        setattr(wrapper, _MARK, True)
        return wrapper

    # -- results ----------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per target: number of calls, inclusive seconds and self seconds."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {t: {"calls": 0, "s": 0.0, "self_s": 0.0} for t in self.targets}
        for (name, start, end, _, _), covered in zip(self.spans, child):
            entry = out[name]
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - covered
        return out

    def write_spans(self, path) -> None:
        """Write the spans as gzipped TSV: name, start, end, parent, op."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("name\tstart_s\tend_s\tparent\top\n")
            for name, start, end, parent, op in self.spans:
                fh.write(f"{name}\t{start - t0:.9f}\t{end - t0:.9f}\t{parent}\t{op}\n")


def _qtsim_modules():
    return [
        module for name, module in list(sys.modules.items())
        if module is not None and (name == "qtsim" or name.startswith("qtsim."))
    ]


def leftover_wrappers() -> list[str]:
    """Attributes of loaded qtsim modules that are still tracer wrappers."""
    return [
        f"{module.__name__}.{attr}"
        for module in _qtsim_modules()
        for attr, value in vars(module).items()
        if getattr(value, _MARK, False)
    ]
