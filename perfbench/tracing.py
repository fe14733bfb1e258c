"""Span tracing for the traced benchmark run, from the benchmark's own code.

The program is not edited.  Each public function the layer table names
is wrapped where a ``repro.*`` module bound it; a method is wrapped on
its class.  Every call of a wrapped function records one span
``[name, start, end, parent, op]`` in memory: *parent* is the index of
the enclosing span (-1 at top level) and *op* is the benchmark op that
was open when the call started (``None`` outside ops).  Counts are
recorded at the same boundaries, keyed by op.

Wrapping never forces an import.  Target modules that are already
loaded are patched at once; the rest are patched right after their
first import, through a finder on ``sys.meta_path``.  This keeps a
traced job server importing exactly what an untraced one imports, so
its forked workers are not pre-warmed by the tracer.

This module imports only the standard library: the serve launcher
installs it before the program is imported.
"""

from __future__ import annotations

import importlib.abc
import json
import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Iterable

__all__ = ["Target", "Tracer", "install", "self_times"]

#: The fields of one span, in order.
SPAN_FIELDS = ("name", "start", "end", "parent", "op")


@dataclass(frozen=True)
class Target:
    """One public function or method to wrap.

    *attr* is ``"function"`` or ``"Class.method"`` inside *module*.
    *after* runs once the call returns, as ``after(tracer, args,
    kwargs, result)``, to record counts.  *factory*, when given,
    replaces the default span wrapper: ``factory(tracer, original)``
    returns the function to install.
    """

    module: str
    attr: str
    span: str
    after: Callable[..., None] | None = None
    factory: Callable[..., Callable] | None = None


class Tracer:
    """In-memory spans and per-op counts of one benchmark process."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.spans: list[list[Any]] = []
        self.counts: dict[Any, dict[str, float]] = defaultdict(
            lambda: defaultdict(float)
        )
        self.op: Any = None
        self._stack: list[int] = []
        self._memo_at_begin: tuple[int, int] | None = None
        self.last_sizes: dict[str, int] = {}

    # -- ops ------------------------------------------------------------

    def begin_op(self, op: Any) -> None:
        """Open *op*: spans and counts from now on belong to it."""
        self.op = op
        self._memo_at_begin = _memo_counts()

    def end_op(self) -> None:
        """Close the open op, booking its alignment-memo lookups."""
        after = _memo_counts()
        if self._memo_at_begin is not None and after is not None:
            hits = after[0] - self._memo_at_begin[0]
            misses = after[1] - self._memo_at_begin[1]
            self.count("alignment.memo_hits", hits)
            self.count("alignment.memo_lookups", hits + misses)
        self.op = None
        self._memo_at_begin = None

    def count(self, name: str, value: float = 1.0) -> None:
        self.counts[self.op][name] += value

    def parent_name(self) -> str | None:
        """Name of the innermost open span, if any."""
        return self.spans[self._stack[-1]][0] if self._stack else None

    # -- spans ----------------------------------------------------------

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict) -> Any:
        """Run ``fn(*args, **kwargs)`` inside a span called *name*."""
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def dump(self, path: str, ops: Iterable[Any] = ()) -> None:
        """Write spans, counts and the ids of *ops* as one JSON document.

        Op ids are written as strings, so they survive JSON as keys.
        """
        document = {
            "fields": SPAN_FIELDS,
            "spans": [[n, s, e, p, op_key(op)] for n, s, e, p, op in self.spans],
            "counts": {op_key(op): dict(values) for op, values in self.counts.items()
                       if op is not None},
            "ops": [op_key(op) for op in ops],
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)


def op_key(op: Any) -> str | None:
    return None if op is None else str(op)


def _memo_counts() -> tuple[int, int] | None:
    """Cumulative (hits, misses) of the alignment memo, if it is loaded."""
    memo = sys.modules.get("repro.alignment.memo")
    if memo is None:
        return None
    info = memo.align_memo_info()
    return int(info["hits"]), int(info["misses"])


def self_times(spans: list[list[Any]]) -> list[float]:
    """Self time of each span: its duration minus its children's.

    Children of one span never overlap (calls nest on one thread), so
    their summed durations are the part of the interval they cover.
    """
    child_total = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_total[parent] += end - start
    return [
        (end - start) - child_total[index]
        for index, (_, start, end, _, _) in enumerate(spans)
    ]


# -- installation -------------------------------------------------------


def _span_wrapper(tracer: Tracer, target: Target, original: Callable) -> Callable:
    name, after = target.span, target.after

    def traced(*args, **kwargs):
        result = tracer.call(name, original, args, kwargs)
        if after is not None:
            after(tracer, args, kwargs, result)
        return result

    traced.__name__ = getattr(original, "__name__", name)
    traced.__qualname__ = getattr(original, "__qualname__", name)
    traced.__doc__ = getattr(original, "__doc__", None)
    traced.__wrapped__ = original
    return traced


def _patch_module(tracer: Tracer, module: Any, targets: list[Target]) -> None:
    for target in targets:
        factory = target.factory or (
            lambda tr, orig, t=target: _span_wrapper(tr, t, orig)
        )
        if "." in target.attr:
            class_name, method = target.attr.split(".", 1)
            cls = getattr(module, class_name)
            setattr(cls, method, factory(tracer, cls.__dict__[method]))
            continue
        original = getattr(module, target.attr)
        wrapper = factory(tracer, original)
        setattr(module, target.attr, wrapper)
        # Rebind the name in every repro module that imported it.
        for name, loaded in list(sys.modules.items()):
            if loaded is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for attr, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, attr, wrapper)


class _PatchOnImport(importlib.abc.MetaPathFinder):
    """Patch a target module right after its first import executes it."""

    def __init__(self, tracer: Tracer, pending: dict[str, list[Target]]) -> None:
        self.tracer = tracer
        self.pending = pending

    def find_spec(self, fullname, path, target=None):
        if fullname not in self.pending:
            return None
        for finder in sys.meta_path:
            if finder is self or not hasattr(finder, "find_spec"):
                continue
            spec = finder.find_spec(fullname, path, target)
            if spec is not None:
                break
        else:
            return None
        loader = spec.loader
        execute = loader.exec_module
        targets = self.pending.pop(fullname)

        def exec_module(module, execute=execute, targets=targets):
            execute(module)
            _patch_module(self.tracer, module, targets)

        loader.exec_module = exec_module
        return spec


def install(tracer: Tracer, targets: list[Target]) -> None:
    """Wrap every target now, or on its module's first import."""
    pending: dict[str, list[Target]] = defaultdict(list)
    for target in targets:
        pending[target.module].append(target)
    for module_name in list(pending):
        module = sys.modules.get(module_name)
        if module is not None:
            _patch_module(tracer, module, pending.pop(module_name))
    if pending:
        sys.meta_path.insert(0, _PatchOnImport(tracer, dict(pending)))


# -- count hooks ----------------------------------------------------------


def file_size(path: Any) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0
