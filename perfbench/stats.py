"""Order statistics and the per-layer aggregation of a traced run."""

from __future__ import annotations

import math
import statistics
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Iterable, Mapping, Sequence

from perfbench.tracing import self_times

__all__ = ["Percentile", "percentile", "median", "layer_metrics"]

#: A tail percentile is reported only with this many samples beyond it.
MIN_BEYOND = 10


@dataclass(frozen=True)
class Percentile:
    """A nearest-rank percentile with the samples it rests on."""

    q: float
    value: float
    n: int
    beyond: int


def percentile(values: Sequence[float], q: float) -> Percentile:
    """Nearest-rank *q*-th percentile of *values*.

    Raises :class:`ValueError` unless at least ``MIN_BEYOND`` samples
    lie above the rank it picks, so a tail figure is never read off a
    handful of samples.  For ``q=90`` that takes 100 samples.
    """
    n = len(values)
    if n == 0:
        raise ValueError("no samples")
    rank = max(1, math.ceil(q / 100.0 * n))
    beyond = n - rank
    if beyond < MIN_BEYOND:
        raise ValueError(
            f"p{q:g} of {n} samples has {beyond} beyond it; "
            f"need at least {MIN_BEYOND}"
        )
    return Percentile(q=q, value=sorted(values)[rank - 1], n=n, beyond=beyond)


def median(values: Iterable[float]) -> float:
    return float(statistics.median(list(values)))


def layer_metrics(
    spans: Sequence[Sequence[Any]],
    counts: Mapping[Any, Mapping[str, float]],
    ops: Sequence[Any],
    layers: Iterable[Any],
) -> dict[str, float]:
    """Every ``self``/``count``/``ratio`` layer metric over *ops*.

    *spans* are ``[name, start, end, parent, op]`` records, *counts*
    maps op -> count name -> value.  Spans and counts of anything not in
    *ops* are outside the timed ops and only used by the ``self``
    fallback described in :mod:`perfbench.layers`.
    """
    in_ops = set(ops)
    per_op: dict[str, dict[Any, float]] = defaultdict(lambda: defaultdict(float))
    outside: dict[str, list[float]] = defaultdict(list)
    for span, own in zip(spans, self_times(spans)):
        name, op = span[0], span[4]
        if op in in_ops:
            per_op[name][op] += own
        else:
            outside[name].append(own)

    out: dict[str, float] = {}
    for layer in layers:
        if layer.kind == "self":
            if any(per_op[name] for name in layer.source):
                value = median(
                    sum(per_op[name].get(op, 0.0) for name in layer.source)
                    for op in ops
                )
            else:
                calls = [t for name in layer.source for t in outside[name]]
                value = median(calls) if calls else 0.0
            out[layer.name] = value * 1000.0
        elif layer.kind == "count":
            (name,) = layer.source
            value = median(counts.get(op, {}).get(name, 0.0) for op in ops)
            out[layer.name] = value * layer.scale
        elif layer.kind == "ratio":
            num, base = layer.source
            total = sum(counts.get(op, {}).get(base, 0.0) for op in ops)
            part = sum(counts.get(op, {}).get(num, 0.0) for op in ops)
            out[layer.name] = part / total if total else 0.0
    return out
