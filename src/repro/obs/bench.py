"""Benchmark result files and perf-regression comparison.

The benchmark suite (``benchmarks/``) records every bench's wall-time
and the process RSS high-water mark into a schema-versioned
``BENCH_RESULTS.json`` (see :func:`bench_results_payload`, written by
``benchmarks/conftest.py``).  ``repro-track bench-compare OLD NEW``
loads two such files and flags regressions beyond a noise threshold —
CI keeps the artefacts so any two commits can be compared.

A bench counts as regressed when its wall-time grew by more than
*threshold* (relative) **and** more than *min_seconds* (absolute); the
absolute floor keeps micro-benches in the sub-millisecond noise band
from tripping the gate.  RSS can gate too (``rss_threshold``), with the
same relative-and-absolute shape (*min_rss_kib* floor).  Because the
``ru_maxrss`` high-water mark is process-wide and monotonic — later
benches inherit earlier peaks — the RSS gate is only meaningful when
OLD and NEW ran the same bench selection in the same order, which is
how the CI perf job invokes it.
"""

from __future__ import annotations

import json
import platform
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

from repro.obs.runtime import rss_peak_kib

__all__ = [
    "BENCH_SCHEMA",
    "BenchDelta",
    "rss_peak_kib",
    "bench_results_payload",
    "load_bench_results",
    "compare_bench_results",
    "format_bench_comparison",
]

#: Version tag of the serialised benchmark-results payload.
BENCH_SCHEMA = "repro.bench/1"


def bench_results_payload(
    benches: Mapping[str, Mapping[str, float]],
) -> dict[str, Any]:
    """The versioned ``BENCH_RESULTS.json`` payload.

    *benches* maps bench id (the pytest nodeid) to its measurements —
    ``wall_time_s`` is required, ``rss_peak_kib`` optional.
    """
    return {
        "schema": BENCH_SCHEMA,
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "host": {
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "benches": {
            name: dict(measurements)
            for name, measurements in sorted(benches.items())
        },
    }


def load_bench_results(path: str | Path) -> dict[str, dict[str, float]]:
    """Load and validate a ``BENCH_RESULTS.json`` file.

    Returns the ``benches`` mapping.  Raises :class:`ValueError` on a
    missing/foreign schema tag or malformed entries, so a stale or
    truncated artefact fails loudly instead of comparing garbage.
    """
    path = Path(path)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as error:
        raise ValueError(f"{path}: not valid JSON ({error})") from error
    if not isinstance(payload, dict) or payload.get("schema") != BENCH_SCHEMA:
        raise ValueError(
            f"{path}: expected schema {BENCH_SCHEMA!r}, "
            f"got {payload.get('schema')!r}"
        )
    benches = payload.get("benches")
    if not isinstance(benches, dict):
        raise ValueError(f"{path}: missing 'benches' mapping")
    for name, measurements in benches.items():
        if not isinstance(measurements, dict) or not isinstance(
            measurements.get("wall_time_s"), (int, float)
        ):
            raise ValueError(f"{path}: bench {name!r} has no wall_time_s")
    return benches


@dataclass(frozen=True)
class BenchDelta:
    """One bench's old-vs-new comparison row."""

    name: str
    old_s: float
    new_s: float
    regressed: bool
    old_rss_kib: int | None = None
    new_rss_kib: int | None = None
    rss_regressed: bool = False

    @property
    def ratio(self) -> float:
        """new/old wall-time ratio (``inf`` when old was zero)."""
        if self.old_s <= 0.0:
            return float("inf") if self.new_s > 0.0 else 1.0
        return self.new_s / self.old_s

    @property
    def failed(self) -> bool:
        """Whether either gate (wall-time or RSS) tripped."""
        return self.regressed or self.rss_regressed


def compare_bench_results(
    old: Mapping[str, Mapping[str, float]],
    new: Mapping[str, Mapping[str, float]],
    *,
    threshold: float = 0.25,
    min_seconds: float = 0.005,
    rss_threshold: float | None = None,
    min_rss_kib: int = 10_240,
) -> list[BenchDelta]:
    """Compare two bench mappings; one delta per bench present in both.

    A bench regresses when ``new - old`` wall-time exceeds both
    ``threshold * old`` and *min_seconds*.  When *rss_threshold* is
    given, a bench also fails when its RSS peak grew by more than
    ``rss_threshold * old_rss`` and more than *min_rss_kib* (the floor
    keeps allocator jitter on small heaps out of the gate).  Benches
    missing RSS data on either side never RSS-regress.
    """
    deltas: list[BenchDelta] = []
    for name in sorted(set(old) & set(new)):
        old_s = float(old[name]["wall_time_s"])
        new_s = float(new[name]["wall_time_s"])
        grew = new_s - old_s
        regressed = grew > max(threshold * old_s, min_seconds)
        old_rss = old[name].get("rss_peak_kib")
        new_rss = new[name].get("rss_peak_kib")
        rss_regressed = False
        if (
            rss_threshold is not None
            and old_rss is not None
            and new_rss is not None
        ):
            rss_grew = float(new_rss) - float(old_rss)
            rss_regressed = rss_grew > max(
                rss_threshold * float(old_rss), float(min_rss_kib)
            )
        deltas.append(
            BenchDelta(
                name=name,
                old_s=old_s,
                new_s=new_s,
                regressed=regressed,
                old_rss_kib=None if old_rss is None else int(old_rss),
                new_rss_kib=None if new_rss is None else int(new_rss),
                rss_regressed=rss_regressed,
            )
        )
    return deltas


def _format_delta(delta: BenchDelta) -> str:
    flag = "REGRESSED" if delta.regressed else (
        "faster" if delta.new_s < delta.old_s else "ok"
    )
    line = (
        f"  {delta.name}: {delta.old_s:.4f}s -> {delta.new_s:.4f}s "
        f"({delta.ratio:.2f}x) {flag}"
    )
    if delta.old_rss_kib is not None and delta.new_rss_kib is not None:
        line += (
            f"  [rss {delta.old_rss_kib / 1024:.0f} -> "
            f"{delta.new_rss_kib / 1024:.0f} MiB"
            f"{' RSS-REGRESSED' if delta.rss_regressed else ''}]"
        )
    return line


def format_bench_comparison(
    deltas: list[BenchDelta],
    *,
    old_only: set[str] | frozenset[str] = frozenset(),
    new_only: set[str] | frozenset[str] = frozenset(),
) -> str:
    """Human-readable comparison report."""
    lines = [f"compared {len(deltas)} bench(es)"]
    lines.extend(_format_delta(delta) for delta in deltas)
    regressions = [delta for delta in deltas if delta.failed]
    if old_only:
        lines.append(
            "only in OLD (skipped): " + ", ".join(sorted(old_only))
        )
    if new_only:
        lines.append(
            "only in NEW (skipped): " + ", ".join(sorted(new_only))
        )
    if regressions:
        lines.append(
            f"{len(regressions)} regression(s) beyond the noise threshold"
        )
    else:
        lines.append("no regressions")
    return "\n".join(lines)
