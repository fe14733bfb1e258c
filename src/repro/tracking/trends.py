"""Per-region performance trend extraction (paper Figures 7, 10-12).

Once regions are tracked along the sequence, any metric can be
aggregated per region per frame, producing the trend-line series the
paper's evolution charts display: IPC evolutions, instruction totals,
cache-miss growth, and the normalised "percentage of the maximum"
correlation view of Figure 11b.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro import obs
from repro.errors import TrackingError
from repro.trace.counters import CYCLES, INSTRUCTIONS
from repro.tracking.digest import FrameDigest
from repro.tracking.tracker import TrackedRegion, TrackingResult

__all__ = [
    "TrendSeries",
    "frame_region_metric",
    "frame_region_metrics",
    "compute_trends",
    "top_variations",
    "normalized_to_max",
]

_AGGREGATES = ("mean", "total")


@dataclass(frozen=True)
class TrendSeries:
    """Evolution of one metric for one tracked region.

    Attributes
    ----------
    region_id:
        The tracked region.
    metric:
        Metric name the series aggregates.
    aggregate:
        ``"mean"`` (per burst; IPC is instruction-weighted) or
        ``"total"`` (summed over all member bursts).
    frame_labels:
        Human-readable scenario labels, one per frame.
    values:
        One value per frame; ``NaN`` where the region is absent.
    """

    region_id: int
    metric: str
    aggregate: str
    frame_labels: tuple[str, ...]
    values: np.ndarray

    @property
    def n_frames(self) -> int:
        """Number of scenarios in the series."""
        return int(self.values.shape[0])

    def pct_change_total(self) -> float:
        """Relative change from the first to the last finite value."""
        finite = self.values[np.isfinite(self.values)]
        if finite.size < 2 or finite[0] == 0:
            return 0.0
        return float((finite[-1] - finite[0]) / abs(finite[0]))

    def step_changes(self) -> np.ndarray:
        """Relative change between consecutive frames (NaN-propagating)."""
        values = self.values
        prev = values[:-1]
        with np.errstate(divide="ignore", invalid="ignore"):
            steps = (values[1:] - prev) / np.abs(prev)
        return steps

    def max_abs_variation(self) -> float:
        """Largest absolute relative deviation from the first value."""
        finite = self.values[np.isfinite(self.values)]
        if finite.size < 2 or finite[0] == 0:
            return 0.0
        return float(np.max(np.abs(finite - finite[0]) / abs(finite[0])))

    def __repr__(self) -> str:
        rendered = ", ".join(
            "nan" if not np.isfinite(v) else f"{v:.4g}" for v in self.values
        )
        return (
            f"TrendSeries(region={self.region_id}, metric={self.metric!r}, "
            f"values=[{rendered}])"
        )


def frame_region_metric(
    frame,
    member_ids: frozenset[int] | set[int],
    metric: str,
    aggregate: str = "mean",
) -> float:
    """Aggregate *metric* over a region's bursts in one frame.

    *member_ids* holds the region's cluster ids within *frame*; an empty
    set yields ``NaN`` (the region is absent there).  ``"mean"``
    averages per burst — IPC is instruction-weighted
    (``sum(instructions) / sum(cycles)``) so short bursts do not skew
    it — and ``"total"`` sums over all member bursts.  Shared by the
    offline trend extraction and the live stream monitor, which takes
    several metrics at once through :func:`frame_region_metrics`.
    """
    return frame_region_metrics(frame, member_ids, (metric,), aggregate)[0]


def frame_region_metrics(
    frame,
    member_ids: frozenset[int] | set[int],
    metrics: Sequence[str],
    aggregate: str = "mean",
) -> list[float]:
    """:func:`frame_region_metric` of each of *metrics*, in order.

    Each metric is evaluated on the region's bursts only, gathered once
    for all of them in cluster-id order.
    """
    if not member_ids:
        return [float("nan")] * len(metrics)
    if isinstance(frame, FrameDigest):
        # Condensed frame (memory-bounded streaming): the burst data is
        # gone, but the per-cluster sums reproduce both aggregates.
        return [
            frame.region_metric(member_ids, metric, aggregate)
            for metric in metrics
        ]
    indices = np.concatenate(
        [frame.cluster(cid).indices for cid in sorted(member_ids)]
    )
    trace = frame.trace
    bursts = None  # the region's bursts as a trace, built when first needed
    values = []
    for metric in metrics:
        if metric == "ipc" and aggregate == "mean":
            instructions = trace.counter(INSTRUCTIONS)[indices].sum()
            cycles = trace.counter(CYCLES)[indices].sum()
            values.append(float(instructions / cycles) if cycles else 0.0)
            continue
        if bursts is None:
            bursts = trace.select(indices)
        column = bursts.metric(metric)
        if aggregate == "total":
            values.append(float(column.sum()))
        else:
            # Bit-identical to ``column.mean()``, without its Python wrapper.
            values.append(float(column.sum() / column.size))
    return values


def _region_metric(
    result: TrackingResult,
    region: TrackedRegion,
    frame_index: int,
    metric: str,
    aggregate: str,
) -> float:
    """Aggregate *metric* over the region's bursts in one frame."""
    return frame_region_metric(
        result.frames[frame_index],
        region.members[frame_index],
        metric,
        aggregate,
    )


def compute_trends(
    result: TrackingResult,
    metric: str = "ipc",
    *,
    aggregate: str = "mean",
    only_spanning: bool = True,
) -> list[TrendSeries]:
    """Build one :class:`TrendSeries` per tracked region.

    Parameters
    ----------
    result:
        A tracking result.
    metric:
        Derived metric or raw counter name.
    aggregate:
        ``"mean"`` or ``"total"``.
    only_spanning:
        Restrict to regions present in every frame (the paper's charts
        only show those).
    """
    if aggregate not in _AGGREGATES:
        raise TrackingError(f"aggregate must be one of {_AGGREGATES}, got {aggregate!r}")
    with obs.span("tracking.trends", metric=metric, aggregate=aggregate) as trend_span:
        labels = tuple(frame.label for frame in result.frames)
        regions = result.tracked_regions if only_spanning else result.regions
        series: list[TrendSeries] = []
        for region in regions:
            values = np.asarray(
                [
                    _region_metric(result, region, index, metric, aggregate)
                    for index in range(result.n_frames)
                ]
            )
            series.append(
                TrendSeries(
                    region_id=region.region_id,
                    metric=metric,
                    aggregate=aggregate,
                    frame_labels=labels,
                    values=values,
                )
            )
        if obs.enabled():
            trend_span.set(n_series=len(series))
            obs.count("trends.series_total", len(series))
        return series


def top_variations(
    series: list[TrendSeries], min_variation: float = 0.03
) -> list[TrendSeries]:
    """Keep series whose variation exceeds *min_variation*.

    Mirrors the paper's Figure 7a filter: "only the regions with higher
    IPC variations (above 3%) are depicted".  Sorted by descending
    variation.
    """
    selected = [s for s in series if s.max_abs_variation() >= min_variation]
    return sorted(selected, key=lambda s: -s.max_abs_variation())


def normalized_to_max(series: list[TrendSeries]) -> list[TrendSeries]:
    """Rescale each series to the percentage of its own maximum.

    The paper's Figure 11b plots several metrics of one region on a
    common axis as "percentage of variation of each metric with respect
    to its maximum value for all trials".
    """
    out: list[TrendSeries] = []
    for s in series:
        finite = s.values[np.isfinite(s.values)]
        peak = np.max(np.abs(finite)) if finite.size else 0.0
        values = s.values / peak * 100.0 if peak else np.zeros_like(s.values)
        out.append(
            TrendSeries(
                region_id=s.region_id,
                metric=s.metric,
                aggregate=s.aggregate,
                frame_labels=s.frame_labels,
                values=values,
            )
        )
    return out
