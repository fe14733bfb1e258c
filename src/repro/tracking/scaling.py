"""Cross-frame scale normalisation (paper section 2, Figure 1c).

Frames from different scenarios are not directly comparable: doubling
the process count roughly halves per-burst instruction counts, and each
machine spans a different IPC range.  Before tracking, the performance
scales are transformed so the objects live in one shared space:

- metrics **correlated with the process count** (extensive metrics:
  instructions, cycles, misses, duration) are weighted by the number of
  cores relative to a reference frame, cancelling the 1/N division of
  work;
- the remaining (intensive) metrics are min-max scaled to the range
  seen **across all experiments**.

Both axis kinds finally land in a [0, 1]^2 box via a min-max over the
union of the weighted values, so nearest-neighbour distances treat the
axes evenly.  :class:`SpaceBounds` is that min-max: the batch tracker
fits it over the frames it holds, the incremental tracker receives it
precomputed from the raw points of every frame that will arrive, and
both place each frame through it, so the two spaces are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.clustering.frames import Frame
from repro.clustering.normalize import MinMaxScaler
from repro.errors import TrackingError
from repro.trace.counters import is_extensive_metric

__all__ = [
    "NormalizedSpace",
    "SpaceBounds",
    "normalize_frames",
    "weighted_frame_points",
]


def weighted_frame_points(
    points: np.ndarray,
    nranks: int,
    axes: tuple[str, ...],
    *,
    ref_ranks: int,
    log_extensive: bool = False,
) -> tuple[np.ndarray, tuple[float, ...]]:
    """Apply the extensive-metric weighting to one frame's raw points.

    Returns ``(weighted_values, axis_weights)``: the per-frame half of
    the shared space, before the min-max of :class:`SpaceBounds`.
    """
    axis_weights = []
    for name in axes:
        if is_extensive_metric(name):
            axis_weights.append(nranks / ref_ranks)
        else:
            axis_weights.append(1.0)
    w = np.asarray(axis_weights, dtype=np.float64)
    values = points * w
    if log_extensive:
        for axis, name in enumerate(axes):
            if is_extensive_metric(name):
                column = values[:, axis]
                if np.any(column <= 0):
                    raise TrackingError(
                        f"log_extensive requires positive {name!r} values"
                    )
                values[:, axis] = np.log10(column)
    return values, tuple(float(value) for value in w)


@dataclass(frozen=True, slots=True)
class SpaceBounds:
    """Per-axis bounds of the shared normalised tracking space.

    The min/max of every frame's weighted points, plus the weighting
    anchor: "the scale ... is adjusted to the minimum and maximum values
    seen along all experiments".  It is fitted before any frame is
    placed, so an incremental tracker can normalise each frame the
    moment it arrives and still land bit-identically where the batch
    tracker puts it.

    Attributes
    ----------
    axis_names:
        The clustering dimensions, (x, y, *extra).
    lo / hi:
        Per-axis minimum/maximum of the weighted points (exact float64
        values, stored as Python floats which round-trip binary64).
    ref_ranks:
        Core count of the reference frame anchoring the
        extensive-metric weighting.
    log_extensive:
        Whether extensive axes are normalised in log10 space.
    """

    axis_names: tuple[str, ...]
    lo: tuple[float, ...]
    hi: tuple[float, ...]
    ref_ranks: int
    log_extensive: bool = False

    @classmethod
    def from_raw_points(
        cls,
        points: list[np.ndarray],
        nranks: list[int],
        axes: tuple[str, ...],
        *,
        reference: int = 0,
        log_extensive: bool = False,
    ) -> "SpaceBounds":
        """Bounds from raw metric points, before any clustering.

        *points* holds one ``(n_i, d)`` raw metric matrix per frame and
        *nranks* the matching core counts.  The stream pipeline derives
        its bounds this way during its pre-check pass: frame
        construction (DBSCAN) has not run yet, but the weighted-point
        extent only depends on the raw values.  Non-finite weighted
        values raise :class:`~repro.errors.ClusteringError`.
        """
        if not points:
            raise TrackingError("SpaceBounds needs at least one frame")
        if not 0 <= reference < len(points):
            raise TrackingError(f"reference index {reference} out of range")
        ref_ranks = int(nranks[reference])
        weighted = [
            weighted_frame_points(
                values, int(n), axes, ref_ranks=ref_ranks,
                log_extensive=log_extensive,
            )[0]
            for values, n in zip(points, nranks)
        ]
        union = MinMaxScaler.fit(np.vstack(weighted))
        return cls(
            axis_names=tuple(axes),
            lo=tuple(float(v) for v in union.lo),
            hi=tuple(float(v) for v in union.hi),
            ref_ranks=ref_ranks,
            log_extensive=log_extensive,
        )

    @classmethod
    def from_frames(
        cls,
        frames: list[Frame],
        *,
        reference: int = 0,
        log_extensive: bool = False,
    ) -> "SpaceBounds":
        """Bounds over a known frame list; the frames must share axes."""
        axes = frames[0].settings.metric_names if frames else ()
        if any(frame.settings.metric_names != axes for frame in frames):
            raise TrackingError("all frames must share the same axis metrics")
        return cls.from_raw_points(
            [frame.points for frame in frames],
            [frame.trace.nranks for frame in frames],
            axes,
            reference=reference,
            log_extensive=log_extensive,
        )

    def scaler(self) -> MinMaxScaler:
        """The shared min-max transform these bounds define."""
        return MinMaxScaler(
            lo=np.asarray(self.lo, dtype=np.float64),
            hi=np.asarray(self.hi, dtype=np.float64),
        )

    def normalize(self, frame: Frame) -> tuple[np.ndarray, tuple[float, ...]]:
        """One frame's points in the shared space, plus its axis weights."""
        weighted, axis_weights = weighted_frame_points(
            frame.points,
            frame.trace.nranks,
            self.axis_names,
            ref_ranks=self.ref_ranks,
            log_extensive=self.log_extensive,
        )
        return self.scaler().transform(weighted), axis_weights


@dataclass(frozen=True, slots=True)
class NormalizedSpace:
    """Shared normalised performance space over a frame sequence.

    Attributes
    ----------
    points:
        One ``(n_i, d)`` array per frame with all points mapped into the
        shared [0, 1]^d box.
    weights:
        Per-frame multiplicative weight applied to each axis before the
        shared min-max (1.0 for intensive axes).
    scaler:
        The shared min-max transform (fitted on the union of weighted
        points) — useful to render frames on common axes.
    axis_names:
        The clustering dimension names, (x, y, *extra).
    """

    points: tuple[np.ndarray, ...]
    weights: tuple[tuple[float, ...], ...]
    scaler: MinMaxScaler
    axis_names: tuple[str, ...]

    def frame_points(self, frame_index: int) -> np.ndarray:
        """Normalised points of frame *frame_index*."""
        return self.points[frame_index]


def normalize_frames(
    frames: list[Frame],
    *,
    reference: int = 0,
    log_extensive: bool = False,
) -> NormalizedSpace:
    """Build the shared normalised space for a frame sequence.

    Parameters
    ----------
    frames:
        The frame sequence; all frames must share their axis metrics.
    reference:
        Index of the frame whose core count anchors the extensive-metric
        weighting (weight 1.0).
    log_extensive:
        Map extensive axes through ``log10`` after weighting — matches
        clustering frames built with ``log_y`` so distances agree when a
        single frame spans decades.
    """
    bounds = SpaceBounds.from_frames(
        frames, reference=reference, log_extensive=log_extensive
    )
    placed = [bounds.normalize(frame) for frame in frames]
    return NormalizedSpace(
        points=tuple(points for points, _ in placed),
        weights=tuple(weights for _, weights in placed),
        scaler=bounds.scaler(),
        axis_names=bounds.axis_names,
    )
