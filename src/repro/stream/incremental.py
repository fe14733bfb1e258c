"""Incremental (online) tracking: consume frames one at a time.

The batch :class:`~repro.tracking.tracker.Tracker` holds every frame at
once; the one global step of its pipeline is the cross-frame
normalisation, whose shared [0, 1] box spans *all* frames' weighted
points.  :class:`IncrementalTracker` therefore takes that box up front
as :class:`~repro.tracking.scaling.SpaceBounds`, precomputed from the
raw metric points of every frame that will arrive (cheap — no
clustering needed).  Each frame is then normalised the moment it
arrives, exactly as the batch tracker places it, every (previous, new)
pair is evaluated by the same :func:`combine_pair` inputs, and chaining
through the shared :func:`~repro.tracking.tracker.chain_regions` yields
identical regions — the equality the differential test suite in
``tests/stream`` asserts on every bundled application.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np

from repro import obs
from repro.clustering.frames import Frame
from repro.errors import StreamError, TrackingError
from repro.robust.partial import ItemFailure
from repro.tracking.combine import PairRelations
from repro.tracking.coverage import coverage_percent
from repro.tracking.evalcache import EvalCache
from repro.tracking.scaling import NormalizedSpace, SpaceBounds
from repro.tracking.tracker import (
    TrackedRegion,
    TrackerConfig,
    TrackingResult,
    _track_pair,
    chain_regions,
)

if TYPE_CHECKING:
    from repro.obs.alerts import AlertRecord
    from repro.stream.forecast import StreamMonitor

__all__ = ["TrackUpdate", "IncrementalTracker"]


@dataclass(frozen=True)
class TrackUpdate:
    """What one :meth:`IncrementalTracker.push` changed.

    Attributes
    ----------
    step:
        Index of the pushed frame in the stream (0-based).
    frame:
        The frame just consumed.
    pair:
        Relations between the previous frame and this one (``None`` on
        the first push — there is no pair yet).
    regions:
        The tracked regions over the frames seen so far, duration-ranked
        exactly as the batch tracker would rank them on the same prefix.
    coverage:
        Coverage percentage over the prefix.
    failure:
        The quarantine record when a non-strict pair evaluation failed
        (the pair then carries no relations), else ``None``.
    alerts:
        Alerts the attached :class:`~repro.stream.forecast.StreamMonitor`
        raised on this push (always empty without a monitor).  Alerts
        are a pure observer output — they never influence the tracked
        state.
    """

    step: int
    frame: Frame
    pair: PairRelations | None
    regions: tuple[TrackedRegion, ...]
    coverage: int
    failure: ItemFailure | None = None
    alerts: tuple["AlertRecord", ...] = field(default=())


class IncrementalTracker:
    """Consume frames one at a time, tracking regions online.

    Holds the frames and pair relations seen so far and evaluates the
    four evaluators only on the (previous, new) frame pair at each step
    — the whole sequence is never re-evaluated.  After each push the
    accumulated relations are re-chained, so every update lists the
    regions of the whole prefix.

    Parameters
    ----------
    config:
        Tracker tunables (shared with the batch tracker).
    bounds:
        Precomputed :class:`~repro.tracking.scaling.SpaceBounds` of
        every frame that will be pushed.  The output is then
        bit-identical to ``Tracker(frames).run()`` over the same frames.
    strict:
        When true a failing pair evaluation raises; when false the pair
        is quarantined (no relations) and recorded on :attr:`failures`.
    monitor:
        Optional :class:`~repro.stream.forecast.StreamMonitor`.  After
        each push the monitor inspects the finished
        :class:`TrackUpdate` and its alerts are attached to
        :attr:`TrackUpdate.alerts`; the tracked state itself is never
        affected (the purity guarantee the differential suite enforces).
    max_live_frames:
        Memory bound: hold at most this many full frames.  After each
        push, frames older than the newest *k* are condensed into
        :class:`~repro.tracking.digest.FrameDigest` aggregates and
        their burst-level data (trace columns, points) is released, so
        peak memory is O(k) in the stream length instead of O(n).
        Regions, coverage and pair relations are unaffected — pairs are
        always evaluated while both frames are live — but the final
        result's evicted frames expose aggregates only (trend means may
        differ in the last float bits; reports skip burst-level
        visualisations).
    """

    def __init__(
        self,
        config: TrackerConfig | None = None,
        *,
        bounds: SpaceBounds,
        strict: bool = True,
        monitor: "StreamMonitor | None" = None,
        max_live_frames: int | None = None,
    ) -> None:
        self.config = config or TrackerConfig()
        self.strict = strict
        self.bounds = bounds
        self.monitor = monitor
        if max_live_frames is not None and max_live_frames < 1:
            raise StreamError(
                f"max_live_frames must be >= 1, got {max_live_frames}"
            )
        self.max_live_frames = max_live_frames
        if bounds.log_extensive != self.config.log_extensive:
            raise StreamError(
                "SpaceBounds.log_extensive disagrees with "
                "config.log_extensive; rebuild the bounds with the "
                "tracker's configuration"
            )
        self._frames: list[Frame] = []
        self._weights: list[tuple[float, ...]] = []
        self._points: list[np.ndarray] = []
        self._pairs: list[PairRelations] = []
        self._failures: list[ItemFailure] = []
        # Per-run evaluator cache: the newest frame's artefacts (k-d
        # tree, star alignment) are reused when it becomes the next
        # pair's left side; retain() keeps it O(1) in stream length.
        self._cache = EvalCache()

    # ------------------------------------------------------------------
    @property
    def n_frames(self) -> int:
        """Number of frames consumed so far."""
        return len(self._frames)

    @property
    def failures(self) -> tuple[ItemFailure, ...]:
        """Quarantine records of failed pair evaluations (non-strict)."""
        return tuple(self._failures)

    @property
    def n_live_frames(self) -> int:
        """Frames still held in full (not condensed to digests)."""
        from repro.tracking.digest import FrameDigest

        return sum(
            1 for frame in self._frames if not isinstance(frame, FrameDigest)
        )

    def cache_info(self) -> dict[str, int]:
        """The per-run :class:`EvalCache` occupancy counters."""
        return self._cache.info()

    def push(
        self,
        frame: Frame,
        *,
        precomputed: tuple[PairRelations, ItemFailure | None] | None = None,
    ) -> TrackUpdate:
        """Consume one frame; evaluate only the (previous, new) pair.

        *precomputed* replays a checkpointed pair — the stored
        :class:`PairRelations` (and its quarantine record, if any) are
        adopted verbatim instead of re-running the evaluators, which is
        how a restarted watch resumes without recomputing completed
        windows.
        """
        from repro.robust.validate import validate_frame

        validate_frame(frame)
        axes = frame.settings.metric_names
        if axes != self.bounds.axis_names:
            raise TrackingError(
                f"frame {frame.label!r} lives in metric space {axes}, "
                f"bounds cover {self.bounds.axis_names}"
            )
        points, axis_weights = self.bounds.normalize(frame)

        pair: PairRelations | None = None
        failure: ItemFailure | None = None
        if self._frames:
            if precomputed is not None:
                pair, failure = precomputed
                if failure is not None:
                    obs.count("robust.quarantined_total", stage="pair")
            else:
                pair, failure = _track_pair(
                    len(self._pairs),
                    self._frames[-1],
                    frame,
                    self._points[-1],
                    points,
                    self.config,
                    self._cache,
                    strict=self.strict,
                )
            self._pairs.append(pair)
            if failure is not None:
                self._failures.append(failure)

        self._frames.append(frame)
        self._weights.append(axis_weights)
        self._points.append(points)
        self._cache.retain([frame])
        self._condense()

        regions = chain_regions(self._frames, self._pairs)
        coverage = coverage_percent(regions, self._frames)
        update = TrackUpdate(
            step=len(self._frames) - 1,
            frame=frame,
            pair=pair,
            regions=tuple(regions),
            coverage=coverage,
            failure=failure,
        )
        if self.monitor is not None:
            update = replace(update, alerts=self.monitor.observe(update))
        return update

    def _condense(self) -> None:
        """Evict frames beyond the memory bound, keeping their digests.

        Only frames older than the newest ``max_live_frames`` are
        touched, so the next pair's left side is always still live.
        Replacing the list entry drops the last strong reference to the
        full frame (and its trace columns); the matching normalised
        point array is released too.
        """
        if self.max_live_frames is None:
            return
        from repro.tracking.digest import FrameDigest

        cutoff = len(self._frames) - self.max_live_frames
        for index in range(cutoff):
            frame = self._frames[index]
            if isinstance(frame, FrameDigest):
                continue
            self._frames[index] = FrameDigest.from_frame(frame)
            self._points[index] = np.empty((0, self._points[index].shape[1]))
            obs.count("stream.frames_condensed_total")

    def result(self) -> TrackingResult:
        """Final batch-compatible result over every frame consumed.

        This is exactly what ``Tracker(frames, config).run()`` returns
        for the same frames (same regions, same pair relations, same
        normalised space).  Requires at least two frames, like the
        batch tracker.
        """
        if len(self._frames) < 2:
            raise TrackingError("tracking needs at least two frames")
        space = NormalizedSpace(
            points=tuple(self._points),
            weights=tuple(self._weights),
            scaler=self.bounds.scaler(),
            axis_names=self.bounds.axis_names,
        )
        regions = chain_regions(self._frames, self._pairs)
        coverage = coverage_percent(regions, self._frames)
        return TrackingResult(
            frames=tuple(self._frames),
            space=space,
            pair_relations=tuple(self._pairs),
            regions=tuple(regions),
            coverage=coverage,
        )
