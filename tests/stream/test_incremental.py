"""Unit tests for :mod:`repro.stream.incremental`."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import make_frames
from repro.clustering.frames import FrameSettings
from repro.errors import StreamError, TrackingError
from repro.robust.partial import ItemFailure, PartialResult
from repro.stream import IncrementalTracker, SpaceBounds, slice_trace, track_windows
from repro.tracking.tracker import Tracker, TrackerConfig
from tests.conftest import build_two_region_trace
from tests.stream.test_differential import _push_all


@pytest.fixture()
def window_frames(toy_trace):
    _, windows = slice_trace(toy_trace, n_windows=3)
    return make_frames([w for w in windows if w.n_bursts], FrameSettings())


class TestSpaceBounds:
    def test_from_frames_equals_from_raw_points(self, window_frames):
        from_frames = SpaceBounds.from_frames(window_frames)
        from_raw = SpaceBounds.from_raw_points(
            [f.points for f in window_frames],
            [f.trace.nranks for f in window_frames],
            window_frames[0].settings.metric_names,
        )
        assert from_frames == from_raw

    def test_scaler_matches_batch_space(self, window_frames):
        bounds = SpaceBounds.from_frames(window_frames)
        batch = Tracker(window_frames, TrackerConfig()).run()
        assert np.array_equal(bounds.scaler().lo, batch.space.scaler.lo)
        assert np.array_equal(bounds.scaler().hi, batch.space.scaler.hi)

    def test_empty_and_bad_reference_rejected(self, window_frames):
        with pytest.raises(TrackingError, match="at least one"):
            SpaceBounds.from_raw_points([], [], ("ipc", "instructions"))
        with pytest.raises(TrackingError, match="out of range"):
            SpaceBounds.from_frames(window_frames, reference=99)


class TestConstruction:
    def test_log_extensive_must_agree_with_bounds(self, window_frames):
        bounds = SpaceBounds.from_frames(window_frames, log_extensive=True)
        with pytest.raises(StreamError, match="log_extensive"):
            IncrementalTracker(TrackerConfig(log_extensive=False), bounds=bounds)


class TestPush:
    def test_first_push_has_no_pair(self, window_frames):
        tracker = IncrementalTracker(
            bounds=SpaceBounds.from_frames(window_frames)
        )
        update = tracker.push(window_frames[0])
        assert update.step == 0
        assert update.pair is None
        assert update.failure is None
        assert tracker.n_frames == 1

    def test_each_push_evaluates_one_pair(self, window_frames):
        tracker = IncrementalTracker(
            bounds=SpaceBounds.from_frames(window_frames)
        )
        for step, frame in enumerate(window_frames):
            update = tracker.push(frame)
            assert update.step == step
            if step:
                assert update.pair is not None
                assert update.regions  # regions exist from the first pair on

    def test_mixed_metric_spaces_rejected(self, toy_trace):
        frames = make_frames(
            [toy_trace, toy_trace], FrameSettings(), jobs=1
        )
        other = make_frames(
            [toy_trace], FrameSettings(y_metric="cycles"), jobs=1
        )[0]
        tracker = IncrementalTracker(bounds=SpaceBounds.from_frames(frames))
        tracker.push(frames[0])
        with pytest.raises(TrackingError, match="metric space"):
            tracker.push(other)

    def test_matches_batch(self, window_frames):
        batch = Tracker(window_frames, TrackerConfig()).run()
        incremental = _push_all(window_frames, TrackerConfig())
        assert batch.regions == incremental.regions
        assert batch.coverage == incremental.coverage

    def test_result_needs_two_frames(self, window_frames):
        tracker = IncrementalTracker(
            bounds=SpaceBounds.from_frames(window_frames)
        )
        with pytest.raises(TrackingError, match="two frames"):
            tracker.result()
        tracker.push(window_frames[0])
        with pytest.raises(TrackingError, match="two frames"):
            tracker.result()


class TestQuarantine:
    def test_strict_push_raises_on_pair_failure(self, window_frames, monkeypatch):
        import repro.tracking.tracker as tracker_mod

        def boom(*args, **kwargs):
            raise TrackingError("synthetic pair failure")

        monkeypatch.setattr(tracker_mod, "combine_pair", boom)
        tracker = IncrementalTracker(
            bounds=SpaceBounds.from_frames(window_frames), strict=True
        )
        tracker.push(window_frames[0])
        with pytest.raises(TrackingError, match="synthetic"):
            tracker.push(window_frames[1])

    def test_non_strict_push_quarantines_pair(self, window_frames, monkeypatch):
        import repro.tracking.tracker as tracker_mod

        def boom(*args, **kwargs):
            raise TrackingError("synthetic pair failure")

        monkeypatch.setattr(tracker_mod, "combine_pair", boom)
        tracker = IncrementalTracker(
            bounds=SpaceBounds.from_frames(window_frames), strict=False
        )
        tracker.push(window_frames[0])
        update = tracker.push(window_frames[1])
        assert update.failure is not None
        assert update.failure.stage == "pair"
        assert update.pair is not None  # empty placeholder pair
        assert update.pair.relations == ()
        assert tracker.failures == (update.failure,)
        result = tracker.result()  # still produces a result
        assert len(result.pair_relations) == 1

    def test_non_strict_track_windows_returns_partial_result(self, toy_trace):
        outcome = track_windows(toy_trace, n_windows=3, strict=False)
        assert isinstance(outcome, PartialResult)
        assert outcome.failures == ()
        assert outcome.value.regions

    def test_precomputed_pair_replayed_verbatim(self, window_frames):
        bounds = SpaceBounds.from_frames(window_frames)
        live = IncrementalTracker(bounds=bounds)
        updates = [live.push(frame) for frame in window_frames]

        replayed = IncrementalTracker(bounds=bounds)
        replayed.push(window_frames[0])
        for frame, update in zip(window_frames[1:], updates[1:]):
            replay = replayed.push(frame, precomputed=(update.pair, None))
            assert replay.pair is update.pair
        assert replayed.result().regions == live.result().regions
