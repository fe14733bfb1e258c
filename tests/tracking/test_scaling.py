"""Unit tests for cross-frame scale normalisation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.clustering.frames import FrameSettings, make_frame
from repro.errors import ClusteringError, TrackingError
from repro.tracking.scaling import SpaceBounds, normalize_frames
from tests.conftest import build_two_region_trace


def frames_for(ranks_list, **kwargs):
    return [
        make_frame(build_two_region_trace(nranks=n, iterations=4, seed=i, **kwargs))
        for i, n in enumerate(ranks_list)
    ]


class TestNormalizeFrames:
    def test_all_points_in_unit_box(self):
        frames = frames_for([4, 8])
        space = normalize_frames(frames)
        for points in space.points:
            assert points.min() >= -1e-9
            assert points.max() <= 1 + 1e-9

    def test_extensive_axis_weighted_by_ranks(self):
        frames = frames_for([4, 8])
        space = normalize_frames(frames)
        assert space.weights[0] == (1.0, 1.0)
        assert space.weights[1] == (1.0, 2.0)  # instructions weighted 8/4

    def test_intensive_axis_not_weighted(self):
        frames = frames_for([4, 8])
        space = normalize_frames(frames)
        # x axis is IPC (intensive): weight 1 in both frames.
        assert all(w[0] == 1.0 for w in space.weights)

    def test_reference_frame_choice(self):
        frames = frames_for([4, 8])
        space = normalize_frames(frames, reference=1)
        assert space.weights[0] == (1.0, 0.5)
        assert space.weights[1] == (1.0, 1.0)

    def test_halved_work_realigned(self):
        """Doubling ranks halves per-burst instructions; weighting makes
        the two frames' clusters land on each other (paper Fig. 1c)."""
        base = build_two_region_trace(nranks=4, iterations=4, seed=0)
        double = build_two_region_trace(
            nranks=8, iterations=4, seed=1, instr_a=0.5e6, instr_b=2e6
        )
        frames = [make_frame(base), make_frame(double)]
        space = normalize_frames(frames)
        mean_y_0 = space.points[0][:, 1].mean()
        mean_y_1 = space.points[1][:, 1].mean()
        assert mean_y_0 == pytest.approx(mean_y_1, abs=0.02)

    def test_axis_names(self):
        frames = frames_for([4, 4])
        assert normalize_frames(frames).axis_names == ("ipc", "instructions")

    def test_mismatched_axes_rejected(self):
        frame_a = make_frame(build_two_region_trace(nranks=4))
        frame_b = make_frame(
            build_two_region_trace(nranks=4),
            FrameSettings(x_metric="ipc", y_metric="cycles"),
        )
        with pytest.raises(TrackingError, match="axis"):
            normalize_frames([frame_a, frame_b])

    def test_empty_rejected(self):
        with pytest.raises(TrackingError):
            normalize_frames([])

    def test_bad_reference(self):
        frames = frames_for([4])
        with pytest.raises(TrackingError):
            normalize_frames(frames, reference=5)

    def test_log_extensive(self):
        frames = frames_for([4, 8])
        space = normalize_frames(frames, log_extensive=True)
        for points in space.points:
            assert np.isfinite(points).all()

    def test_frame_points_accessor(self):
        frames = frames_for([4, 8])
        space = normalize_frames(frames)
        np.testing.assert_array_equal(space.frame_points(1), space.points[1])


class TestSpaceBounds:
    AXES = ("ipc", "instructions")

    def test_fits_the_union_of_weighted_points(self):
        a = np.asarray([[0.5, 4.0], [1.0, 3.0]])
        b = np.asarray([[2.0, 1.0]])
        bounds = SpaceBounds.from_raw_points([a, b], [4, 8], self.AXES)
        assert bounds.lo == (0.5, 2.0)  # instructions of b weighted 8/4
        assert bounds.hi == (2.0, 4.0)
        assert bounds.ref_ranks == 4

    def test_non_finite_points_rejected(self):
        points = np.asarray([[np.nan, 1.0]])
        with pytest.raises(ClusteringError, match="NaN"):
            SpaceBounds.from_raw_points([points], [4], self.AXES)
