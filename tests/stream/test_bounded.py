"""Memory-bounded streaming: hold k frames, keep the answers.

``max_live_windows=k`` condenses evicted frames into
:class:`~repro.tracking.digest.FrameDigest` aggregates.  The contract:

- regions, coverage and pair relations are **bit-identical** to the
  unbounded run (pairs are always evaluated on live frames);
- trend series and automated insights still compute over the digested
  result — ``total`` aggregates exactly, ``mean`` up to float
  summation order (``allclose``);
- the bound is enforced: at most k live frames at any point.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.clustering.frames import Frame
from repro.errors import StreamError
from repro.stream import IncrementalTracker, SpaceBounds, track_windows
from repro.tracking.digest import FrameDigest
from repro.tracking.trends import compute_trends
from tests.stream.test_differential import (
    APPS,
    SETTINGS,
    _build_trace,
    _window_frames,
)


def _bounded_pair(app: str, k: int = 2):
    trace = _build_trace(app)
    plain = track_windows(trace, n_windows=4, settings=SETTINGS)
    bounded = track_windows(
        trace, n_windows=4, settings=SETTINGS, max_live_windows=k
    )
    return plain, bounded


class TestEquivalence:
    @pytest.mark.parametrize("app", APPS)
    def test_regions_and_relations_bit_identical(self, app):
        plain, bounded = _bounded_pair(app)
        assert bounded.regions == plain.regions
        assert bounded.coverage == plain.coverage
        assert len(bounded.pair_relations) == len(plain.pair_relations)
        for left, right in zip(plain.pair_relations, bounded.pair_relations):
            assert left.relations == right.relations
            assert left.sequence_ab == right.sequence_ab

    @pytest.mark.parametrize("app", ["wrf", "hydroc"])
    def test_trends_match_within_float_tolerance(self, app):
        plain, bounded = _bounded_pair(app)
        for metric, aggregate in (
            ("ipc", "mean"),
            ("instructions", "total"),
            ("duration", "mean"),
            ("l2_mpki", "mean"),
        ):
            reference = compute_trends(plain, metric, aggregate=aggregate)
            digested = compute_trends(bounded, metric, aggregate=aggregate)
            assert len(reference) == len(digested)
            for series_a, series_b in zip(reference, digested):
                assert series_a.region_id == series_b.region_id
                assert series_a.frame_labels == series_b.frame_labels
                np.testing.assert_allclose(
                    series_b.values, series_a.values, rtol=1e-9, equal_nan=True
                )

    def test_insights_still_diagnose(self):
        from repro.analysis.insights import diagnose

        plain, bounded = _bounded_pair("wrf")
        reference = diagnose(plain)
        digested = diagnose(bounded)
        assert [(i.region_id, i.kind) for i in digested] == [
            (i.region_id, i.kind) for i in reference
        ]

    def test_quality_report_works_on_digested_result(self):
        from repro.obs.quality import quality_report

        plain, bounded = _bounded_pair("wrf")
        report = quality_report(bounded)
        assert report is not None
        assert quality_report(plain).coverage == report.coverage


class TestBoundEnforcement:
    def test_evicted_frames_are_digests(self):
        _, bounded = _bounded_pair("wrf", k=2)
        kinds = [type(frame) for frame in bounded.frames]
        assert all(k is FrameDigest for k in kinds[:-2])
        assert all(k is Frame for k in kinds[-2:])

    def test_live_frame_count_never_exceeds_k(self):
        frames = _window_frames("wrf")
        bounds = SpaceBounds.from_frames(frames)
        tracker = IncrementalTracker(bounds=bounds, max_live_frames=2)
        for frame in frames:
            tracker.push(frame)
            live = sum(
                isinstance(f, Frame) for f in tracker._frames
            )
            assert live <= 2
        result = tracker.result()
        assert result.n_frames == len(frames)

    def test_digest_frames_expose_cluster_aggregates(self):
        frames = _window_frames("wrf")
        digest = FrameDigest.from_frame(frames[0])
        assert digest.cluster_ids == frames[0].cluster_ids
        assert digest.n_clusters == frames[0].n_clusters
        assert digest.n_points == frames[0].n_points
        assert digest.label == frames[0].label
        for cid in frames[0].cluster_ids:
            assert (
                digest.cluster(cid).total_duration
                == frames[0].cluster(cid).total_duration
            )


class TestValidation:
    def test_k_below_one_rejected(self):
        frames = _window_frames("wrf")
        bounds = SpaceBounds.from_frames(frames)
        with pytest.raises(StreamError, match="max_live_frames"):
            IncrementalTracker(bounds=bounds, max_live_frames=0)

    def test_adaptive_mode_rejected(self):
        """There is no mode without bounds to bound."""
        with pytest.raises(TypeError, match="bounds"):
            IncrementalTracker(max_live_frames=2)

    def test_unknown_metric_on_digest_raises(self):
        from repro.errors import TrackingError

        frames = _window_frames("wrf")
        digest = FrameDigest.from_frame(frames[0])
        members = set(digest.cluster_ids[:1])
        with pytest.raises(TrackingError, match="not captured"):
            digest.region_metric(members, "no_such_metric")
