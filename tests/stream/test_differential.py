"""Batch-vs-incremental differential suite.

The core guarantee of :mod:`repro.stream`: an
:class:`~repro.stream.IncrementalTracker` fed frame-by-frame (with
fixed :class:`~repro.stream.SpaceBounds`) produces *exactly* the batch
:class:`~repro.tracking.Tracker` output — same region equivalences,
same pairwise relations, same renamed labels — for every bundled
application generator, with batch frames built serially and in
parallel, from a cold and a warm cache.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.api import make_frames
from repro.clustering.frames import FrameSettings
from repro.parallel.cache import PipelineCache
from repro.stream import IncrementalTracker, SpaceBounds, slice_trace
from repro.tracking.relabel import relabel_frames
from repro.tracking.tracker import Tracker, TrackerConfig


def _build_trace(app: str):
    """One small-but-clusterable trace per bundled app generator."""
    if app == "wrf":
        from repro.apps import wrf

        return wrf.build(ranks=16, iterations=6, base_ranks=16).run(seed=5)
    if app == "nasbt":
        from repro.apps import nasbt

        return nasbt.build("A", ranks=16, iterations=6).run(seed=5)
    if app == "cgpop":
        from repro.apps import cgpop

        return cgpop.build("MareNostrum", ranks=16, iterations=6).run(seed=5)
    if app == "hydroc":
        from repro.apps import hydroc

        return hydroc.build(block_size=64, ranks=8, iterations=6).run(seed=5)
    if app == "mrgenesis":
        from repro.apps import mrgenesis

        return mrgenesis.build(tasks_per_node=1, ranks=12, iterations=8).run(
            seed=5
        )
    raise AssertionError(app)


SETTINGS = FrameSettings(relevance=0.995)
APPS = ["wrf", "nasbt", "cgpop", "hydroc", "mrgenesis"]

_frame_cache: dict[str, list] = {}


def _alive_windows(app: str) -> list:
    """The non-empty windows of a 4-window slicing of the app's trace."""
    _, windows = slice_trace(_build_trace(app), n_windows=4)
    alive = [w for w in windows if w.n_bursts > 0]
    assert len(alive) >= 2, f"{app}: too few non-empty windows"
    return alive


def _window_frames(app: str) -> list:
    """Frames of the app's non-empty windows (memoised)."""
    if app not in _frame_cache:
        _frame_cache[app] = make_frames(_alive_windows(app), SETTINGS)
    return _frame_cache[app]


def _push_all(frames, config, telemetry=None):
    """Track *frames* by pushing them one at a time, as a watch does."""
    bounds = SpaceBounds.from_frames(
        frames,
        reference=config.reference,
        log_extensive=config.log_extensive,
    )
    tracker = IncrementalTracker(
        config,
        bounds=bounds,
        monitor=telemetry.monitor if telemetry is not None else None,
    )
    for frame in frames:
        started = time.perf_counter()
        update = tracker.push(frame)
        if telemetry is not None:
            telemetry.record_update(
                update, seconds=time.perf_counter() - started
            )
    return tracker.result()


def _assert_equal_results(batch, incremental) -> None:
    """Field-by-field equality of a batch and an incremental result."""
    # Region equivalences: identical region ids, members and durations.
    assert batch.regions == incremental.regions
    assert batch.coverage == incremental.coverage
    # Pairwise relation sets (including split/merge directions).
    assert len(batch.pair_relations) == len(incremental.pair_relations)
    for left, right in zip(batch.pair_relations, incremental.pair_relations):
        assert left.relations == right.relations
        assert left.sequence_ab == right.sequence_ab
    # The normalised tracking space itself is bit-identical.
    assert len(batch.space.points) == len(incremental.space.points)
    for pts_a, pts_b in zip(batch.space.points, incremental.space.points):
        assert np.array_equal(pts_a, pts_b)
    assert np.array_equal(batch.space.scaler.lo, incremental.space.scaler.lo)
    assert np.array_equal(batch.space.scaler.hi, incremental.space.scaler.hi)
    # Renamed labels (the paper's Figure 6 view) agree point-for-point.
    for re_a, re_b in zip(relabel_frames(batch), relabel_frames(incremental)):
        assert re_a.mapping == re_b.mapping
        assert np.array_equal(re_a.labels, re_b.labels)


@pytest.mark.parametrize("app", APPS)
def test_incremental_matches_batch(app):
    frames = _window_frames(app)
    batch = Tracker(frames, TrackerConfig()).run()
    incremental = _push_all(frames, TrackerConfig())
    _assert_equal_results(batch, incremental)


@pytest.mark.parametrize("app", APPS)
def test_incremental_matches_parallel_batch(app):
    """Batch frames built with jobs=2 track bit-identically (pmap determinism)."""
    frames = make_frames(_alive_windows(app), SETTINGS, jobs=2)
    batch = Tracker(frames, TrackerConfig()).run()
    incremental = _push_all(_window_frames(app), TrackerConfig())
    _assert_equal_results(batch, incremental)


@pytest.mark.parametrize("app", ["hydroc", "wrf"])
def test_incremental_matches_batch_with_warm_cache(app, tmp_path):
    """Cache-served frame labels do not perturb the equivalence."""
    cache = PipelineCache(tmp_path / "cache")
    alive = _alive_windows(app)
    cold = make_frames(alive, SETTINGS, cache=cache)
    warm = make_frames(alive, SETTINGS, cache=cache)
    for frame_a, frame_b in zip(cold, warm):
        assert np.array_equal(frame_a.labels, frame_b.labels)
    batch = Tracker(cold, TrackerConfig()).run()
    incremental = _push_all(warm, TrackerConfig())
    _assert_equal_results(batch, incremental)


@pytest.mark.parametrize("app", APPS)
def test_alerting_monitor_is_a_pure_observer(app):
    """Alerts on vs off: regions/relations/labels stay bit-identical.

    The hard correctness requirement of the live-alerting layer — the
    monitor reads every TrackUpdate but never feeds anything back, so
    an alerting run is indistinguishable from a plain one (and both
    from the batch tracker) on every bundled app generator.
    """
    from repro.obs.alerts import AlertConfig
    from repro.stream import WatchTelemetry

    frames = _window_frames(app)
    plain = _push_all(frames, TrackerConfig())
    telemetry = WatchTelemetry(alerts=AlertConfig())
    monitored = _push_all(frames, TrackerConfig(), telemetry)
    assert telemetry.n_updates == len(frames) - 1
    _assert_equal_results(plain, monitored)


@pytest.mark.parametrize("app", APPS)
def test_alerting_track_windows_matches_plain(app):
    """track_windows with a monitor matches its unmonitored output."""
    from repro.obs.alerts import AlertConfig
    from repro.stream import WatchTelemetry, track_windows

    trace = _build_trace(app)
    plain = track_windows(trace, n_windows=4, settings=SETTINGS)
    monitored = track_windows(
        trace, n_windows=4, settings=SETTINGS,
        telemetry=WatchTelemetry(alerts=AlertConfig()),
    )
    _assert_equal_results(plain, monitored)
