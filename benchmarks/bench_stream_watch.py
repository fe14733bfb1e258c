"""Streaming-pipeline benchmarks: incremental vs batch, cold vs resumed.

What an adopter of ``repro-track watch`` cares about:

- the *incremental tax* — tracking a windowed trace frame-by-frame
  (re-chaining regions after every push) vs one batch pass over the
  same frames, with the results asserted bit-identical;
- the *resume win* — a warm re-run replaying every window from the
  checkpoint vs the cold run that computed them.
"""

from __future__ import annotations

import time

from benchmarks.conftest import BENCH_SEED, run_once
from repro.apps import wrf
from repro.clustering.frames import FrameSettings, make_frames
from repro.parallel.cache import PipelineCache
from repro.stream import IncrementalTracker, SpaceBounds, slice_trace, track_windows
from repro.tracking.tracker import Tracker

SETTINGS = FrameSettings(relevance=0.995)
N_WINDOWS = 12


def _long_trace():
    return wrf.build(ranks=64, iterations=24, base_ranks=64).run(
        seed=BENCH_SEED + 1
    )


def test_perf_incremental_vs_batch(benchmark):
    """One long WRF run, 12 windows: streaming vs batch tracking."""
    trace = _long_trace()
    _, windows = slice_trace(trace, n_windows=N_WINDOWS)
    frames = make_frames(
        [w for w in windows if w.n_bursts], SETTINGS
    )

    start = time.perf_counter()
    batch = Tracker(frames).run()
    batch_s = time.perf_counter() - start

    def push_all():
        tracker = IncrementalTracker(bounds=SpaceBounds.from_frames(frames))
        for frame in frames:
            tracker.push(frame)
        return tracker.result()

    start = time.perf_counter()
    incremental = run_once(benchmark, push_all)
    incremental_s = time.perf_counter() - start

    assert incremental.regions == batch.regions
    assert incremental.coverage == batch.coverage
    benchmark.extra_info["batch_s"] = round(batch_s, 3)
    benchmark.extra_info["incremental_s"] = round(incremental_s, 3)
    benchmark.extra_info["n_frames"] = len(frames)
    print(
        f"\nwindowed WRF ({len(frames)} frames): batch {batch_s:.2f}s, "
        f"incremental {incremental_s:.2f}s "
        f"(tax x{incremental_s / batch_s:.2f})"
    )


def test_perf_watch_resume(benchmark, tmp_path):
    """Cold watch vs checkpointed resume of the same windowed run."""
    trace = _long_trace()
    cache = PipelineCache(tmp_path / "cache")

    start = time.perf_counter()
    cold = track_windows(
        trace, n_windows=N_WINDOWS, settings=SETTINGS, cache=cache
    )
    cold_s = time.perf_counter() - start

    start = time.perf_counter()
    warm = run_once(
        benchmark,
        lambda: track_windows(
            trace, n_windows=N_WINDOWS, settings=SETTINGS, cache=cache
        ),
    )
    warm_s = time.perf_counter() - start

    assert warm.regions == cold.regions
    assert warm.coverage == cold.coverage
    benchmark.extra_info["cold_s"] = round(cold_s, 3)
    benchmark.extra_info["warm_s"] = round(warm_s, 3)
    print(
        f"\nwatch ({N_WINDOWS} windows): cold {cold_s:.2f}s, "
        f"resumed {warm_s:.2f}s (speedup x{cold_s / warm_s:.2f})"
    )
    assert warm_s < cold_s


def test_perf_watch_alerts_overhead(benchmark):
    """Forecast/alerting tax: monitored watch vs plain watch.

    The online monitor refits a bounded-history trend per (track,
    metric) each window; the acceptance bar is <= 15% wall-time
    overhead (plus a small absolute floor to absorb timer noise), with
    the tracking output asserted bit-identical.
    """
    from repro.obs.alerts import AlertConfig
    from repro.stream import WatchTelemetry

    trace = _long_trace()

    def plain():
        return track_windows(trace, n_windows=N_WINDOWS, settings=SETTINGS)

    def monitored():
        telemetry = WatchTelemetry(alerts=AlertConfig())
        result = track_windows(
            trace, n_windows=N_WINDOWS, settings=SETTINGS,
            telemetry=telemetry,
        )
        return result, telemetry

    # Best-of-two on each side damps one-off scheduler hiccups.
    off_s = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        plain_result = plain()
        off_s = min(off_s, time.perf_counter() - start)

    on_s = float("inf")
    start = time.perf_counter()
    monitored_result, telemetry = run_once(benchmark, monitored)
    on_s = min(on_s, time.perf_counter() - start)
    start = time.perf_counter()
    monitored_result, telemetry = monitored()
    on_s = min(on_s, time.perf_counter() - start)

    assert monitored_result.regions == plain_result.regions
    assert monitored_result.coverage == plain_result.coverage
    assert telemetry.n_updates > 0

    overhead = on_s / off_s - 1.0
    benchmark.extra_info["alerts_off_s"] = round(off_s, 3)
    benchmark.extra_info["alerts_on_s"] = round(on_s, 3)
    benchmark.extra_info["overhead_pct"] = round(overhead * 100, 1)
    benchmark.extra_info["n_alerts"] = len(telemetry.alerts)
    print(
        f"\nwatch alerts ({N_WINDOWS} windows): off {off_s:.2f}s, "
        f"on {on_s:.2f}s (overhead {overhead * 100:+.1f}%)"
    )
    assert on_s <= off_s * 1.15 + 0.25, (
        f"alerting overhead {overhead * 100:.1f}% exceeds the 15% budget"
    )
