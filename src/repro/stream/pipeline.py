"""The windowed streaming pipeline: trace -> windows -> incremental track.

:func:`track_windows` is the end-to-end entry point behind
``repro-track watch`` and ``quick_track(windows=N)``'s streaming shim:

1. validate the trace, slice it into time windows
   (:func:`repro.stream.window.slice_trace`);
2. **pre-check pass** — run the cheap frame pre-checks
   (:func:`repro.clustering.frames.precheck_frame_input`) on every
   non-empty window.  Windows that cannot become frames raise (strict)
   or are quarantined with ``stage="window"`` (non-strict); the
   survivors' raw points feed the fixed
   :class:`~repro.tracking.scaling.SpaceBounds`, which is what makes
   the incremental result bit-identical to the batch tracker's;
3. **streaming pass** — build each surviving window's frame with
   :func:`~repro.clustering.frames.make_frames`, the batch path's
   frame-label cache included, as the window comes up; push it into an
   :class:`~repro.stream.incremental.IncrementalTracker`, emit a
   :class:`~repro.stream.incremental.TrackUpdate` through *on_update*,
   record per-window metrics (``stream.update_seconds`` histogram,
   ``stream.updates_total``) and store the window's checkpoint entry.

A restarted run with the same cache replays the leading windows that
have an entry (counted on ``stream.windows_resumed``) through the same
loop, with their labels from the frame-label cache and their stored
pairs instead of the evaluators, then continues live.
"""

from __future__ import annotations

import time
from typing import Callable

from repro import obs
from repro.clustering.frames import (
    Frame,
    FrameSettings,
    make_frames,
    precheck_frame_input,
)
from repro.errors import ReproError, TrackingError
from repro.obs import ledger as obsledger
from repro.obs.alerts import summarize_alerts
from repro.obs.log import get_logger
from repro.parallel.cache import PipelineCache
from repro.robust.partial import ItemFailure, PartialResult, quarantine
from repro.robust.validate import validate_trace
from repro.stream.checkpoint import (
    load_checkpoint,
    save_checkpoint,
    stream_key,
    window_key,
)
from repro.stream.forecast import WatchTelemetry
from repro.stream.incremental import IncrementalTracker, TrackUpdate
from repro.stream.window import slice_trace
from repro.tracking.combine import PairRelations
from repro.tracking.scaling import SpaceBounds
from repro.tracking.tracker import TrackerConfig, TrackingResult, tracking_config
from repro.trace.trace import Trace

__all__ = ["track_windows", "windowed_traces"]

log = get_logger(__name__)


def windowed_traces(
    traces: list[Trace],
    *,
    n_windows: int | None = None,
    window_ns: float | None = None,
) -> list[Trace]:
    """Slice each trace into time windows; drop the empty ones.

    The batch shim behind ``quick_track(windows=N)``: the returned
    window sub-traces feed the ordinary frames-then-track pipeline in
    window order (and trace order, when several traces are given).
    """
    out: list[Trace] = []
    for trace in traces:
        _, windows = slice_trace(
            trace, n_windows=n_windows, window_ns=window_ns
        )
        obs.count("stream.windows_total", len(windows))
        for window in windows:
            if window.n_bursts == 0:
                obs.count("stream.windows_empty")
                continue
            out.append(window)
    return out


def track_windows(
    trace: Trace,
    *,
    n_windows: int | None = None,
    window_ns: float | None = None,
    settings: FrameSettings | None = None,
    config: TrackerConfig | None = None,
    strict: bool = True,
    cache: PipelineCache | None = None,
    on_update: Callable[[TrackUpdate], None] | None = None,
    telemetry: WatchTelemetry | None = None,
    jobs: int | None = None,
    max_live_windows: int | None = None,
) -> "TrackingResult | PartialResult[TrackingResult]":
    """Slice *trace* into time windows and track them incrementally.

    Parameters
    ----------
    trace:
        The trace to stream (validated first; non-strict runs repair
        repairably bad bursts as usual).
    n_windows / window_ns:
        Window specification, exactly one required — see
        :func:`repro.stream.window.slice_trace`.
    settings / config:
        Frame-construction and tracker tunables.  ``settings.log_y``
        implies ``config.log_extensive`` like in ``quick_track``.
    strict:
        Strict runs raise on the first bad window or failing pair and
        return a plain :class:`TrackingResult`.  Non-strict runs
        quarantine degenerate windows (``stage="window"``) and failing
        pairs (``stage="pair"``) and return a
        :class:`~repro.robust.partial.PartialResult`.  Fewer than two
        surviving windows raises :class:`TrackingError` either way.
    cache:
        Optional pipeline cache.  Enables both the per-window
        frame-label cache and one checkpoint entry per window keyed by
        (trace digest, window spec, settings, config, strict, window):
        a restarted run resumes after the last window it stored.
    on_update:
        Called with a :class:`TrackUpdate` after every *live* frame
        push (replayed windows do not re-fire it).
    telemetry:
        Optional :class:`~repro.stream.forecast.WatchTelemetry`
        collecting the run's health surface (window/update counts,
        update latency, alerts).  When its
        :class:`~repro.stream.forecast.StreamMonitor` is attached
        (``WatchTelemetry(alerts=AlertConfig())``), every pushed frame
        is also forecast-checked and the resulting alerts ride on
        :attr:`TrackUpdate.alerts` and ``telemetry.alerts``.
        Monitoring is a pure observer: the tracked
        regions/relations/labels are bit-identical with it on or off.
    jobs:
        Accepted and ignored: a watch clusters each window in-process
        as it arrives, so window *k*'s update fires before window
        *k + 1* is clustered.  For throughput over a finished trace's
        windows use ``quick_track([trace], windows=N, jobs=J)``.
    max_live_windows:
        Memory bound: the tracker holds at most this many full frames;
        older windows are condensed to
        :class:`~repro.tracking.digest.FrameDigest` aggregates (see
        :class:`~repro.stream.incremental.IncrementalTracker`).
        Regions, coverage and relations are unaffected, so the bound
        is not part of the checkpoint key; burst-level reads of evicted
        frames are not available afterwards.

    The incremental result is bit-identical to batch tracking of the
    same surviving window frames — the guarantee the differential suite
    in ``tests/stream`` enforces.
    """
    settings = settings or FrameSettings()
    config = tracking_config(settings, config)

    with obsledger.run_record(
        "stream.track_windows",
        config_digest=obsledger.config_digest(settings, config),
        strict=strict,
    ), obs.span("stream.track_windows") as run_span:
        trace = validate_trace(trace, strict=strict)
        spec, windows = slice_trace(
            trace, n_windows=n_windows, window_ns=window_ns
        )
        obs.count("stream.windows_total", len(windows))

        # Pass 1: decide which windows survive, without running DBSCAN.
        # Survivors keep their raw points for the bounds computation.
        survivors: list[tuple[int, object]] = []
        window_failures: list[ItemFailure] = []
        n_empty = 0
        for index, window in enumerate(windows):
            if window.n_bursts == 0:
                obs.count("stream.windows_empty")
                n_empty += 1
                continue
            try:
                _, points = precheck_frame_input(window, settings)
            except ReproError as exc:
                if strict:
                    raise
                window_failures.append(quarantine(
                    ItemFailure.from_exception(window.label(), "window", exc)
                ))
                continue
            survivors.append((index, points))

        if len(survivors) < 2:
            raise TrackingError(
                f"fewer than two windows survived "
                f"({len(survivors)} alive of {len(windows)}); widen the "
                "windows or relax the frame settings"
            )
        bounds = SpaceBounds.from_raw_points(
            [points for _, points in survivors],
            [windows[index].nranks for index, _ in survivors],
            settings.metric_names,
            reference=config.reference,
            log_extensive=config.log_extensive,
        )
        if telemetry is not None:
            telemetry.n_windows = len(windows)
            telemetry.n_empty = n_empty
            telemetry.n_quarantined = len(window_failures)
        tracker = IncrementalTracker(
            config, bounds=bounds, strict=strict,
            monitor=telemetry.monitor if telemetry is not None else None,
            max_live_frames=max_live_windows,
        )

        # Checkpoint prefix: the stored pairs of the leading surviving
        # windows, up to the first window without an entry.
        ok_windows = [index for index, _ in survivors]
        key = None
        stored: list[tuple[PairRelations | None, ItemFailure | None]] = []
        if cache is not None:
            key = stream_key(
                trace, spec.as_dict(), settings, config, strict=strict
            )
            for index in ok_windows:
                entry = load_checkpoint(cache, key, index)
                if entry is None:
                    break
                stored.append(entry)

        # Pass 2: push every surviving window.  The checkpoint prefix
        # replays its stored pairs; every later window runs live and
        # stores its own entry.
        previous_ids: set[int] | None = None
        for position, index in enumerate(ok_windows):
            with obs.span("stream.window", window=index):
                started = time.perf_counter()
                [frame] = make_frames(
                    [windows[index]], settings, jobs=1, cache=cache
                )
                if position < len(stored) and not _pair_fits(
                    stored[position][0], previous_ids, frame
                ):
                    log.warning(
                        "checkpoint of window #%d does not fit its frames; "
                        "continuing live", index,
                    )
                    cache.invalidate(window_key(key, index))
                    del stored[position:]
                replayed = position < len(stored)
                update = tracker.push(
                    frame, precomputed=stored[position] if replayed else None
                )
                elapsed = time.perf_counter() - started
                if replayed:
                    obs.count("stream.windows_resumed")
                elif update.pair is not None:
                    obs.observe("stream.update_seconds", elapsed)
                    obs.count("stream.updates_total")
                if telemetry is not None:
                    telemetry.record_update(
                        update, seconds=None if replayed else elapsed
                    )
                if obs.enabled():
                    obs.set_gauge("stream.last_window", index)
                    obs.set_gauge("stream.live_windows", tracker.n_live_frames)
                    obs.set_gauge(
                        "stream.evalcache_entries",
                        tracker.cache_info()["entries"],
                    )
            previous_ids = set(frame.cluster_ids)
            if replayed:
                continue
            if on_update is not None:
                on_update(update)
            if cache is not None:
                save_checkpoint(cache, key, index, update.pair, update.failure)

        result = tracker.result()
        if obs.enabled():
            run_span.set(
                n_windows=len(windows),
                n_survivors=len(survivors),
                n_resumed=len(stored),
                coverage=result.coverage,
            )
            if telemetry is not None and telemetry.alerts_enabled:
                run_span.set(n_alerts=len(telemetry.alerts))
        if obsledger.active_recorder() is not None:
            obsledger.annotate(
                stream={
                    "n_windows": len(windows),
                    "n_survivors": len(survivors),
                    "n_resumed": len(stored),
                    "key_digest": (
                        obsledger.config_digest(key) if key is not None else None
                    ),
                },
                coverage=round(result.coverage, 4),
                quarantined={
                    "windows": len(window_failures),
                    "pairs": len(tracker.failures),
                },
            )
            if telemetry is not None and telemetry.alerts_enabled:
                obsledger.annotate(
                    alerts=summarize_alerts(telemetry.alerts).to_dict()
                )
        if strict:
            return result
        return PartialResult(
            value=result,
            failures=tuple(window_failures) + tracker.failures,
        )


def _pair_fits(
    pair: PairRelations | None, previous_ids: set[int] | None, frame: Frame
) -> bool:
    """Whether a checkpointed *pair* can join *frame* to its predecessor.

    The first frame has no pair, and every later pair relates only
    cluster ids of its two frames.  The key pins trace digest, spec,
    settings, config and strictness, so a misfit means corruption.
    """
    if pair is None or previous_ids is None:
        return pair is None and previous_ids is None
    current = set(frame.cluster_ids)
    return all(
        relation.left <= previous_ids and relation.right <= current
        for relation in pair.relations
    )
