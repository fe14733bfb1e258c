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
3. **streaming pass** — build each surviving window's frame (honouring
   the frame-label cache), push it into an
   :class:`~repro.stream.incremental.IncrementalTracker`, emit a
   :class:`~repro.stream.incremental.TrackUpdate` through *on_update*,
   record per-window metrics (``stream.update_seconds`` histogram,
   ``stream.updates_total``) and persist a resume checkpoint after
   every completed window.

A restarted run with the same cache replays completed windows from the
checkpoint (counted on ``stream.windows_resumed``) without recomputing
frames or evaluators, then continues live.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Callable

from repro import obs
from repro.clustering.frames import (
    Frame,
    FrameSettings,
    frame_from_labels,
    make_frame,
    precheck_frame_input,
)
from repro.errors import ClusteringError, ReproError, TrackingError
from repro.obs import ledger as obsledger
from repro.obs.alerts import summarize_alerts
from repro.obs.log import get_logger
from repro.parallel.cache import PipelineCache, frame_key
from repro.parallel.executor import pmap, resolve_jobs
from repro.robust.partial import ItemFailure, PartialResult, quarantine
from repro.robust.validate import validate_trace
from repro.stream.checkpoint import (
    WindowRecord,
    load_checkpoint,
    save_checkpoint,
    stream_key,
)
from repro.stream.forecast import WatchTelemetry
from repro.stream.incremental import IncrementalTracker, TrackUpdate
from repro.stream.window import slice_trace
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


def _window_frame(
    window: Trace,
    settings: FrameSettings,
    cache: PipelineCache | None,
    *,
    labels=None,
) -> Frame:
    """Build one window's frame, through the frame-label cache if given.

    *labels* short-circuits with a prefetched labelling (the
    multi-process watch computes window labels ahead of the serial push
    loop); a labelling that does not fit the window falls through to
    the normal cache/compute path.
    """
    if labels is not None:
        try:
            return frame_from_labels(window, settings, labels)
        except ClusteringError:
            pass
    key = None
    if cache is not None:
        key = frame_key(window, settings)
        cached = cache.get_labels(key)
        if cached is not None:
            try:
                return frame_from_labels(window, settings, cached)
            except ClusteringError:
                cache.invalidate(key)
    frame = make_frame(window, settings)
    if cache is not None:
        cache.put_labels(key, frame.labels)
    return frame


def _window_labels_task(task):
    """Worker-side task: compute (or claim) one window's cluster labels.

    Work claiming goes through the shared frame-label cache: the task
    first checks whether another worker (or an earlier run) already
    committed this window's labels — ``PipelineCache`` writes are
    atomic, so concurrent workers race safely and the loser merely
    recomputes.  Labels are a pure function of the window and settings,
    so the parent's serial push loop is unaffected by who computed what.
    """
    window, settings, cache_root = task
    cache = PipelineCache(cache_root) if cache_root is not None else None
    key = None
    if cache is not None:
        key = frame_key(window, settings)
        labels = cache.get_labels(key)
        if labels is not None:
            return labels
    frame = make_frame(window, settings)
    if cache is not None:
        cache.put_labels(key, frame.labels)
    return frame.labels


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
        frame-label cache and the stream checkpoint keyed by
        (trace digest, window spec, settings, config, strict): a
        restarted run resumes from the last completed window.
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
        :attr:`TrackUpdate.alerts`, the checkpoint, and
        ``telemetry.alerts``.  Monitoring is a pure observer: the
        tracked regions/relations/labels are bit-identical with it on
        or off.
    jobs:
        Worker count for the multi-process window fan-out.  More than
        one job prefetches the pending windows' cluster labels across
        ``pmap`` workers — claiming work through the (atomic) frame
        label cache when one is given — before the serial push loop
        consumes them in order; pairs are always combined in-process.
        ``None`` defers to ``REPRO_JOBS``.
    max_live_windows:
        Memory bound: the tracker holds at most this many full frames;
        older windows are condensed to
        :class:`~repro.tracking.digest.FrameDigest` aggregates (see
        :class:`~repro.stream.incremental.IncrementalTracker`).
        Regions, coverage and relations are unaffected; burst-level
        reads of evicted frames are not available afterwards.

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
        # statuses[i] is ("ok", points) | ("empty", None) |
        # ("quarantined", failure); survivors keep per-window raw points
        # for the bounds computation.
        statuses: list[tuple[str, object]] = []
        window_failures: list[ItemFailure] = []
        for window in windows:
            if window.n_bursts == 0:
                obs.count("stream.windows_empty")
                statuses.append(("empty", None))
                continue
            try:
                _, points = precheck_frame_input(window, settings)
            except ReproError as exc:
                if strict:
                    raise
                failure = quarantine(
                    ItemFailure.from_exception(window.label(), "window", exc)
                )
                window_failures.append(failure)
                statuses.append(("quarantined", failure))
                continue
            statuses.append(("ok", points))

        survivors = [
            (index, payload)
            for index, (status, payload) in enumerate(statuses)
            if status == "ok"
        ]
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
        monitor = telemetry.monitor if telemetry is not None else None
        if telemetry is not None:
            telemetry.n_windows = len(windows)
            telemetry.n_empty = sum(
                1 for status, _ in statuses if status == "empty"
            )
            telemetry.n_quarantined = sum(
                1 for status, _ in statuses if status == "quarantined"
            )
        tracker = IncrementalTracker(
            config, bounds=bounds, strict=strict, monitor=monitor,
            max_live_frames=max_live_windows,
        )

        # Checkpoint replay: adopt completed windows verbatim.
        key = None
        records: list[WindowRecord] = []
        resume_from = 0
        if cache is not None:
            key = stream_key(
                trace, spec.as_dict(), settings, config, strict=strict,
                max_live=max_live_windows,
            )
            stored = load_checkpoint(cache, key)
            if stored is not None:
                try:
                    resume_from = _replay(
                        stored, statuses, windows, settings, tracker,
                        records, telemetry,
                    )
                except (ReproError, ValueError, IndexError) as error:
                    log.warning(
                        "stream checkpoint did not replay cleanly (%s); "
                        "starting cold", error,
                    )
                    cache.invalidate(key)
                    records = []
                    resume_from = 0
                    if telemetry is not None:
                        telemetry.reset_stream_state()
                        monitor = telemetry.monitor
                    tracker = IncrementalTracker(
                        config, bounds=bounds, strict=strict, monitor=monitor,
                        max_live_frames=max_live_windows,
                    )

        # Multi-process fan-out: prefetch the pending windows' labels
        # across workers before the (serial, order-preserving) push
        # loop.  Labels are bit-identical however they were computed,
        # so parallel prefetch cannot change the result.
        prefetched: dict[int, object] = {}
        pending_ok = [
            index
            for index in range(resume_from, len(windows))
            if statuses[index][0] == "ok"
        ]
        if resolve_jobs(jobs) > 1 and len(pending_ok) >= 2:
            cache_root = str(cache.root) if cache is not None else None
            label_results = pmap(
                _window_labels_task,
                [
                    (windows[index], settings, cache_root)
                    for index in pending_ok
                ],
                jobs=jobs,
                label="stream.windows.pmap",
            )
            prefetched = dict(zip(pending_ok, label_results))

        # Pass 2: stream the remaining windows.
        for index in range(resume_from, len(windows)):
            status, payload = statuses[index]
            window = windows[index]
            if status == "empty":
                records.append(WindowRecord(window=index, status="empty"))
            elif status == "quarantined":
                records.append(
                    WindowRecord(
                        window=index, status="quarantined", failure=payload
                    )
                )
            else:
                with obs.span("stream.window", window=index):
                    started = time.perf_counter()
                    frame = _window_frame(
                        window, settings, cache, labels=prefetched.get(index)
                    )
                    update = tracker.push(frame)
                    elapsed = time.perf_counter() - started
                    if update.pair is not None:
                        obs.observe("stream.update_seconds", elapsed)
                        obs.count("stream.updates_total")
                    if telemetry is not None:
                        telemetry.record_update(update, seconds=elapsed)
                    if obs.enabled():
                        obs.set_gauge("stream.last_window", index)
                        obs.set_gauge(
                            "stream.live_windows", tracker.n_live_frames
                        )
                        obs.set_gauge(
                            "stream.evalcache_entries",
                            tracker.cache_info()["entries"],
                        )
                    records.append(
                        WindowRecord(
                            window=index,
                            status="ok",
                            labels=frame.labels,
                            pair=update.pair,
                            pair_failure=update.failure,
                            alerts=update.alerts,
                        )
                    )
                if on_update is not None:
                    on_update(update)
            if cache is not None:
                save_checkpoint(cache, key, records)

        result = tracker.result()
        if obs.enabled():
            run_span.set(
                n_windows=len(windows),
                n_survivors=len(survivors),
                n_resumed=resume_from,
                coverage=result.coverage,
            )
            if telemetry is not None and telemetry.alerts_enabled:
                run_span.set(n_alerts=len(telemetry.alerts))
        if obsledger.active_recorder() is not None:
            obsledger.annotate(
                stream={
                    "n_windows": len(windows),
                    "n_survivors": len(survivors),
                    "n_resumed": resume_from,
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


def _replay(
    stored: list[WindowRecord],
    statuses: list[tuple[str, object]],
    windows: list[Trace],
    settings: FrameSettings,
    tracker: IncrementalTracker,
    records: list[WindowRecord],
    telemetry: WatchTelemetry | None = None,
) -> int:
    """Feed checkpointed windows back into *tracker*; return the resume index.

    The checkpoint must describe a prefix of this run's windows with the
    same per-window statuses, and each stored relation may only name
    cluster ids of the two frames it joins (the key pins trace digest,
    spec, settings, config and strictness, so a mismatch means
    corruption); any disagreement raises :class:`ValueError` and the
    caller starts cold.

    When the tracker carries a monitor, replayed pushes rebuild its
    trend state and alerts are *recomputed* (deterministically — the
    monitor is a pure function of the pushed frames) rather than
    trusted from the checkpoint, so a checkpoint written without
    alerting resumes into an alerting run seamlessly.
    """
    previous: Frame | None = None
    for position, record in enumerate(stored):
        if record.window != position or position >= len(windows):
            raise ValueError(
                f"checkpoint window #{record.window} out of sequence"
            )
        status, _ = statuses[position]
        if record.status != status:
            raise ValueError(
                f"checkpoint window #{position} status {record.status!r} "
                f"disagrees with recomputed status {status!r}"
            )
        if record.status == "ok":
            frame = frame_from_labels(
                windows[position], settings, record.labels
            )
            precomputed = None
            if previous is not None:
                if record.pair is None:
                    raise ValueError(
                        f"checkpoint window #{position} lacks its pair"
                    )
                left, right = set(previous.cluster_ids), set(frame.cluster_ids)
                if any(
                    not (relation.left <= left and relation.right <= right)
                    for relation in record.pair.relations
                ):
                    raise ValueError(
                        f"checkpoint window #{position} relates cluster ids "
                        "its frames lack"
                    )
                precomputed = (record.pair, record.pair_failure)
            update = tracker.push(frame, precomputed=precomputed)
            previous = frame
            obs.count("stream.windows_resumed")
            if tracker.monitor is not None:
                record = replace(record, alerts=update.alerts)
            if telemetry is not None:
                telemetry.n_resumed += 1
                telemetry.record_update(update)
        records.append(record)
    return len(stored)
