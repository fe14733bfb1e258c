"""High-level convenience API.

These helpers wire the pipeline stages together for the common case:
traces in, tracked regions and trends out.  Power users can drive the
stages directly (:mod:`repro.clustering`, :mod:`repro.tracking`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro import obs
from repro.clustering.frames import (
    Frame,
    FrameSettings,
    make_frame,
    make_frames,
    make_frames_partial,
)
from repro.obs.log import get_logger
from repro.tracking.tracker import Tracker, TrackerConfig, TrackingResult
from repro.trace.trace import Trace

if TYPE_CHECKING:
    from repro.parallel.cache import PipelineCache
    from repro.robust.partial import PartialResult

__all__ = [
    "cluster_trace",
    "make_frames",
    "track_frames",
    "quick_track",
]

log = get_logger(__name__)


def cluster_trace(trace: Trace, settings: FrameSettings | None = None) -> Frame:
    """Cluster one trace into a frame (capture + object recognition)."""
    return make_frame(trace, settings)


def track_frames(
    frames: list[Frame], config: TrackerConfig | None = None
) -> TrackingResult:
    """Track objects across already-built frames."""
    return Tracker(frames, config).run()


def quick_track(
    traces: list[Trace],
    *,
    settings: FrameSettings | None = None,
    config: TrackerConfig | None = None,
    jobs: int | None = None,
    cache: "PipelineCache | None" = None,
    strict: bool = True,
    windows: int | None = None,
    window_ns: float | None = None,
) -> "TrackingResult | PartialResult[TrackingResult]":
    """One-call pipeline: traces -> frames -> tracking result.

    Parameters
    ----------
    traces:
        One trace per execution scenario, in sequence order.
    settings:
        Frame-construction settings shared by all scenarios.
    config:
        Tracker configuration.
    jobs:
        Worker count for per-trace frame construction; ``None`` defers
        to ``REPRO_JOBS``.  Pairs are tracked in-process.  Results are
        bit-identical to a serial run.
    cache:
        Optional :class:`repro.parallel.cache.PipelineCache` reusing
        frame labellings across runs (see ``docs/performance.md``).
    strict:
        When true (the default), the first malformed trace or failing
        stage raises.  When false, repairably bad bursts are dropped,
        failing traces / frames / pairs are quarantined, and the result
        is a :class:`repro.robust.PartialResult` listing every
        quarantined item.  Fewer than two surviving frames raises
        :class:`~repro.errors.TrackingError` either way.
    windows / window_ns:
        When given (at most one), each trace is first sliced into
        contiguous time windows (:func:`repro.stream.slice_trace`) and
        the non-empty window sub-traces become the frame sequence —
        the paper's "each experiment (or time interval)" reading.  For
        a single trace this matches :func:`repro.stream.track_windows`
        output exactly (that entry point additionally streams updates
        and checkpoints for resume).

    Examples
    --------
    >>> from repro import apps, quick_track
    >>> traces = [apps.wrf.build(ranks=n).run(seed=0) for n in (32, 64)]
    >>> result = quick_track(traces)
    >>> result.coverage > 0
    True
    """
    from dataclasses import replace

    from repro.errors import ReproError, TrackingError
    from repro.robust.partial import ItemFailure, PartialResult
    from repro.robust.validate import validate_trace

    settings = settings or FrameSettings()
    config = config or TrackerConfig()
    if windows is not None or window_ns is not None:
        from repro.stream.pipeline import windowed_traces

        traces = windowed_traces(
            traces, n_windows=windows, window_ns=window_ns
        )
    if settings.log_y and not config.log_extensive:
        # Keep the tracking space consistent with the clustering space.
        log.info(
            "settings.log_y=True overrides config.log_extensive=False: "
            "extensive axes will be normalised in log space to match the "
            "clustering space"
        )
        config = replace(config, log_extensive=True)
    from repro.obs import ledger as obsledger

    with obsledger.run_record(
        "api.quick_track",
        n_traces=len(traces),
        config_digest=obsledger.config_digest(settings, config),
        strict=strict,
        cache_root=str(cache.root) if cache is not None else None,
    ) as ledger_rec, obs.span("api.quick_track", n_traces=len(traces)):
        if strict:
            checked = [validate_trace(trace, strict=True) for trace in traces]
            frames = make_frames(checked, settings, jobs=jobs, cache=cache)
            result = Tracker(frames, config).run()
            if ledger_rec is not None:
                ledger_rec.annotate(
                    coverage=round(result.coverage, 4),
                    n_regions=len(result.regions),
                )
            return result
        failures: list[ItemFailure] = []
        checked = []
        for trace in traces:
            try:
                checked.append(validate_trace(trace, strict=False))
            except ReproError as exc:
                failure = ItemFailure.from_exception(
                    trace.label(), "validate", exc
                )
                failures.append(failure)
                obs.count("robust.quarantined_total", stage="validate")
                log.warning("quarantined trace: %s", failure)
        frame_slots, frame_failures = make_frames_partial(
            checked, settings, jobs=jobs, cache=cache
        )
        failures.extend(frame_failures)
        frames = [frame for frame in frame_slots if frame is not None]
        if len(frames) < 2:
            detail = (
                "; ".join(str(f) for f in failures) if failures else "none"
            )
            raise TrackingError(
                f"fewer than two frames survived quarantine "
                f"({len(frames)} alive); failures: {detail}"
            )
        tracked = Tracker(frames, config).run(strict=False)
        failures.extend(tracked.failures)
        if ledger_rec is not None:
            ledger_rec.annotate(
                coverage=round(tracked.value.coverage, 4),
                n_regions=len(tracked.value.regions),
                quarantined={"items": len(failures)},
            )
        return PartialResult(value=tracked.value, failures=tuple(failures))
