"""High-level convenience API.

These helpers wire the pipeline stages together for the common case:
traces in, tracked regions and trends out.  Power users can drive the
stages directly (:mod:`repro.clustering`, :mod:`repro.tracking`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable

from repro import obs
from repro.clustering.frames import (
    Frame,
    FrameSettings,
    _make_frames_impl,
    make_frame,
    make_frames,
)
from repro.errors import ReproError, TrackingError
from repro.robust.partial import ItemFailure, PartialResult, quarantine
from repro.robust.validate import validate_trace
from repro.tracking.tracker import (
    Tracker,
    TrackerConfig,
    TrackingResult,
    tracking_config,
)
from repro.trace.trace import Trace

if TYPE_CHECKING:
    from repro.parallel.cache import PipelineCache

__all__ = [
    "cluster_trace",
    "make_frames",
    "track_frames",
    "quick_track",
]


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
    settings = settings or FrameSettings()
    config = tracking_config(settings, config)
    if windows is not None or window_ns is not None:
        from repro.stream.pipeline import windowed_traces

        traces = windowed_traces(
            traces, n_windows=windows, window_ns=window_ns
        )
    from repro.obs import ledger as obsledger

    with obsledger.run_record(
        "api.quick_track",
        n_traces=len(traces),
        config_digest=obsledger.config_digest(settings, config),
        strict=strict,
        cache_root=str(cache.root) if cache is not None else None,
    ) as ledger_rec, obs.span("api.quick_track", n_traces=len(traces)):
        _, result, failures = _track_traces(
            traces, settings, config, jobs=jobs, cache=cache, strict=strict,
            require_two=_require_two_frames,
        )
        if ledger_rec is not None:
            ledger_rec.annotate(
                coverage=round(result.coverage, 4),
                n_regions=len(result.regions),
            )
            if not strict:
                ledger_rec.annotate(quarantined={"items": len(failures)})
        if strict:
            return result
        return PartialResult(value=result, failures=tuple(failures))


def _track_traces(
    traces: list[Trace],
    settings: FrameSettings,
    config: TrackerConfig,
    *,
    jobs: int | None,
    cache: "PipelineCache | None",
    strict: bool,
    require_two: Callable[[int, list[ItemFailure]], None],
    failures: Iterable[ItemFailure] = (),
) -> tuple[list[Trace], TrackingResult, list[ItemFailure]]:
    """Validate, build frames and track: the batch core of every run.

    Strict and non-strict runs execute the same statements: where a
    strict run raises a failing item's :class:`~repro.errors.ReproError`,
    a non-strict run quarantines the item and goes on with the rest.
    *require_two* raises the caller's error when fewer than two traces
    survive validation or fewer than two frames survive clustering.
    *failures* are items an earlier stage quarantined.

    Returns the surviving traces, the tracking result over their frames
    and every quarantined item, in pipeline order.
    """
    failures = list(failures)
    checked: list[Trace] = []
    for trace in traces:
        try:
            checked.append(validate_trace(trace, strict=strict))
        except ReproError as exc:
            if strict:
                raise
            failures.append(quarantine(
                ItemFailure.from_exception(trace.label(), "validate", exc)
            ))
    require_two(len(checked), failures)
    slots, frame_failures = _make_frames_impl(
        checked, settings, jobs=jobs, cache=cache, strict=strict
    )
    failures.extend(frame_failures)
    survivors = [
        (trace, frame) for trace, frame in zip(checked, slots) if frame is not None
    ]
    require_two(len(survivors), failures)
    tracked = PartialResult.of(
        Tracker([frame for _, frame in survivors], config).run(strict=strict)
    )
    failures.extend(tracked.failures)
    return [trace for trace, _ in survivors], tracked.value, failures


def _require_two_frames(n_alive: int, failures: list[ItemFailure]) -> None:
    """Tracking needs two frames; fewer is a total failure even non-strict."""
    if n_alive >= 2:
        return
    if not failures:
        raise TrackingError("tracking needs at least two frames")
    raise TrackingError(
        f"fewer than two frames survived quarantine ({n_alive} alive); "
        f"failures: {'; '.join(str(f) for f in failures)}"
    )
