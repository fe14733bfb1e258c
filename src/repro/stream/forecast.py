"""Online per-region forecasting and divergence alerting for the watch.

The monitoring half of ``repro-track watch --alerts``:

- :class:`StreamMonitor` rides along an
  :class:`~repro.stream.incremental.IncrementalTracker` as a **pure
  observer**: after every push it aggregates each tracked region's
  metrics over the new frame, compares them against one-step-ahead
  forecasts from incrementally refit trend models
  (:class:`repro.predict.online.OnlineTrend`), and emits typed
  :class:`~repro.obs.alerts.AlertRecord`\\ s.  It never feeds anything
  back into the tracker, so regions/relations/labels are bit-identical
  with monitoring on or off (enforced by ``tests/stream``).
- :class:`WatchTelemetry` is the per-run health surface: window/update
  counts, an always-on latency histogram of ``stream.update_seconds``,
  the accumulated alerts, the stderr end-of-run summary and the
  optional JSONL alert log.

Track identity
--------------
Region ids are duration-ranked and re-rank as windows arrive, so the
monitor keys its state by the *stable track key*: the eldest
``(frame, cluster)`` node of the region's component, rendered as
``"f<frame>:c<cluster>"``.  When two components merge, the merged
component keeps the elder node — the elder track's trend history
continues and the younger track simply stops appearing (a merge is not
a death).  All monitor state is a deterministic function of the pushed
frames, so a checkpointed resume that replays its prefix reconstructs
identical trends and re-emits identical alerts.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from repro import obs
from repro.obs.alerts import (
    AlertConfig,
    AlertRecord,
    summarize_alerts,
)
from repro.obs.metrics import Histogram
from repro.predict.online import OnlineTrend
from repro.stream.window import WINDOW_KEY
from repro.tracking.trends import frame_region_metrics

__all__ = ["StreamMonitor", "WatchTelemetry", "track_key"]

#: Trend families whose reselection to a plateau signals stalled growth.
_GROWING_MODELS = ("LinearModel", "PowerLawModel")

#: Absolute tolerance floor so zero-forecast metrics cannot alert on
#: floating-point dust.
_TOLERANCE_FLOOR = 1e-12


def track_key(region) -> str:
    """Stable identity of a tracked region: its eldest member node.

    ``chain_regions`` re-ranks region ids by total duration on every
    step, so the id alone cannot name a track across updates.  The
    eldest ``(frame, cluster)`` node of the component is invariant:
    nodes are never removed from a component, and a merge keeps the
    smaller (elder) node.
    """
    for frame_index, members in enumerate(region.members):
        if members:
            return f"f{frame_index}:c{min(members)}"
    raise ValueError(f"region {region.region_id} has no members")


class _MetricState:
    """One (track, metric) trend: model, extrema, and report series."""

    __slots__ = ("trend", "best_seen", "in_regression", "observed", "forecasts")

    def __init__(self, config: AlertConfig) -> None:
        self.trend = OnlineTrend(
            reselect_every=config.reselect_every,
            max_history=config.max_history,
        )
        self.best_seen: float | None = None
        self.in_regression = False
        self.observed: list[tuple[int, float]] = []
        self.forecasts: list[tuple[int, float]] = []


class _TrackState:
    """Presence/shape history of one stable track."""

    __slots__ = (
        "key", "region_id", "presence", "max_clusters",
        "alive", "split_flagged", "dead_flagged", "metrics",
    )

    def __init__(self, key: str) -> None:
        self.key = key
        self.region_id = -1
        self.presence = 0
        self.max_clusters = 0
        self.alive = False
        self.split_flagged = False
        self.dead_flagged = False
        self.metrics: dict[str, _MetricState] = {}


class StreamMonitor:
    """Per-track forecasting and alerting over a stream of updates.

    Attach via ``IncrementalTracker(..., monitor=monitor)``; the tracker
    calls :meth:`observe` after every push and carries the returned
    alerts on :attr:`TrackUpdate.alerts <repro.stream.TrackUpdate>`.
    """

    def __init__(self, config: AlertConfig | None = None) -> None:
        self.config = config or AlertConfig()
        self._tracks: dict[str, _TrackState] = {}

    @property
    def n_tracks(self) -> int:
        """Number of tracks the monitor has ever followed."""
        return len(self._tracks)

    # ------------------------------------------------------------------
    def observe(self, update) -> tuple[AlertRecord, ...]:
        """Inspect one :class:`TrackUpdate`; return the alerts it raises.

        Reads the update's frame and regions, never mutates them.  Only
        the top ``config.max_regions`` duration-ranked regions are
        monitored, which bounds the per-window forecast cost.
        """
        config = self.config
        frame = update.frame
        step = update.step
        window = int(frame.trace.scenario.get(WINDOW_KEY, step))
        alerts: list[AlertRecord] = []

        for region in update.regions[: config.max_regions]:
            key = track_key(region)
            state = self._tracks.get(key)
            if state is None:
                state = _TrackState(key)
                self._tracks[key] = state
            state.region_id = region.region_id
            members_now = region.members[step]

            if not members_now:
                if (
                    state.alive
                    and state.presence >= config.min_history
                    and not state.dead_flagged
                ):
                    state.dead_flagged = True
                    alerts.append(AlertRecord(
                        window=window,
                        step=step,
                        region_id=region.region_id,
                        track=key,
                        kind="death",
                        message=(
                            f"region vanished after {state.presence} "
                            "frame(s) of presence"
                        ),
                    ))
                state.alive = False
                continue

            if (
                state.presence >= config.min_history
                and state.max_clusters == 1
                and len(members_now) >= 2
                and not state.split_flagged
            ):
                state.split_flagged = True
                alerts.append(AlertRecord(
                    window=window,
                    step=step,
                    region_id=region.region_id,
                    track=key,
                    kind="split",
                    message=(
                        f"single-cluster region split into "
                        f"{len(members_now)} clusters"
                    ),
                ))

            observed = frame_region_metrics(frame, members_now, config.metrics)
            for metric, value in zip(config.metrics, observed):
                alerts.extend(self._observe_metric(
                    state, metric, value, window, step, region.region_id,
                ))

            state.presence += 1
            state.max_clusters = max(state.max_clusters, len(members_now))
            state.alive = True
            state.dead_flagged = False

        if obs.enabled():
            obs.set_gauge("forecast.tracks", len(self._tracks))
            obs.count("forecast.points_total", len(config.metrics))
            for alert in alerts:
                obs.count("alerts.emitted_total", kind=alert.kind)
        return tuple(alerts)

    def _observe_metric(
        self,
        state: _TrackState,
        metric: str,
        observed: float,
        window: int,
        step: int,
        region_id: int,
    ) -> list[AlertRecord]:
        """Forecast-vs-observed checks for one (track, metric) pair."""
        config = self.config
        mstate = state.metrics.get(metric)
        if mstate is None:
            mstate = state.metrics[metric] = _MetricState(config)
        alerts: list[AlertRecord] = []

        # Forecast before this observation enters the trend: a genuine
        # one-step-ahead prediction.
        point = mstate.trend.forecast(float(window))
        if point is not None:
            mstate.forecasts.append((window, point.predicted))
            if (
                np.isfinite(observed)
                and mstate.trend.n_observations >= config.min_history
            ):
                tolerance = max(
                    config.threshold * abs(point.predicted),
                    config.sigma * point.residual_std,
                    _TOLERANCE_FLOOR,
                )
                deviation = abs(observed - point.predicted)
                if deviation > tolerance:
                    alerts.append(AlertRecord(
                        window=window,
                        step=step,
                        region_id=region_id,
                        track=state.key,
                        kind="divergence",
                        metric=metric,
                        observed=observed,
                        forecast=point.predicted,
                        threshold=tolerance,
                        deviation=deviation,
                        model=point.model_kind,
                        message=(
                            f"observed {observed:.4g}, forecast "
                            f"{point.predicted:.4g} "
                            f"({point.model_kind}), deviation "
                            f"{deviation:.4g} > tolerance {tolerance:.4g}"
                        ),
                    ))

        if metric == "ipc" and np.isfinite(observed):
            best = mstate.best_seen
            if best is not None and best > 0:
                floor = best * (1.0 - config.regression_threshold)
                if observed < floor:
                    if not mstate.in_regression:
                        mstate.in_regression = True
                        drop = (best - observed) / best
                        alerts.append(AlertRecord(
                            window=window,
                            step=step,
                            region_id=region_id,
                            track=state.key,
                            kind="regression",
                            metric=metric,
                            observed=observed,
                            forecast=best,
                            threshold=config.regression_threshold,
                            deviation=drop,
                            message=(
                                f"ipc {observed:.4g} is {drop * 100:.0f}% "
                                f"below best-seen {best:.4g}"
                            ),
                        ))
                else:
                    mstate.in_regression = False
            if best is None or observed > best:
                mstate.best_seen = observed

        previous_kind = mstate.trend.model_kind
        mstate.trend.observe(float(window), observed)
        if np.isfinite(observed):
            mstate.observed.append((window, observed))
        new_kind = mstate.trend.model_kind
        if previous_kind in _GROWING_MODELS and new_kind == "PlateauModel":
            alerts.append(AlertRecord(
                window=window,
                step=step,
                region_id=region_id,
                track=state.key,
                kind="plateau",
                metric=metric,
                observed=observed,
                model=new_kind,
                message=(
                    f"trend stalled: {previous_kind} reselected to "
                    "PlateauModel"
                ),
            ))
        return alerts

    # ------------------------------------------------------------------
    def series(self) -> list[dict]:
        """Observed-vs-forecast series per (track, metric), for reports.

        One entry per (track, metric) with at least one observation:
        ``{"track", "region_id", "metric", "observed": [(window, v)...],
        "forecast": [(window, v)...]}``.  Tracks appear in first-seen
        order, metrics in config order.
        """
        out: list[dict] = []
        for state in self._tracks.values():
            for metric in self.config.metrics:
                mstate = state.metrics.get(metric)
                if mstate is None or not mstate.observed:
                    continue
                out.append({
                    "track": state.key,
                    "region_id": state.region_id,
                    "metric": metric,
                    "observed": list(mstate.observed),
                    "forecast": list(mstate.forecasts),
                })
        return out


class WatchTelemetry:
    """Health surface of one windowed watch run.

    Collects what the pipeline observed — window outcomes, live-update
    latency, alerts — independently of the gated observability switch,
    so the end-of-run summary is available on every watch.  Pass one
    instance to :func:`repro.stream.track_windows`.

    Parameters
    ----------
    alerts:
        :class:`~repro.obs.alerts.AlertConfig` to enable the online
        monitor; ``None`` (default) runs the health surface only — no
        forecasting, no alerts.
    """

    def __init__(self, *, alerts: AlertConfig | None = None) -> None:
        self.monitor = StreamMonitor(alerts) if alerts is not None else None
        self.n_windows = 0
        self.n_empty = 0
        self.n_quarantined = 0
        self.n_resumed = 0
        self.n_updates = 0
        self.update_seconds = Histogram("stream.update_seconds", ())
        self.alerts: list[AlertRecord] = []
        #: Index of the most recent window pushed (-1 before any).
        self.last_window = -1
        #: ``time.monotonic()`` of the most recent push (None before any).
        self.last_update_monotonic: float | None = None

    @property
    def alerts_enabled(self) -> bool:
        """Whether the online monitor is attached."""
        return self.monitor is not None

    def record_update(
        self, update, *, seconds: float | None = None
    ) -> None:
        """Account one tracker push: live when *seconds* is given, else
        replayed from a checkpoint."""
        if seconds is None:
            self.n_resumed += 1
        elif update.pair is not None:
            self.n_updates += 1
            self.update_seconds.observe(seconds)
        try:
            window = int(
                update.frame.trace.scenario.get(WINDOW_KEY, update.step)
            )
        except (AttributeError, TypeError, ValueError):
            window = update.step
        self.last_window = max(self.last_window, window)
        self.last_update_monotonic = time.monotonic()
        self.alerts.extend(update.alerts)

    def health(self) -> dict:
        """JSON-ready health document for the ``/healthz`` endpoint.

        Reports window/update counters, the most recent window and its
        age (the *last-window lag* an external prober watches for a
        stalled stream), latency percentiles and alert totals.
        """
        hist = self.update_seconds
        lag = (
            round(time.monotonic() - self.last_update_monotonic, 3)
            if self.last_update_monotonic is not None
            else None
        )
        payload: dict = {
            "status": "alerting" if self.alerts else "ok",
            "windows": {
                "total": self.n_windows,
                "empty": self.n_empty,
                "quarantined": self.n_quarantined,
                "resumed": self.n_resumed,
            },
            "live_updates": self.n_updates,
            "last_window": self.last_window,
            "last_update_age_s": lag,
            "update_p50_s": round(hist.p50, 6),
            "update_p99_s": round(hist.p99, 6),
        }
        if self.monitor is None:
            payload["alerts"] = None
        else:
            payload["alerts"] = summarize_alerts(self.alerts).to_dict()
        return payload

    # ------------------------------------------------------------------
    def summary_line(self) -> str:
        """The end-of-run stderr summary."""
        hist = self.update_seconds
        if hist.count:
            latency = (
                f"update p50={hist.p50 * 1e3:.2f}ms "
                f"p90={hist.p90 * 1e3:.2f}ms p99={hist.p99 * 1e3:.2f}ms"
            )
        else:
            latency = "no live updates"
        if self.monitor is None:
            alert_part = "alerts: disabled"
        elif not self.alerts:
            alert_part = "alerts: none"
        else:
            totals = summarize_alerts(self.alerts)
            kinds = " ".join(f"{kind}:{n}" for kind, n in totals.by_kind)
            alert_part = f"alerts: {totals.total} ({kinds})"
        return (
            f"watch summary: {self.n_windows} windows "
            f"({self.n_empty} empty, {self.n_quarantined} quarantined, "
            f"{self.n_resumed} resumed), {self.n_updates} live updates; "
            f"{latency}; {alert_part}"
        )

    def write_jsonl(self, path) -> Path:
        """Write the run's alerts as JSON lines (one record per line)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        lines = [json.dumps(alert.to_dict()) for alert in self.alerts]
        path.write_text(
            "\n".join(lines) + ("\n" if lines else ""), encoding="utf-8"
        )
        return path
