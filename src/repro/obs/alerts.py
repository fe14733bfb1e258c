"""Typed live-watch alerts: the vocabulary of the online monitor.

A streaming watch (:func:`repro.stream.track_windows` with a
:class:`repro.stream.forecast.StreamMonitor` attached) compares each
tracked region's observed per-window metrics against one-step-ahead
forecasts and emits :class:`AlertRecord`\\ s.  This module defines the
alert taxonomy, thresholds (:class:`AlertConfig`), the JSON-stable
record format (schema :data:`ALERT_SCHEMA`), run totals
(:class:`AlertTotals`) and the ``exit 4`` contract of
``repro-track watch --alerts``.

Alert kinds
-----------
``divergence``
    An observed metric left the forecast's tolerance band:
    ``|observed - forecast|`` exceeded
    ``max(threshold * |forecast|, sigma * residual_std)``.
``regression``
    A region's IPC dropped below its best-seen value by more than
    ``regression_threshold`` (fires once per excursion, re-arms on
    recovery).
``death``
    A region that had been present for at least ``min_history`` frames
    produced no clusters in the new frame (a merge into an older track
    is *not* a death — the merged component keeps the elder identity).
``split``
    A region that had always been a single cluster appeared as two or
    more clusters in the new frame.
``plateau``
    A region whose trend family had been growing (linear / power-law)
    reselected to the saturating plateau model — progress stalled.

Alerts are a **pure observer**: emitting (or disabling) them never
changes regions, relations or labels, a guarantee enforced by the
differential suite in ``tests/stream``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

__all__ = [
    "ALERT_SCHEMA",
    "ALERT_KINDS",
    "EXIT_ALERTS",
    "AlertConfig",
    "AlertRecord",
    "AlertTotals",
    "summarize_alerts",
    "format_alert",
]

#: Version tag of the serialised alert record (JSONL lines).
ALERT_SCHEMA = "repro.alert/1"

#: Every alert kind the monitor can emit, severity-ordered.
ALERT_KINDS: tuple[str, ...] = (
    "divergence",
    "regression",
    "death",
    "split",
    "plateau",
)

#: ``repro-track watch --alerts`` exit code: run completed cleanly but
#: raised at least one alert.  Applied only when the run would otherwise
#: exit 0 — pipeline failures (2) and quarantines (3) take precedence.
EXIT_ALERTS = 4


@dataclass(frozen=True)
class AlertConfig:
    """Thresholds and scope of the online monitor.

    Attributes
    ----------
    threshold:
        Relative divergence floor: an observation must deviate from the
        forecast by more than this fraction of the forecast magnitude.
    sigma:
        Residual multiplier: the deviation must also exceed ``sigma``
        times the model's residual standard deviation, so noisy trends
        get a proportionally wider band.
    min_history:
        Observations a trend needs before divergence / death / split
        checks arm (young tracks churn; alerting on them is noise).
    metrics:
        The per-region metrics monitored each window.
    regression_threshold:
        Relative drop below best-seen IPC that counts as a regression.
    max_regions:
        Monitor only the top-N duration-ranked regions (bounds the
        per-window forecast cost on wide traces).
    reselect_every / max_history:
        Passed to :class:`repro.predict.online.OnlineTrend`: full model
        reselection cadence and the bounded observation window.
    """

    threshold: float = 0.15
    sigma: float = 3.0
    min_history: int = 3
    metrics: tuple[str, ...] = (
        "ipc",
        "instructions",
        "l2_misses",
        "tlb_misses",
    )
    regression_threshold: float = 0.2
    max_regions: int = 16
    reselect_every: int = 4
    max_history: int = 64


@dataclass(frozen=True)
class AlertRecord:
    """One emitted alert, JSON-stable for JSONL output.

    Attributes
    ----------
    window:
        Window index of the frame that triggered the alert (the
        ``"window"`` scenario key; equals *step* for non-windowed
        streams).
    step:
        Stream step (0-based push index) at emission time.
    region_id:
        The region's duration-ranked id *at emission time* — ids can
        re-rank as later windows arrive, which is why *track* exists.
    track:
        Stable track identity: ``"f<frame>:c<cluster>"`` of the
        component's eldest (frame, cluster) node, invariant under
        re-ranking and merges.
    kind:
        One of :data:`ALERT_KINDS`.
    metric:
        The metric that diverged/regressed (``None`` for the structural
        kinds: death, split).
    observed / forecast:
        The observed value and the one-step-ahead prediction
        (``None`` where not applicable).
    threshold:
        The tolerance the deviation exceeded, in absolute metric units.
    deviation:
        ``|observed - forecast|`` (divergence) or the relative drop
        (regression); ``None`` for structural kinds.
    model:
        Class name of the forecasting model (``"LinearModel"``...).
    message:
        Human-readable one-liner, ready for a stderr stream line.
    """

    window: int
    step: int
    region_id: int
    track: str
    kind: str
    metric: str | None = None
    observed: float | None = None
    forecast: float | None = None
    threshold: float | None = None
    deviation: float | None = None
    model: str | None = None
    message: str = ""

    def to_dict(self) -> dict[str, Any]:
        """JSON-serialisable form (one JSONL line's payload)."""
        return {
            "schema": ALERT_SCHEMA,
            "window": self.window,
            "step": self.step,
            "region_id": self.region_id,
            "track": self.track,
            "kind": self.kind,
            "metric": self.metric,
            "observed": self.observed,
            "forecast": self.forecast,
            "threshold": self.threshold,
            "deviation": self.deviation,
            "model": self.model,
            "message": self.message,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "AlertRecord":
        """Rebuild a record from its JSON form (an ``--alerts-jsonl`` line)."""
        kind = str(data["kind"])
        if kind not in ALERT_KINDS:
            raise ValueError(f"unknown alert kind {kind!r}")

        def opt_float(key: str) -> float | None:
            value = data.get(key)
            return None if value is None else float(value)

        return cls(
            window=int(data["window"]),
            step=int(data["step"]),
            region_id=int(data["region_id"]),
            track=str(data["track"]),
            kind=kind,
            metric=(
                None if data.get("metric") is None else str(data["metric"])
            ),
            observed=opt_float("observed"),
            forecast=opt_float("forecast"),
            threshold=opt_float("threshold"),
            deviation=opt_float("deviation"),
            model=None if data.get("model") is None else str(data["model"]),
            message=str(data.get("message", "")),
        )


def format_alert(alert: AlertRecord) -> str:
    """The stderr stream line of one alert."""
    head = (
        f"ALERT [{alert.kind}] window {alert.window} "
        f"region {alert.region_id}"
    )
    if alert.metric is not None:
        head += f" {alert.metric}"
    return f"{head}: {alert.message}" if alert.message else head


@dataclass(frozen=True)
class AlertTotals:
    """Run-level alert totals, by kind and by region.

    The :class:`~repro.obs.quality.QualityReport` extension carried by
    alert-enabled watch runs.  ``by_region`` keys are emission-time
    region ids (stringified for JSON stability).
    """

    total: int
    by_kind: tuple[tuple[str, int], ...] = field(default_factory=tuple)
    by_region: tuple[tuple[str, int], ...] = field(default_factory=tuple)

    def to_dict(self) -> dict[str, Any]:
        """JSON-serialisable form."""
        return {
            "total": self.total,
            "by_kind": {kind: n for kind, n in self.by_kind},
            "by_region": {region: n for region, n in self.by_region},
        }


def summarize_alerts(alerts: Iterable[AlertRecord]) -> AlertTotals:
    """Aggregate a run's alerts into :class:`AlertTotals`."""
    by_kind: dict[str, int] = {}
    by_region: dict[str, int] = {}
    total = 0
    for alert in alerts:
        total += 1
        by_kind[alert.kind] = by_kind.get(alert.kind, 0) + 1
        region = str(alert.region_id)
        by_region[region] = by_region.get(region, 0) + 1
    return AlertTotals(
        total=total,
        by_kind=tuple(sorted(by_kind.items())),
        by_region=tuple(sorted(by_region.items())),
    )
