"""Self-contained run reports: one HTML (or JSON) file per run.

A run report packages everything needed to audit a tracking run into a
single artefact with no external dependencies — inline CSS, inline
SVGs, a pinch of inline JS:

- the tracked frame scatters and IPC trend plot (:mod:`repro.viz`),
- the heuristic-attribution table — every relation with its proposing
  evaluator, support scores and confidence (:mod:`repro.obs.quality`),
- per-pair evaluator activity and per-region persistence,
- the stage-time span tree and metrics snapshot when observability was
  enabled (``REPRO_OBS=1`` or ``--profile``),
- the quarantine summary of ``--no-strict`` runs.

The same data is available machine-readable through
:func:`report_payload` (schema :data:`REPORT_SCHEMA`); the CLI's
``--report PATH`` writes HTML or JSON depending on the file suffix.
Reports may bundle several runs (``table2`` emits one section per case
study).
"""

from __future__ import annotations

import html
import json
import math
import time
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable, Sequence

from repro._version import __version__
from repro.obs.alerts import AlertTotals, summarize_alerts
from repro.obs.core import STATE
from repro.obs.export import render_metrics, render_tree
from repro.obs.metrics import metrics_snapshot
from repro.obs.quality import QualityReport, quality_report
from repro.tracking.relabel import relabel_frames
from repro.tracking.trends import compute_trends
from repro.viz.frames_plot import sequence_canvas
from repro.viz.trend_plot import trends_canvas

if TYPE_CHECKING:
    from repro.robust.partial import ItemFailure
    from repro.stream.forecast import WatchTelemetry
    from repro.tracking.tracker import TrackingResult

__all__ = [
    "REPORT_SCHEMA",
    "RunEntry",
    "report_payload",
    "report_html",
    "write_report",
]

#: Version tag of the serialised report payload.
REPORT_SCHEMA = "repro.report/1"

#: One run to report on: (name, tracking result, quarantine records).
RunEntry = tuple[str, "TrackingResult", tuple["ItemFailure", ...]]


def _observability_payload() -> dict[str, Any]:
    """Span + metrics section (empty markers when obs was disabled)."""
    if not (STATE.enabled and STATE.spans):
        return {"enabled": False, "spans": [], "metrics": None}
    spans = [
        {
            "span_id": sp.span_id,
            "parent_id": sp.parent_id,
            "name": sp.name,
            "start": sp.start,
            "duration": sp.duration,
        }
        for sp in STATE.spans
    ]
    return {"enabled": True, "spans": spans, "metrics": metrics_snapshot()}


def _stream_payload(stream: "WatchTelemetry") -> dict[str, Any]:
    """Serialised health surface of a windowed watch run."""
    hist = stream.update_seconds
    payload: dict[str, Any] = {
        "windows": stream.n_windows,
        "empty": stream.n_empty,
        "quarantined": stream.n_quarantined,
        "resumed": stream.n_resumed,
        "live_updates": stream.n_updates,
        "update_seconds": {
            "count": hist.count,
            "mean": hist.mean,
            "p50": hist.p50,
            "p90": hist.p90,
            "p99": hist.p99,
        },
        "alerts_enabled": stream.alerts_enabled,
        "alerts": [alert.to_dict() for alert in stream.alerts],
    }
    if stream.monitor is not None:
        payload["series"] = stream.monitor.series()
    return payload


def report_payload(
    runs: Sequence[RunEntry],
    *,
    title: str | None = None,
    stream: "WatchTelemetry | None" = None,
) -> dict[str, Any]:
    """The machine-readable report: versioned, JSON-serialisable.

    Carries the same data as the HTML report except the rendered SVG
    markup (the underlying numbers are all present).  When *stream* is
    given (a :class:`~repro.stream.forecast.WatchTelemetry` from a
    windowed watch), the payload gains a ``"stream"`` section and the
    run quality reports carry the alert totals; without it the payload
    shape is unchanged.
    """
    run_alerts = (
        summarize_alerts(stream.alerts)
        if stream is not None and stream.alerts_enabled
        else None
    )
    payload = {
        "schema": REPORT_SCHEMA,
        "title": title or "repro-track run report",
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "version": __version__,
        "runs": [
            {
                "name": name,
                "quality": quality_report(
                    result, failures=failures, alerts=run_alerts
                ).to_dict(),
            }
            for name, result, failures in runs
        ],
        "observability": _observability_payload(),
    }
    if stream is not None:
        payload["stream"] = _stream_payload(stream)
    return payload


# --------------------------------------------------------------------------
# HTML rendering
# --------------------------------------------------------------------------

_CSS = """
:root { --ink:#1c1c28; --muted:#6b6b80; --line:#e3e3ec; --accent:#2a6fb0;
        --bad:#c0392b; --ok:#2c7a2c; --bg:#fafafc; }
* { box-sizing:border-box; }
body { font:14px/1.5 system-ui,sans-serif; color:var(--ink);
       background:var(--bg); margin:0 auto; max-width:1080px; padding:24px; }
h1 { font-size:22px; margin:0 0 4px; }
h2 { font-size:17px; margin:28px 0 8px; border-bottom:1px solid var(--line);
     padding-bottom:4px; }
h3 { font-size:14px; margin:18px 0 6px; }
.meta { color:var(--muted); font-size:12px; margin-bottom:18px; }
.tiles { display:flex; flex-wrap:wrap; gap:10px; margin:14px 0; }
.tile { background:#fff; border:1px solid var(--line); border-radius:8px;
        padding:10px 16px; min-width:110px; }
.tile .v { font-size:20px; font-weight:600; }
.tile .k { font-size:11px; color:var(--muted); text-transform:uppercase;
           letter-spacing:.04em; }
table { border-collapse:collapse; width:100%; background:#fff;
        font-size:13px; margin:8px 0; }
th, td { border:1px solid var(--line); padding:4px 8px; text-align:left; }
th { background:#f0f0f6; font-weight:600; }
td.num { text-align:right; font-variant-numeric:tabular-nums; }
.bar { display:inline-block; height:9px; background:var(--accent);
       border-radius:2px; vertical-align:middle; }
.quarantine { border-left:4px solid var(--bad); background:#fff;
              padding:8px 12px; margin:8px 0; }
.quarantine.empty { border-left-color:var(--ok); }
pre { background:#fff; border:1px solid var(--line); border-radius:6px;
      padding:10px; overflow-x:auto; font-size:12px; }
details { margin:8px 0; }
summary { cursor:pointer; font-weight:600; }
figure { margin:12px 0; background:#fff; border:1px solid var(--line);
         border-radius:6px; padding:8px; overflow-x:auto; }
figcaption { font-size:12px; color:var(--muted); margin-bottom:6px; }
input.filter { padding:4px 8px; border:1px solid var(--line);
               border-radius:4px; width:240px; margin:4px 0; }
.tag { display:inline-block; border-radius:3px; padding:0 5px;
       font-size:11px; background:#eef3fa; color:var(--accent); }
"""

_JS = """
function filterTable(input, tableId) {
  var needle = input.value.toLowerCase();
  var rows = document.getElementById(tableId).tBodies[0].rows;
  for (var i = 0; i < rows.length; i++) {
    rows[i].style.display =
      rows[i].textContent.toLowerCase().indexOf(needle) >= 0 ? '' : 'none';
  }
}
"""


def _esc(value: Any) -> str:
    return html.escape(str(value), quote=True)


def _tile(value: Any, label: str) -> str:
    return (
        f'<div class="tile"><div class="v">{_esc(value)}</div>'
        f'<div class="k">{_esc(label)}</div></div>'
    )


def _confidence_cell(confidence: float) -> str:
    width = max(2, round(confidence * 60))
    return (
        f'<td class="num">{confidence * 100:.0f}% '
        f'<span class="bar" style="width:{width}px"></span></td>'
    )


def _attribution_table(quality: QualityReport, table_id: str) -> str:
    rows: list[str] = []
    for pair in quality.pairs:
        for relation in pair.relations:
            support = ", ".join(
                f"{name} {value * 100:.0f}%" for name, value in relation.support
            )
            events = " ".join(
                f'<span class="tag">{_esc(event)}</span>'
                for event in relation.events
            )
            rows.append(
                "<tr>"
                f'<td class="num">{relation.pair_index}</td>'
                f"<td><code>{_esc(relation.relation)}</code></td>"
                f"<td>{_esc(relation.kind)}</td>"
                f"<td><b>{_esc(relation.proposed_by)}</b></td>"
                + _confidence_cell(relation.confidence)
                + f"<td>{_esc(support)}</td><td>{events}</td></tr>"
            )
    if not rows:
        rows.append('<tr><td colspan="7">no relations</td></tr>')
    return (
        f'<input class="filter" placeholder="filter relations…" '
        f"oninput=\"filterTable(this, '{table_id}')\">"
        f'<table id="{table_id}"><thead><tr><th>pair</th><th>relation</th>'
        "<th>kind</th><th>proposed by</th><th>confidence</th>"
        "<th>support</th><th>events</th></tr></thead><tbody>"
        + "".join(rows)
        + "</tbody></table>"
    )


def _pairs_table(quality: QualityReport) -> str:
    rows = []
    for pair in quality.pairs:
        flag = " ⚠ quarantined" if pair.quarantined else ""
        seq = (
            "—" if pair.sequence_score is None
            else f"{pair.sequence_score * 100:.0f}%"
        )
        rows.append(
            "<tr>"
            f'<td class="num">{pair.pair_index}</td>'
            f"<td>{_esc(pair.left_label)} → {_esc(pair.right_label)}{flag}</td>"
            f'<td class="num">{pair.n_relations}</td>'
            + _confidence_cell(pair.mean_confidence)
            + f'<td class="num">{pair.proposed}</td>'
            f'<td class="num">{pair.pruned}</td>'
            f'<td class="num">{pair.rescued_callstack + pair.rescued_sequence}</td>'
            f'<td class="num">{pair.widened}</td>'
            f'<td class="num">{pair.splits}</td>'
            f'<td class="num">{seq}</td></tr>'
        )
    return (
        "<table><thead><tr><th>#</th><th>pair</th><th>relations</th>"
        "<th>mean conf.</th><th>proposed</th><th>pruned</th><th>rescued</th>"
        "<th>widened</th><th>splits</th><th>seq. score</th></tr></thead>"
        "<tbody>" + "".join(rows) + "</tbody></table>"
    )


def _regions_table(quality: QualityReport) -> str:
    rows = []
    for region in quality.regions:
        rows.append(
            "<tr>"
            f'<td class="num">{region.region_id}</td>'
            f'<td class="num">{region.n_frames_present}/{quality.n_frames}</td>'
            f'<td class="num">{region.persistence * 100:.0f}%</td>'
            f"<td>{'yes' if region.contiguous else 'no'}</td>"
            f'<td class="num">{region.time_share * 100:.1f}%</td>'
            + _confidence_cell(region.mean_confidence)
            + "</tr>"
        )
    return (
        "<table><thead><tr><th>region</th><th>frames</th><th>persistence</th>"
        "<th>contiguous</th><th>time share</th><th>mean conf.</th></tr>"
        "</thead><tbody>" + "".join(rows) + "</tbody></table>"
    )


def _heuristics_table(quality: QualityReport) -> str:
    rows = []
    for name, counts in quality.heuristics:
        record = dict(counts)
        rows.append(
            f"<tr><td><b>{_esc(name)}</b></td>"
            f'<td class="num">{record.get("relations_proposed", 0)}</td>'
            f'<td class="num">{record.get("edges", 0)}</td></tr>'
        )
    return (
        "<table><thead><tr><th>heuristic</th><th>relations proposed</th>"
        "<th>edges contributed</th></tr></thead><tbody>"
        + "".join(rows)
        + "</tbody></table>"
    )


def _quarantine_block(quality: QualityReport) -> str:
    if not quality.failures:
        return (
            '<div class="quarantine empty">quarantine: empty '
            "(all items succeeded)</div>"
        )
    items = "".join(
        f"<li><code>[{_esc(f.stage)}]</code> {_esc(f.item)}: "
        f"{_esc(f.error)}: {_esc(f.message)}</li>"
        for f in quality.failures
    )
    repaired = (
        f"; {quality.repaired_bursts} burst(s) repaired at ingest"
        if quality.repaired_bursts else ""
    )
    return (
        f'<div class="quarantine"><b>quarantine: {len(quality.failures)} '
        f"item(s) failed and were skipped{_esc(repaired)}</b>"
        f"<ul>{items}</ul></div>"
    )


def _run_svgs(result: "TrackingResult") -> list[tuple[str, str]]:
    """Inline SVG figures of one run (skipped when undrawable)."""
    figures: list[tuple[str, str]] = []
    try:
        canvas = sequence_canvas(relabel_frames(result))
        figures.append(("Tracked frames (shared region colours)", canvas.to_string()))
    except ValueError:
        pass
    series = compute_trends(result, "ipc")
    if series:
        try:
            canvas = trends_canvas(series, title="IPC evolution")
            figures.append(("IPC evolution per tracked region", canvas.to_string()))
        except ValueError:
            pass
    return figures


def _run_section(
    name: str,
    result: "TrackingResult",
    failures: tuple["ItemFailure", ...],
    index: int,
    *,
    include_viz: bool,
    alerts: AlertTotals | None = None,
) -> str:
    quality = quality_report(result, failures=failures, alerts=alerts)
    parts = [f"<h2>{_esc(name)}</h2>"]
    parts.append('<div class="tiles">')
    parts.append(_tile(quality.n_frames, "frames"))
    parts.append(_tile(quality.n_regions, "regions"))
    parts.append(_tile(quality.n_tracked, "tracked"))
    parts.append(_tile(f"{quality.coverage}%", "coverage"))
    parts.append(
        _tile(f"{quality.confidence.mean * 100:.0f}%", "mean confidence")
    )
    parts.append(_tile(len(quality.failures), "quarantined"))
    if quality.alerts is not None:
        parts.append(_tile(quality.alerts.total, "alerts"))
    parts.append("</div>")
    parts.append(_quarantine_block(quality))
    if include_viz:
        for caption, svg in _run_svgs(result):
            parts.append(
                f"<figure><figcaption>{_esc(caption)}</figcaption>{svg}</figure>"
            )
    parts.append("<h3>Heuristic attribution</h3>")
    parts.append(_attribution_table(quality, f"attribution-{index}"))
    parts.append("<h3>Pair activity</h3>")
    parts.append(_pairs_table(quality))
    parts.append("<h3>Tracked regions</h3>")
    parts.append(_regions_table(quality))
    parts.append("<h3>Heuristic contribution totals</h3>")
    parts.append(_heuristics_table(quality))
    return "\n".join(parts)


#: Cap on the number of forecast sparkline figures in one report.
_MAX_SPARKLINES = 16


def _sparkline_svg(
    observed: Sequence[tuple[float, float]],
    forecast: Sequence[tuple[float, float]],
    *,
    width: int = 280,
    height: int = 64,
) -> str:
    """Inline SVG sparkline: observed solid, forecast dashed.

    Both series share one (x, y) scale so divergence is visible as the
    gap between the lines.  Returns "" when nothing finite to draw.
    """
    finite = [
        (float(x), float(y))
        for x, y in [*observed, *forecast]
        if math.isfinite(float(y))
    ]
    if not finite:
        return ""
    x_lo = min(p[0] for p in finite)
    x_hi = max(p[0] for p in finite)
    y_lo = min(p[1] for p in finite)
    y_hi = max(p[1] for p in finite)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0
    pad = 6.0

    def scaled(series: Sequence[tuple[float, float]]) -> str:
        return " ".join(
            f"{pad + (float(x) - x_lo) / x_span * (width - 2 * pad):.1f},"
            f"{height - pad - (float(y) - y_lo) / y_span * (height - 2 * pad):.1f}"
            for x, y in series
            if math.isfinite(float(y))
        )

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}" '
        f'role="img">'
    ]
    forecast_points = scaled(forecast)
    if forecast_points:
        parts.append(
            f'<polyline points="{forecast_points}" fill="none" '
            'stroke="#c0392b" stroke-width="1.2" stroke-dasharray="4 3"/>'
        )
    observed_points = scaled(observed)
    if observed_points:
        parts.append(
            f'<polyline points="{observed_points}" fill="none" '
            'stroke="#2a6fb0" stroke-width="1.6"/>'
        )
    parts.append("</svg>")
    return "".join(parts)


def _alerts_table(alerts: Sequence[Any], table_id: str) -> str:
    rows = []
    for alert in alerts:
        rows.append(
            "<tr>"
            f'<td class="num">{alert.window}</td>'
            f"<td><b>{_esc(alert.kind)}</b></td>"
            f'<td class="num">{alert.region_id}</td>'
            f"<td><code>{_esc(alert.track)}</code></td>"
            f"<td>{_esc(alert.metric or '—')}</td>"
            f"<td>{_esc(alert.message)}</td></tr>"
        )
    if not rows:
        rows.append('<tr><td colspan="6">no alerts</td></tr>')
    return (
        f'<input class="filter" placeholder="filter alerts…" '
        f"oninput=\"filterTable(this, '{table_id}')\">"
        f'<table id="{table_id}"><thead><tr><th>window</th><th>kind</th>'
        "<th>region</th><th>track</th><th>metric</th><th>detail</th>"
        "</tr></thead><tbody>" + "".join(rows) + "</tbody></table>"
    )


def _stream_section(stream: "WatchTelemetry") -> str:
    """The 'Live watch telemetry' report block (health + drill-down)."""
    hist = stream.update_seconds
    parts = ["<h2>Live watch telemetry</h2>", '<div class="tiles">']
    parts.append(_tile(stream.n_windows, "windows"))
    parts.append(_tile(stream.n_empty, "empty"))
    parts.append(_tile(stream.n_quarantined, "quarantined"))
    parts.append(_tile(stream.n_resumed, "resumed"))
    parts.append(_tile(stream.n_updates, "live updates"))
    if stream.alerts_enabled:
        parts.append(_tile(len(stream.alerts), "alerts"))
    parts.append("</div>")
    if hist.count:
        parts.append(
            f'<p class="meta">update latency: p50 {hist.p50 * 1e3:.2f} ms '
            f"· p90 {hist.p90 * 1e3:.2f} ms · p99 {hist.p99 * 1e3:.2f} ms "
            f"over {hist.count} live update(s)</p>"
        )
    if not stream.alerts_enabled:
        parts.append(
            "<p class='meta'>alerting disabled — run with "
            "<code>--alerts</code> to add per-region forecasts and "
            "divergence alerts.</p>"
        )
        return "\n".join(parts)
    parts.append("<h3>Alerts</h3>")
    parts.append(_alerts_table(stream.alerts, "stream-alerts"))
    series = stream.monitor.series() if stream.monitor is not None else []
    shown = series[:_MAX_SPARKLINES]
    figures = []
    for entry in shown:
        svg = _sparkline_svg(entry["observed"], entry["forecast"])
        if not svg:
            continue
        caption = (
            f"region {entry['region_id']} (track {entry['track']}) — "
            f"{entry['metric']}: observed solid, one-step forecast dashed"
        )
        figures.append(
            f"<figure><figcaption>{_esc(caption)}</figcaption>{svg}</figure>"
        )
    if figures:
        parts.append("<h3>Forecast vs observed</h3>")
        parts.append(
            '<div style="display:flex;flex-wrap:wrap;gap:8px">'
            + "".join(figures)
            + "</div>"
        )
        if len(series) > len(shown):
            parts.append(
                f"<p class='meta'>{len(series) - len(shown)} further "
                "series omitted (cap: "
                f"{_MAX_SPARKLINES}).</p>"
            )
    return "\n".join(parts)


def _observability_section() -> str:
    if not (STATE.enabled and STATE.spans):
        return (
            "<h2>Observability</h2><p class='meta'>no spans recorded — run "
            "with <code>REPRO_OBS=1</code> or <code>--profile</code> to "
            "capture the stage-time tree.</p>"
        )
    tree = render_tree()
    metrics = render_metrics()
    block = f"<h2>Observability</h2><pre>{_esc(tree)}</pre>"
    if metrics:
        block += f"<details><summary>metrics</summary><pre>{_esc(metrics)}</pre></details>"
    return block


def report_html(
    runs: Sequence[RunEntry],
    *,
    title: str | None = None,
    include_viz: bool = True,
    stream: "WatchTelemetry | None" = None,
) -> str:
    """Render the self-contained HTML report document.

    With *stream* given, the document gains the "Live watch telemetry"
    section — health tiles, update-latency percentiles, the alert
    table and forecast-vs-observed sparklines per tracked region.
    """
    title = title or "repro-track run report"
    generated = time.strftime("%Y-%m-%d %H:%M:%S %Z")
    run_alerts = (
        summarize_alerts(stream.alerts)
        if stream is not None and stream.alerts_enabled
        else None
    )
    sections = [
        _run_section(
            name, result, failures, index,
            include_viz=include_viz, alerts=run_alerts,
        )
        for index, (name, result, failures) in enumerate(runs)
    ]
    if stream is not None:
        sections.append(_stream_section(stream))
    return (
        "<!DOCTYPE html>\n"
        '<html lang="en"><head><meta charset="utf-8">\n'
        f"<title>{_esc(title)}</title>\n"
        f"<style>{_CSS}</style><script>{_JS}</script></head><body>\n"
        f"<h1>{_esc(title)}</h1>\n"
        f'<div class="meta">generated {_esc(generated)} · repro {__version__}'
        f" · schema {REPORT_SCHEMA}</div>\n"
        + "\n".join(sections)
        + "\n"
        + _observability_section()
        + "\n</body></html>\n"
    )


def write_report(
    path: str | Path,
    runs: Iterable[RunEntry] | "TrackingResult",
    *,
    failures: Iterable["ItemFailure"] = (),
    title: str | None = None,
    include_viz: bool = True,
    stream: "WatchTelemetry | None" = None,
) -> Path:
    """Write a run report; the suffix picks the format.

    ``.json`` gets the machine-readable :func:`report_payload`; any
    other suffix (conventionally ``.html``) gets the self-contained
    HTML document.  *runs* is either a single
    :class:`~repro.tracking.tracker.TrackingResult` (with *failures*)
    or an iterable of ``(name, result, failures)`` entries.  *stream*
    (a :class:`~repro.stream.forecast.WatchTelemetry`) adds the live
    watch telemetry to either format.
    """
    if hasattr(runs, "pair_relations"):  # a bare TrackingResult
        runs = [("tracking run", runs, tuple(failures))]
    entries: list[RunEntry] = [
        (name, result, tuple(fails)) for name, result, fails in runs
    ]
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if path.suffix.lower() == ".json":
        payload = report_payload(entries, title=title, stream=stream)
        path.write_text(
            json.dumps(payload, indent=2) + "\n", encoding="utf-8"
        )
    else:
        path.write_text(
            report_html(
                entries, title=title, include_viz=include_viz, stream=stream
            ),
            encoding="utf-8",
        )
    return path
