"""Command-line interface: ``repro-track`` / ``python -m repro``.

Sub-commands
------------
``simulate``
    Generate a synthetic application trace and save it.
``track``
    Cluster + track a set of saved traces; print the relations, trends
    and optionally render SVGs.
``watch``
    Slice one trace into time windows and track them incrementally,
    streaming an update line as each window's frame closes; with
    ``--cache-dir`` a restarted watch resumes from the last completed
    window (see ``docs/streaming.md``).  ``--alerts`` attaches the
    online monitor — per-region one-step-ahead forecasts with typed
    divergence/regression/death/split/plateau alerts on stderr and,
    with ``--alerts-jsonl PATH``, as JSON lines (see
    ``docs/observability.md``).
``study``
    Run one of the paper's canned case studies by name.
``table2``
    Run all ten case studies and print the Table 2 reproduction.
``cache``
    Inspect (``info``) or empty (``clear``) the on-disk pipeline cache.
``info``
    List registered applications, machines and case studies.

``track``, ``study`` and ``table2`` accept ``--jobs/-j`` (processes
building frames), ``--cache-dir`` (incremental trace/frame cache),
``--strict/--no-strict`` (fail fast vs quarantine-and-continue; see
``docs/robustness.md``) and ``--report PATH`` (self-contained HTML/JSON
run report; see ``docs/reports.md``).  ``report`` honours
``--no-strict`` too and can write the HTML report via ``--html``.
``bench-compare OLD NEW`` diffs two ``BENCH_RESULTS.json`` files and
exits 1 on perf regressions beyond the noise threshold.

Exit codes: 0 on success, 2 when the pipeline fails outright (a
:class:`~repro.errors.ReproError`), 3 when ``--no-strict`` completed
with quarantined items (a partial result), 4 when a ``watch --alerts``
run completed cleanly but raised alerts (quarantine wins over alerts
when both apply); ``bench-compare`` exits 1 on regression, 2 on
unreadable input.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from repro._version import __version__

__all__ = ["main", "build_parser"]


def _parse_scenario(pairs: list[str]) -> dict[str, object]:
    """Parse ``key=value`` scenario arguments with light type coercion."""
    scenario: dict[str, object] = {}
    for pair in pairs:
        if "=" not in pair:
            raise SystemExit(f"error: scenario argument {pair!r} is not key=value")
        key, raw = pair.split("=", 1)
        value: object
        try:
            value = int(raw)
        except ValueError:
            try:
                value = float(raw)
            except ValueError:
                value = raw
        scenario[key] = value
    return scenario


#: ``--profile`` with no PATH: print the stage tree, write no file.
_PROFILE_STDERR = ""


def _add_perf_flags(parser: argparse.ArgumentParser) -> None:
    """``--jobs/-j`` and ``--cache-dir``: the parallel/caching knobs."""
    parser.add_argument(
        "-j", "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes building frames "
        "(default: REPRO_JOBS or 1; 0 = one per CPU); results are "
        "identical to a serial run",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="content-addressed cache of simulated traces and frame "
        "labellings (default: REPRO_CACHE; unset = no caching)",
    )


def _add_frame_flags(parser: argparse.ArgumentParser) -> None:
    """Frame-construction settings, read back by :func:`_frame_settings`."""
    parser.add_argument("--x-metric", default="ipc")
    parser.add_argument("--y-metric", default="instructions")
    parser.add_argument("--eps", type=float, default=0.03)
    parser.add_argument("--min-pts", type=int, default=None)
    parser.add_argument("--relevance", type=float, default=0.95)
    parser.add_argument("--log-y", action="store_true")


def _frame_settings(args: argparse.Namespace):
    from repro.clustering.frames import FrameSettings

    return FrameSettings(
        x_metric=args.x_metric,
        y_metric=args.y_metric,
        eps=args.eps,
        min_pts=args.min_pts,
        relevance=args.relevance,
        log_y=args.log_y,
    )


def _add_strict_flag(parser: argparse.ArgumentParser) -> None:
    """``--strict/--no-strict``: fail fast vs quarantine-and-continue."""
    parser.add_argument(
        "--strict",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="--strict (default) aborts on the first malformed input or "
        "failing stage; --no-strict drops repairably bad bursts, "
        "quarantines failing items and continues with the survivors "
        "(exit code 3 when anything was quarantined)",
    )


def _add_report_flag(parser: argparse.ArgumentParser) -> None:
    """``--report PATH``: write the self-contained run report."""
    parser.add_argument(
        "--report",
        default=None,
        metavar="PATH",
        help="write a self-contained run report to PATH — HTML with "
        "embedded plots, attribution tables and the quarantine summary, "
        "or the machine-readable JSON payload when PATH ends in .json "
        "(see docs/reports.md)",
    )


def _add_client_url_flag(parser: argparse.ArgumentParser) -> None:
    """``--url URL``: which job server a client subcommand talks to."""
    parser.add_argument(
        "--url",
        default=None,
        metavar="URL",
        help="job server base URL, e.g. http://127.0.0.1:8765 "
        "(default: REPRO_SERVE_URL)",
    )


def _resolve_cache(args: argparse.Namespace):
    from repro.parallel.cache import resolve_cache

    return resolve_cache(getattr(args, "cache_dir", None))


def _add_profile_flag(parser: argparse.ArgumentParser) -> None:
    """``--profile [PATH]``: stage-time tree to stderr, Chrome trace to PATH."""
    parser.add_argument(
        "--profile",
        nargs="?",
        const=_PROFILE_STDERR,
        default=None,
        metavar="PATH",
        help="enable observability; print a stage-time breakdown and "
        "evaluator decision counts to stderr, and write a Chrome-trace "
        "JSON (chrome://tracing) to PATH when given ('{run_id}' in PATH "
        "expands to this run's id so concurrent sessions never collide)",
    )


def _expand_run_id(path: str) -> str:
    """Expand a literal ``{run_id}`` placeholder in an artifact path."""
    if "{run_id}" in path:
        from repro import obs

        return path.replace("{run_id}", obs.run_id())
    return path


def _verbosity_parent(default: object) -> argparse.ArgumentParser:
    """Parent parser carrying ``-v``/``-q`` and ``--ledger-dir``.

    Subparsers get ``argparse.SUPPRESS`` defaults: a subparser parses
    into a fresh namespace and copies every attribute over, so a plain
    ``default=0`` would clobber a ``-v`` given before the subcommand.
    """
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "-v", "--verbose", action="count", default=default,
        help="increase log verbosity (-v: info, -vv: debug)",
    )
    parent.add_argument(
        "-q", "--quiet", action="count", default=default,
        help="decrease log verbosity (errors only)",
    )
    parent.add_argument(
        "--ledger-dir",
        default=None if default == 0 else default,
        metavar="DIR",
        help="append schema-versioned run records (start/end, exit code, "
        "quality and alert totals, wall/RSS) to this ledger directory "
        "(default: REPRO_LEDGER; unset = no ledger)",
    )
    return parent


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser."""
    common = _verbosity_parent(argparse.SUPPRESS)
    parser = argparse.ArgumentParser(
        prog="repro-track",
        description="Object tracking techniques applied to performance analysis "
        "(SC 2013 reproduction)",
        parents=[_verbosity_parent(0)],
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(
        name: str, handler, *, record: bool = True, **kwargs
    ) -> argparse.ArgumentParser:
        """Declare subcommand *name*, which :func:`main` runs with *handler*.

        Commands that only inspect state, or that ask a job server to do
        the work, pass ``record=False`` and stay out of the run ledger:
        recording them would fill it with noise, ``obs`` would observe
        itself reading it, and a served job is recorded server-side in
        its tenant's ledger.
        """
        parser = sub.add_parser(name, parents=[common], **kwargs)
        parser.set_defaults(handler=handler, record=record)
        return parser

    sim = add_parser(
        "simulate", _cmd_simulate, help="generate a synthetic application trace"
    )
    sim.add_argument("app", help="registered application name (see `info`)")
    sim.add_argument("scenario", nargs="*", help="scenario parameters key=value")
    sim.add_argument("-o", "--output", required=True, help="trace file (.json/.csv[.gz])")
    sim.add_argument("--seed", type=int, default=0)

    track = add_parser(
        "track", _cmd_track, help="track objects across saved traces"
    )
    track.add_argument("traces", nargs="+", help="trace files, in sequence order")
    _add_frame_flags(track)
    track.add_argument("--trend-metric", action="append", default=None,
                       help="metric(s) to report trends for (default: ipc)")
    track.add_argument("--render", metavar="DIR", default=None,
                       help="write SVG renderings into DIR")
    _add_profile_flag(track)
    _add_perf_flags(track)
    _add_strict_flag(track)
    _add_report_flag(track)

    watch = add_parser(
        "watch",
        _cmd_watch,
        help="stream one trace through time windows, tracking incrementally",
    )
    watch.add_argument("trace", help="trace file to window and stream")
    watch_mode = watch.add_mutually_exclusive_group(required=True)
    watch_mode.add_argument(
        "--windows", type=int, default=None, metavar="N",
        help="split the trace's time span into N equal windows",
    )
    watch_mode.add_argument(
        "--window-ns", type=float, default=None, metavar="NS",
        help="fixed window duration in nanoseconds (last window may be "
        "shorter)",
    )
    _add_frame_flags(watch)
    watch.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="pipeline cache enabling per-window frame reuse and "
        "checkpointed resume (default: REPRO_CACHE; unset = no resume)",
    )
    watch.add_argument(
        "--max-live-windows", type=int, default=None, metavar="K",
        help="hold at most K full window frames in memory; older windows "
        "are condensed to per-cluster digests (regions/coverage/relations "
        "unchanged, trend means up to float summation order)",
    )
    watch.add_argument(
        "--alerts", action="store_true",
        help="monitor every tracked region online: forecast each "
        "window's metrics one step ahead and raise typed alerts on "
        "divergence, IPC regression, region death/split and stalled "
        "trends (exit code 4 when an otherwise-clean run alerted)",
    )
    watch.add_argument(
        "--alert-threshold", type=float, default=0.15, metavar="FRACTION",
        help="relative forecast deviation tolerated before a divergence "
        "alert fires (default: 0.15; the residual-scaled sigma band "
        "still applies)",
    )
    watch.add_argument(
        "--alerts-jsonl", default=None, metavar="PATH",
        help="write every alert record as JSON lines to PATH (implies "
        "--alerts; '{run_id}' in PATH expands to this run's id)",
    )
    watch.add_argument(
        "--serve", type=int, default=None, metavar="PORT",
        help="serve live telemetry over HTTP while the watch runs: "
        "/metrics (Prometheus text exposition of the metrics registry "
        "and resource-sampler gauges) and /healthz (window progress, "
        "last-window lag, alert totals); 0 picks a free port; implies "
        "observability and the resource sampler",
    )
    watch.add_argument(
        "--serve-grace", type=float, default=0.0, metavar="SECONDS",
        help="keep /metrics and /healthz up for SECONDS after the run "
        "completes so external scrapers catch the final state "
        "(default: 0)",
    )
    _add_profile_flag(watch)
    _add_strict_flag(watch)
    _add_report_flag(watch)

    study = add_parser("study", _cmd_study, help="run a canned paper case study")
    study.add_argument("name", help="case study name (see `info`)")
    study.add_argument("--seed", type=int, default=0)
    study.add_argument("--render", metavar="DIR", default=None)
    _add_profile_flag(study)
    _add_perf_flags(study)
    _add_strict_flag(study)
    _add_report_flag(study)

    table2 = add_parser(
        "table2", _cmd_table2, help="run all case studies; print Table 2"
    )
    _add_profile_flag(table2)
    _add_perf_flags(table2)
    _add_strict_flag(table2)
    _add_report_flag(table2)

    cache = add_parser(
        "cache", _cmd_cache, record=False,
        help="inspect or clear the on-disk pipeline cache",
    )
    cache.add_argument("action", choices=("info", "clear"),
                       help="'info' prints entry counts and sizes; "
                       "'clear' deletes every entry")
    cache.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="cache directory (default: REPRO_CACHE)")

    report = add_parser(
        "report", _cmd_report, help="who-is-who report with evaluator evidence"
    )
    report.add_argument("traces", nargs="+", help="trace files, in sequence order")
    report.add_argument("--no-evidence", action="store_true",
                        help="omit the per-relation evaluator evidence")
    report.add_argument("--relevance", type=float, default=0.95)
    report.add_argument("--html", default=None, metavar="PATH",
                        help="also write the self-contained HTML run "
                        "report to PATH")
    _add_strict_flag(report)

    animate = add_parser(
        "animate", _cmd_animate,
        help="write an animated HTML view of the tracked frames",
    )
    animate.add_argument("traces", nargs="+", help="trace files, in sequence order")
    animate.add_argument("-o", "--output", required=True, help="output .html file")
    animate.add_argument("--interval", type=int, default=900,
                         help="frame interval in milliseconds")
    animate.add_argument("--relevance", type=float, default=0.95)

    bench = add_parser(
        "bench-compare",
        _cmd_bench_compare,
        record=False,
        help="compare two BENCH_RESULTS.json files for perf regressions",
    )
    bench.add_argument("old", help="baseline BENCH_RESULTS.json")
    bench.add_argument("new", help="candidate BENCH_RESULTS.json")
    bench.add_argument(
        "--threshold", type=float, default=0.25, metavar="FRACTION",
        help="relative wall-time growth tolerated before a bench counts "
        "as regressed (default: 0.25 = 25%%)",
    )
    bench.add_argument(
        "--min-seconds", type=float, default=0.005, metavar="S",
        help="absolute growth floor — smaller deltas are noise "
        "(default: 0.005)",
    )
    bench.add_argument(
        "--rss-threshold", type=float, default=None, metavar="FRACTION",
        help="also fail when a bench's RSS peak grew by more than this "
        "fraction (off by default; only meaningful when OLD and NEW ran "
        "the same bench selection in the same order)",
    )
    bench.add_argument(
        "--min-rss-kib", type=int, default=10_240, metavar="KIB",
        help="absolute RSS growth floor for --rss-threshold "
        "(default: 10240 = 10 MiB)",
    )

    obs_cmd = add_parser(
        "obs", _cmd_obs, record=False, help="query the run ledger"
    )
    obs_cmd.add_argument(
        "action", choices=("runs", "tail", "summary", "export"),
        help="'runs' lists recorded runs; 'tail' prints the newest ledger "
        "events; 'summary' drills into one run; 'export' writes a "
        "bench-compare-able repro.bench/1 payload of per-entry wall/RSS",
    )
    obs_cmd.add_argument(
        "target", nargs="?", default=None, metavar="RUN_ID",
        help="run id (or unique prefix) for 'summary' "
        "(default: the most recent completed run)",
    )
    obs_cmd.add_argument(
        "-n", "--lines", type=int, default=20, metavar="N",
        help="number of events for 'tail' (default: 20)",
    )
    obs_cmd.add_argument(
        "-o", "--output", default=None, metavar="PATH",
        help="output file for 'export' (default: stdout)",
    )

    tune = add_parser(
        "tune", _cmd_tune,
        help="suggest a DBSCAN eps for a trace (plateau search)",
    )
    tune.add_argument("trace", help="trace file to tune against")
    tune.add_argument("--x-metric", default="ipc")
    tune.add_argument("--y-metric", default="instructions")
    tune.add_argument("--log-y", action="store_true")

    serve = add_parser(
        "serve",
        _cmd_serve,
        help="run the multi-tenant tracking job server "
        "(POST /jobs + /metrics + /healthz)",
    )
    serve.add_argument(
        "--root", required=True, metavar="DIR",
        help="server state root: job journal plus per-tenant "
        "cache/ledger/results trees (survives restarts; interrupted "
        "jobs are re-queued from the journal)",
    )
    serve.add_argument(
        "--port", type=int, default=8765, metavar="PORT",
        help="port for the job API and telemetry endpoints "
        "(default: 8765; 0 picks a free port)",
    )
    serve.add_argument(
        "--host", default="127.0.0.1", metavar="HOST",
        help="bind address (default: 127.0.0.1)",
    )
    serve.add_argument(
        "--workers", type=int, default=2, metavar="N",
        help="dispatcher threads, one isolated child process per "
        "running job (default: 2)",
    )
    serve.add_argument(
        "--max-queue", type=int, default=32, metavar="N",
        help="waiting-job capacity; submissions beyond it get HTTP 429 "
        "reason=queue_full (default: 32)",
    )
    serve.add_argument(
        "--tenant-cap", type=int, default=4, metavar="N",
        help="active (waiting+running) jobs allowed per tenant; beyond "
        "it HTTP 429 reason=tenant_cap (default: 4)",
    )
    serve.add_argument(
        "--job-timeout", type=float, default=300.0, metavar="S",
        help="kill a job's worker after S seconds and mark the job "
        "failed (default: 300)",
    )

    submit = add_parser(
        "submit", _cmd_submit, record=False,
        help="submit a job to a running job server",
    )
    submit.add_argument(
        "spec", help="job spec JSON file ('-' reads stdin); see "
        "docs/service.md for the schema",
    )
    _add_client_url_flag(submit)
    submit.add_argument(
        "--tenant", default="default", metavar="NAME",
        help="tenant namespace to run under (default: 'default')",
    )
    submit.add_argument(
        "--wait", action="store_true",
        help="poll until the job is terminal; exit 0 only if it is done",
    )
    submit.add_argument(
        "--timeout", type=float, default=300.0, metavar="S",
        help="give up waiting after S seconds (default: 300)",
    )

    status = add_parser(
        "status", _cmd_status, record=False,
        help="query job status (or a tenant's jobs) on a server",
    )
    status.add_argument(
        "job_id", nargs="?", default=None,
        help="job id; omit with --tenant to list that tenant's jobs",
    )
    _add_client_url_flag(status)
    status.add_argument(
        "--tenant", default=None, metavar="NAME",
        help="list all jobs of this tenant instead of one job",
    )

    result = add_parser(
        "result", _cmd_result, record=False,
        help="fetch a done job's result payload or HTML report",
    )
    result.add_argument("job_id", help="job id")
    _add_client_url_flag(result)
    result.add_argument(
        "-o", "--output", default=None, metavar="PATH",
        help="write the artefact to PATH (default: stdout)",
    )
    result.add_argument(
        "--report", action="store_true",
        help="fetch the self-contained HTML report instead of the "
        "canonical result.json",
    )

    add_parser(
        "info", _cmd_info, record=False,
        help="list applications, machines and case studies",
    )
    return parser


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.apps.registry import build_app
    from repro.trace.io import save_trace

    model = build_app(args.app, **_parse_scenario(args.scenario))
    trace = model.run(seed=args.seed)
    path = save_trace(trace, args.output)
    print(f"wrote {trace.n_bursts} bursts of {trace.label()} to {path}")
    return 0


def _print_result(result, trend_metrics: list[str]) -> None:
    from repro.analysis.insights import diagnose, format_insights
    from repro.analysis.report import format_table
    from repro.tracking.trends import compute_trends

    print(f"frames: {result.n_frames}   tracked regions: "
          f"{len(result.tracked_regions)}   coverage: {result.coverage}%")
    for region in result.regions:
        print(f"  {region!r}")
    for metric in trend_metrics:
        series = compute_trends(result, metric)
        rows = [
            [f"Region {s.region_id}"]
            + [("-" if not np.isfinite(v) else f"{v:.4g}") for v in s.values]
            for s in series
        ]
        labels = [frame.label for frame in result.frames]
        print()
        print(format_table(["", *labels], rows, title=f"{metric} evolution"))
    print()
    print(format_insights(diagnose(result)))


def _render(result, out_dir: str) -> None:
    from repro.tracking.relabel import relabel_frames
    from repro.tracking.trends import compute_trends
    from repro.viz.frames_plot import render_sequence_svg
    from repro.viz.trend_plot import render_trends_svg

    out = Path(out_dir)
    relabeled = relabel_frames(result)
    seq_path = render_sequence_svg(relabeled, out / "frames.svg")
    trend_path = render_trends_svg(
        compute_trends(result, "ipc"), out / "trend_ipc.svg", title="IPC evolution"
    )
    print(f"rendered {seq_path} and {trend_path}")


def _load_traces(paths: list[str], *, strict: bool):
    """Load every trace; under non-strict, quarantine unloadable files."""
    from repro.errors import ReproError
    from repro.robust.partial import ItemFailure, quarantine
    from repro.trace.io import load_trace

    failures = []
    traces = []
    for path in paths:
        try:
            traces.append(load_trace(path, strict=strict))
        except ReproError as exc:
            if strict:
                raise
            failures.append(
                quarantine(ItemFailure.from_exception(path, "load", exc))
            )
    return traces, failures


def _report_partial(outcome, extra_failures=()):
    """Print a run's quarantine block; return ``(value, failures, exit code)``.

    *outcome* is a strict run's plain result or a non-strict run's
    :class:`~repro.robust.partial.PartialResult`; *extra_failures* were
    quarantined before the run (unloadable trace files).
    """
    from repro.robust.partial import PartialResult

    partial = PartialResult.of(outcome)
    combined = PartialResult(
        value=partial.value,
        failures=tuple(extra_failures) + partial.failures,
    )
    if not combined.ok:
        print(combined.summary(), file=sys.stderr)
    return combined.value, combined.failures, combined.exit_code


def _track_files(args: argparse.Namespace, settings, *, jobs=None, cache=None):
    """Load ``args.traces`` and track them (``track``, ``report``, ``animate``).

    Prints the quarantine block; returns ``(result, failures, exit code)``.
    """
    from repro.api import quick_track

    strict = getattr(args, "strict", True)
    traces, load_failures = _load_traces(args.traces, strict=strict)
    outcome = quick_track(
        traces, settings=settings, jobs=jobs, cache=cache, strict=strict
    )
    return _report_partial(outcome, load_failures)


def _write_report(
    args: argparse.Namespace, runs, *, include_viz=True, stream=None
) -> None:
    """Write the ``--report`` artefact when the flag was given."""
    if not getattr(args, "report", None):
        return
    from repro.obs.report import write_report

    path = write_report(
        args.report, runs, include_viz=include_viz, stream=stream
    )
    print(f"wrote run report to {path}", file=sys.stderr)


def _cmd_track(args: argparse.Namespace) -> int:
    result, failures, code = _track_files(
        args, _frame_settings(args), jobs=args.jobs, cache=_resolve_cache(args)
    )
    _print_result(result, args.trend_metric or ["ipc"])
    if args.render:
        _render(result, args.render)
    _write_report(args, [("tracking run", result, failures)])
    return code


def _cmd_watch(args: argparse.Namespace) -> int:
    from repro.obs import runtime as obsruntime
    from repro.obs.alerts import EXIT_ALERTS, AlertConfig, format_alert
    from repro.stream import WINDOW_KEY, WatchTelemetry, track_windows
    from repro.trace.io import load_trace

    trace = load_trace(args.trace, strict=args.strict)
    settings = _frame_settings(args)
    alert_config = None
    if args.alerts or args.alerts_jsonl:
        alert_config = AlertConfig(threshold=args.alert_threshold)
    telemetry = WatchTelemetry(alerts=alert_config)

    server = None
    if args.serve is not None:
        from repro.obs.serve import start_metrics_server

        try:
            server = start_metrics_server(
                args.serve,
                health_source=telemetry.health,
                sampler=obsruntime.active_sampler(),
            )
        except OSError as error:
            print(
                f"error: cannot serve telemetry on port {args.serve}: "
                f"{error.strerror or error}",
                file=sys.stderr,
            )
            return 1
        print(
            f"serving /metrics and /healthz on {server.url}",
            file=sys.stderr,
        )

    def on_update(update) -> None:
        window = update.frame.trace.scenario.get(WINDOW_KEY, update.step)
        if update.pair is None:
            print(f"window {window}: stream opened, "
                  f"{update.frame.n_clusters} clusters")
        elif update.failure is not None:
            print(f"window {window}: pair quarantined "
                  f"({update.failure.error}); {len(update.regions)} regions")
        else:
            print(f"window {window}: {len(update.pair.relations)} relations, "
                  f"{len(update.regions)} regions, "
                  f"coverage {update.coverage}%")
        for alert in update.alerts:
            print(format_alert(alert), file=sys.stderr)

    try:
        result, failures, code = _report_partial(track_windows(
            trace,
            n_windows=args.windows,
            window_ns=args.window_ns,
            settings=settings,
            strict=args.strict,
            cache=_resolve_cache(args),
            on_update=on_update,
            telemetry=telemetry,
            max_live_windows=args.max_live_windows,
        ))
        _annotate_watch_quality(result, failures, telemetry)
        print()
        _print_result(result, ["ipc"])
        if args.alerts_jsonl:
            path = telemetry.write_jsonl(_expand_run_id(args.alerts_jsonl))
            print(f"wrote {len(telemetry.alerts)} alert(s) to {path}",
                  file=sys.stderr)
        print(telemetry.summary_line(), file=sys.stderr)
        # Condensed windows no longer carry burst scatter data, so bounded
        # runs ship the tables-only report.
        include_viz = args.max_live_windows is None
        _write_report(
            args, [("watch", result, failures)],
            include_viz=include_viz, stream=telemetry,
        )
        if code == 0 and telemetry.alerts_enabled and telemetry.alerts:
            code = EXIT_ALERTS
        return code
    finally:
        if server is not None:
            grace = getattr(args, "serve_grace", 0.0) or 0.0
            if grace > 0:
                import time as _time

                print(
                    f"holding telemetry endpoints open for {grace:g}s",
                    file=sys.stderr,
                )
                _time.sleep(grace)
            server.close()


def _annotate_watch_quality(result, failures, telemetry) -> None:
    """Mirror the watch run's QualityReport totals into the run ledger.

    A later ``repro-track obs summary`` must show the same headline
    numbers an offline ``--quality`` report would, so the end event
    carries them verbatim rather than a re-derivation.
    """
    from repro.obs import ledger as obsledger
    from repro.obs.alerts import summarize_alerts
    from repro.obs.quality import quality_report

    if obsledger.active_recorder() is None:
        return
    totals = (
        summarize_alerts(telemetry.alerts)
        if telemetry.alerts_enabled
        else None
    )
    report = quality_report(result, failures=failures, alerts=totals)
    obsledger.annotate(
        quality={
            "n_frames": report.n_frames,
            "n_regions": report.n_regions,
            "n_tracked": report.n_tracked,
            "coverage_pct": report.coverage,
            "quarantined": {stage: n for stage, n in report.quarantined},
        },
    )


def _cmd_study(args: argparse.Namespace) -> int:
    from repro.analysis.experiments import get_case_study

    case = get_case_study(args.name)
    study_result, failures, code = _report_partial(case.run(
        seed=args.seed,
        jobs=args.jobs,
        cache=_resolve_cache(args),
        strict=args.strict,
    ))
    print(f"case study: {case.name} "
          f"(expected: {case.expected_regions} regions, "
          f"{case.expected_coverage}% coverage)")
    _print_result(study_result.result, ["ipc"])
    if args.render:
        _render(study_result.result, args.render)
    _write_report(args, [(case.name, study_result.result, failures)])
    return code


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.clustering.frames import FrameSettings
    from repro.tracking.report import who_is_who

    result, failures, code = _track_files(
        args, FrameSettings(relevance=args.relevance)
    )
    print(who_is_who(result, evidence=not args.no_evidence))
    if args.html:
        from repro.obs.report import write_report

        path = write_report(args.html, [("who-is-who", result, failures)])
        print(f"wrote run report to {path}", file=sys.stderr)
    return code


def _cmd_animate(args: argparse.Namespace) -> int:
    from repro.clustering.frames import FrameSettings
    from repro.tracking.relabel import relabel_frames
    from repro.viz.animate import render_animation_html

    result, _, _ = _track_files(args, FrameSettings(relevance=args.relevance))
    relabeled = relabel_frames(result)
    path = render_animation_html(
        relabeled, args.output, interval_ms=args.interval
    )
    print(f"wrote {path} ({len(relabeled)} frames)")
    return 0


def _cmd_table2(args: argparse.Namespace) -> int:
    from repro.analysis.experiments import CASE_STUDIES
    from repro.analysis.report import format_table2
    from repro.robust.partial import PartialResult

    cache = _resolve_cache(args)
    results = {}
    failures = []
    runs = []
    for case in CASE_STUDIES:
        print(f"running {case.name}...", file=sys.stderr)
        outcome = PartialResult.of(
            case.run(jobs=args.jobs, cache=cache, strict=args.strict)
        )
        results[case.name] = outcome.value
        failures.extend(outcome.failures)
        runs.append((case.name, outcome.value.result, outcome.failures))
    print(format_table2(results))
    # Per-case SVG grids would make the ten-study report enormous;
    # table2 reports carry the attribution/quality tables only.
    _write_report(args, runs, include_viz=False)
    _, _, code = _report_partial(results, failures)
    return code


def _format_bytes(n: int) -> str:
    value = float(n)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if value < 1024 or unit == "GiB":
            return f"{value:.1f} {unit}" if unit != "B" else f"{int(value)} B"
        value /= 1024
    return f"{int(n)} B"  # pragma: no cover - unreachable


def _cmd_cache(args: argparse.Namespace) -> int:
    cache = _resolve_cache(args)
    if cache is None:
        print(
            "error: no cache directory configured "
            "(pass --cache-dir or set REPRO_CACHE)",
            file=sys.stderr,
        )
        return 2
    if args.action == "clear":
        removed = cache.clear()
        print(f"removed {removed} cache entr{'y' if removed == 1 else 'ies'} "
              f"from {cache.root}")
        return 0
    info = cache.info()
    print(f"cache directory: {info.root}")
    print(f"entries: {info.n_entries}   size: {_format_bytes(info.total_bytes)}")
    for kind, count in info.by_kind.items():
        print(f"  {kind}: {count}")
    return 0


def _cmd_bench_compare(args: argparse.Namespace) -> int:
    from repro.obs.bench import (
        compare_bench_results,
        format_bench_comparison,
        load_bench_results,
    )

    try:
        old = load_bench_results(args.old)
        new = load_bench_results(args.new)
    except (OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    deltas = compare_bench_results(
        old,
        new,
        threshold=args.threshold,
        min_seconds=args.min_seconds,
        rss_threshold=args.rss_threshold,
        min_rss_kib=args.min_rss_kib,
    )
    print(format_bench_comparison(
        deltas,
        old_only=set(old) - set(new),
        new_only=set(new) - set(old),
    ))
    return 1 if any(delta.failed for delta in deltas) else 0


def _cmd_tune(args: argparse.Namespace) -> int:
    from repro.analysis.report import format_table
    from repro.clustering.frames import FrameSettings
    from repro.clustering.tuning import tune_eps
    from repro.trace.io import load_trace

    trace = load_trace(args.trace)
    settings = FrameSettings(
        x_metric=args.x_metric, y_metric=args.y_metric, log_y=args.log_y
    )
    result = tune_eps(trace, settings=settings)
    rows = [
        [f"{c.eps:.4f}", c.n_clusters, f"{c.noise_fraction * 100:.1f}%",
         f"{c.silhouette:.3f}", "<- selected" if c is result.best else ""]
        for c in result.candidates
    ]
    print(format_table(
        ["eps", "clusters", "noise", "silhouette", ""],
        rows,
        title=f"eps tuning for {trace.label()}",
    ))
    print(f"\nsuggested eps: {result.eps:.4f} "
          f"({result.best.n_clusters} clusters)")
    return 0


def _cmd_info(_: argparse.Namespace) -> int:
    from repro.analysis.experiments import CASE_STUDIES
    from repro.apps.registry import APP_BUILDERS
    from repro.machine.machine import MACHINES

    print("applications:")
    for name in sorted(APP_BUILDERS):
        print(f"  {name}")
    print("machines:")
    for name, machine in MACHINES.items():
        print(f"  {name}: {machine.clock_hz / 1e9:.2f} GHz, "
              f"{machine.cores_per_node} cores/node")
    print("case studies (paper Table 2):")
    for case in CASE_STUDIES:
        print(f"  {case.name}: {case.expected_images} images, "
              f"{case.expected_regions} regions, {case.expected_coverage}%")
    return 0


def _format_ts(ts: float | None) -> str:
    if not ts:
        return "-"
    import time as _time

    return _time.strftime("%Y-%m-%d %H:%M:%S", _time.localtime(ts))


def _obs_pick_run(runs, target: str | None):
    """Resolve a ``summary`` target: run-id prefix match, else latest.

    Without a target the most recently *started* completed run wins,
    falling back to the most recent open one (a crashed or in-flight
    run is still worth inspecting).
    """
    if target:
        matches = [
            run
            for run in runs
            if run.run_id == target or run.run_id.startswith(target)
        ]
        return matches[-1] if matches else None
    completed = [run for run in runs if not run.open]
    pool = completed or runs
    return max(pool, key=lambda run: run.started_at) if pool else None


def _cmd_obs(args: argparse.Namespace) -> int:
    import json as _json

    from repro.analysis.report import format_table
    from repro.obs import ledger as obsledger

    ledger = obsledger.resolve_ledger(getattr(args, "ledger_dir", None))
    if ledger is None:
        print(
            "error: no ledger directory configured "
            "(pass --ledger-dir or set REPRO_LEDGER)",
            file=sys.stderr,
        )
        return 2

    if args.action == "tail":
        events = ledger.read_events()
        for event in events[-args.lines:]:
            print(_json.dumps(event, sort_keys=True, separators=(",", ":")))
        if ledger.corrupt_lines:
            print(
                f"skipped {ledger.corrupt_lines} corrupt line(s)",
                file=sys.stderr,
            )
        return 0

    runs = ledger.runs()

    if args.action == "runs":
        rows = [
            [
                run.run_id,
                run.entry,
                _format_ts(run.started_at),
                "open" if run.open else str(run.exit_code),
                f"{run.wall_s:.2f}" if not run.open else "-",
                str(run.rss_peak_kib) if run.rss_peak_kib else "-",
            ]
            for run in runs[-args.lines:]
        ]
        print(format_table(
            ["run id", "entry", "started", "exit", "wall s", "rss KiB"],
            rows,
            title=f"ledger: {ledger.root} ({len(runs)} run(s))",
        ))
        if ledger.corrupt_lines:
            print(
                f"skipped {ledger.corrupt_lines} corrupt line(s)",
                file=sys.stderr,
            )
        return 0

    if args.action == "summary":
        run = _obs_pick_run(runs, args.target)
        if run is None:
            what = f"run {args.target!r}" if args.target else "any run"
            print(f"error: no ledger record matches {what}", file=sys.stderr)
            return 2
        print(f"run {run.run_id}  entry {run.entry}")
        print(f"  started: {_format_ts(run.started_at)}")
        if run.open:
            print("  status:  open (no end event — crashed or running)")
        else:
            print(f"  ended:   {_format_ts(run.ended_at)}")
            print(f"  exit:    {run.exit_code}"
                  + (f"  error: {run.error}" if run.error else ""))
            print(f"  wall:    {run.wall_s:.3f} s")
            if run.rss_peak_kib:
                print(f"  rss:     {run.rss_peak_kib} KiB peak")
        if run.config_digest:
            print(f"  config:  {run.config_digest}")
        if run.argv:
            print(f"  argv:    {' '.join(run.argv)}")
        for label, payload in (("meta", run.meta), ("result", run.end_meta)):
            if payload:
                print(f"  {label}:")
                for key in sorted(payload):
                    print(f"    {key}: {payload[key]}")
        if run.quality:
            print("  quality:")
            for key in sorted(run.quality):
                print(f"    {key}: {run.quality[key]}")
        if run.alerts:
            print("  alerts:")
            for key in sorted(run.alerts):
                print(f"    {key}: {run.alerts[key]}")
        if run.sampler:
            print("  sampler:")
            for key in ("period_s", "n_samples", "rss_max_kib",
                        "cpu_s", "open_fds_max"):
                if key in run.sampler:
                    print(f"    {key}: {run.sampler[key]}")
            stages = run.sampler.get("stages") or {}
            for stage in sorted(stages):
                info = stages[stage]
                print(f"    stage {stage}: {info}")
        return 0

    # export: latest completed run per entry, bench-compare comparable.
    from repro.obs.bench import bench_results_payload

    latest: dict[str, object] = {}
    for run in runs:
        if run.open or run.exit_code not in (0, 3, 4):
            continue
        latest[run.entry] = run
    benches = {
        f"ledger:{entry}": (
            {"wall_time_s": run.wall_s, "rss_peak_kib": run.rss_peak_kib}
            if run.rss_peak_kib
            else {"wall_time_s": run.wall_s}
        )
        for entry, run in latest.items()
    }
    if not benches:
        print("error: no completed runs to export", file=sys.stderr)
        return 2
    payload = bench_results_payload(benches)
    text = _json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.output:
        from pathlib import Path

        Path(args.output).write_text(text, encoding="utf-8")
        print(
            f"wrote {len(benches)} entr{'y' if len(benches) == 1 else 'ies'} "
            f"to {args.output}",
            file=sys.stderr,
        )
    else:
        print(text, end="")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal
    import threading

    from repro.serve import JobServer

    try:
        server = JobServer(
            args.root,
            port=args.port,
            host=args.host,
            workers=args.workers,
            max_queue=args.max_queue,
            tenant_cap=args.tenant_cap,
            job_timeout=args.job_timeout,
        )
    except OSError as error:
        print(
            f"error: cannot serve jobs on port {args.port}: "
            f"{error.strerror or error}",
            file=sys.stderr,
        )
        return 1
    if server.requeued:
        print(
            f"re-queued {len(server.requeued)} interrupted job(s) "
            "from the journal",
            file=sys.stderr,
        )
    print(
        f"serving job API (+ /metrics, /healthz) on {server.url} "
        f"root {args.root} (ctrl-c to stop)",
        file=sys.stderr,
    )
    stop = threading.Event()
    previous = signal.signal(signal.SIGTERM, lambda *_: stop.set())
    try:
        while not stop.wait(3600):
            pass
    except KeyboardInterrupt:
        pass
    finally:
        signal.signal(signal.SIGTERM, previous)
        server.close()
        print("job server stopped", file=sys.stderr)
    return 0


def _serve_client(args: argparse.Namespace):
    """Resolve --url / REPRO_SERVE_URL into a JobClient (or None)."""
    import os

    from repro.serve.client import JobClient

    url = args.url or os.environ.get("REPRO_SERVE_URL")
    if not url:
        print(
            "error: no job server URL (pass --url or set REPRO_SERVE_URL)",
            file=sys.stderr,
        )
        return None
    if "://" not in url:
        url = "http://" + url
    return JobClient(url)


def _cmd_submit(args: argparse.Namespace) -> int:
    import json as _json

    client = _serve_client(args)
    if client is None:
        return 2
    try:
        if args.spec == "-":
            text = sys.stdin.read()
        else:
            with open(args.spec, encoding="utf-8") as handle:
                text = handle.read()
    except OSError as error:
        print(
            f"error: cannot read spec {args.spec!r}: "
            f"{error.strerror or error}",
            file=sys.stderr,
        )
        return 2
    try:
        spec = _json.loads(text)
    except _json.JSONDecodeError as error:
        print(f"error: spec is not valid JSON: {error}", file=sys.stderr)
        return 2
    record = client.submit(args.tenant, spec)
    if not args.wait:
        print(_json.dumps(record, indent=2, sort_keys=True))
        return 0
    final = client.wait(record["job_id"], timeout=args.timeout)
    print(_json.dumps(final, indent=2, sort_keys=True))
    return 0 if final.get("state") == "done" else 2


def _cmd_status(args: argparse.Namespace) -> int:
    import json as _json

    client = _serve_client(args)
    if client is None:
        return 2
    if args.job_id is not None:
        print(_json.dumps(client.status(args.job_id), indent=2, sort_keys=True))
        return 0
    if args.tenant is not None:
        jobs = client.tenant_jobs(args.tenant)
        print(_json.dumps(jobs, indent=2, sort_keys=True))
        return 0
    print("error: give a job id or --tenant NAME", file=sys.stderr)
    return 2


def _cmd_result(args: argparse.Namespace) -> int:
    client = _serve_client(args)
    if client is None:
        return 2
    data = (
        client.report(args.job_id) if args.report else client.result(args.job_id)
    )
    if args.output:
        from pathlib import Path

        Path(args.output).write_bytes(data)
        print(
            f"wrote {len(data)} bytes to {args.output}", file=sys.stderr
        )
    else:
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point.

    Returns 0 on success, ``EXIT_TOTAL`` (2) when the pipeline fails
    with a :class:`~repro.errors.ReproError`, and ``EXIT_PARTIAL`` (3)
    when a ``--no-strict`` run finished with quarantined items.
    """
    from repro import obs
    from repro.errors import ReproError
    from repro.obs import ledger as obsledger
    from repro.obs import runtime as obsruntime
    from repro.robust.partial import EXIT_TOTAL

    args = build_parser().parse_args(argv)
    obs.configure_logging(
        getattr(args, "verbose", 0) - getattr(args, "quiet", 0)
    )
    profile = getattr(args, "profile", None)
    if isinstance(profile, str) and profile:
        profile = _expand_run_id(profile)
    serving = getattr(args, "serve", None) is not None
    enabled_here = False
    # --serve implies observability: the exposition endpoints read the
    # metrics registry, which only fills while obs is enabled.
    if (profile is not None or serving) and not obs.enabled():
        obs.enable()
        enabled_here = True
    # Continuous resource sampler: REPRO_OBS_SAMPLE opts in anywhere; a
    # serving watch gets one by default so /metrics carries runtime.*
    # gauges.  Lifecycle (start/stop, ledger summary) lives here.
    sampler = obsruntime.resolve_sampler()
    if sampler is None and serving:
        sampler = obsruntime.ResourceSampler()
    if sampler is not None:
        obsruntime.set_active_sampler(sampler)
        sampler.start()
    ledger_rec = None
    if args.record:
        ledger_rec = obsledger.begin_run(
            f"cli.{args.command}",
            ledger_dir=getattr(args, "ledger_dir", None),
            argv=list(argv) if argv is not None else sys.argv[1:],
        )
    code: int | None = None
    error_name: str | None = None
    try:
        code = args.handler(args)
        if profile is not None or (obs.enabled() and obs.finished_spans()):
            obs.summary()
            if profile:  # a PATH was given, not the bare flag
                samples = (
                    sampler.snapshot_samples() if sampler is not None else None
                )
                try:
                    path = obs.write_chrome_trace(profile, samples=samples)
                except OSError as error:
                    print(f"error: cannot write profile to {profile!r}: "
                          f"{error.strerror or error}", file=sys.stderr)
                    code = 1
                    return code
                print(f"wrote Chrome trace to {path} "
                      "(load in chrome://tracing)", file=sys.stderr)
        return code
    except ReproError as error:
        # The whole pipeline failed: diagnosable, deliberate, exit 2.
        print(f"error: {error}", file=sys.stderr)
        code = EXIT_TOTAL
        error_name = type(error).__name__
        return code
    except BrokenPipeError:
        # Output piped into a pager/head that closed early: not an error.
        try:
            sys.stdout.close()
        except Exception:
            pass
        code = 0
        return code
    except BaseException as error:
        error_name = type(error).__name__
        raise
    finally:
        if sampler is not None:
            sampler.stop()
            obsruntime.set_active_sampler(None)
            if ledger_rec is not None:
                ledger_rec.annotate(sampler=sampler.summary())
        if ledger_rec is not None:
            obsledger.end_run(
                ledger_rec,
                exit_code=2 if code is None else code,
                error=error_name,
            )
        if enabled_here:
            obs.disable()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
