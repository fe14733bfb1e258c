"""Behaviour of the streaming pipeline and the ``repro-track watch`` CLI.

Covers the acceptance criteria of the streaming PR: per-window metrics
(``stream.update_seconds`` observed once per live pair), checkpointed
resume that recomputes nothing, quarantined-window semantics and the
CLI exit codes (0 strict-clean, 3 partial).
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import obs
from repro.apps import wrf
from repro.cli import main
from repro.errors import ReproError
from repro.parallel.cache import PipelineCache
from repro.robust.partial import PartialResult
from repro.stream import track_windows
from repro.stream.checkpoint import load_checkpoint, stream_key, window_key
from repro.stream.window import slice_trace
from repro.clustering.frames import FrameSettings
from repro.tracking.tracker import TrackerConfig
from repro.trace.callstack import CallPath
from repro.trace.io import save_trace
from repro.trace.trace import TraceBuilder
from tests.conftest import build_two_region_trace


@pytest.fixture()
def metrics():
    """Enabled, clean obs state; returns snapshot helpers."""
    obs.enable()
    obs.reset()

    def counter(name):
        snap = obs.metrics_snapshot()
        return sum(c["value"] for c in snap["counters"] if c["name"] == name)

    def histogram_count(name):
        snap = obs.metrics_snapshot()
        return sum(h["count"] for h in snap["histograms"] if h["name"] == name)

    yield counter, histogram_count
    obs.reset()
    obs.disable()


def build_gappy_trace(*, nranks: int = 4, iterations: int = 4):
    """A two-region trace plus one isolated late burst.

    Sliced into 4 windows, the late burst lands alone in the last
    window; a one-point window cannot cluster and is quarantined,
    exercising the corrupt-window path.
    """
    rng = np.random.default_rng(7)
    builder = TraceBuilder(nranks=nranks, app="toy", scenario={})
    path_a = CallPath.single("region_a", "main.c", 10)
    path_b = CallPath.single("region_b", "main.c", 20)
    clock = 1e9
    t = np.zeros(nranks)
    for _ in range(iterations):
        for path, instr, ipc in ((path_a, 1e6, 1.0), (path_b, 4e6, 0.5)):
            for rank in range(nranks):
                instructions = instr * (1.0 + 0.01 * rng.standard_normal())
                duration = instructions / ipc / clock
                builder.add(
                    rank=rank,
                    begin=float(t[rank]),
                    duration=duration,
                    callpath=path,
                    counters=[instructions, instructions / ipc,
                              instructions * 0.01, instructions * 0.001,
                              instructions * 0.0001],
                )
                t[rank] += duration
            t[:] = t.max()
    # One lone burst after a gap: with 4 windows the main activity
    # spans windows 0-2 and the lone burst sits alone in window 3.
    builder.add(
        rank=0,
        begin=float(t.max()) * 1.4,
        duration=1e-3,
        callpath=path_a,
        counters=[1e6, 1e6, 1e4, 1e3, 1e2],
    )
    return builder.build()


class TestTrackWindowsMetrics:
    def test_update_seconds_observed_once_per_pair(self, toy_trace, metrics):
        counter, histogram_count = metrics
        updates = []
        track_windows(toy_trace, n_windows=5, on_update=updates.append)
        n_alive = sum(
            1 for w in slice_trace(toy_trace, n_windows=5)[1] if w.n_bursts
        )
        # One update per live frame push; one pair per push after the first.
        assert len(updates) == n_alive
        assert histogram_count("stream.update_seconds") == n_alive - 1
        assert counter("stream.updates_total") == n_alive - 1
        assert counter("stream.windows_total") == 5
        assert counter("stream.windows_resumed") == 0

    def test_window_is_clustered_after_the_previous_update(
        self, toy_trace, tmp_path
    ):
        """A watch streams: window k+1 is clustered only after window
        k's update fired, whatever ``jobs`` asks for."""
        cache = PipelineCache(tmp_path / "cache")
        seen = []

        def on_update(update):
            seen.append(cache.info().by_kind.get("frame", 0))

        track_windows(
            toy_trace, n_windows=5, cache=cache, on_update=on_update, jobs=2
        )
        assert len(seen) >= 2
        assert seen == [k + 1 for k in range(len(seen))]

    def test_updates_carry_running_state(self, toy_trace):
        updates = []
        result = track_windows(toy_trace, n_windows=4, on_update=updates.append)
        assert updates[0].pair is None
        assert all(u.pair is not None for u in updates[1:])
        # The final update's running regions equal the result's regions.
        assert updates[-1].regions == result.regions
        assert updates[-1].coverage == result.coverage


class TestResume:
    def test_warm_rerun_replays_everything(
        self, toy_trace, tmp_path, metrics, monkeypatch
    ):
        counter, histogram_count = metrics
        cache = PipelineCache(tmp_path / "cache")
        first = track_windows(toy_trace, n_windows=5, cache=cache)
        obs.reset()

        def no_clustering(*args, **kwargs):
            raise AssertionError("a replayed window was clustered")

        monkeypatch.setattr("repro.clustering.frames.make_frame", no_clustering)
        replayed = []
        second = track_windows(
            toy_trace, n_windows=5, cache=cache, on_update=replayed.append
        )
        n_alive = sum(
            1 for w in slice_trace(toy_trace, n_windows=5)[1] if w.n_bursts
        )
        assert counter("stream.windows_resumed") == 5
        assert counter("stream.updates_total") == 0
        assert histogram_count("stream.update_seconds") == 0
        assert counter("cache.misses_total") == 0  # no frame rebuilt
        assert replayed == []  # on_update only fires for live pushes
        assert first.regions == second.regions
        assert [p.relations for p in first.pair_relations] == [
            p.relations for p in second.pair_relations
        ]
        assert n_alive >= 2

    def test_partial_checkpoint_resumes_midstream(
        self, toy_trace, tmp_path, metrics
    ):
        counter, histogram_count = metrics
        cache = PipelineCache(tmp_path / "cache")
        full = track_windows(toy_trace, n_windows=5, cache=cache)
        # Drop the entries of windows 3-4, simulating a watch killed
        # after its third window.
        spec, windows = slice_trace(toy_trace, n_windows=5)
        key = stream_key(
            toy_trace,
            spec.as_dict(),
            FrameSettings(),
            TrackerConfig(),
            strict=True,
        )
        assert all(load_checkpoint(cache, key, w) is not None for w in range(5))
        for window in (3, 4):
            cache.invalidate(window_key(key, window))
        obs.reset()
        resumed = track_windows(toy_trace, n_windows=5, cache=cache)
        alive_resumed = sum(1 for w in windows[:3] if w.n_bursts)
        alive_live = sum(1 for w in windows[3:] if w.n_bursts)
        assert counter("stream.windows_resumed") == alive_resumed
        assert counter("stream.updates_total") == alive_live
        assert resumed.regions == full.regions

    def test_corrupt_checkpoint_starts_cold(self, toy_trace, tmp_path, metrics):
        counter, _ = metrics
        cache = PipelineCache(tmp_path / "cache")
        key = stream_key(
            toy_trace,
            slice_trace(toy_trace, n_windows=4)[0].as_dict(),
            FrameSettings(),
            TrackerConfig(),
            strict=True,
        )
        cache.put(window_key(key, 0), {"format": 999, "windows": "garbage"})
        result = track_windows(toy_trace, n_windows=4, cache=cache)
        assert counter("stream.windows_resumed") == 0
        assert result.regions

    def test_checkpoint_write_does_not_grow_with_the_stream(
        self, tmp_path, monkeypatch
    ):
        """A window's checkpoint write holds that window only: the last
        window of a 20-window stream writes about what the second does."""
        sizes = []
        put = PipelineCache.put

        def recording_put(self, key, payload):
            path = put(self, key, payload)
            if key["kind"] == "stream":
                sizes.append(path.stat().st_size)
            return path

        monkeypatch.setattr(PipelineCache, "put", recording_put)
        trace = wrf.build(ranks=16, iterations=30).run(seed=0)
        track_windows(
            trace, n_windows=20, cache=PipelineCache(tmp_path / "cache")
        )
        assert len(sizes) == 20
        assert sizes[-1] <= 1.5 * sizes[1]


class TestQuarantinedWindows:
    def test_strict_raises_on_bad_window(self):
        trace = build_gappy_trace()
        with pytest.raises(ReproError):
            track_windows(trace, n_windows=4)

    def test_non_strict_quarantines_bad_window(self, metrics):
        counter, _ = metrics
        trace = build_gappy_trace()
        outcome = track_windows(trace, n_windows=4, strict=False)
        assert isinstance(outcome, PartialResult)
        stages = [f.stage for f in outcome.failures]
        assert "window" in stages
        assert counter("robust.quarantined_total") >= 1
        assert outcome.value.regions


class TestWatchCli:
    def _simulate(self, tmp_path):
        trace_file = tmp_path / "trace.json"
        assert main([
            "simulate", "hydroc", "block_size=64", "ranks=8",
            "iterations=6", "--seed", "3", "-o", str(trace_file),
        ]) == 0
        return trace_file

    def test_watch_strict_exit_zero_and_report(self, tmp_path, capsys):
        trace_file = self._simulate(tmp_path)
        report = tmp_path / "out.json"
        code = main([
            "watch", str(trace_file), "--windows", "4",
            "--report", str(report),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "window 0: stream opened" in out
        assert "regions" in out
        payload = json.loads(report.read_text())
        assert payload["schema"] == "repro.report/1"
        assert payload["runs"][0]["name"] == "watch"

    def test_watch_quarantined_window_exits_three(self, tmp_path, capsys):
        trace = build_gappy_trace()
        trace_file = tmp_path / "gappy.json"
        save_trace(trace, trace_file)
        report = tmp_path / "out.json"
        code = main([
            "watch", str(trace_file), "--windows", "4", "--no-strict",
            "--report", str(report),
        ])
        assert code == 3
        out = capsys.readouterr().out + capsys.readouterr().err
        assert report.exists()

    def test_watch_resumes_from_cache_dir(self, tmp_path, capsys):
        trace_file = self._simulate(tmp_path)
        cache_dir = tmp_path / "cache"
        args = [
            "watch", str(trace_file), "--windows", "4",
            "--cache-dir", str(cache_dir),
        ]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "window 0" in first
        assert main(args) == 0
        second = capsys.readouterr().out
        # All windows replay from the checkpoint: no live update lines.
        assert "window 0" not in second
        assert "Tracked regions" in second or "regions" in second

    def test_watch_bounded_writes_tables_only_report(self, tmp_path, capsys):
        trace_file = self._simulate(tmp_path)
        report = tmp_path / "bounded.json"
        code = main([
            "watch", str(trace_file), "--windows", "4",
            "--max-live-windows", "2", "--report", str(report),
        ])
        assert code == 0
        payload = json.loads(report.read_text())
        assert payload["runs"][0]["name"] == "watch"
        # Condensed windows carry no burst scatter; the report must not
        # try to render them.
        assert not payload["runs"][0].get("viz")

    def test_watch_rejects_missing_window_mode(self, tmp_path):
        trace_file = self._simulate(tmp_path)
        with pytest.raises(SystemExit):
            main(["watch", str(trace_file)])

    def test_watch_mutually_exclusive_modes(self, tmp_path):
        trace_file = self._simulate(tmp_path)
        with pytest.raises(SystemExit):
            main([
                "watch", str(trace_file),
                "--windows", "4", "--window-ns", "1e6",
            ])


class TestWatchAlertsCli:
    """``watch --alerts``: exit codes, stderr stream, JSONL, summary."""

    def _drift_file(self, tmp_path, *, drift: bool):
        from tests.stream.test_alerts import build_drift_trace

        trace_file = tmp_path / ("drift.json" if drift else "steady.json")
        save_trace(build_drift_trace(drift=drift), trace_file)
        return trace_file

    _WINDOW_NS = "20000000"  # one iteration slot of build_drift_trace

    def test_drifting_run_exits_four_with_alert_lines(
        self, tmp_path, capsys
    ):
        trace_file = self._drift_file(tmp_path, drift=True)
        code = main([
            "watch", str(trace_file), "--window-ns", self._WINDOW_NS,
            "--alerts",
        ])
        assert code == 4
        captured = capsys.readouterr()
        assert "ALERT [divergence]" in captured.err
        assert "watch summary:" in captured.err
        assert "alerts:" in captured.err
        # Alert lines go to stderr only; stdout keeps the stream lines.
        assert "ALERT" not in captured.out

    def test_steady_run_exits_zero_with_empty_summary(
        self, tmp_path, capsys
    ):
        trace_file = self._drift_file(tmp_path, drift=False)
        code = main([
            "watch", str(trace_file), "--window-ns", self._WINDOW_NS,
            "--alerts",
        ])
        assert code == 0
        err = capsys.readouterr().err
        assert "ALERT" not in err
        assert "alerts: none" in err

    def test_alerts_jsonl_implies_alerts_and_validates(
        self, tmp_path, capsys
    ):
        trace_file = self._drift_file(tmp_path, drift=True)
        jsonl = tmp_path / "alerts.jsonl"
        code = main([
            "watch", str(trace_file), "--window-ns", self._WINDOW_NS,
            "--alerts-jsonl", str(jsonl),
        ])
        assert code == 4
        lines = jsonl.read_text().splitlines()
        assert lines
        from repro.obs.alerts import AlertRecord

        records = [AlertRecord.from_dict(json.loads(line)) for line in lines]
        assert any(r.kind == "divergence" for r in records)
        assert all(r.track for r in records)

    def test_alert_threshold_is_honoured(self, tmp_path, capsys):
        # An absurdly wide tolerance silences the drift's divergences
        # (the regression check still fires — it has its own knob).
        trace_file = self._drift_file(tmp_path, drift=True)
        main([
            "watch", str(trace_file), "--window-ns", self._WINDOW_NS,
            "--alerts", "--alert-threshold", "100",
        ])
        err = capsys.readouterr().err
        assert "ALERT [divergence]" not in err

    def test_summary_line_appears_without_alerts_flag(
        self, tmp_path, capsys
    ):
        trace_file = self._drift_file(tmp_path, drift=False)
        code = main([
            "watch", str(trace_file), "--window-ns", self._WINDOW_NS,
        ])
        assert code == 0
        err = capsys.readouterr().err
        assert "watch summary:" in err
        assert "alerts: disabled" in err

    def test_quarantine_exit_code_beats_alerts(self, tmp_path, capsys):
        # Quarantined windows (exit 3) take precedence over exit 4.
        trace = build_gappy_trace()
        trace_file = tmp_path / "gappy.json"
        save_trace(trace, trace_file)
        code = main([
            "watch", str(trace_file), "--windows", "4", "--no-strict",
            "--alerts",
        ])
        assert code == 3

    def test_html_report_carries_stream_section(self, tmp_path, capsys):
        trace_file = self._drift_file(tmp_path, drift=True)
        report = tmp_path / "report.html"
        main([
            "watch", str(trace_file), "--window-ns", self._WINDOW_NS,
            "--alerts", "--report", str(report),
        ])
        html = report.read_text()
        assert "Live watch telemetry" in html
        assert "stroke-dasharray" in html  # forecast sparkline
        assert "ALERT" not in html  # table, not raw stderr lines
        assert "divergence" in html

    def test_json_report_carries_stream_payload(self, tmp_path, capsys):
        trace_file = self._drift_file(tmp_path, drift=True)
        report = tmp_path / "report.json"
        main([
            "watch", str(trace_file), "--window-ns", self._WINDOW_NS,
            "--alerts", "--report", str(report),
        ])
        payload = json.loads(report.read_text())
        stream = payload["stream"]
        assert stream["alerts_enabled"] is True
        assert stream["windows"] == 10
        assert stream["alerts"]
        assert stream["series"]
        quality = payload["runs"][0]["quality"]
        assert quality["alerts"]["total"] == len(stream["alerts"])

    def test_plain_report_payload_has_no_stream_key(self, tmp_path, capsys):
        # Non-watch reports keep the pre-alerting payload shape.
        trace_file = self._drift_file(tmp_path, drift=False)
        report = tmp_path / "report.json"
        main([
            "track", str(trace_file), str(trace_file),
            "--report", str(report),
        ])
        payload = json.loads(report.read_text())
        assert "stream" not in payload
        assert "alerts" not in payload["runs"][0]["quality"]
