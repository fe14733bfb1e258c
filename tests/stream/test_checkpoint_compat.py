"""Checkpoint format compatibility: only the current format loads.

Format 2 added the per-window ``alerts`` list.  These tests pin the
contract: a format-2 checkpoint round-trips its alerts, while any other
format — the alert-less format 1 as much as a future one — is dropped
wholesale and the run starts cold, like any corrupt entry.
"""

from __future__ import annotations

from repro.clustering.frames import FrameSettings
from repro.obs.alerts import AlertConfig
from repro.parallel.cache import PipelineCache
from repro.stream import WatchTelemetry, slice_trace, track_windows
from repro.stream.checkpoint import (
    _CHECKPOINT_FORMAT,
    load_checkpoint,
    stream_key,
)
from repro.tracking.tracker import TrackerConfig
from tests.stream.test_alerts import DRIFT_WINDOW_NS, build_drift_trace


def _checkpointed_run(tmp_path, *, alerts=None):
    """One full watch over the drift trace; returns (trace, cache, key)."""
    trace = build_drift_trace(drift=True)
    cache = PipelineCache(tmp_path / "cache")
    telemetry = WatchTelemetry(alerts=alerts)
    track_windows(
        trace, window_ns=DRIFT_WINDOW_NS, cache=cache, telemetry=telemetry
    )
    spec, _ = slice_trace(trace, window_ns=DRIFT_WINDOW_NS)
    key = stream_key(
        trace, spec.as_dict(), FrameSettings(), TrackerConfig(), strict=True
    )
    return trace, cache, key, telemetry


def _downgrade_to_format1(cache, key):
    """Rewrite the stored checkpoint as a faithful format-1 payload."""
    payload = cache.get(key)
    assert payload is not None and payload["format"] == _CHECKPOINT_FORMAT
    payload["format"] = 1
    for window in payload["windows"]:
        window.pop("alerts", None)
    cache.put(key, payload)


class TestFormatConstants:
    def test_current_format_is_accepted(self, tmp_path):
        _, cache, key, _ = _checkpointed_run(tmp_path)
        assert cache.get(key)["format"] == _CHECKPOINT_FORMAT
        assert load_checkpoint(cache, key) is not None


class TestFormatOne:
    def test_resume_starts_cold(self, tmp_path):
        trace, cache, key, _ = _checkpointed_run(tmp_path)
        _downgrade_to_format1(cache, key)
        reference = track_windows(trace, window_ns=DRIFT_WINDOW_NS)
        telemetry = WatchTelemetry()
        resumed = track_windows(
            trace, window_ns=DRIFT_WINDOW_NS, cache=cache,
            telemetry=telemetry,
        )
        assert telemetry.n_resumed == 0
        assert resumed.regions == reference.regions


class TestFormatTwo:
    def test_alerts_round_trip_through_the_checkpoint(self, tmp_path):
        _, cache, key, telemetry = _checkpointed_run(
            tmp_path, alerts=AlertConfig()
        )
        assert telemetry.alerts
        records = load_checkpoint(cache, key)
        stored = [
            alert for record in records for alert in record.alerts
        ]
        assert stored == telemetry.alerts

    def test_unknown_future_format_is_dropped(self, tmp_path):
        """Format 1, written before alerting, is as unknown as format 99."""
        _, cache, key, _ = _checkpointed_run(tmp_path)
        payload = cache.get(key)
        for unknown in (1, 99):
            cache.put(key, {**payload, "format": unknown})
            assert load_checkpoint(cache, key) is None

    def test_malformed_alert_entry_drops_the_checkpoint(self, tmp_path):
        _, cache, key, _ = _checkpointed_run(
            tmp_path, alerts=AlertConfig()
        )
        payload = cache.get(key)
        tainted = next(
            w for w in payload["windows"] if w.get("alerts")
        )
        tainted["alerts"][0]["kind"] = "meltdown"
        cache.put(key, payload)
        assert load_checkpoint(cache, key) is None

    def test_relation_naming_a_missing_cluster_starts_cold(self, tmp_path):
        """A stored pair relating a cluster id its frames lack (re-put with
        a valid digest) replays into a cold start, not a crash."""
        trace, cache, key, _ = _checkpointed_run(tmp_path)
        payload = cache.get(key)
        tainted = next(
            w for w in payload["windows"]
            if w["pair"] is not None and w["pair"]["relations"]
        )
        tainted["pair"]["relations"][0]["left"] = [99]
        cache.put(key, payload)
        reference = track_windows(trace, window_ns=DRIFT_WINDOW_NS)
        telemetry = WatchTelemetry()
        resumed = track_windows(
            trace, window_ns=DRIFT_WINDOW_NS, cache=cache,
            telemetry=telemetry,
        )
        assert telemetry.n_resumed == 0
        assert resumed.regions == reference.regions
        assert resumed.coverage == reference.coverage
        assert [p.relations for p in resumed.pair_relations] == [
            p.relations for p in reference.pair_relations
        ]


class TestKeyMismatch:
    """The memory-bound knob participates in the stream key.

    A checkpoint written under one max_live configuration must not be
    adopted by a run under another — the regression test for the key
    that silently omitted it.
    """

    def _key(self, trace, **kwargs):
        spec, _ = slice_trace(trace, window_ns=DRIFT_WINDOW_NS)
        return stream_key(
            trace, spec.as_dict(), FrameSettings(), TrackerConfig(),
            strict=True, **kwargs,
        )

    def test_default_key_unchanged_by_default_knobs(self, tmp_path):
        trace, cache, key, _ = _checkpointed_run(tmp_path)
        explicit = self._key(trace, max_live=None)
        assert explicit == key
        assert load_checkpoint(cache, explicit) is not None

    def test_max_live_mismatch_misses(self, tmp_path):
        trace, cache, _, _ = _checkpointed_run(tmp_path)
        bounded = self._key(trace, max_live=3)
        assert cache.get(bounded) is None
        assert load_checkpoint(cache, bounded) is None
