"""Checkpoint entries: one per surviving window, and only the current format.

A watch with a cache stores one entry per surviving window, holding
that window's pair relations and nothing the run can rebuild (labels,
statuses, alerts).  These tests pin the contract: every entry of a
finished run loads, an entry that does not parse or does not fit its
frames is dropped and the run continues live from that window, and an
entry written under another checkpoint format or key is a plain miss.
"""

from __future__ import annotations

import pytest

from repro.clustering.frames import FrameSettings
from repro.parallel.cache import PipelineCache
from repro.stream import WINDOW_KEY, WatchTelemetry, slice_trace, track_windows
from repro.stream.checkpoint import (
    _CHECKPOINT_FORMAT,
    load_checkpoint,
    pair_relations_to_json,
    stream_key,
    window_key,
)
from repro.tracking.tracker import TrackerConfig
from tests.stream.test_alerts import DRIFT_WINDOW_NS, build_drift_trace


def _checkpointed_run(tmp_path):
    """One full watch over the drift trace; returns (trace, cache, key)."""
    trace = build_drift_trace(drift=True)
    cache = PipelineCache(tmp_path / "cache")
    track_windows(trace, window_ns=DRIFT_WINDOW_NS, cache=cache)
    spec, _ = slice_trace(trace, window_ns=DRIFT_WINDOW_NS)
    key = stream_key(
        trace, spec.as_dict(), FrameSettings(), TrackerConfig(), strict=True
    )
    return trace, cache, key


def _surviving_windows(result):
    """Window index of every frame a tracking result holds, in order."""
    return [frame.trace.scenario[WINDOW_KEY] for frame in result.frames]


class TestFormatConstants:
    def test_current_format_is_accepted(self, tmp_path):
        trace, cache, key = _checkpointed_run(tmp_path)
        assert key["format"] == _CHECKPOINT_FORMAT
        reference = track_windows(trace, window_ns=DRIFT_WINDOW_NS)
        windows = _surviving_windows(reference)
        entries = [load_checkpoint(cache, key, w) for w in windows]
        assert all(entry is not None for entry in entries)
        assert entries[0] == (None, None)
        assert [pair_relations_to_json(pair) for pair, _ in entries[1:]] == [
            pair_relations_to_json(pair) for pair in reference.pair_relations
        ]
        for window in windows:
            assert set(cache.get(window_key(key, window))) == {
                "pair", "pair_failure",
            }
        assert cache.info().by_kind["stream"] == len(windows)


class TestFormatTwo:
    """Entries that do not parse, or do not fit their frames."""

    def test_unknown_future_format_is_dropped(self, tmp_path):
        """A payload this version cannot parse is dropped and misses."""
        _, cache, key = _checkpointed_run(tmp_path)
        entry = window_key(key, 1)
        for unknown in (
            {"format": 99, "windows": []},
            {"pair": {"relations": "garbage"}, "pair_failure": None},
            {
                "pair": {"relations": [{"left": [float("inf")], "right": []}]},
                "pair_failure": None,
            },
        ):
            cache.put(entry, unknown)
            assert load_checkpoint(cache, key, 1) is None
            assert cache.get(entry) is None

    @pytest.mark.parametrize(
        "tamper", ["missing-cluster", "no-pair", "unparseable"]
    )
    def test_relation_naming_a_missing_cluster_continues_live(
        self, tmp_path, tamper
    ):
        """A bad entry (re-put with a valid digest) sends the run live
        from that window, not into a crash or a cold restart."""
        trace, cache, key = _checkpointed_run(tmp_path)
        reference = track_windows(trace, window_ns=DRIFT_WINDOW_NS)
        windows = _surviving_windows(reference)
        position = next(
            p for p, pair in enumerate(reference.pair_relations, start=1)
            if pair.relations
        )
        entry = window_key(key, windows[position])
        payload = cache.get(entry)
        if tamper == "missing-cluster":
            payload["pair"]["relations"][0]["left"] = [99]
        elif tamper == "no-pair":
            payload["pair"] = None
        else:
            del payload["pair"]["displacement_ab"]
        cache.put(entry, payload)
        telemetry = WatchTelemetry()
        resumed = track_windows(
            trace, window_ns=DRIFT_WINDOW_NS, cache=cache,
            telemetry=telemetry,
        )
        assert telemetry.n_resumed == position
        assert resumed.regions == reference.regions
        assert resumed.coverage == reference.coverage
        assert [p.relations for p in resumed.pair_relations] == [
            p.relations for p in reference.pair_relations
        ]
        rewritten, _ = load_checkpoint(cache, key, windows[position])
        assert pair_relations_to_json(rewritten) == pair_relations_to_json(
            reference.pair_relations[position - 1]
        )


class TestKeyMismatch:
    """What the stream key pins, and what it leaves out.

    An entry written under another checkpoint format is a miss.  The
    memory bound is not in the key: a pair is always evaluated while
    both of its frames are live, so bounded and unbounded runs store
    the same entries.
    """

    def _key(self, trace):
        spec, _ = slice_trace(trace, window_ns=DRIFT_WINDOW_NS)
        return stream_key(
            trace, spec.as_dict(), FrameSettings(), TrackerConfig(),
            strict=True,
        )

    def test_default_key_unchanged_by_default_knobs(self, tmp_path):
        trace, cache, key = _checkpointed_run(tmp_path)
        explicit = self._key(trace)
        assert explicit == key
        assert load_checkpoint(cache, explicit, 0) is not None

    def test_bounded_run_resumes_from_unbounded_entries(self, tmp_path):
        trace, cache, _ = _checkpointed_run(tmp_path)
        telemetry = WatchTelemetry()
        resumed = track_windows(
            trace, window_ns=DRIFT_WINDOW_NS, cache=cache,
            telemetry=telemetry, max_live_windows=2,
        )
        cold = track_windows(
            trace, window_ns=DRIFT_WINDOW_NS, max_live_windows=2
        )
        assert telemetry.n_resumed == len(cold.frames)
        assert telemetry.n_updates == 0
        assert resumed.regions == cold.regions
        assert resumed.coverage == cold.coverage
        assert [pair_relations_to_json(p) for p in resumed.pair_relations] == [
            pair_relations_to_json(p) for p in cold.pair_relations
        ]

    def test_other_format_misses(self, tmp_path):
        """An entry written under another checkpoint format is a miss."""
        trace, cache, key = _checkpointed_run(tmp_path)
        older = {**key, "format": _CHECKPOINT_FORMAT - 1}
        other = PipelineCache(tmp_path / "other")
        other.put(window_key(older, 1), cache.get(window_key(key, 1)))
        assert load_checkpoint(other, older, 1) is not None
        assert load_checkpoint(other, key, 1) is None
