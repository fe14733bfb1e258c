"""Unit tests for repro.obs.bench: bench results and regression gating."""

from __future__ import annotations

import json

import pytest

from repro.obs.bench import (
    BENCH_SCHEMA,
    bench_results_payload,
    compare_bench_results,
    format_bench_comparison,
    load_bench_results,
)


def _write(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


class TestPayloadAndLoad:
    def test_roundtrip(self, tmp_path):
        payload = bench_results_payload(
            {"bench_x": {"wall_time_s": 1.5, "rss_peak_kib": 2048}}
        )
        assert payload["schema"] == BENCH_SCHEMA
        path = _write(tmp_path / "r.json", payload)
        benches = load_bench_results(path)
        assert benches["bench_x"]["wall_time_s"] == 1.5

    def test_rejects_foreign_schema(self, tmp_path):
        path = _write(tmp_path / "r.json", {"schema": "other/9", "benches": {}})
        with pytest.raises(ValueError, match="expected schema"):
            load_bench_results(path)

    def test_rejects_invalid_json(self, tmp_path):
        path = tmp_path / "r.json"
        path.write_text("{truncated", encoding="utf-8")
        with pytest.raises(ValueError, match="not valid JSON"):
            load_bench_results(path)

    def test_rejects_missing_wall_time(self, tmp_path):
        path = _write(
            tmp_path / "r.json",
            {"schema": BENCH_SCHEMA, "benches": {"b": {"rss_peak_kib": 1}}},
        )
        with pytest.raises(ValueError, match="wall_time_s"):
            load_bench_results(path)


class TestCompare:
    def test_detects_injected_2x_slowdown(self):
        old = {"b": {"wall_time_s": 0.4}}
        new = {"b": {"wall_time_s": 0.8}}
        (delta,) = compare_bench_results(old, new)
        assert delta.regressed
        assert delta.ratio == pytest.approx(2.0)

    def test_self_comparison_clean(self):
        benches = {
            "a": {"wall_time_s": 0.1},
            "b": {"wall_time_s": 2.0, "rss_peak_kib": 4096},
        }
        deltas = compare_bench_results(benches, benches)
        assert len(deltas) == 2
        assert not any(delta.regressed for delta in deltas)

    def test_growth_below_threshold_tolerated(self):
        old = {"b": {"wall_time_s": 1.0}}
        new = {"b": {"wall_time_s": 1.2}}  # +20% < 25% default
        (delta,) = compare_bench_results(old, new)
        assert not delta.regressed

    def test_absolute_floor_shields_micro_benches(self):
        old = {"b": {"wall_time_s": 0.001}}
        new = {"b": {"wall_time_s": 0.004}}  # 4x but only +3ms
        (delta,) = compare_bench_results(old, new)
        assert not delta.regressed

    def test_disjoint_benches_skipped(self):
        deltas = compare_bench_results(
            {"only_old": {"wall_time_s": 1.0}},
            {"only_new": {"wall_time_s": 1.0}},
        )
        assert deltas == []

    def test_format_mentions_regressions(self):
        old = {"b": {"wall_time_s": 0.4}}
        new = {"b": {"wall_time_s": 0.9}}
        text = format_bench_comparison(compare_bench_results(old, new))
        assert "REGRESSED" in text
        assert "1 regression(s)" in text

    def test_format_clean_run(self):
        benches = {"b": {"wall_time_s": 0.4}}
        text = format_bench_comparison(compare_bench_results(benches, benches))
        assert "no regressions" in text


class TestRssGate:
    def test_off_by_default(self):
        old = {"b": {"wall_time_s": 1.0, "rss_peak_kib": 100_000}}
        new = {"b": {"wall_time_s": 1.0, "rss_peak_kib": 400_000}}
        (delta,) = compare_bench_results(old, new)
        assert not delta.rss_regressed
        assert not delta.failed

    def test_trips_on_large_growth(self):
        old = {"b": {"wall_time_s": 1.0, "rss_peak_kib": 100_000}}
        new = {"b": {"wall_time_s": 1.0, "rss_peak_kib": 140_000}}
        (delta,) = compare_bench_results(old, new, rss_threshold=0.25)
        assert delta.rss_regressed
        assert delta.failed
        assert not delta.regressed  # wall gate untouched

    def test_relative_growth_below_threshold_tolerated(self):
        old = {"b": {"wall_time_s": 1.0, "rss_peak_kib": 100_000}}
        new = {"b": {"wall_time_s": 1.0, "rss_peak_kib": 120_000}}
        (delta,) = compare_bench_results(old, new, rss_threshold=0.25)
        assert not delta.rss_regressed

    def test_absolute_floor_shields_small_heaps(self):
        # 3x growth, but only +8 MiB: under the 10 MiB default floor.
        old = {"b": {"wall_time_s": 1.0, "rss_peak_kib": 4_096}}
        new = {"b": {"wall_time_s": 1.0, "rss_peak_kib": 12_288}}
        (delta,) = compare_bench_results(old, new, rss_threshold=0.25)
        assert not delta.rss_regressed

    def test_missing_rss_never_gates(self):
        old = {"b": {"wall_time_s": 1.0}}
        new = {"b": {"wall_time_s": 1.0, "rss_peak_kib": 999_999}}
        (delta,) = compare_bench_results(old, new, rss_threshold=0.25)
        assert not delta.rss_regressed

    def test_format_flags_rss_regression(self):
        old = {"b": {"wall_time_s": 1.0, "rss_peak_kib": 100_000}}
        new = {"b": {"wall_time_s": 1.0, "rss_peak_kib": 200_000}}
        deltas = compare_bench_results(old, new, rss_threshold=0.25)
        text = format_bench_comparison(deltas)
        assert "RSS-REGRESSED" in text
        assert "1 regression(s)" in text
