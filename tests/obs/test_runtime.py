"""Resource-sampler tests: sampling, stage attribution, pure-observer."""

from __future__ import annotations

import time

import pytest

from repro import obs
from repro.obs.metrics import MetricsRegistry
from repro.obs.runtime import (
    SAMPLE_ENV,
    ResourceSampler,
    active_sampler,
    current_rss_kib,
    open_fd_count,
    resolve_sampler,
    rss_peak_kib,
    set_active_sampler,
)


@pytest.fixture(autouse=True)
def clean_sampler(monkeypatch):
    monkeypatch.delenv(SAMPLE_ENV, raising=False)
    set_active_sampler(None)
    yield
    set_active_sampler(None)


class TestProbes:
    def test_rss_positive(self):
        assert current_rss_kib() > 0

    def test_rss_peak_positive(self):
        assert rss_peak_kib() > 0

    def test_fd_count_positive(self):
        assert open_fd_count() > 0


class TestSampleOnce:
    def test_fields_populated(self):
        sampler = ResourceSampler(registry=MetricsRegistry())
        sample = sampler.sample_once()
        assert sample.rss_kib > 0
        assert sample.cpu_s > 0
        assert sample.open_fds > 0
        assert sample.gc_gen0 >= 0
        assert sample.stage == ""  # no span active
        assert sample.to_dict()["rss_kib"] == sample.rss_kib

    def test_stage_attribution_follows_spans(self):
        obs.enable()
        sampler = ResourceSampler(registry=MetricsRegistry())
        with obs.span("outer"):
            assert sampler.sample_once().stage == "outer"
            with obs.span("inner"):
                assert sampler.sample_once().stage == "inner"
            assert sampler.sample_once().stage == "outer"
        assert sampler.sample_once().stage == ""

    def test_occupancy_gauges_folded_in(self):
        registry = MetricsRegistry()
        registry.gauge("stream.live_windows").set(7)
        registry.gauge("stream.evalcache_entries").set(42)
        sample = ResourceSampler(registry=registry).sample_once()
        assert sample.live_windows == 7
        assert sample.evalcache_entries == 42

    def test_publishes_runtime_gauges(self):
        registry = MetricsRegistry()
        ResourceSampler(registry=registry).sample_once()
        snap = registry.snapshot()
        names = {entry["name"] for entry in snap["gauges"]}
        assert "runtime.rss_kib" in names
        assert "runtime.cpu_seconds_total" in names
        assert "runtime.sample_count" in names


class TestLifecycle:
    def test_thread_collects_samples(self):
        sampler = ResourceSampler(0.005, registry=MetricsRegistry())
        with sampler:
            time.sleep(0.05)
        assert not sampler.running
        assert len(sampler.snapshot_samples()) >= 2

    def test_stop_takes_final_sample(self):
        sampler = ResourceSampler(60.0, registry=MetricsRegistry())
        sampler.start()
        sampler.stop()
        # The period never elapsed, but start() samples immediately and
        # stop() snapshots the tail — never an empty buffer.
        assert len(sampler.snapshot_samples()) == 2

    def test_start_samples_immediately(self):
        registry = MetricsRegistry()
        sampler = ResourceSampler(60.0, registry=registry)
        sampler.start()
        try:
            deadline = time.monotonic() + 2.0
            while not sampler.snapshot_samples():
                assert time.monotonic() < deadline, "no immediate sample"
                time.sleep(0.001)
            # A scraper attaching right after start sees runtime gauges.
            names = {entry["name"] for entry in registry.snapshot()["gauges"]}
            assert "runtime.rss_kib" in names
        finally:
            sampler.stop()

    def test_start_idempotent(self):
        sampler = ResourceSampler(60.0, registry=MetricsRegistry())
        try:
            assert sampler.start() is sampler.start()
        finally:
            sampler.stop()

    def test_bounded_buffer_drops_oldest(self):
        sampler = ResourceSampler(registry=MetricsRegistry(), max_samples=3)
        for _ in range(5):
            sampler.sample_once()
        assert len(sampler.snapshot_samples()) == 3
        assert sampler.dropped == 2
        assert sampler.summary()["n_samples"] == 5

    def test_rejects_nonpositive_period(self):
        with pytest.raises(ValueError):
            ResourceSampler(0)


class TestSummaries:
    def test_stage_summary_envelopes(self):
        obs.enable()
        sampler = ResourceSampler(registry=MetricsRegistry())
        sampler.sample_once()  # idle
        with obs.span("hot"):
            sampler.sample_once()
            sampler.sample_once()
        stages = sampler.stage_summary()
        assert stages["(idle)"]["n_samples"] == 1
        assert stages["hot"]["n_samples"] == 2
        assert stages["hot"]["rss_max_kib"] >= stages["hot"]["rss_min_kib"]
        assert stages["hot"]["cpu_s"] >= 0

    def test_summary_totals(self):
        sampler = ResourceSampler(registry=MetricsRegistry())
        sampler.sample_once()
        sampler.sample_once()
        summary = sampler.summary()
        assert summary["period_s"] == sampler.period
        assert summary["n_samples"] == 2
        assert summary["rss_max_kib"] > 0
        assert summary["cpu_s"] >= 0
        assert "(idle)" in summary["stages"]

    def test_empty_summary(self):
        summary = ResourceSampler(registry=MetricsRegistry()).summary()
        assert summary["n_samples"] == 0
        assert "rss_max_kib" not in summary


class TestResolveSampler:
    def test_disabled_without_env(self):
        assert resolve_sampler() is None

    def test_truthy_env_uses_default_period(self, monkeypatch):
        monkeypatch.setenv(SAMPLE_ENV, "1")
        sampler = resolve_sampler()
        assert sampler is not None
        assert sampler.period == pytest.approx(0.05)

    def test_float_env_sets_period(self, monkeypatch):
        monkeypatch.setenv(SAMPLE_ENV, "0.25")
        assert resolve_sampler().period == pytest.approx(0.25)

    def test_malformed_env_disables(self, monkeypatch):
        monkeypatch.setenv(SAMPLE_ENV, "often")
        assert resolve_sampler() is None
        monkeypatch.setenv(SAMPLE_ENV, "-1")
        assert resolve_sampler() is None

    def test_explicit_period_wins(self, monkeypatch):
        monkeypatch.setenv(SAMPLE_ENV, "0.25")
        assert resolve_sampler(period=0.01).period == pytest.approx(0.01)

    def test_active_sampler_handle(self):
        sampler = ResourceSampler(registry=MetricsRegistry())
        set_active_sampler(sampler)
        assert active_sampler() is sampler
        set_active_sampler(None)
        assert active_sampler() is None


class TestPureObserver:
    def test_sampler_on_off_bit_identical(self):
        """Tracking output is byte-identical with the sampler hammering."""
        from repro.apps import wrf
        from repro.clustering.frames import FrameSettings
        from repro.stream import track_windows

        def run():
            trace = wrf.build(ranks=16, iterations=6).run(seed=3)
            return track_windows(
                trace, n_windows=4, settings=FrameSettings(relevance=0.995)
            )

        baseline = run()
        obs.enable()
        sampler = ResourceSampler(0.001)
        with sampler:
            sampled = run()
        assert len(sampler.snapshot_samples()) >= 1
        assert sampled.coverage == baseline.coverage
        assert len(sampled.regions) == len(baseline.regions)
        assert [
            sorted(map(tuple, region.members)) for region in sampled.regions
        ] == [
            sorted(map(tuple, region.members)) for region in baseline.regions
        ]
        assert [
            [repr(rel) for rel in pair.relations]
            for pair in sampled.pair_relations
        ] == [
            [repr(rel) for rel in pair.relations]
            for pair in baseline.pair_relations
        ]
