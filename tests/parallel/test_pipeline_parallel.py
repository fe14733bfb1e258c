"""End-to-end guarantees: parallel and cached runs are bit-identical.

These are the acceptance tests of the parallel layer: `make_frames`,
`quick_track` and `ParametricStudy.run` must produce exactly the same
output with ``jobs=1`` and ``jobs=4``, and a warm-cache run must equal
a cold one.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.study import ParametricStudy
from repro.api import quick_track
from repro.apps import wrf
from repro.clustering.frames import FrameSettings, make_frames
from repro.parallel.cache import PipelineCache
from tests.parallel import assert_frames_equal

SETTINGS = FrameSettings(relevance=0.995)


@pytest.fixture(scope="module")
def traces():
    return [
        wrf.build(ranks=16, iterations=2, base_ranks=16).run(seed=seed)
        for seed in (1, 2, 3)
    ]


@pytest.fixture(scope="module")
def study():
    return ParametricStudy(
        app="wrf",
        scenarios=tuple(
            {"ranks": ranks, "iterations": 2, "base_ranks": 16}
            for ranks in (8, 16, 24, 32)
        ),
        settings=SETTINGS,
    )


def assert_results_identical(first, second):
    """Structural equality of two tracking results."""
    assert first.coverage == second.coverage
    assert first.regions == second.regions
    assert len(first.pair_relations) == len(second.pair_relations)
    for pair_a, pair_b in zip(first.pair_relations, second.pair_relations):
        assert pair_a.relations == pair_b.relations
    for frame_a, frame_b in zip(first.frames, second.frames):
        assert_frames_equal(frame_a, frame_b)


class TestBitIdenticalParallelism:
    def test_make_frames_jobs(self, traces):
        serial = make_frames(traces, SETTINGS, jobs=1)
        parallel = make_frames(traces, SETTINGS, jobs=4)
        for frame_s, frame_p in zip(serial, parallel):
            assert_frames_equal(frame_s, frame_p)

    def test_quick_track_jobs(self, traces):
        serial = quick_track(traces, settings=SETTINGS, jobs=1)
        parallel = quick_track(traces, settings=SETTINGS, jobs=4)
        assert_results_identical(serial, parallel)

    def test_study_run_jobs(self, study):
        serial = study.run(seed=0, jobs=1)
        parallel = study.run(seed=0, jobs=4)
        assert serial.traces == parallel.traces
        assert_results_identical(serial.result, parallel.result)


class TestWarmCacheEqualsCold:
    def test_study_cold_vs_warm(self, study, tmp_path):
        cache = PipelineCache(tmp_path / "cache")
        cold = study.run(seed=0, cache=cache)
        warm = study.run(seed=0, cache=cache)
        uncached = study.run(seed=0)
        assert cold.traces == warm.traces == uncached.traces
        assert_results_identical(cold.result, warm.result)
        assert_results_identical(cold.result, uncached.result)
        info = cache.info()
        assert info.by_kind == {"frame": 4, "trace": 4}

    def test_parallel_warm_cache(self, study, tmp_path):
        cache = PipelineCache(tmp_path / "cache")
        cold = study.run(seed=0, cache=cache, jobs=4)
        warm = study.run(seed=0, cache=cache, jobs=4)
        assert cold.traces == warm.traces
        assert_results_identical(cold.result, warm.result)

    def test_different_seed_misses(self, study, tmp_path):
        cache = PipelineCache(tmp_path / "cache")
        study.run(seed=0, cache=cache)
        study.run(seed=1, cache=cache)
        # Different seeds must not share trace entries.
        assert cache.info().by_kind["trace"] == 8
