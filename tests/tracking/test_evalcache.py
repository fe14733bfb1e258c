"""Unit tests for the per-run evaluator cache (EvalCache).

The load-bearing property is *transparency*: a cached combine_pair must
return bit-identical results to an uncached one, because every cache
entry is the value of the exact call the uncached path would make.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.alignment.spmd import consensus_sequence
from repro.clustering.frames import make_frame
from repro.tracking.combine import combine_pair
from repro.tracking.evalcache import EvalCache
from repro.tracking.tracker import Tracker
from repro.tracking.evaluators.simultaneity import (
    frame_alignment,
    simultaneity_for_frame,
)
from repro.tracking.scaling import normalize_frames
from tests.conftest import build_two_region_trace


@pytest.fixture
def frame_pair():
    a = make_frame(build_two_region_trace(seed=1, nranks=6, iterations=5))
    b = make_frame(
        build_two_region_trace(seed=2, nranks=6, iterations=5, ipc_a=1.05, ipc_b=0.45)
    )
    return a, b


def _assert_matrix_equal(left, right):
    if left is None or right is None:
        assert left is right
        return
    assert left.row_ids == right.row_ids
    assert left.col_ids == right.col_ids
    np.testing.assert_array_equal(left.values, right.values)


class TestEntries:
    def test_tree_identity_on_hit(self, frame_pair):
        a, _ = frame_pair
        space = normalize_frames(list(frame_pair))
        cache = EvalCache()
        first = cache.tree(a, space.points[0])
        second = cache.tree(a, space.points[0])
        assert second is first
        assert cache.hits == 1 and cache.misses == 1

    def test_simultaneity_matches_direct(self, frame_pair):
        a, _ = frame_pair
        cache = EvalCache()
        _assert_matrix_equal(
            cache.simultaneity(a, 64), simultaneity_for_frame(a, max_ranks=64)
        )

    def test_consensus_matches_direct(self, frame_pair):
        a, _ = frame_pair
        cache = EvalCache()
        direct = consensus_sequence(frame_alignment(a, max_ranks=64))
        np.testing.assert_array_equal(cache.consensus(a, 64), direct)

    def test_alignment_shared_between_derivations(self, frame_pair):
        a, _ = frame_pair
        cache = EvalCache()
        cache.simultaneity(a, 64)
        before = cache.misses
        cache.consensus(a, 64)  # reuses the cached frame_alignment
        alignment_misses = cache.misses - before
        assert alignment_misses == 1  # the consensus entry itself

    def test_retain_prunes_other_frames(self, frame_pair):
        a, b = frame_pair
        space = normalize_frames([a, b])
        cache = EvalCache()
        cache.tree(a, space.points[0])
        cache.tree(b, space.points[1])
        cache.simultaneity(a, 64)
        cache.simultaneity(b, 64)
        cache.retain([b])
        entries = cache.info()["entries"]
        cache.tree(b, space.points[1])
        cache.simultaneity(b, 64)
        assert cache.info()["entries"] == entries  # b's entries survived
        before = cache.misses
        cache.tree(a, space.points[0])  # a's were dropped
        assert cache.misses == before + 1


class TestTransparency:
    def test_combine_pair_cached_is_bit_identical(self, frame_pair):
        a, b = frame_pair
        space = normalize_frames([a, b])
        plain = combine_pair(a, b, space.points[0], space.points[1])
        cache = EvalCache()
        cached = combine_pair(
            a, b, space.points[0], space.points[1], cache=cache
        )
        # Warm cache: a second evaluation reuses every per-frame entry.
        warm = combine_pair(a, b, space.points[0], space.points[1], cache=cache)
        for other in (cached, warm):
            assert other.relations == plain.relations
            _assert_matrix_equal(other.displacement_ab, plain.displacement_ab)
            _assert_matrix_equal(other.displacement_ba, plain.displacement_ba)
            _assert_matrix_equal(other.callstack_ab, plain.callstack_ab)
            _assert_matrix_equal(other.simultaneity_a, plain.simultaneity_a)
            _assert_matrix_equal(other.simultaneity_b, plain.simultaneity_b)
            _assert_matrix_equal(other.sequence_ab, plain.sequence_ab)
        assert cache.hits > 0


class TestRunWideCache:
    """``Tracker.run`` shares one cache across every pair.

    Per-pair private caches would cost ``2 * n_pairs`` tree builds; the
    run-wide cache builds one tree per frame.
    """

    @staticmethod
    def _frames():
        return [
            make_frame(build_two_region_trace(seed=s, nranks=6, iterations=5))
            for s in (1, 2, 3, 4)
        ]

    @staticmethod
    def _run(frames):
        obs.enable()
        obs.reset()
        try:
            result = Tracker(frames).run()
            counters = {
                c["name"]: c["value"]
                for c in obs.metrics_snapshot()["counters"]
            }
            return result, counters.get("tracking.tree_builds_total", 0)
        finally:
            obs.reset()
            obs.disable()

    def test_one_tree_per_frame(self):
        frames = self._frames()
        n_pairs = len(frames) - 1
        result, tree_builds = self._run(frames)
        assert tree_builds == len(frames)
        assert tree_builds < 2 * n_pairs
        # And the sharing never changes the answer.
        points = result.space.points
        for index, pair in enumerate(result.pair_relations):
            uncached = combine_pair(
                frames[index], frames[index + 1], points[index], points[index + 1]
            )
            assert pair.relations == uncached.relations
