"""Unit tests for the Trace container and TraceBuilder."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import TraceError
from repro.trace.burst import CPUBurst
from repro.trace.callstack import CallPath, CallstackTable
from repro.trace.counters import INSTRUCTIONS, STANDARD_COUNTERS
from repro.trace.trace import Trace, TraceBuilder
from tests.conftest import build_two_region_trace


class TestTraceBasics:
    def test_n_bursts(self, toy_trace):
        assert toy_trace.n_bursts == 4 * 5 * 2
        assert len(toy_trace) == toy_trace.n_bursts

    def test_columns_read_only(self, toy_trace):
        with pytest.raises(ValueError):
            toy_trace.rank[0] = 3
        with pytest.raises(ValueError):
            toy_trace.duration[0] = 0.0

    def test_total_time_positive(self, toy_trace):
        assert toy_trace.total_time > 0
        assert toy_trace.makespan > 0

    def test_makespan_at_most_total(self, toy_trace):
        # With 4 ranks running concurrently, CPU time exceeds makespan.
        assert toy_trace.makespan < toy_trace.total_time

    def test_counter_unknown_raises(self, toy_trace):
        with pytest.raises(KeyError):
            toy_trace.counter("NOPE")

    def test_metric_delegates(self, toy_trace):
        np.testing.assert_allclose(
            toy_trace.metric("instructions"), toy_trace.counter(INSTRUCTIONS)
        )

    def test_label_includes_scenario(self):
        trace = build_two_region_trace(scenario={"tasks": 4}, app="X")
        assert trace.label() == "X(tasks=4)"

    def test_label_no_scenario(self, toy_trace):
        assert toy_trace.label() == "toy"

    def test_repr(self, toy_trace):
        assert "n_bursts=40" in repr(toy_trace)

    def test_empty_trace_allowed(self):
        trace = TraceBuilder(nranks=1).build()
        assert trace.n_bursts == 0
        assert trace.makespan == 0.0


class TestTraceValidation:
    def test_mismatched_columns(self):
        table = CallstackTable([CallPath.single("f", "a.c", 1)])
        with pytest.raises(TraceError, match="column"):
            Trace(
                rank=np.zeros(3, dtype=np.int32),
                begin=np.zeros(2),
                duration=np.zeros(3),
                callpath_id=np.zeros(3, dtype=np.int32),
                counters=np.zeros((3, 5)),
                callstacks=table,
                nranks=1,
            )

    def test_bad_counter_shape(self):
        table = CallstackTable([CallPath.single("f", "a.c", 1)])
        with pytest.raises(TraceError, match="counters"):
            Trace(
                rank=np.zeros(3, dtype=np.int32),
                begin=np.zeros(3),
                duration=np.zeros(3),
                callpath_id=np.zeros(3, dtype=np.int32),
                counters=np.zeros((3, 2)),
                callstacks=table,
                nranks=1,
            )

    def test_rank_out_of_range(self):
        table = CallstackTable([CallPath.single("f", "a.c", 1)])
        with pytest.raises(TraceError, match="ranks"):
            Trace(
                rank=np.asarray([0, 5], dtype=np.int32),
                begin=np.zeros(2),
                duration=np.zeros(2),
                callpath_id=np.zeros(2, dtype=np.int32),
                counters=np.zeros((2, 5)),
                callstacks=table,
                nranks=2,
            )

    def test_bad_callpath_id(self):
        table = CallstackTable([CallPath.single("f", "a.c", 1)])
        with pytest.raises(TraceError, match="callpath"):
            Trace(
                rank=np.zeros(1, dtype=np.int32),
                begin=np.zeros(1),
                duration=np.zeros(1),
                callpath_id=np.asarray([7], dtype=np.int32),
                counters=np.zeros((1, 5)),
                callstacks=table,
                nranks=1,
            )

    def test_nonpositive_nranks(self):
        with pytest.raises(TraceError):
            TraceBuilder(nranks=0)

    def test_negative_duration(self):
        table = CallstackTable([CallPath.single("f", "a.c", 1)])
        with pytest.raises(TraceError, match="durations"):
            Trace(
                rank=np.zeros(1, dtype=np.int32),
                begin=np.zeros(1),
                duration=np.asarray([-1.0]),
                callpath_id=np.zeros(1, dtype=np.int32),
                counters=np.zeros((1, 5)),
                callstacks=table,
                nranks=1,
            )


class TestSelection:
    def test_select_mask(self, toy_trace):
        sub = toy_trace.select(toy_trace.rank == 0)
        assert sub.n_bursts == 10
        assert (sub.rank == 0).all()
        assert sub.nranks == toy_trace.nranks

    def test_select_preserves_metadata(self, toy_trace):
        sub = toy_trace.select(toy_trace.duration > 0)
        assert sub.app == toy_trace.app
        assert sub.counter_names == toy_trace.counter_names

    def test_select_wrong_mask_shape(self, toy_trace):
        with pytest.raises(TraceError):
            toy_trace.select(np.ones(3, dtype=bool))

    def test_select_indices_in_their_order(self, toy_trace):
        indices = np.asarray([7, 2, 5])
        sub = toy_trace.select(indices)
        for name in ("rank", "begin", "duration", "callpath_id", "counters_matrix"):
            np.testing.assert_array_equal(
                getattr(sub, name), getattr(toy_trace, name)[indices]
            )
            assert not getattr(sub, name).flags.writeable
        assert sub.scenario == toy_trace.scenario
        assert sub.scenario is not toy_trace.scenario
        with pytest.raises(TraceError):
            toy_trace.select(np.zeros((2, 2), dtype=int))

    def test_bursts_of_rank_ordered(self, toy_trace):
        sub = toy_trace.bursts_of_rank(2)
        assert (np.diff(sub.begin) >= 0).all()

    def test_sorted_by_time(self, toy_trace):
        ordered = toy_trace.sorted_by_time()
        assert (np.diff(ordered.begin) >= 0).all()
        assert ordered.n_bursts == toy_trace.n_bursts

    def test_ranks_present(self, toy_trace):
        np.testing.assert_array_equal(toy_trace.ranks_present(), [0, 1, 2, 3])


class TestBurstMaterialisation:
    def test_burst_roundtrip(self, toy_trace):
        burst = toy_trace.burst(0)
        assert isinstance(burst, CPUBurst)
        assert burst.rank == toy_trace.rank[0]
        assert burst.counters[INSTRUCTIONS] == toy_trace.counter(INSTRUCTIONS)[0]

    def test_burst_out_of_range(self, toy_trace):
        with pytest.raises(IndexError):
            toy_trace.burst(10**6)

    def test_bursts_iterator_length(self, toy_trace):
        assert sum(1 for _ in toy_trace.bursts()) == toy_trace.n_bursts

    def test_from_bursts_roundtrip(self, toy_trace):
        rebuilt = Trace.from_bursts(
            toy_trace.bursts(),
            nranks=toy_trace.nranks,
            app=toy_trace.app,
            scenario=toy_trace.scenario,
        )
        assert rebuilt == toy_trace


class TestTraceBuilder:
    def test_add_wrong_counter_count(self):
        builder = TraceBuilder(nranks=1)
        with pytest.raises(TraceError):
            builder.add(
                rank=0, begin=0, duration=0,
                callpath=CallPath.single("f", "a.c", 1), counters=[1.0],
            )

    def test_len_tracks_appends(self):
        builder = TraceBuilder(nranks=1)
        assert len(builder) == 0
        builder.add(rank=0, begin=0, duration=0,
                    callpath=CallPath.single("f", "a.c", 1),
                    counters=[0.0] * len(STANDARD_COUNTERS))
        assert len(builder) == 1

    def test_equality_detects_differences(self, toy_trace):
        other = build_two_region_trace(seed=99)
        assert toy_trace != other
        assert toy_trace == build_two_region_trace()
