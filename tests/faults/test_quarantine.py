"""One quarantine path: strict and non-strict runs share every stage.

A non-strict run quarantines a failing item: it records an
``ItemFailure``, skips the item and carries on.  The stage tests drive
exactly one failing item through a non-strict run each and check that
the item is recorded, counted on ``robust.quarantined_total{stage}``
and logged once.  The equivalence tests check that on clean input a
non-strict run returns exactly the strict answer, with no failures.
"""

from __future__ import annotations

import json
import logging

import numpy as np
import pytest

from repro import obs
from repro.analysis.study import ParametricStudy
from repro.api import quick_track
from repro.cli import main
from repro.errors import TrackingError
from repro.robust.partial import EXIT_PARTIAL, PartialResult
from repro.stream import track_windows
from repro.stream.checkpoint import pair_relations_to_json
from repro.trace.callstack import CallPath
from repro.trace.io import save_trace
from repro.trace.trace import TraceBuilder
from tests.conftest import build_two_region_trace
from tests.faults.corrupters import rebuild_trace
from tests.stream.test_watch_cli import build_gappy_trace

GOOD = {"block_size": 64, "ranks": 8, "iterations": 3}
ALSO_GOOD = {"block_size": 128, "ranks": 8, "iterations": 3}
BAD = {"block_size": 0, "ranks": 8, "iterations": 3}  # ModelError at build


def good_traces(n: int = 2):
    return [
        build_two_region_trace(scenario={"run": run}, seed=run + 1)
        for run in range(n)
    ]


def lone_burst_trace():
    """A one-burst trace: it validates, but cannot be clustered."""
    builder = TraceBuilder(nranks=1, app="toy", scenario={"run": "lone"})
    builder.add(
        rank=0,
        begin=0.0,
        duration=1e-3,
        callpath=CallPath.single("region_a", "main.c", 10),
        counters=[1e6, 1e6, 1e4, 1e3, 1e2],
    )
    return builder.build()


def signature(result):
    """Regions, pair relations and coverage, comparable bit for bit."""
    regions = [
        (
            region.region_id,
            [sorted(members) for members in region.members],
            float(region.total_duration).hex(),
        )
        for region in result.regions
    ]
    pairs = [
        json.dumps(pair_relations_to_json(pair), sort_keys=True)
        for pair in result.pair_relations
    ]
    return regions, pairs, result.coverage


@pytest.fixture()
def quarantine_log(caplog):
    """Enabled, clean obs state; returns what the run quarantined.

    The helper returns ``(counts, warnings)``: the
    ``robust.quarantined_total`` count per stage, and the warning
    records the package logged.
    """
    obs.enable()
    obs.reset()

    def read():
        counts = {
            counter["labels"]["stage"]: counter["value"]
            for counter in obs.metrics_snapshot()["counters"]
            if counter["name"] == "robust.quarantined_total"
        }
        warnings = [
            record
            for record in caplog.records
            if record.levelno == logging.WARNING
            and record.name.startswith("repro.")
        ]
        return counts, warnings

    with caplog.at_level(logging.WARNING, logger="repro"):
        yield read
    obs.reset()
    obs.disable()


def assert_one(failures, stage, read):
    (failure,) = failures
    assert failure.stage == stage
    counts, warnings = read()
    assert counts == {stage: 1}
    (warning,) = warnings
    assert str(failure) in warning.getMessage()


class TestEachStageQuarantinesOnce:
    def test_validate(self, quarantine_log):
        first, second = good_traces()
        source = build_two_region_trace(scenario={"run": 9}, seed=9)
        no_metrics = rebuild_trace(
            source, counters=np.empty((source.n_bursts, 0)), counter_names=()
        )
        partial = quick_track([first, no_metrics, second], strict=False)
        assert_one(partial.failures, "validate", quarantine_log)

    def test_simulate(self, quarantine_log):
        study = ParametricStudy(app="hydroc", scenarios=(GOOD, BAD, ALSO_GOOD))
        partial = study.run(strict=False)
        assert_one(partial.failures, "simulate", quarantine_log)
        assert partial.failures[0].error == "ModelError"

    def test_frame(self, quarantine_log):
        first, second = good_traces()
        partial = quick_track([first, lone_burst_trace(), second], strict=False)
        assert_one(partial.failures, "frame", quarantine_log)

    def test_pair(self, quarantine_log, monkeypatch):
        import repro.tracking.tracker as tracker_mod

        def boom(*args, **kwargs):
            raise TrackingError("synthetic pair failure")

        monkeypatch.setattr(tracker_mod, "combine_pair", boom)
        partial = quick_track(good_traces(), strict=False)
        assert_one(partial.failures, "pair", quarantine_log)

    def test_window(self, quarantine_log):
        partial = track_windows(build_gappy_trace(), n_windows=4, strict=False)
        assert_one(partial.failures, "window", quarantine_log)

    def test_load(self, quarantine_log, tmp_path, capsys):
        paths = [
            str(save_trace(trace, tmp_path / f"good{index}.json"))
            for index, trace in enumerate(good_traces())
        ]
        corrupt = tmp_path / "corrupt.prv"
        corrupt.write_text("not a paraver trace\n1:2:3\n")
        code = main(["track", *paths, str(corrupt), "--no-strict"])
        assert code == EXIT_PARTIAL
        counts, warnings = quarantine_log()
        assert counts == {"load": 1}
        (warning,) = warnings
        assert f"[load] {corrupt}: " in warning.getMessage()


class TestCleanInputGivesTheStrictAnswer:
    def test_quick_track(self):
        traces = good_traces(3)
        strict = quick_track(traces)
        partial = quick_track(traces, strict=False)
        assert isinstance(partial, PartialResult)
        assert partial.failures == ()
        assert signature(partial.value) == signature(strict)

    def test_parametric_study(self):
        study = ParametricStudy(app="hydroc", scenarios=(GOOD, ALSO_GOOD))
        strict = study.run(seed=3)
        partial = study.run(seed=3, strict=False)
        assert partial.failures == ()
        assert partial.value.traces == strict.traces
        assert signature(partial.value.result) == signature(strict.result)

    def test_track_windows(self, toy_trace):
        strict = track_windows(toy_trace, n_windows=5)
        partial = track_windows(toy_trace, n_windows=5, strict=False)
        assert partial.failures == ()
        assert signature(partial.value) == signature(strict)

    def test_unclusterable_trace_leaves_the_strict_result_of_the_others(self):
        first, second = good_traces()
        partial = quick_track([first, lone_burst_trace(), second], strict=False)
        (failure,) = partial.failures
        assert failure.stage == "frame"
        assert failure.item == "toy(run=lone)"
        assert signature(partial.value) == signature(quick_track([first, second]))
