"""Live-watch alerting: divergence onset, purity, determinism, serde.

The acceptance scenarios of the alerting PR: an injected linear IPC
drift raises a divergence alert within two windows of onset, a steady
run raises none, alert emission never perturbs the tracking result,
and a checkpointed resume re-emits identical alerts.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.obs.alerts import (
    ALERT_KINDS,
    AlertConfig,
    AlertRecord,
    format_alert,
    summarize_alerts,
)
from repro.parallel.cache import PipelineCache
from repro.stream import WatchTelemetry, track_windows
from repro.stream.forecast import StreamMonitor
from repro.trace.callstack import CallPath
from repro.trace.counters import CYCLES, INSTRUCTIONS
from repro.trace.trace import TraceBuilder

#: Window width matching one iteration slot of :func:`build_drift_trace`.
DRIFT_WINDOW_NS = 0.02 * 1e9

#: First iteration of the injected drift.
DRIFT_ONSET = 6


def build_drift_trace(*, drift: bool, nranks: int = 6, iterations: int = 10):
    """Two-region trace; region_a's IPC decays geometrically from
    iteration :data:`DRIFT_ONSET` when *drift* is set.

    Each iteration occupies one fixed 0.02 s slot, so slicing with
    ``window_ns=DRIFT_WINDOW_NS`` yields exactly one window per
    iteration (also used by the CI watch-with-alerts smoke job).
    """
    builder = TraceBuilder(
        nranks=nranks, app="driftcase", scenario={"ranks": nranks}
    )
    path_a = CallPath.single("region_a", "main.c", 10)
    path_b = CallPath.single("region_b", "main.c", 20)
    slot = 0.02
    for k in range(iterations):
        ipc_a = 1.0
        if drift and k >= DRIFT_ONSET:
            ipc_a = 0.75 ** (k - DRIFT_ONSET + 1)
        for rank in range(nranks):
            t = k * slot
            for path, ipc, instr in (
                (path_a, ipc_a, 8e6), (path_b, 0.5, 4e6),
            ):
                instructions = instr * (1 + 0.001 * rank)
                cycles = instructions / ipc
                builder.add(
                    rank=rank, begin=t, duration=0.004, callpath=path,
                    counters=[instructions, cycles, instructions * 0.01,
                              instructions * 0.001, instructions * 0.0001],
                )
                t += 0.004
    return builder.build()


def _watch(trace, **telemetry_kwargs):
    telemetry = WatchTelemetry(**telemetry_kwargs)
    result = track_windows(
        trace, window_ns=DRIFT_WINDOW_NS, telemetry=telemetry
    )
    return result, telemetry


class TestDriftScenario:
    def test_divergence_within_two_windows_of_onset(self):
        _, telemetry = _watch(
            build_drift_trace(drift=True), alerts=AlertConfig()
        )
        divergences = [
            a for a in telemetry.alerts if a.kind == "divergence"
        ]
        assert divergences, "drift raised no divergence alert"
        first = min(a.window for a in divergences)
        assert DRIFT_ONSET <= first <= DRIFT_ONSET + 1
        assert divergences[0].metric == "ipc"
        assert divergences[0].observed < divergences[0].forecast

    def test_drift_also_flags_ipc_regression(self):
        _, telemetry = _watch(
            build_drift_trace(drift=True), alerts=AlertConfig()
        )
        kinds = {a.kind for a in telemetry.alerts}
        assert "regression" in kinds

    def test_steady_run_raises_no_alerts(self):
        _, telemetry = _watch(
            build_drift_trace(drift=False), alerts=AlertConfig()
        )
        assert telemetry.alerts == []
        assert "alerts: none" in telemetry.summary_line()

    def test_alerts_deterministic_across_worker_counts(self, monkeypatch):
        trace = build_drift_trace(drift=True)
        _, serial = _watch(trace, alerts=AlertConfig())
        monkeypatch.setenv("REPRO_JOBS", "2")
        _, parallel = _watch(trace, alerts=AlertConfig())
        assert serial.alerts == parallel.alerts


class TestPurity:
    def test_monitoring_never_perturbs_tracking(self):
        trace = build_drift_trace(drift=True)
        plain = track_windows(trace, window_ns=DRIFT_WINDOW_NS)
        monitored, telemetry = _watch(trace, alerts=AlertConfig())
        assert telemetry.alerts  # the monitor did real work
        assert plain.regions == monitored.regions
        assert plain.coverage == monitored.coverage
        for left, right in zip(
            plain.pair_relations, monitored.pair_relations
        ):
            assert left.relations == right.relations

    def test_health_surface_without_alerts_is_pure_too(self):
        trace = build_drift_trace(drift=False)
        plain = track_windows(trace, window_ns=DRIFT_WINDOW_NS)
        watched, telemetry = _watch(trace)
        assert not telemetry.alerts_enabled
        assert "alerts: disabled" in telemetry.summary_line()
        assert plain.regions == watched.regions


class TestResume:
    def test_replay_reemits_identical_alerts(self, tmp_path):
        trace = build_drift_trace(drift=True)
        cache = PipelineCache(tmp_path / "cache")
        telemetry_cold = WatchTelemetry(alerts=AlertConfig())
        track_windows(
            trace, window_ns=DRIFT_WINDOW_NS, cache=cache,
            telemetry=telemetry_cold,
        )
        assert telemetry_cold.n_resumed == 0
        telemetry_warm = WatchTelemetry(alerts=AlertConfig())
        track_windows(
            trace, window_ns=DRIFT_WINDOW_NS, cache=cache,
            telemetry=telemetry_warm,
        )
        assert telemetry_warm.n_resumed > 0
        assert telemetry_warm.alerts == telemetry_cold.alerts

    def test_alerts_off_checkpoint_resumes_into_alerting_run(self, tmp_path):
        trace = build_drift_trace(drift=True)
        cache = PipelineCache(tmp_path / "cache")
        # First run never forecast anything...
        track_windows(
            trace, window_ns=DRIFT_WINDOW_NS, cache=cache,
            telemetry=WatchTelemetry(),
        )
        # ...yet the resumed alerting run recomputes the full alert set.
        _, reference = _watch(build_drift_trace(drift=True),
                              alerts=AlertConfig())
        telemetry = WatchTelemetry(alerts=AlertConfig())
        track_windows(
            trace, window_ns=DRIFT_WINDOW_NS, cache=cache,
            telemetry=telemetry,
        )
        assert telemetry.n_resumed > 0
        assert telemetry.alerts == reference.alerts


# ----------------------------------------------------------------------
# Structural alerts, exercised through duck-typed updates: the monitor
# only reads frame/step/regions, so tiny fakes drive the exact presence
# histories that are awkward to provoke through DBSCAN.
# ----------------------------------------------------------------------
class _FakeCluster:
    def __init__(self, indices):
        self.indices = np.asarray(indices, dtype=int)


class _FakeTrace:
    def __init__(self, counters, scenario):
        self._counters = counters
        self.scenario = scenario

    def counter(self, name):
        return self._counters[name]


class _FakeFrame:
    def __init__(self, trace, clusters):
        self.trace = trace
        self._clusters = clusters

    def cluster(self, cid):
        return self._clusters[cid]


class _FakeRegion:
    def __init__(self, region_id, members):
        self.region_id = region_id
        self.members = members


class _FakeUpdate:
    def __init__(self, frame, step, regions):
        self.frame = frame
        self.step = step
        self.regions = regions


def _fake_update(step: int, ipc_by_cluster: dict[int, float]):
    """One update whose region holds the given clusters at *step*."""
    cids = sorted(ipc_by_cluster)
    instructions = np.full(len(cids), 1e6)
    cycles = np.asarray(
        [1e6 / ipc_by_cluster[cid] for cid in cids], dtype=float
    )
    frame = _FakeFrame(
        _FakeTrace(
            {INSTRUCTIONS: instructions, CYCLES: cycles},
            scenario={"window": step},
        ),
        {cid: _FakeCluster([index]) for index, cid in enumerate(cids)},
    )
    if step == 0:
        members = [frozenset(cids)]
    else:
        # The eldest node (f0:c1) anchors the stable track key.
        members = (
            [frozenset({1})]
            + [frozenset()] * (step - 1)
            + [frozenset(cids)]
        )
    region = _FakeRegion(1, members)
    return _FakeUpdate(frame, step, [region])


#: Thresholds that silence divergence/regression, isolating the
#: structural kinds.
_QUIET = AlertConfig(
    metrics=("ipc",), threshold=1e9, sigma=1e9, regression_threshold=1e9
)


class TestStructuralAlerts:
    def test_death_fires_once_after_min_history(self):
        monitor = StreamMonitor(_QUIET)
        for step in range(4):
            assert monitor.observe(_fake_update(step, {1: 1.0})) == ()
        dead = monitor.observe(_fake_update(4, {}))
        assert [a.kind for a in dead] == ["death"]
        assert dead[0].track == "f0:c1"
        # Still absent next step: no repeat.
        assert monitor.observe(_fake_update(5, {})) == ()

    def test_young_track_death_is_silent(self):
        monitor = StreamMonitor(_QUIET)
        monitor.observe(_fake_update(0, {1: 1.0}))
        assert monitor.observe(_fake_update(1, {})) == ()

    def test_split_fires_when_single_cluster_multiplies(self):
        monitor = StreamMonitor(_QUIET)
        for step in range(4):
            monitor.observe(_fake_update(step, {1: 1.0}))
        split = monitor.observe(_fake_update(4, {1: 1.2, 2: 0.8}))
        assert [a.kind for a in split] == ["split"]
        # Splitting again stays silent (flagged once per track).
        assert monitor.observe(_fake_update(5, {1: 1.2, 2: 0.8})) == ()

    def test_plateau_fires_when_growth_stalls(self):
        monitor = StreamMonitor(_QUIET)
        series = [1.0, 2.0, 3.0, 4.0, 5.0, 5.05, 5.1, 5.1, 5.1, 5.1, 5.1]
        alerts = []
        for step, ipc in enumerate(series):
            alerts.extend(monitor.observe(_fake_update(step, {1: ipc})))
        assert "plateau" in {a.kind for a in alerts}


class TestAlertSerde:
    def test_round_trip(self):
        record = AlertRecord(
            window=6, step=6, region_id=1, track="f0:c1",
            kind="divergence", metric="ipc", observed=0.75, forecast=1.0,
            threshold=0.15, deviation=0.25, model="ConstantModel",
            message="observed 0.75, forecast 1",
        )
        assert AlertRecord.from_dict(record.to_dict()) == record

    def test_structural_record_round_trips_nones(self):
        record = AlertRecord(
            window=3, step=3, region_id=2, track="f0:c2", kind="death",
        )
        rebuilt = AlertRecord.from_dict(record.to_dict())
        assert rebuilt == record
        assert rebuilt.metric is None and rebuilt.observed is None

    def test_unknown_kind_rejected(self):
        payload = AlertRecord(
            window=0, step=0, region_id=1, track="f0:c1", kind="death",
        ).to_dict()
        payload["kind"] = "meltdown"
        with pytest.raises(ValueError):
            AlertRecord.from_dict(payload)

    def test_every_kind_is_serialisable(self):
        for kind in ALERT_KINDS:
            record = AlertRecord(
                window=1, step=1, region_id=1, track="f0:c1", kind=kind,
            )
            assert AlertRecord.from_dict(record.to_dict()).kind == kind


class TestSummaries:
    def test_totals_by_kind_and_region(self):
        alerts = [
            AlertRecord(window=1, step=1, region_id=1, track="f0:c1",
                        kind="divergence", metric="ipc"),
            AlertRecord(window=2, step=2, region_id=1, track="f0:c1",
                        kind="divergence", metric="ipc"),
            AlertRecord(window=2, step=2, region_id=2, track="f0:c2",
                        kind="death"),
        ]
        totals = summarize_alerts(alerts)
        assert totals.total == 3
        assert dict(totals.by_kind) == {"divergence": 2, "death": 1}
        assert dict(totals.by_region) == {"1": 2, "2": 1}
        payload = totals.to_dict()
        assert payload["by_kind"]["divergence"] == 2

    def test_format_alert_carries_kind_window_metric(self):
        line = format_alert(AlertRecord(
            window=6, step=6, region_id=1, track="f0:c1",
            kind="divergence", metric="ipc", message="deviated",
        ))
        assert line == "ALERT [divergence] window 6 region 1 ipc: deviated"
