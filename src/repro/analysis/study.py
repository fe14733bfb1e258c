"""Parametric study driver: a scenario sweep through the full pipeline.

A :class:`ParametricStudy` names an application and lists the scenario
keyword-argument dictionaries of its experiments; :meth:`run` produces
a :class:`StudyResult` bundling the traces, frames, tracking result and
a trend cache — everything the benches and examples consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Mapping

from repro import obs
from repro.apps.base import AppModel
from repro.apps.registry import build_app
from repro.clustering.frames import FrameSettings, make_frames, make_frames_partial
from repro.errors import ReproError, StudyError
from repro.obs.log import get_logger
from repro.parallel.executor import pmap
from repro.robust.partial import ItemFailure, PartialResult
from repro.tracking.tracker import Tracker, TrackerConfig, TrackingResult
from repro.tracking.trends import TrendSeries, compute_trends
from repro.trace.trace import Trace

if TYPE_CHECKING:
    from repro.parallel.cache import PipelineCache

__all__ = ["ParametricStudy", "StudyResult"]

log = get_logger(__name__)


def _simulate_task(task: tuple[str, dict[str, Any], int]) -> Trace:
    """Worker-side task: simulate one scenario (module-level for pickling)."""
    app, scenario, seed = task
    return build_app(app, **scenario).run(seed=seed)


def _simulate_task_quarantine(
    task: tuple[str, dict[str, Any], int]
) -> Trace | ItemFailure:
    """Non-strict variant: pipeline errors become quarantine records."""
    app, scenario, seed = task
    try:
        return _simulate_task(task)
    except ReproError as exc:
        return ItemFailure.from_exception(f"{app} {scenario!r}", "simulate", exc)


@dataclass(frozen=True)
class StudyResult:
    """Everything a finished study produced.

    Attributes
    ----------
    study:
        The study definition.
    traces:
        One trace per scenario, in order.
    result:
        The tracking result over the scenario frames.
    """

    study: "ParametricStudy"
    traces: tuple[Trace, ...]
    result: TrackingResult

    def trends(self, metric: str, *, aggregate: str = "mean") -> list[TrendSeries]:
        """Per-region trend series for *metric* (spanning regions only)."""
        return compute_trends(self.result, metric, aggregate=aggregate)

    @property
    def coverage(self) -> int:
        """Coverage percentage of the tracking."""
        return self.result.coverage

    @property
    def n_tracked(self) -> int:
        """Number of regions tracked across the whole sequence."""
        return len(self.result.tracked_regions)


@dataclass(frozen=True)
class ParametricStudy:
    """A named scenario sweep of one application.

    Attributes
    ----------
    app:
        Registered application name (see :mod:`repro.apps.registry`).
    scenarios:
        One keyword-argument mapping per experiment, in sequence order.
    settings:
        Frame-construction settings shared by all scenarios.
    config:
        Tracker configuration.
    trace_hook:
        Optional post-processing turning the generated traces into the
        final trace list (e.g. slicing one long run into time windows).
    """

    app: str
    scenarios: tuple[Mapping[str, Any], ...]
    settings: FrameSettings = field(default_factory=FrameSettings)
    config: TrackerConfig = field(default_factory=TrackerConfig)
    trace_hook: Callable[[list[Trace]], list[Trace]] | None = None

    def __post_init__(self) -> None:
        if not self.scenarios:
            raise StudyError("a study needs at least one scenario")

    def build_models(self) -> list[AppModel]:
        """Instantiate the application model of every scenario."""
        return [build_app(self.app, **dict(scenario)) for scenario in self.scenarios]

    def _simulate(
        self,
        *,
        seed: int,
        jobs: int | None,
        cache: "PipelineCache | None",
        strict: bool = True,
    ) -> tuple[list[Trace | None], list[ItemFailure]]:
        """Simulate every scenario, using the trace cache when given.

        Cache hits are resolved up front; only the misses are fanned
        out through :func:`repro.parallel.executor.pmap`, then stored.
        Output order always matches the scenario order.  Under
        ``strict=False`` a scenario whose simulation raises a
        :class:`~repro.errors.ReproError` is quarantined: its slot in
        the trace list is ``None`` and an :class:`ItemFailure` records
        what happened.
        """
        from repro.parallel.cache import trace_key

        tasks = [
            (self.app, dict(scenario), seed + index)
            for index, scenario in enumerate(self.scenarios)
        ]
        traces: list[Trace | None] = [None] * len(tasks)
        keys: list[dict | None] = [None] * len(tasks)
        failures: list[ItemFailure] = []
        pending: list[int] = []
        for index, task in enumerate(tasks):
            if cache is not None:
                keys[index] = trace_key(*task)
                cached = cache.get_trace(keys[index])
                if cached is not None:
                    traces[index] = cached
                    continue
            pending.append(index)
        if pending:
            simulated = pmap(
                _simulate_task if strict else _simulate_task_quarantine,
                [tasks[index] for index in pending],
                jobs=jobs,
                label="study.simulate.pmap",
            )
            for index, trace in zip(pending, simulated):
                if isinstance(trace, ItemFailure):
                    failures.append(trace)
                    obs.count("robust.quarantined_total", stage="simulate")
                    log.warning("quarantined scenario: %s", trace)
                    continue
                traces[index] = trace
                if cache is not None:
                    cache.put_trace(keys[index], trace)
        return traces, failures

    def run(
        self,
        *,
        seed: int = 0,
        jobs: int | None = None,
        cache: "PipelineCache | None" = None,
        strict: bool = True,
    ) -> StudyResult | PartialResult[StudyResult]:
        """Execute the sweep: simulate, cluster, track.

        Each scenario gets a derived seed so experiments are independent
        but the whole study is reproducible from one integer.

        Parameters
        ----------
        seed:
            Base seed; scenario *i* runs with ``seed + i``.
        jobs:
            Worker count for the parallel stages (scenario simulation
            and per-trace frame construction); pairs are tracked
            in-process.  ``None`` defers to ``REPRO_JOBS``; results are
            bit-identical to a serial run.
        cache:
            Optional :class:`repro.parallel.cache.PipelineCache` making
            the simulate and cluster stages incremental across runs.
        strict:
            When true (the default), the first pipeline error aborts the
            whole sweep.  When false, failing scenarios / frames / pairs
            are quarantined and the run continues with the survivors;
            the return value is a :class:`PartialResult` listing every
            quarantined item (possibly none).  A study where fewer than
            two frames survive still raises :class:`StudyError`.
        """
        from repro.obs import ledger as obsledger
        from repro.robust.validate import validate_study, validate_trace

        validate_study(self)
        with obsledger.run_record(
            "study.run",
            app=self.app,
            n_scenarios=len(self.scenarios),
            config_digest=obsledger.config_digest(self.settings, self.config),
            strict=strict,
        ) as ledger_rec, obs.span(
            "study.run", app=self.app, n_scenarios=len(self.scenarios)
        ):
            failures: list[ItemFailure] = []
            with obs.span("study.simulate"):
                slots, sim_failures = self._simulate(
                    seed=seed, jobs=jobs, cache=cache, strict=strict
                )
                failures.extend(sim_failures)
                traces = [trace for trace in slots if trace is not None]
                if self.trace_hook is not None:
                    traces = self.trace_hook(traces)
            checked: list[Trace] = []
            for trace in traces:
                if strict:
                    checked.append(validate_trace(trace, strict=True))
                    continue
                try:
                    checked.append(validate_trace(trace, strict=False))
                except ReproError as exc:
                    failure = ItemFailure.from_exception(
                        trace.label(), "validate", exc
                    )
                    failures.append(failure)
                    obs.count("robust.quarantined_total", stage="validate")
                    log.warning("quarantined trace: %s", failure)
            traces = checked
            self._require_two(len(traces), failures)
            from dataclasses import replace

            config = self.config
            if self.settings.log_y and not config.log_extensive:
                log.info(
                    "settings.log_y=True overrides config.log_extensive=False "
                    "for study %r: tracking will normalise extensive axes in "
                    "log space", self.app,
                )
                config = replace(config, log_extensive=True)
            if strict:
                frames = make_frames(
                    traces, self.settings, jobs=jobs, cache=cache
                )
                result = Tracker(frames, config).run()
                if ledger_rec is not None:
                    ledger_rec.annotate(
                        coverage=round(result.coverage, 4),
                        n_regions=len(result.regions),
                    )
                return StudyResult(
                    study=self, traces=tuple(traces), result=result
                )
            frame_slots, frame_failures = make_frames_partial(
                traces, self.settings, jobs=jobs, cache=cache
            )
            failures.extend(frame_failures)
            survivors = [
                (trace, frame)
                for trace, frame in zip(traces, frame_slots)
                if frame is not None
            ]
            self._require_two(len(survivors), failures)
            traces = [trace for trace, _ in survivors]
            frames = [frame for _, frame in survivors]
            tracked = Tracker(frames, config).run(strict=False)
            failures.extend(tracked.failures)
            result = StudyResult(
                study=self, traces=tuple(traces), result=tracked.value
            )
            if ledger_rec is not None:
                ledger_rec.annotate(
                    coverage=round(tracked.value.coverage, 4),
                    n_regions=len(tracked.value.regions),
                    quarantined={"items": len(failures)},
                )
            return PartialResult(value=result, failures=tuple(failures))

    @staticmethod
    def _require_two(n_alive: int, failures: list[ItemFailure]) -> None:
        """Tracking needs two frames; fewer is a total failure even non-strict."""
        if n_alive >= 2:
            return
        detail = (
            f" ({len(failures)} item(s) quarantined: "
            + "; ".join(str(f) for f in failures)
            + ")"
            if failures
            else ""
        )
        raise StudyError(
            "tracking needs at least two frames; add scenarios or a "
            f"trace hook producing several time windows{detail}"
        )
