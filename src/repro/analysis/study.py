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
from repro.api import _track_traces
from repro.apps.base import AppModel
from repro.apps.registry import build_app
from repro.clustering.frames import FrameSettings
from repro.errors import ReproError, StudyError
from repro.robust.partial import ItemFailure, PartialResult, quarantine
from repro.tracking.tracker import TrackerConfig, TrackingResult, tracking_config
from repro.tracking.trends import TrendSeries, compute_trends
from repro.trace.trace import Trace

if TYPE_CHECKING:
    from repro.parallel.cache import PipelineCache

__all__ = ["ParametricStudy", "StudyResult"]


def _simulate_task(
    task: tuple[str, dict[str, Any], int, bool]
) -> Trace | ItemFailure:
    """Simulate one scenario.

    A strict task lets a :class:`~repro.errors.ReproError` propagate; a
    non-strict one returns it as an :class:`ItemFailure`.
    """
    app, scenario, seed, strict = task
    try:
        return build_app(app, **scenario).run(seed=seed)
    except ReproError as exc:
        if strict:
            raise
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
        cache: "PipelineCache | None",
        strict: bool = True,
    ) -> tuple[list[Trace | None], list[ItemFailure]]:
        """Simulate every scenario, using the trace cache when given.

        Scenarios run in-process, in order; a cache hit skips the
        simulation and a miss is stored.  Under ``strict=False`` a
        scenario whose simulation raises a
        :class:`~repro.errors.ReproError` is quarantined: its slot in
        the trace list is ``None`` and an :class:`ItemFailure` records
        what happened.
        """
        from repro.parallel.cache import trace_key

        traces: list[Trace | None] = [None] * len(self.scenarios)
        failures: list[ItemFailure] = []
        for index, scenario in enumerate(self.scenarios):
            task = (self.app, dict(scenario), seed + index)
            if cache is not None:
                key = trace_key(*task)
                traces[index] = cache.get_trace(key)
                if traces[index] is not None:
                    continue
            trace = _simulate_task((*task, strict))
            if isinstance(trace, ItemFailure):
                failures.append(quarantine(trace))
                continue
            traces[index] = trace
            if cache is not None:
                cache.put_trace(key, trace)
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
            Worker count for per-trace frame construction; scenarios
            are simulated and pairs tracked in-process.  ``None``
            defers to ``REPRO_JOBS``; results are bit-identical to a
            serial run.
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
        from repro.robust.validate import validate_study

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
            with obs.span("study.simulate"):
                slots, failures = self._simulate(
                    seed=seed, cache=cache, strict=strict
                )
                traces = [trace for trace in slots if trace is not None]
                if self.trace_hook is not None:
                    traces = self.trace_hook(traces)
            traces, result, failures = _track_traces(
                traces,
                self.settings,
                tracking_config(self.settings, self.config),
                jobs=jobs,
                cache=cache,
                strict=strict,
                require_two=self._require_two,
                failures=failures,
            )
            if ledger_rec is not None:
                ledger_rec.annotate(
                    coverage=round(result.coverage, 4),
                    n_regions=len(result.regions),
                )
                if not strict:
                    ledger_rec.annotate(quarantined={"items": len(failures)})
            outcome = StudyResult(study=self, traces=tuple(traces), result=result)
            if strict:
                return outcome
            return PartialResult(value=outcome, failures=tuple(failures))

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
