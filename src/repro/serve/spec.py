"""Job specifications: what one tracking job asks the server to run.

A :class:`JobSpec` is the validated, canonical form of the JSON body a
tenant POSTs to ``/jobs``.  It names a bundled application generator,
the scenarios/seeds to simulate, the frame/tracker knobs, and whether
the job runs the batch pipeline (``kind="track"`` →
:func:`repro.quick_track`) or the windowed streaming pipeline
(``kind="watch"`` → :func:`repro.stream.track_windows`).

Validation is strict and front-loaded: a malformed spec is rejected at
admission time with a :class:`~repro.errors.JobSpecError` naming the
offending field, never accepted and failed later inside a worker.  The
canonical dict form (:meth:`JobSpec.to_dict`) round-trips exactly and
is what the journal persists, so a server restart re-queues byte-equal
work.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Mapping

from repro.errors import JobSpecError

__all__ = ["JobSpec", "SPEC_SCHEMA"]

#: Schema tag of the canonical spec payload.
SPEC_SCHEMA = "repro.job.spec/1"

_KINDS = ("track", "watch")

#: Hard ceilings keeping one job from monopolising a shared server.
MAX_SCENARIOS = 64

_ALLOWED_KEYS = {
    "schema",
    "kind",
    "app",
    "scenarios",
    "seeds",
    "settings",
    "config",
    "windows",
    "window_ns",
    "jobs",
    "strict",
    "hold_s",
}


def _settings_fields() -> set[str]:
    from repro.clustering.frames import FrameSettings

    return {f.name for f in fields(FrameSettings)}


def _config_fields() -> set[str]:
    from repro.tracking.tracker import TrackerConfig

    return {f.name for f in fields(TrackerConfig)}


def _check_mapping(value: Any, what: str) -> dict[str, Any]:
    if not isinstance(value, Mapping):
        raise JobSpecError(f"{what} must be a JSON object, got {type(value).__name__}")
    out = {}
    for key, item in value.items():
        if not isinstance(key, str):
            raise JobSpecError(f"{what} keys must be strings, got {key!r}")
        out[key] = item
    return out


@dataclass(frozen=True)
class JobSpec:
    """One validated tracking job.

    Attributes
    ----------
    kind:
        ``"track"`` runs the batch pipeline over one simulated trace
        per scenario; ``"watch"`` windows a single scenario's trace and
        tracks it incrementally.
    app:
        Registered application generator name (see ``repro-track info``).
    scenarios:
        Scenario kwargs per trace (``track`` needs at least two;
        ``watch`` exactly one).
    seeds:
        Simulation seed per scenario (same length as *scenarios*).
    settings / config:
        :class:`~repro.clustering.frames.FrameSettings` /
        :class:`~repro.tracking.tracker.TrackerConfig` overrides, by
        field name.
    windows / window_ns:
        Window specification for ``watch`` jobs (exactly one required).
    jobs:
        Worker count for a ``track`` job's frame construction (the
        usual ``--jobs`` knob; results are bit-identical to serial).
        A ``watch`` job clusters its windows in order, in-process.
    strict:
        Fail fast (default) vs quarantine-and-continue.
    hold_s:
        Seconds the worker sleeps before executing — a scheduling and
        fault-injection aid (lets tests pin down a running job); capped
        at 60.
    """

    kind: str
    app: str
    scenarios: tuple[dict[str, Any], ...]
    seeds: tuple[int, ...]
    settings: dict[str, Any] = field(default_factory=dict)
    config: dict[str, Any] = field(default_factory=dict)
    windows: int | None = None
    window_ns: float | None = None
    jobs: int = 1
    strict: bool = True
    hold_s: float = 0.0

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "JobSpec":
        """Validate a JSON payload into a spec; raises :class:`JobSpecError`."""
        data = _check_mapping(data, "job spec")
        unknown = set(data) - _ALLOWED_KEYS
        if unknown:
            raise JobSpecError(
                f"unknown job spec field(s): {sorted(unknown)}; "
                f"allowed: {sorted(_ALLOWED_KEYS - {'schema'})}"
            )
        schema = data.get("schema", SPEC_SCHEMA)
        if schema != SPEC_SCHEMA:
            raise JobSpecError(
                f"unsupported spec schema {schema!r} (this server speaks "
                f"{SPEC_SCHEMA!r})"
            )
        kind = data.get("kind", "track")
        if kind not in _KINDS:
            raise JobSpecError(f"kind must be one of {_KINDS}, got {kind!r}")
        app = data.get("app")
        if not isinstance(app, str) or not app:
            raise JobSpecError("app must name a registered application")
        from repro.apps.registry import APP_BUILDERS

        if app not in APP_BUILDERS:
            raise JobSpecError(
                f"unknown application {app!r}; registered: "
                f"{sorted(APP_BUILDERS)}"
            )
        raw_scenarios = data.get("scenarios")
        if not isinstance(raw_scenarios, (list, tuple)) or not raw_scenarios:
            raise JobSpecError("scenarios must be a non-empty list of objects")
        if len(raw_scenarios) > MAX_SCENARIOS:
            raise JobSpecError(
                f"too many scenarios ({len(raw_scenarios)} > {MAX_SCENARIOS})"
            )
        scenarios = tuple(
            _check_mapping(s, f"scenarios[{i}]")
            for i, s in enumerate(raw_scenarios)
        )
        raw_seeds = data.get("seeds", tuple(range(len(scenarios))))
        if not isinstance(raw_seeds, (list, tuple)):
            raise JobSpecError("seeds must be a list of integers")
        try:
            seeds = tuple(int(s) for s in raw_seeds)
        except (TypeError, ValueError):
            raise JobSpecError("seeds must be a list of integers") from None
        if len(seeds) != len(scenarios):
            raise JobSpecError(
                f"got {len(seeds)} seed(s) for {len(scenarios)} scenario(s)"
            )
        settings = _check_mapping(data.get("settings", {}), "settings")
        bad = set(settings) - _settings_fields()
        if bad:
            raise JobSpecError(
                f"unknown settings field(s): {sorted(bad)}; "
                f"allowed: {sorted(_settings_fields())}"
            )
        config = _check_mapping(data.get("config", {}), "config")
        bad = set(config) - _config_fields()
        if bad:
            raise JobSpecError(
                f"unknown config field(s): {sorted(bad)}; "
                f"allowed: {sorted(_config_fields())}"
            )
        windows = data.get("windows")
        window_ns = data.get("window_ns")
        if kind == "watch":
            if len(scenarios) != 1:
                raise JobSpecError(
                    f"watch jobs stream exactly one scenario, got "
                    f"{len(scenarios)}"
                )
            if (windows is None) == (window_ns is None):
                raise JobSpecError(
                    "watch jobs need exactly one of windows / window_ns"
                )
        else:
            if windows is not None or window_ns is not None:
                raise JobSpecError(
                    "windows/window_ns only apply to watch jobs"
                )
            if len(scenarios) < 2:
                raise JobSpecError(
                    "track jobs need at least two scenarios (frames)"
                )
        if windows is not None:
            windows = int(windows)
            if windows < 1:
                raise JobSpecError(f"windows must be >= 1, got {windows}")
        if window_ns is not None:
            window_ns = float(window_ns)
            if not window_ns > 0:
                raise JobSpecError(f"window_ns must be > 0, got {window_ns}")
        jobs = int(data.get("jobs", 1))
        if jobs < 0:
            raise JobSpecError(f"jobs must be >= 0, got {jobs}")
        hold_s = float(data.get("hold_s", 0.0))
        if not 0.0 <= hold_s <= 60.0:
            raise JobSpecError(f"hold_s must be in [0, 60], got {hold_s}")
        return cls(
            kind=kind,
            app=app,
            scenarios=scenarios,
            seeds=seeds,
            settings=settings,
            config=config,
            windows=windows,
            window_ns=window_ns,
            jobs=jobs,
            strict=bool(data.get("strict", True)),
            hold_s=hold_s,
        )

    def to_dict(self) -> dict[str, Any]:
        """Canonical JSON form; ``from_dict`` round-trips it exactly."""
        return {
            "schema": SPEC_SCHEMA,
            "kind": self.kind,
            "app": self.app,
            "scenarios": [dict(s) for s in self.scenarios],
            "seeds": list(self.seeds),
            "settings": dict(self.settings),
            "config": dict(self.config),
            "windows": self.windows,
            "window_ns": self.window_ns,
            "jobs": self.jobs,
            "strict": self.strict,
            "hold_s": self.hold_s,
        }

    def frame_settings(self):
        """Materialise the :class:`FrameSettings` this spec asks for."""
        from repro.clustering.frames import FrameSettings

        return FrameSettings(**self.settings)

    def tracker_config(self):
        """Materialise the :class:`TrackerConfig` this spec asks for."""
        from repro.tracking.tracker import TrackerConfig

        return TrackerConfig(**self.config)

    def digest(self) -> str:
        """Stable short digest of the *work product* (ledger-style).

        Execution knobs that are bit-identity-neutral by contract —
        ``jobs`` (parallel == serial), ``hold_s`` (a sleep) — are
        excluded, so a serial and a ``jobs=2`` submission of the same
        work share a digest, as their result payloads share bytes.
        """
        from repro.obs.ledger import config_digest

        payload = self.to_dict()
        for knob in ("jobs", "hold_s"):
            payload.pop(knob)
        return config_digest(payload)
