"""Continuous resource profiler: a sampler thread with stage attribution.

A :class:`ResourceSampler` wakes every ``period`` seconds and records a
:class:`Sample` of process vitals — RSS, cumulative CPU time, GC
generation counts, open file descriptors — plus pipeline occupancy
gauges (live stream windows, ``EvalCache`` entries) read from the
metrics registry.  Each sample is attributed to the *active span stage*
(``repro.obs.core.ObsState.active_stage``), so hot stages get resource
envelopes, not just durations.

The sampler is a pure observer: it only reads ``/proc`` and the
registry, and publishes its latest sample back as registry gauges
(``runtime.*``) so the ``/metrics`` endpoint exposes them.  Tracking
outputs are bit-identical with the sampler on or off.

Like ``REPRO_OBS``, the disabled path is near-zero-cost: nothing is
started unless :func:`resolve_sampler` finds ``REPRO_OBS_SAMPLE`` set
(to a truthy value or a period in seconds) or code starts a sampler
explicitly (``repro-track watch --serve`` does).
"""

from __future__ import annotations

import gc
import os
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any

from repro.obs.core import STATE
from repro.obs.metrics import REGISTRY, MetricsRegistry

__all__ = [
    "Sample",
    "ResourceSampler",
    "resolve_sampler",
    "active_sampler",
    "set_active_sampler",
    "current_rss_kib",
    "rss_peak_kib",
    "open_fd_count",
    "SAMPLE_ENV",
]

#: Environment variable enabling the sampler: truthy or a float period.
SAMPLE_ENV = "REPRO_OBS_SAMPLE"

_TRUTHY = {"1", "true", "yes", "on"}

#: Default sampling period in seconds.
DEFAULT_PERIOD = 0.05

#: Registry gauges the sampler folds into each sample when present.
_OCCUPANCY_GAUGES = ("stream.live_windows", "stream.evalcache_entries")

_PAGE_SIZE = os.sysconf("SC_PAGE_SIZE") if hasattr(os, "sysconf") else 4096


def current_rss_kib() -> int:
    """Current resident set size in KiB (falls back to the peak)."""
    try:
        with open("/proc/self/statm", "rb") as fh:
            fields = fh.read().split()
        return int(fields[1]) * _PAGE_SIZE // 1024
    except (OSError, IndexError, ValueError):
        return rss_peak_kib()


def rss_peak_kib() -> int:
    """Peak RSS of this process in KiB (0 where unavailable).

    ``ru_maxrss`` is KiB on Linux and bytes on macOS; normalise so
    readings compare across both.
    """
    try:
        import resource

        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    except (ImportError, ValueError, OSError):  # pragma: no cover - exotic platform
        return 0
    if sys.platform == "darwin":  # pragma: no cover - mac only
        peak //= 1024
    return int(peak)


def open_fd_count() -> int:
    """Number of open file descriptors (0 where /proc is unavailable)."""
    try:
        return len(os.listdir("/proc/self/fd"))
    except OSError:
        return 0


@dataclass(frozen=True)
class Sample:
    """One point-in-time reading of process vitals."""

    t: float  # seconds since the observability epoch
    stage: str  # active span stage ("" outside any span)
    rss_kib: int
    cpu_s: float  # cumulative process CPU (user+system)
    gc_gen0: int
    gc_gen1: int
    gc_gen2: int
    open_fds: int
    live_windows: float
    evalcache_entries: float

    def to_dict(self) -> dict[str, Any]:
        return {
            "t": round(self.t, 6),
            "stage": self.stage,
            "rss_kib": self.rss_kib,
            "cpu_s": round(self.cpu_s, 6),
            "gc_gen0": self.gc_gen0,
            "gc_gen1": self.gc_gen1,
            "gc_gen2": self.gc_gen2,
            "open_fds": self.open_fds,
            "live_windows": self.live_windows,
            "evalcache_entries": self.evalcache_entries,
        }


def _registry_gauge(registry: MetricsRegistry, name: str) -> float:
    """Best-effort read of an unlabelled gauge's value (0.0 if absent)."""
    metric = registry._metrics.get(("gauge", name, ()))
    return float(metric.value) if metric is not None else 0.0


class ResourceSampler:
    """Daemon thread sampling process vitals on a fixed period.

    Samples accumulate in :attr:`samples` (bounded by *max_samples*,
    oldest dropped first) and the most recent reading is mirrored into
    *registry* as ``runtime.*`` gauges for live exposition.
    """

    def __init__(
        self,
        period: float = DEFAULT_PERIOD,
        *,
        registry: MetricsRegistry | None = None,
        max_samples: int = 100_000,
    ) -> None:
        if period <= 0:
            raise ValueError(f"sampler period must be > 0, got {period}")
        self.period = float(period)
        self.registry = registry if registry is not None else REGISTRY
        self.max_samples = int(max_samples)
        self.samples: list[Sample] = []
        self.dropped = 0
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    # -- sampling -----------------------------------------------------

    def sample_once(self) -> Sample:
        """Take one sample now (also used by the thread loop)."""
        times = os.times()
        gen0, gen1, gen2 = gc.get_count()
        sample = Sample(
            t=time.perf_counter() - STATE.epoch,
            stage=STATE.active_stage,
            rss_kib=current_rss_kib(),
            cpu_s=times.user + times.system,
            gc_gen0=gen0,
            gc_gen1=gen1,
            gc_gen2=gen2,
            open_fds=open_fd_count(),
            live_windows=_registry_gauge(self.registry, "stream.live_windows"),
            evalcache_entries=_registry_gauge(
                self.registry, "stream.evalcache_entries"
            ),
        )
        with self._lock:
            self.samples.append(sample)
            if len(self.samples) > self.max_samples:
                overflow = len(self.samples) - self.max_samples
                del self.samples[:overflow]
                self.dropped += overflow
        self._publish(sample)
        return sample

    def _publish(self, sample: Sample) -> None:
        """Mirror the latest reading into the registry (ungated gauges)."""
        reg = self.registry
        reg.gauge("runtime.rss_kib").set(sample.rss_kib)
        reg.gauge("runtime.cpu_seconds_total").set(sample.cpu_s)
        reg.gauge("runtime.open_fds").set(sample.open_fds)
        reg.gauge("runtime.gc_gen0_objects").set(sample.gc_gen0)
        reg.gauge("runtime.gc_gen2_objects").set(sample.gc_gen2)
        reg.gauge("runtime.sample_count").set(len(self.samples) + self.dropped)

    # -- lifecycle ----------------------------------------------------

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> "ResourceSampler":
        """Start the daemon sampling thread (idempotent); returns self."""
        if self.running:
            return self
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop, name="repro-obs-sampler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self, timeout: float = 2.0) -> None:
        """Stop the thread and take one final sample for the tail."""
        thread = self._thread
        if thread is None:
            return
        self._stop.set()
        thread.join(timeout=timeout)
        self._thread = None
        self.sample_once()

    def _loop(self) -> None:
        # Sample immediately so the runtime gauges exist from t=0 — a
        # scraper must never observe a running sampler with no samples.
        try:
            self.sample_once()
        except Exception:  # pragma: no cover - never kill the host run
            return
        while not self._stop.wait(self.period):
            try:
                self.sample_once()
            except Exception:  # pragma: no cover - never kill the host run
                return

    def __enter__(self) -> "ResourceSampler":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.stop()
        return False

    # -- summaries ----------------------------------------------------

    def snapshot_samples(self) -> list[Sample]:
        """A stable copy of the samples recorded so far."""
        with self._lock:
            return list(self.samples)

    def stage_summary(self) -> dict[str, dict[str, Any]]:
        """Per-stage resource envelopes over all samples.

        CPU deltas between consecutive samples are attributed to the
        later sample's stage, RSS envelopes are per-stage min/max, and
        sample counts give each stage's share of wall time.
        """
        samples = self.snapshot_samples()
        out: dict[str, dict[str, Any]] = {}
        prev_cpu: float | None = None
        for sample in samples:
            stage = sample.stage or "(idle)"
            env = out.get(stage)
            if env is None:
                env = out[stage] = {
                    "n_samples": 0,
                    "rss_min_kib": sample.rss_kib,
                    "rss_max_kib": sample.rss_kib,
                    "cpu_s": 0.0,
                }
            env["n_samples"] += 1
            env["rss_min_kib"] = min(env["rss_min_kib"], sample.rss_kib)
            env["rss_max_kib"] = max(env["rss_max_kib"], sample.rss_kib)
            if prev_cpu is not None:
                env["cpu_s"] = round(
                    env["cpu_s"] + max(0.0, sample.cpu_s - prev_cpu), 6
                )
            prev_cpu = sample.cpu_s
        return out

    def summary(self) -> dict[str, Any]:
        """Ledger-ready rollup: totals plus per-stage envelopes."""
        samples = self.snapshot_samples()
        payload: dict[str, Any] = {
            "period_s": self.period,
            "n_samples": len(samples) + self.dropped,
            "stages": self.stage_summary(),
        }
        if samples:
            payload["rss_max_kib"] = max(s.rss_kib for s in samples)
            payload["cpu_s"] = round(
                max(0.0, samples[-1].cpu_s - samples[0].cpu_s), 6
            )
            payload["open_fds_max"] = max(s.open_fds for s in samples)
        return payload


#: The process's active sampler (set by the CLI / watch --serve).
_ACTIVE: ResourceSampler | None = None


def active_sampler() -> ResourceSampler | None:
    """The currently installed process-wide sampler, if any."""
    return _ACTIVE


def set_active_sampler(sampler: ResourceSampler | None) -> None:
    """Install (or clear) the process-wide sampler handle."""
    global _ACTIVE
    _ACTIVE = sampler


def resolve_sampler(
    *, period: float | None = None, env: bool = True
) -> ResourceSampler | None:
    """Build a sampler from an explicit period or ``REPRO_OBS_SAMPLE``.

    The env value may be a truthy word (default period) or a float
    period in seconds.  Returns ``None`` when sampling is not requested
    — the disabled path is one environment lookup.
    """
    if period is None and env:
        raw = os.environ.get(SAMPLE_ENV, "").strip().lower()
        if not raw:
            return None
        if raw in _TRUTHY:
            period = DEFAULT_PERIOD
        else:
            try:
                period = float(raw)
            except ValueError:
                return None
            if period <= 0:
                return None
    if period is None:
        return None
    return ResourceSampler(period)
