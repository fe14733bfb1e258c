"""repro.stream — time-windowed frames and incremental (online) tracking.

The paper's frames are "each experiment *(or time interval)*"; this
subpackage implements the time-interval half and the online tracker
that consumes such frames as they close:

- :func:`slice_trace` / :func:`concat_windows` — partition one trace
  into contiguous time windows (every burst in exactly one window,
  per-rank order preserved, concatenation round-trips);
- :class:`IncrementalTracker` + :class:`SpaceBounds` — consume frames
  one at a time, evaluating only the (previous, new) pair per step;
  with the precomputed bounds the output is bit-identical to the batch
  :class:`~repro.tracking.Tracker` (enforced by ``tests/stream``);
- :func:`track_windows` — the end-to-end streaming pipeline behind
  ``repro-track watch``, with per-window obs metrics and
  cache-checkpointed resume;
- :class:`StreamMonitor` + :class:`WatchTelemetry` — the online
  monitoring layer: per-region one-step-ahead forecasts, typed
  divergence/regression/death/split/plateau alerts
  (:mod:`repro.obs.alerts`) and the watch health surface, all as a pure
  observer over the stream.

See ``docs/streaming.md``.
"""

from __future__ import annotations

from repro.stream.forecast import StreamMonitor, WatchTelemetry, track_key
from repro.stream.incremental import IncrementalTracker, TrackUpdate
from repro.stream.pipeline import track_windows, windowed_traces
from repro.stream.window import WINDOW_KEY, WindowSpec, concat_windows, slice_trace
from repro.tracking.scaling import SpaceBounds

__all__ = [
    "WINDOW_KEY",
    "WindowSpec",
    "slice_trace",
    "concat_windows",
    "SpaceBounds",
    "TrackUpdate",
    "IncrementalTracker",
    "track_windows",
    "windowed_traces",
    "StreamMonitor",
    "WatchTelemetry",
    "track_key",
]
