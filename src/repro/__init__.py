"""repro — object tracking techniques applied to parallel performance analysis.

This package reproduces the system described in *"On the usefulness of
object tracking techniques in performance analysis"* (Llort, Servat,
Giménez, Labarta — SC 2013, Barcelona Supercomputing Center).

The pipeline mirrors the phase structure of a computer-vision tracker:

1. **Capture frames** — every execution scenario is rendered as a 2-D
   "image" in a performance-metric space (typically IPC x instructions),
   where each point is one CPU burst (:mod:`repro.trace`,
   :mod:`repro.clustering`).
2. **Recognise objects** — density-based clustering groups similar bursts
   into behavioural regions (:mod:`repro.clustering.dbscan`).
3. **Track motion** — four cooperating heuristics correlate the objects
   across frames despite splits, merges and long displacements
   (:mod:`repro.tracking`).

On top of the tracker the package ships machine models, synthetic SPMD
application workloads, trend/prediction analysis, dependency-free
visualisation and a parametric-study driver so that every table and
figure of the paper can be regenerated offline.

Quickstart
----------
>>> from repro import apps, quick_track
>>> traces = [apps.wrf.build(ranks=n).run(seed=1) for n in (32, 64)]
>>> result = quick_track(traces)
>>> len(result.tracked_regions) > 0
True
"""

from __future__ import annotations

from repro._version import __version__
from repro.api import (
    cluster_trace,
    make_frames,
    quick_track,
    track_frames,
)
from repro.clustering import ClusterSet, DBSCAN, Frame
from repro.parallel import PipelineCache, pmap, resolve_cache, resolve_jobs
from repro.robust import (
    ItemFailure,
    PartialResult,
    ValidationIssue,
    check_trace,
    validate_frame,
    validate_study,
    validate_trace,
)
from repro.stream import (
    IncrementalTracker,
    SpaceBounds,
    TrackUpdate,
    WindowSpec,
    concat_windows,
    slice_trace,
    track_windows,
)
from repro.tracking import TrackedRegion, Tracker, TrackingResult
from repro.trace import CPUBurst, Trace

__all__ = [
    "__version__",
    "CPUBurst",
    "Trace",
    "DBSCAN",
    "ClusterSet",
    "Frame",
    "IncrementalTracker",
    "ItemFailure",
    "PartialResult",
    "PipelineCache",
    "SpaceBounds",
    "TrackUpdate",
    "Tracker",
    "TrackingResult",
    "TrackedRegion",
    "ValidationIssue",
    "WindowSpec",
    "check_trace",
    "cluster_trace",
    "concat_windows",
    "make_frames",
    "pmap",
    "quick_track",
    "resolve_cache",
    "resolve_jobs",
    "slice_trace",
    "track_frames",
    "track_windows",
    "validate_frame",
    "validate_study",
    "validate_trace",
]
