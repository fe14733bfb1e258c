"""Frame construction: one experiment -> one image of trackable objects.

A :class:`Frame` is the analogue of a video frame in the tracking
analogy: the scatter of every CPU burst of one experiment in a chosen
performance-metric space, with density clustering applied and the
clusters ranked and filtered by the time they represent.  Frames are
what the tracker consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from repro import obs
from repro.clustering.cluster import Cluster, ClusterSet, rank_labels_by_duration
from repro.clustering.dbscan import DBSCAN
from repro.clustering.normalize import MinMaxScaler
from repro.errors import ClusteringError
from repro.obs.log import get_logger
from repro.trace.filters import filter_min_duration
from repro.trace.trace import Trace

if TYPE_CHECKING:  # runtime imports stay inside make_frames (cycle)
    from repro.parallel.cache import PipelineCache
    from repro.robust.partial import ItemFailure

__all__ = [
    "FrameSettings",
    "Frame",
    "make_frame",
    "make_frames",
    "make_frames_partial",
    "frame_from_labels",
    "precheck_frame_input",
]

log = get_logger(__name__)


@dataclass(frozen=True, slots=True)
class FrameSettings:
    """Knobs of the frame-construction pipeline.

    Attributes
    ----------
    x_metric / y_metric:
        Axis metrics (derived metric or raw counter names).  The paper's
        default pair: IPC on X, Instructions Completed on Y.
    extra_metrics:
        Additional clustering dimensions beyond the two plot axes — the
        paper notes the process "can be likewise applied to any
        arbitrary number of dimensions".  Extra axes participate in the
        DBSCAN space and in cross-frame normalisation; plots keep
        showing the (x, y) projection.
    eps:
        DBSCAN radius in the per-frame min-max normalised space.
    min_pts:
        DBSCAN core threshold; ``None`` picks ``max(5, n/400)``.
    min_duration:
        Discard bursts shorter than this (seconds) before clustering.
    relevance:
        Keep the top-duration clusters until they cover this fraction of
        the *clustered* time; the rest are folded into label 0.  This is
        the paper's reduction "to the ones considered more relevant".
    log_y:
        Cluster on ``log10(y)`` instead of raw y — useful when one frame
        spans decades of instruction counts (NAS BT classes).
    """

    x_metric: str = "ipc"
    y_metric: str = "instructions"
    extra_metrics: tuple[str, ...] = ()
    eps: float = 0.03
    min_pts: int | None = None
    min_duration: float = 0.0
    relevance: float = 0.95
    log_y: bool = False

    def __post_init__(self) -> None:
        if self.eps <= 0:
            raise ClusteringError(f"eps must be > 0, got {self.eps}")
        if self.min_pts is not None and self.min_pts < 1:
            raise ClusteringError(f"min_pts must be >= 1, got {self.min_pts}")
        if not 0.0 < self.relevance <= 1.0:
            raise ClusteringError(f"relevance must be in (0, 1], got {self.relevance}")
        if self.min_duration < 0:
            raise ClusteringError("min_duration must be >= 0")
        if len(set(self.metric_names)) != len(self.metric_names):
            raise ClusteringError(
                f"clustering metrics must be distinct, got {self.metric_names}"
            )

    @property
    def metric_names(self) -> tuple[str, ...]:
        """All clustering dimensions, (x, y, *extra)."""
        return (self.x_metric, self.y_metric, *self.extra_metrics)

    @property
    def n_dimensions(self) -> int:
        """Number of clustering dimensions."""
        return 2 + len(self.extra_metrics)


@dataclass(frozen=True)
class Frame:
    """One clustered image of the performance space.

    Attributes
    ----------
    trace:
        The (duration-filtered) trace behind the frame.
    settings:
        The settings the frame was built with.
    points:
        ``(n, d)`` raw metric values per burst, one column per
        clustering dimension; columns 0 and 1 are the plot axes
        (x = IPC, y = instructions by default).
    cluster_set:
        Per-point labels plus duration-ranked :class:`Cluster` objects.
    """

    trace: Trace
    settings: FrameSettings
    points: np.ndarray
    cluster_set: ClusterSet

    @property
    def plot_points(self) -> np.ndarray:
        """The (x, y) projection used by the 2-D renderers."""
        return self.points[:, :2]

    @property
    def label(self) -> str:
        """Human-readable experiment label."""
        return self.trace.label()

    @property
    def labels(self) -> np.ndarray:
        """Per-point cluster ids (0 = noise/filtered)."""
        return self.cluster_set.labels

    @property
    def n_points(self) -> int:
        """Number of bursts in the frame."""
        return int(self.points.shape[0])

    @property
    def n_clusters(self) -> int:
        """Number of relevant clusters."""
        return self.cluster_set.n_clusters

    @property
    def cluster_ids(self) -> tuple[int, ...]:
        """Ids of the relevant clusters."""
        return self.cluster_set.cluster_ids

    def cluster(self, cluster_id: int) -> Cluster:
        """Look up one cluster by id."""
        return self.cluster_set.cluster(cluster_id)

    @cached_property
    def rank_sequences(self) -> dict[int, np.ndarray]:
        """Time-ordered cluster-id sequence per rank (noise dropped).

        This is the input of the SPMD-simultaneity and execution-sequence
        evaluators: for every rank, the chronological succession of the
        clusters its bursts belong to.
        """
        sequences: dict[int, np.ndarray] = {}
        labels = self.labels
        for rank in np.unique(self.trace.rank):
            mask = self.trace.rank == rank
            order = np.argsort(self.trace.begin[mask], kind="stable")
            seq = labels[mask][order]
            sequences[int(rank)] = seq[seq != 0]
        return sequences

    def cluster_metric(self, cluster_id: int, metric: str, weighted: bool = True) -> float:
        """Aggregate *metric* over one cluster's bursts.

        Extensive metrics (instructions, duration, misses...) are summed
        then divided by the burst count (mean per burst); the IPC is
        computed as total instructions over total cycles when *weighted*
        (the paper's tables aggregate that way), else as a plain mean.
        """
        indices = self.cluster(cluster_id).indices
        if metric == "ipc" and weighted:
            instructions = self.trace.metric("instructions")[indices].sum()
            cycles = self.trace.metric("cycles")[indices].sum()
            return float(instructions / cycles) if cycles else 0.0
        values = self.trace.metric(metric)[indices]
        return float(values.mean()) if values.size else 0.0

    def cluster_total(self, cluster_id: int, metric: str) -> float:
        """Sum *metric* over one cluster's bursts."""
        indices = self.cluster(cluster_id).indices
        return float(self.trace.metric(metric)[indices].sum())

    def __repr__(self) -> str:
        return (
            f"Frame(label={self.label!r}, n_points={self.n_points}, "
            f"n_clusters={self.n_clusters})"
        )


def _auto_min_pts(n_points: int) -> int:
    """Default DBSCAN core threshold: scales gently with the population."""
    return max(5, n_points // 400)


def _relevance_filter(
    labels: np.ndarray, durations: np.ndarray, relevance: float
) -> np.ndarray:
    """Keep duration-ranked clusters 1..k covering *relevance* of the
    clustered time; relabel the rest to 0 and renumber to stay dense."""
    out = labels.copy()
    ids = np.unique(labels)
    ids = ids[ids != 0]
    if ids.size == 0:
        return out
    totals = np.array([durations[labels == lab].sum() for lab in ids])
    # labels are already duration-ranked: ids ascending = totals descending
    order = np.argsort(ids)
    cumulative = np.cumsum(totals[order])
    target = relevance * cumulative[-1]
    keep_count = int(np.searchsorted(cumulative, target)) + 1
    keep_count = min(keep_count, ids.size)
    dropped = ids[order][keep_count:]
    if dropped.size:
        out[np.isin(out, dropped)] = 0
    return out


def _filtered_trace(trace: Trace, settings: FrameSettings) -> Trace:
    """Apply the minimum-duration filter and reject degenerate traces."""
    n_before = trace.n_bursts
    if settings.min_duration > 0:
        trace = filter_min_duration(trace, settings.min_duration)
    if trace.n_bursts == 0:
        if n_before:
            raise ClusteringError(
                f"trace {trace.label()!r}: the min_duration="
                f"{settings.min_duration:g}s filter removed all {n_before} "
                "bursts; lower min_duration or check the trace's time unit"
            )
        raise ClusteringError(f"trace {trace.label()!r} has no bursts to cluster")
    if trace.n_bursts == 1:
        raise ClusteringError(
            f"trace {trace.label()!r} has a single burst "
            f"{'after the min_duration filter ' if n_before > 1 else ''}"
            "— density clustering needs at least two points"
        )
    return trace


def _metric_points(trace: Trace, settings: FrameSettings) -> np.ndarray:
    """Raw ``(n, d)`` metric matrix, one column per clustering dimension.

    Metric evaluation is the last place non-finite values can enter the
    clustering space (a derived ratio such as IPC turns finite counters
    into NaN/inf when the denominator is zero), so each column is
    checked here and reported by name instead of surfacing later as an
    anonymous scaler failure.
    """
    columns = []
    with np.errstate(divide="ignore", invalid="ignore"):
        for name in settings.metric_names:
            try:
                column = np.asarray(trace.metric(name), dtype=np.float64)
            except KeyError as exc:
                raise ClusteringError(
                    f"trace {trace.label()!r} cannot provide clustering "
                    f"metric {name!r}: {exc}"
                ) from exc
            if not np.isfinite(column).all():
                n_bad = int((~np.isfinite(column)).sum())
                raise ClusteringError(
                    f"metric {name!r} of trace {trace.label()!r} is NaN or "
                    f"infinite for {n_bad} burst(s) (zero denominator in a "
                    "derived ratio?)"
                )
            columns.append(column)
    return np.column_stack(columns)


def _clustering_space(
    trace: Trace, points: np.ndarray, settings: FrameSettings
) -> np.ndarray:
    """The space DBSCAN runs in, with the degenerate-input checks applied.

    Raises :class:`ClusteringError` for the inputs the clustering stage
    cannot handle (non-positive values under ``log_y``, all points
    identical).  Factored out of :func:`_cluster_labels` so the stream
    pipeline can pre-check windows without paying for DBSCAN.
    """
    clustering_columns = [points[:, i] for i in range(points.shape[1])]
    if settings.log_y:
        if np.any(clustering_columns[1] <= 0):
            raise ClusteringError(
                f"log_y requires strictly positive {settings.y_metric!r} "
                f"values; trace {trace.label()!r} has "
                f"{int((clustering_columns[1] <= 0).sum())} non-positive one(s)"
            )
        clustering_columns[1] = np.log10(clustering_columns[1])
    clustering_space = np.column_stack(clustering_columns)
    if np.all(clustering_space == clustering_space[0]):
        raise ClusteringError(
            f"all {points.shape[0]} bursts of trace {trace.label()!r} are "
            "identical in every clustering dimension "
            f"{settings.metric_names}; there is no structure to cluster"
        )
    return clustering_space


def precheck_frame_input(
    trace: Trace, settings: FrameSettings | None = None
) -> tuple[Trace, np.ndarray]:
    """Run the cheap stages that decide whether a trace can become a frame.

    Validation, the duration filter, metric extraction and the
    degenerate-space checks — everything :func:`make_frame` does except
    DBSCAN and cluster assembly (which cannot fail on a pre-checked
    input).  Returns ``(filtered_trace, raw_points)``; raises exactly
    the errors :func:`make_frame` would raise for the same input.  The
    stream pipeline uses this to decide which time windows survive
    before spending DBSCAN time on any of them.
    """
    from repro.robust.validate import validate_trace

    settings = settings or FrameSettings()
    trace = validate_trace(trace, strict=True)
    trace = _filtered_trace(trace, settings)
    points = _metric_points(trace, settings)
    _clustering_space(trace, points, settings)
    return trace, points


def _cluster_labels(
    trace: Trace, points: np.ndarray, settings: FrameSettings
) -> np.ndarray:
    """Run the expensive clustering stages: normalise, DBSCAN, rank, filter."""
    clustering_space = _clustering_space(trace, points, settings)

    scaler = MinMaxScaler.fit(clustering_space)
    scaled = scaler.transform(clustering_space)
    min_pts = settings.min_pts if settings.min_pts is not None else _auto_min_pts(
        points.shape[0]
    )
    result = DBSCAN(eps=settings.eps, min_pts=min_pts).fit(scaled)

    durations = trace.duration
    with obs.span("clustering.rank_and_filter", relevance=settings.relevance):
        ranked = rank_labels_by_duration(result.labels, durations)
        ranked = _relevance_filter(ranked, durations, settings.relevance)
        # Renumber after the relevance filter so ids stay dense from 1.
        ranked = rank_labels_by_duration(ranked, durations)
    return ranked


def _assemble_frame(
    trace: Trace,
    settings: FrameSettings,
    points: np.ndarray,
    ranked: np.ndarray,
) -> Frame:
    """Build the cluster objects of a labelling and wrap them in a frame."""
    durations = trace.duration
    clusters: list[Cluster] = []
    for cluster_id in np.unique(ranked):
        if cluster_id == 0:
            continue
        indices = np.flatnonzero(ranked == cluster_id)
        callpaths = frozenset(
            str(trace.callstacks.path(int(pid)))
            for pid in np.unique(trace.callpath_id[indices])
        )
        clusters.append(
            Cluster(
                cluster_id=int(cluster_id),
                indices=indices,
                centroid=points[indices].mean(axis=0),
                total_duration=float(durations[indices].sum()),
                callpaths=callpaths,
                ranks=frozenset(int(r) for r in np.unique(trace.rank[indices])),
            )
        )
    clusters.sort(key=lambda c: c.cluster_id)
    if obs.enabled():
        noise = int((ranked == 0).sum())
        obs.count("clustering.points_total", trace.n_bursts)
        obs.count("clustering.noise_points_total", noise)
        obs.count("clustering.clusters_total", len(clusters))
        log.debug(
            "frame %s: %d bursts -> %d clusters (%d noise/filtered)",
            trace.label(), trace.n_bursts, len(clusters), noise,
        )
    return Frame(
        trace=trace,
        settings=settings,
        points=points,
        cluster_set=ClusterSet(labels=ranked, clusters=tuple(clusters)),
    )


def make_frame(trace: Trace, settings: FrameSettings | None = None) -> Frame:
    """Build a :class:`Frame` from a trace.

    Pipeline: structural validation -> duration filter -> metric
    extraction -> per-frame min-max normalisation -> DBSCAN -> duration
    ranking -> relevance filter -> cluster object construction.

    Degenerate inputs (no/one burst, all points identical, a
    ``min_duration`` filter that removes everything) raise
    :class:`~repro.errors.ClusteringError`; structurally invalid traces
    raise :class:`~repro.errors.TraceError`.  Non-strict pipelines
    repair traces with :func:`repro.robust.validate_trace` *before*
    calling this.
    """
    from repro.robust.validate import validate_trace

    settings = settings or FrameSettings()
    trace = validate_trace(trace, strict=True)
    trace = _filtered_trace(trace, settings)
    with obs.span(
        "clustering.make_frame",
        label=trace.label(),
        n_bursts=trace.n_bursts,
        eps=settings.eps,
    ) as frame_span:
        points = _metric_points(trace, settings)
        ranked = _cluster_labels(trace, points, settings)
        frame = _assemble_frame(trace, settings, points, ranked)
        if obs.enabled():
            frame_span.set(
                n_clusters=frame.n_clusters, n_noise=int((ranked == 0).sum())
            )
        return frame


def frame_from_labels(
    trace: Trace, settings: FrameSettings | None, labels: np.ndarray
) -> Frame:
    """Rebuild a frame from a previously computed labelling.

    The labelling fully determines a frame given the trace and
    settings: points are recomputed (cheap, vectorised) and only the
    DBSCAN/ranking stages are skipped.  This is the warm path of the
    frame cache.  Raises :class:`ClusteringError` when *labels* cannot
    belong to the (filtered) trace, so callers can treat the entry as
    corrupt and recompute.
    """
    settings = settings or FrameSettings()
    trace = _filtered_trace(trace, settings)
    labels = np.asarray(labels, dtype=np.int32)
    if labels.shape != (trace.n_bursts,):
        raise ClusteringError(
            f"labelling of shape {labels.shape} does not match the "
            f"{trace.n_bursts}-burst trace {trace.label()!r}"
        )
    with obs.span(
        "clustering.frame_from_labels",
        label=trace.label(),
        n_bursts=trace.n_bursts,
    ):
        from repro.robust.validate import validate_frame

        points = _metric_points(trace, settings)
        return validate_frame(_assemble_frame(trace, settings, points, labels))


def _frame_task(
    task: tuple[int, Trace, FrameSettings, bool]
) -> "Frame | ItemFailure":
    """Worker-side task: build one frame (module-level for pickling).

    A strict task lets a :class:`~repro.errors.ReproError` propagate; a
    non-strict one returns it as an
    :class:`~repro.robust.partial.ItemFailure`, so one bad trace does
    not abort the whole batch.  The ``clustering.frame`` span is
    recorded in-process on the serial backend; worker-process spans are
    not collected by the parent.
    """
    from repro.errors import ReproError
    from repro.robust.partial import ItemFailure

    index, trace, settings, strict = task
    try:
        with obs.span("clustering.frame", frame=index):
            return make_frame(trace, settings)
    except ReproError as exc:
        if strict:
            raise
        return ItemFailure.from_exception(trace.label(), "frame", exc)


def make_frames(
    traces: list[Trace],
    settings: FrameSettings | None = None,
    *,
    jobs: int | None = None,
    cache: "PipelineCache | None" = None,
) -> list[Frame]:
    """Build one frame per trace with shared settings.

    Parameters
    ----------
    traces:
        Input traces, one frame each; output order matches.
    settings:
        Shared frame-construction settings.
    jobs:
        Worker count for per-trace parallel construction (``None``
        defers to ``REPRO_JOBS``; 1 = serial).  Results are identical
        to the serial path.
    cache:
        Optional :class:`repro.parallel.cache.PipelineCache`; hits skip
        the DBSCAN/ranking stages, misses are computed and stored.
    """
    frames, failures = _make_frames_impl(
        traces, settings, jobs=jobs, cache=cache, strict=True
    )
    assert not failures  # strict mode propagates instead of quarantining
    return frames  # type: ignore[return-value]


def make_frames_partial(
    traces: list[Trace],
    settings: FrameSettings | None = None,
    *,
    jobs: int | None = None,
    cache: "PipelineCache | None" = None,
) -> tuple[list["Frame | None"], tuple["ItemFailure", ...]]:
    """Build frames with per-trace quarantine instead of aborting.

    Like :func:`make_frames`, but a trace whose frame construction fails
    with a :class:`~repro.errors.ReproError` yields ``None`` in the
    output list (positions match the input) plus an
    :class:`~repro.robust.partial.ItemFailure` record, counted and
    logged by :func:`repro.robust.partial.quarantine`.
    """
    return _make_frames_impl(traces, settings, jobs=jobs, cache=cache, strict=False)


def _make_frames_impl(
    traces: list[Trace],
    settings: FrameSettings | None,
    *,
    jobs: int | None,
    cache: "PipelineCache | None",
    strict: bool,
) -> tuple[list["Frame | None"], tuple["ItemFailure", ...]]:
    from repro.parallel.cache import frame_key
    from repro.parallel.executor import pmap
    from repro.robust.partial import ItemFailure, quarantine

    settings = settings or FrameSettings()
    with obs.span("clustering.make_frames", n_traces=len(traces)) as frames_span:
        frames: list[Frame | None] = [None] * len(traces)
        failures: list[ItemFailure] = []
        keys: list[dict | None] = [None] * len(traces)
        pending: list[int] = []
        for index, trace in enumerate(traces):
            if cache is not None:
                keys[index] = frame_key(trace, settings)
                labels = cache.get_labels(keys[index])
                if labels is not None:
                    try:
                        frames[index] = frame_from_labels(trace, settings, labels)
                        continue
                    except ClusteringError:
                        cache.invalidate(keys[index])
            pending.append(index)
        if pending:
            built = pmap(
                _frame_task,
                [(index, traces[index], settings, strict) for index in pending],
                jobs=jobs,
                label="clustering.make_frames.pmap",
            )
            for index, frame in zip(pending, built):
                if isinstance(frame, ItemFailure):
                    failures.append(quarantine(frame))
                    continue
                frames[index] = frame
                if cache is not None:
                    cache.put_labels(keys[index], frame.labels)
        if obs.enabled():
            frames_span.set(
                n_cached=len(traces) - len(pending), n_quarantined=len(failures)
            )
        return frames, tuple(failures)
