"""The frame-sequence tracker: pairwise relations chained into regions.

:class:`Tracker` runs the combination algorithm over every pair of
consecutive frames and links the resulting relations into *tracked
regions* — equivalence classes of objects that persist across the whole
sequence of experiments.  Regions are numbered by decreasing total
duration, the same convention clusters use, so "Region 1" is the most
time-consuming behaviour in the study.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro import obs
from repro._util import components
from repro.clustering.frames import Frame
from repro.errors import TrackingError
from repro.obs.log import get_logger
from repro.tracking.combine import PairRelations, combine_pair
from repro.tracking.evalcache import EvalCache
from repro.tracking.coverage import coverage_percent
from repro.tracking.scaling import NormalizedSpace, normalize_frames

if TYPE_CHECKING:  # runtime import stays inside run (cycle avoidance)
    from repro.robust.partial import ItemFailure, PartialResult

__all__ = [
    "TrackerConfig",
    "TrackedRegion",
    "TrackingResult",
    "Tracker",
    "chain_regions",
]

log = get_logger(__name__)


def _track_pair(
    index: int,
    frame_a: Frame,
    frame_b: Frame,
    points_a: np.ndarray,
    points_b: np.ndarray,
    config: "TrackerConfig",
    cache: EvalCache,
    *,
    strict: bool,
) -> "tuple[PairRelations, ItemFailure | None]":
    """Combine one frame pair (pair *index*) under a ``tracking.pair`` span.

    A strict run lets a failing pair's
    :class:`~repro.errors.ReproError` propagate.  A non-strict run
    quarantines the pair: the failure record is counted on
    ``robust.quarantined_total``, logged, and returned next to
    evidence-free relations between the two frames.
    """
    from repro.errors import ReproError
    from repro.robust.partial import ItemFailure

    try:
        with obs.span("tracking.pair", pair=index):
            return combine_pair(
                frame_a,
                frame_b,
                points_a,
                points_b,
                outlier_threshold=config.outlier_threshold,
                spmd_threshold=config.spmd_threshold,
                sequence_threshold=config.sequence_threshold,
                max_align_ranks=config.max_align_ranks,
                use_callstack=config.use_callstack,
                use_spmd=config.use_spmd,
                use_sequence=config.use_sequence,
                cache=cache,
            ), None
    except ReproError as exc:
        if strict:
            raise
        failure = ItemFailure.from_exception(
            f"{frame_a.label} -> {frame_b.label} (pair {index})", "pair", exc
        )
    obs.count("robust.quarantined_total", stage="pair")
    log.warning("quarantined pair: %s", failure)
    return _empty_pair_relations(frame_a, frame_b), failure


def _empty_pair_relations(frame_a: Frame, frame_b: Frame) -> PairRelations:
    """Evidence-free relations for a quarantined pair.

    Every matrix is all-zero over the real cluster ids and the relation
    list is empty, so downstream chaining simply sees no correspondence
    across this pair (regions end on its left side and new ones start on
    its right) and reporting code keeps working.
    """
    from repro.tracking.combine import PairProvenance
    from repro.tracking.correlation import CorrelationMatrix

    ids_a, ids_b = frame_a.cluster_ids, frame_b.cluster_ids

    def zeros(rows: tuple[int, ...], cols: tuple[int, ...]) -> CorrelationMatrix:
        return CorrelationMatrix(
            row_ids=rows, col_ids=cols, values=np.zeros((len(rows), len(cols)))
        )

    return PairRelations(
        relations=(),
        displacement_ab=zeros(ids_a, ids_b),
        displacement_ba=zeros(ids_b, ids_a),
        callstack_ab=zeros(ids_a, ids_b),
        simultaneity_a=zeros(ids_a, ids_a),
        simultaneity_b=zeros(ids_b, ids_b),
        sequence_ab=None,
        provenance=PairProvenance(),
    )


@dataclass(frozen=True, slots=True)
class TrackerConfig:
    """Tunables of the tracking pipeline.

    Attributes
    ----------
    outlier_threshold:
        Displacement matrix cells below this are neglected (paper: 5 %).
    spmd_threshold:
        Minimum mutual SPMD co-occurrence for widening relations.
    sequence_threshold:
        Minimum sequence correspondence used to split wide relations.
    max_align_ranks:
        Rank sampling cap for in-frame sequence alignments.
    reference:
        Frame index anchoring the extensive-metric weighting.
    log_extensive:
        Normalise extensive axes in log space (match frames built with
        ``log_y=True``).
    use_callstack / use_spmd / use_sequence:
        Ablation switches for the corresponding evaluators; the
        displacement evaluator always runs.  Defaults follow the paper
        (everything on).
    """

    outlier_threshold: float = 0.05
    spmd_threshold: float = 0.5
    sequence_threshold: float = 0.3
    max_align_ranks: int = 64
    reference: int = 0
    log_extensive: bool = False
    use_callstack: bool = True
    use_spmd: bool = True
    use_sequence: bool = True

    def __post_init__(self) -> None:
        if not 0.0 <= self.outlier_threshold < 1.0:
            raise TrackingError("outlier_threshold must be in [0, 1)")
        if not 0.0 <= self.spmd_threshold <= 1.0:
            raise TrackingError("spmd_threshold must be in [0, 1]")
        if not 0.0 <= self.sequence_threshold <= 1.0:
            raise TrackingError("sequence_threshold must be in [0, 1]")
        if self.max_align_ranks < 1:
            raise TrackingError("max_align_ranks must be >= 1")


@dataclass(frozen=True)
class TrackedRegion:
    """One behaviour tracked along the frame sequence.

    Attributes
    ----------
    region_id:
        Duration-ranked id (1 = most time-consuming region).
    members:
        Per-frame sets of cluster ids belonging to this region; an empty
        set means the region is absent from that frame.
    total_duration:
        Summed duration of all member clusters across all frames.
    """

    region_id: int
    members: tuple[frozenset[int], ...]
    total_duration: float

    @property
    def spans_all(self) -> bool:
        """Whether the region is present in every frame."""
        return all(self.members)

    @property
    def n_frames_present(self) -> int:
        """Number of frames in which the region appears."""
        return sum(1 for m in self.members if m)

    def clusters_in(self, frame_index: int) -> frozenset[int]:
        """Cluster ids of the region within one frame."""
        return self.members[frame_index]

    def __repr__(self) -> str:
        parts = [
            "{" + ",".join(map(str, sorted(m))) + "}" if m else "-"
            for m in self.members
        ]
        return f"TrackedRegion(id={self.region_id}, {' -> '.join(parts)})"


@dataclass(frozen=True)
class TrackingResult:
    """Everything the tracker produced for one frame sequence.

    Attributes
    ----------
    frames:
        The input frames.
    space:
        The shared normalised performance space.
    pair_relations:
        Per consecutive pair: relations plus evaluator diagnostics.
    regions:
        All tracked regions (including partial ones), duration-ranked.
    coverage:
        Integer coverage percentage (paper Table 2 semantics).
    """

    frames: tuple[Frame, ...]
    space: NormalizedSpace
    pair_relations: tuple[PairRelations, ...]
    regions: tuple[TrackedRegion, ...]
    coverage: int

    @property
    def tracked_regions(self) -> tuple[TrackedRegion, ...]:
        """Regions present in every frame of the sequence."""
        return tuple(region for region in self.regions if region.spans_all)

    @property
    def n_frames(self) -> int:
        """Number of frames in the study."""
        return len(self.frames)

    def region(self, region_id: int) -> TrackedRegion:
        """Look up one region by id."""
        for region in self.regions:
            if region.region_id == region_id:
                return region
        raise KeyError(f"no tracked region with id {region_id}")

    def region_of_cluster(self, frame_index: int, cluster_id: int) -> TrackedRegion | None:
        """The region that contains one frame's cluster, if any."""
        for region in self.regions:
            if cluster_id in region.members[frame_index]:
                return region
        return None

    def summary_row(self) -> dict[str, object]:
        """The paper's Table 2 row for this study."""
        return {
            "input_images": self.n_frames,
            "tracked_regions": len(self.tracked_regions),
            "coverage_pct": self.coverage,
        }


class Tracker:
    """Tracks objects across a sequence of frames.

    Parameters
    ----------
    frames:
        Two or more frames built with shared settings.
    config:
        Pipeline tunables; defaults follow the paper.
    """

    def __init__(self, frames: list[Frame], config: TrackerConfig | None = None) -> None:
        from repro.robust.validate import validate_frame

        if len(frames) < 2:
            raise TrackingError("tracking needs at least two frames")
        self.frames = list(frames)
        self.config = config or TrackerConfig()
        for frame in self.frames:
            validate_frame(frame)
        spaces = {frame.settings.metric_names for frame in self.frames}
        if len(spaces) > 1:
            raise TrackingError(
                "frames were built in different metric spaces "
                f"{sorted(spaces)}; rebuild them with shared FrameSettings"
            )

    def run(
        self, *, strict: bool = True
    ) -> "TrackingResult | PartialResult[TrackingResult]":
        """Execute the full pipeline and return the result.

        Consecutive frame pairs are combined in order, in-process, and
        share one run-wide :class:`EvalCache`, so every frame's
        evaluator artefacts are built once.

        Parameters
        ----------
        strict:
            When true (the default), a failing pair combination aborts
            the run with its :class:`~repro.errors.ReproError`.  When
            false, the failing pair is quarantined — it contributes no
            relations, so regions simply do not connect across it — and
            the run returns a
            :class:`~repro.robust.partial.PartialResult` wrapping the
            :class:`TrackingResult` plus the failure records.
        """
        from repro.obs import ledger as obsledger
        from repro.robust.partial import PartialResult

        config = self.config
        with obsledger.run_record(
            "tracking.run",
            n_frames=len(self.frames),
            config_digest=obsledger.config_digest(config),
            strict=strict,
        ) as ledger_rec, obs.span(
            "tracking.run", n_frames=len(self.frames)
        ) as run_span:
            with obs.span("tracking.normalize"):
                space = normalize_frames(
                    self.frames,
                    reference=config.reference,
                    log_extensive=config.log_extensive,
                )
            cache = EvalCache()
            failures: list[ItemFailure] = []
            pair_relations: list[PairRelations] = []
            for index in range(len(self.frames) - 1):
                pair, failure = _track_pair(
                    index,
                    self.frames[index],
                    self.frames[index + 1],
                    space.points[index],
                    space.points[index + 1],
                    config,
                    cache,
                    strict=strict,
                )
                pair_relations.append(pair)
                if failure is not None:
                    failures.append(failure)
            obs.count("tracking.tree_builds_total", cache.tree_builds)
            with obs.span("tracking.chain"):
                regions = chain_regions(self.frames, pair_relations)
            coverage = coverage_percent(regions, self.frames)
            if obs.enabled():
                run_span.set(n_regions=len(regions), coverage=coverage)
                obs.count(
                    "tracking.relations_total",
                    sum(len(pair.relations) for pair in pair_relations),
                )
                obs.count("tracking.regions_total", len(regions))
                obs.set_gauge("tracking.coverage_pct", coverage)
                log.debug(
                    "tracked %d frames into %d regions (%d%% coverage)",
                    len(self.frames), len(regions), coverage,
                )
            result = TrackingResult(
                frames=tuple(self.frames),
                space=space,
                pair_relations=tuple(pair_relations),
                regions=tuple(regions),
                coverage=coverage,
            )
            if ledger_rec is not None:
                ledger_rec.annotate(
                    coverage=round(coverage, 4),
                    n_regions=len(regions),
                    quarantined={"pairs": len(failures)},
                )
            if strict:
                return result
            return PartialResult(value=result, failures=tuple(failures))


def chain_regions(
    frames: list[Frame], pair_relations: list[PairRelations]
) -> list[TrackedRegion]:
    """Chain pairwise relations into duration-ranked whole-sequence regions.

    A region is an equivalence class of ``(frame, cluster)`` nodes: the
    connected components (:func:`repro._util.components`) of links
    joining every member of each relation.  Regions rank by decreasing
    total duration; equal durations rank by their earliest node in
    ``(frame, cluster id)`` order, and each region sums its durations
    in that node order.  The batch :class:`Tracker` calls this once,
    the incremental :class:`repro.stream.IncrementalTracker` after
    every push, so the same frames and pair relations give the same
    regions either way.
    """
    nodes: list[tuple[int, int]] = []
    durations: list[float] = []
    index: list[dict[int, int]] = []  # per frame: cluster id -> node
    for frame_index, frame in enumerate(frames):
        index.append({})
        for cid in frame.cluster_ids:
            index[frame_index][cid] = len(nodes)
            nodes.append((frame_index, cid))
            durations.append(frame.cluster(cid).total_duration)

    links: list[tuple[int, int]] = []
    for pair_index, pair in enumerate(pair_relations):
        left, right = index[pair_index], index[pair_index + 1]
        for relation in pair.relations:
            linked = [left[cid] for cid in relation.left]
            linked += [right[cid] for cid in relation.right]
            links += [(linked[0], node) for node in linked[1:]]

    # Components come in earliest-node order, so a stable sort on
    # duration alone breaks ties by the earliest node.
    classes = components(len(nodes), links)
    totals = [sum(durations[node] for node in members) for members in classes]
    regions = []
    for region_id, k in enumerate(
        sorted(range(len(classes)), key=lambda k: -totals[k]), start=1
    ):
        members: list[set[int]] = [set() for _ in frames]
        for node in classes[k]:
            frame_index, cid = nodes[node]
            members[frame_index].add(cid)
        regions.append(
            TrackedRegion(
                region_id=region_id,
                members=tuple(frozenset(m) for m in members),
                total_duration=totals[k],
            )
        )
    return regions
