"""Combination of the four evaluators into pairwise relations.

Paper section 3: the evaluators "have to cooperate to complement the
correspondences that a given one might fail to discern".  For a pair of
consecutive frames (A, B) the combination proceeds:

1. **Seed** with the displacement evaluator, run reciprocally (A onto B
   and B onto A) with outlier filtering.
2. **Prune** candidate links whose clusters share no call-stack
   reference — imprecisions of the distance heuristic.
3. **Widen** with the SPMD evaluator: objects left unmatched get
   attached to a simultaneous sibling's relation (the paper's
   ``A5 == B5 u B13`` example).
4. Connected components (:func:`repro._util.components`) of the
   candidate links (:data:`Links`) are the relations ``P_i == Q_i``.
5. **Refine** wide relations (several objects on both sides) with the
   execution-sequence evaluator, splitting them when pivot-anchored
   alignment can tell the members apart.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro import obs
from repro._util import components
from repro.clustering.frames import Frame
from repro.tracking.correlation import CorrelationMatrix
from repro.tracking.evaluators import callstack as _callstack
from repro.tracking.evaluators import displacement as _displacement
from repro.tracking.evaluators import sequence as _sequence
from repro.tracking.evaluators import simultaneity as _simultaneity
from repro.tracking.evaluators.callstack import callstack_matrix
from repro.tracking.evaluators.displacement import displacement_matrix
from repro.tracking.evaluators.sequence import sequence_matrix

if TYPE_CHECKING:  # runtime import stays inside combine_pair (cycle avoidance)
    from repro.tracking.evalcache import EvalCache

__all__ = [
    "Relation",
    "RelationProvenance",
    "PairProvenance",
    "PairRelations",
    "combine_pair",
    "UNMATCHED",
]

DISPLACEMENT = _displacement.EVALUATOR
CALLSTACK = _callstack.EVALUATOR
SEQUENCE = _sequence.EVALUATOR
SIMULTANEITY = _simultaneity.EVALUATOR

#: Provenance tag of relations no evaluator could propose (an object
#: that appears or vanishes between the frames; one side is empty).
UNMATCHED = "unmatched"

#: Proposer resolution order: the displacement evaluator seeds, the
#: call-stack and sequence evaluators rescue orphans, the simultaneity
#: evaluator only ever widens an existing relation.  A relation's
#: *proposing* evaluator is the highest-priority evaluator among its
#: supporting links, so it is unique by construction.
_PROPOSER_PRIORITY = (DISPLACEMENT, CALLSTACK, SEQUENCE, SIMULTANEITY)

#: One object of a frame pair, ``("A", cid)`` or ``("B", cid)``.
Node = tuple[str, int]
#: Candidate links of a frame pair: both endpoints (sorted) -> the
#: proposing evaluator.  Proposing a link again, from either end, keeps
#: one link and re-tags it.
Links = dict[tuple[Node, Node], str]


@dataclass(frozen=True)
class RelationProvenance:
    """Why one relation exists: the evaluator evidence that built it.

    Attributes
    ----------
    proposed_by:
        The single evaluator that established the relation (highest
        priority among its links), or :data:`UNMATCHED` for degenerate
        relations with an empty side.
    edge_counts:
        ``(evaluator, n_links)`` pairs — how many candidate links each
        evaluator contributed inside this relation (both ends in it).
    events:
        Audit trail of the non-seed actions that shaped the relation:
        ``"rescue:callstack"``, ``"rescue:sequence"``,
        ``"attach:simultaneity"``, ``"split:sequence"``.
    support:
        ``(evaluator, score)`` pairs — each evaluator's strongest
        evidence value inside the relation, in [0, 1].
    """

    proposed_by: str
    edge_counts: tuple[tuple[str, int], ...] = ()
    events: tuple[str, ...] = ()
    support: tuple[tuple[str, float], ...] = ()

    @property
    def evaluators(self) -> tuple[str, ...]:
        """Evaluators that contributed at least one link."""
        return tuple(name for name, _ in self.edge_counts)

    def support_of(self, evaluator: str) -> float:
        """The evaluator's strongest evidence value (0.0 if absent)."""
        for name, value in self.support:
            if name == evaluator:
                return value
        return 0.0

    def as_dict(self) -> dict[str, object]:
        """JSON-serialisable form."""
        return {
            "proposed_by": self.proposed_by,
            "edge_counts": {name: n for name, n in self.edge_counts},
            "events": list(self.events),
            "support": {name: value for name, value in self.support},
        }


@dataclass(frozen=True)
class PairProvenance:
    """Aggregate heuristic activity over one frame pair.

    Attributes
    ----------
    relations:
        One :class:`RelationProvenance` per relation, aligned with
        :attr:`PairRelations.relations`.
    proposed:
        Candidate links proposed by the displacement evaluator, once
        per direction (before call-stack pruning).
    pruned:
        Displacement candidates vetoed by the call-stack evaluator.
    rescued_callstack / rescued_sequence:
        Orphan objects rescued by the respective evaluator.
    widened:
        Orphans attached to a sibling by the simultaneity evaluator.
    splits:
        Wide relations split apart by the sequence evaluator.
    """

    relations: tuple[RelationProvenance, ...] = ()
    proposed: int = 0
    pruned: int = 0
    rescued_callstack: int = 0
    rescued_sequence: int = 0
    widened: int = 0
    splits: int = 0

    def contribution_counts(self) -> dict[str, int]:
        """Total candidate links per evaluator over the pair."""
        totals: dict[str, int] = {}
        for record in self.relations:
            for name, n in record.edge_counts:
                totals[name] = totals.get(name, 0) + n
        return totals

    def as_dict(self) -> dict[str, object]:
        """JSON-serialisable form."""
        return {
            "proposed": self.proposed,
            "pruned": self.pruned,
            "rescued_callstack": self.rescued_callstack,
            "rescued_sequence": self.rescued_sequence,
            "widened": self.widened,
            "splits": self.splits,
            "relations": [record.as_dict() for record in self.relations],
        }


@dataclass(frozen=True, slots=True)
class Relation:
    """One correspondence ``P_i == Q_i`` between object partitions.

    ``left`` holds cluster ids of the earlier frame, ``right`` of the
    later frame.  Either side may be empty for objects that could not be
    related at all (they appear or vanish between the frames).
    """

    left: frozenset[int]
    right: frozenset[int]

    @property
    def is_univocal(self) -> bool:
        """True when the relation pairs exactly one object with one."""
        return len(self.left) == 1 and len(self.right) == 1

    @property
    def is_wide(self) -> bool:
        """True when both sides hold several objects (ambiguous)."""
        return len(self.left) > 1 and len(self.right) > 1

    def __repr__(self) -> str:
        left = "{" + ",".join(map(str, sorted(self.left))) + "}"
        right = "{" + ",".join(map(str, sorted(self.right))) + "}"
        return f"{left}=={right}"


@dataclass(frozen=True)
class PairRelations:
    """Relations between one pair of consecutive frames plus diagnostics.

    Attributes
    ----------
    relations:
        The final relations, including degenerate ones with an empty
        side.
    displacement_ab / displacement_ba:
        Reciprocal displacement matrices (after outlier filtering).
    callstack_ab:
        Call-stack overlap matrix A -> B.
    simultaneity_a / simultaneity_b:
        Within-frame SPMD co-occurrence matrices.
    sequence_ab:
        Sequence-evaluator matrix (pivot-anchored), or ``None`` when no
        pivots were available.
    provenance:
        Heuristic attribution of the pair (``None`` only for
        hand-built instances; :func:`combine_pair` always fills it).
    """

    relations: tuple[Relation, ...]
    displacement_ab: CorrelationMatrix
    displacement_ba: CorrelationMatrix
    callstack_ab: CorrelationMatrix
    simultaneity_a: CorrelationMatrix
    simultaneity_b: CorrelationMatrix
    sequence_ab: CorrelationMatrix | None = None
    provenance: PairProvenance | None = None

    def provenance_of(self, relation: Relation) -> RelationProvenance:
        """The provenance record of one of this pair's relations."""
        if self.provenance is not None:
            for candidate, record in zip(self.relations, self.provenance.relations):
                if candidate == relation:
                    return record
        return RelationProvenance(proposed_by=UNMATCHED)

    def mapping(self) -> dict[int, frozenset[int]]:
        """Map each left cluster id to the right ids of its relation."""
        out: dict[int, frozenset[int]] = {}
        for relation in self.relations:
            for cid in relation.left:
                out[cid] = relation.right
        return out

    def _cross_support(self, cid_a: int, cid_b: int) -> float:
        """Strongest cross-frame evidence for one (A, B) object pair."""
        values = []
        for matrix, row, col in (
            (self.displacement_ab, cid_a, cid_b),
            (self.displacement_ba, cid_b, cid_a),
            (self.sequence_ab, cid_a, cid_b),
        ):
            if matrix is None:
                continue
            try:
                values.append(matrix.get(row, col))
            except KeyError:
                continue
        return max(values, default=0.0)

    def _spmd_support(self, matrix: CorrelationMatrix, cid: int,
                      siblings: frozenset[int]) -> float:
        """Strongest within-frame simultaneity tying *cid* to a sibling."""
        values = []
        for other in siblings:
            if other == cid:
                continue
            try:
                values.append(
                    min(matrix.get(cid, other), matrix.get(other, cid))
                )
            except KeyError:
                continue
        return max(values, default=0.0)

    def confidence(self, relation: Relation) -> float:
        """Evidence strength of one relation in [0, 1].

        Every member object contributes its best support: the strongest
        cross-frame evidence (displacement in either direction, or the
        sequence evaluator) towards any counterpart, or — for objects
        attached purely through SPMD widening — the strongest mutual
        simultaneity with a sibling.  The relation's confidence is the
        mean member support, so one weakly-attached object drags an
        otherwise solid relation down visibly.
        """
        if not relation.left or not relation.right:
            return 0.0
        supports: list[float] = []
        for cid_a in relation.left:
            cross = max(
                (self._cross_support(cid_a, cid_b) for cid_b in relation.right),
                default=0.0,
            )
            spmd = self._spmd_support(self.simultaneity_a, cid_a, relation.left)
            supports.append(max(cross, spmd))
        for cid_b in relation.right:
            cross = max(
                (self._cross_support(cid_a, cid_b) for cid_a in relation.left),
                default=0.0,
            )
            spmd = self._spmd_support(self.simultaneity_b, cid_b, relation.right)
            supports.append(max(cross, spmd))
        return float(np.mean(supports)) if supports else 0.0


def _link(links: Links, u: Node, v: Node, evaluator: str) -> None:
    """Add the link ``u -- v`` (or re-tag it) on behalf of *evaluator*."""
    links[min(u, v), max(u, v)] = evaluator


def _linked(links: Links) -> set[Node]:
    """Objects with at least one candidate link."""
    return {node for link in links for node in link}


def _component_relations(
    nodes: list[Node], links: Iterable[tuple[Node, Node]]
) -> list[Relation]:
    """Relations from the connected components of *links* over *nodes*,
    in the order of their first object in *nodes*."""
    position = {node: i for i, node in enumerate(nodes)}
    pairs = [(position[u], position[v]) for u, v in links]
    relations: list[Relation] = []
    for component in components(len(nodes), pairs):
        members = [nodes[i] for i in component]
        left = frozenset(cid for side, cid in members if side == "A")
        right = frozenset(cid for side, cid in members if side == "B")
        relations.append(Relation(left=left, right=right))
    return relations


def _callstacks_compatible(frame_x: Frame, cid_x: int, frame_y: Frame, cid_y: int) -> bool:
    """Whether two clusters share at least one call-stack reference."""
    return bool(
        frame_x.cluster(cid_x).callpaths & frame_y.cluster(cid_y).callpaths
    )


def _callstack_rescue(links: Links, frame_a: Frame, frame_b: Frame) -> int:
    """Pair leftover objects whose call-stack reference is unambiguous.

    When displacements fail completely — the NAS BT case, where growing
    problem sizes move every cluster two orders of magnitude — an object
    with no candidate links can still be matched if exactly one object
    of the other frame shares its source references.  Returns the number
    of links added.
    """
    added = 0
    for side, frame, other_frame, other_side in (
        ("A", frame_a, frame_b, "B"),
        ("B", frame_b, frame_a, "A"),
    ):
        linked = _linked(links)  # links added below touch no later object
        for cid in frame.cluster_ids:
            if (side, cid) in linked:
                continue
            candidates = [
                other
                for other in other_frame.cluster_ids
                if _callstacks_compatible(frame, cid, other_frame, other)
            ]
            if len(candidates) == 1:
                _link(links, (side, cid), (other_side, candidates[0]), CALLSTACK)
                added += 1
    return added


def _sequence_rescue(
    links: Links,
    sequence: CorrelationMatrix,
    frame_a: Frame,
    frame_b: Frame,
) -> int:
    """Match remaining orphans through the execution-sequence evidence.

    For each still-unmatched object, adds a link towards the strongest
    call-stack-compatible sequence correspondence.  Returns the number
    of links added.
    """
    added = 0
    for side, frame, matrix, other_frame, other_side in (
        ("A", frame_a, sequence, frame_b, "B"),
        ("B", frame_b, sequence.transpose(), frame_a, "A"),
    ):
        linked = _linked(links)
        for cid in frame.cluster_ids:
            if (side, cid) in linked:
                continue
            row = {
                other: value
                for other, value in matrix.row(cid).items()
                if _callstacks_compatible(frame, cid, other_frame, other)
            }
            if row:
                best = max(row, key=row.__getitem__)
                _link(links, (side, cid), (other_side, best), SEQUENCE)
                added += 1
    return added


def _attach_orphans(
    links: Links,
    side: str,
    frame: Frame,
    simultaneity: CorrelationMatrix,
    threshold: float,
) -> int:
    """SPMD widening: connect unmatched objects to simultaneous siblings.

    An orphan (no candidate link) is attached to the sibling cluster
    of its own frame with the strongest mutual simultaneity above
    *threshold*, provided the sibling is itself matched and both share a
    call-stack reference.  Returns the number of orphans attached.
    """
    attached = 0
    ids = frame.cluster_ids
    linked = _linked(links)
    for cid in ids:
        node = (side, cid)
        if node in linked:
            continue
        best_partner = None
        best_value = threshold
        for other in ids:
            if other == cid:
                continue
            if (side, other) not in linked:
                continue
            mutual = min(simultaneity.get(cid, other), simultaneity.get(other, cid))
            if mutual >= best_value and _callstacks_compatible(
                frame, cid, frame, other
            ):
                best_partner = other
                best_value = mutual
        if best_partner is not None:
            _link(links, node, (side, best_partner), SIMULTANEITY)
            linked.add(node)  # now a partner for the orphans after it
            attached += 1
    return attached


def _split_wide_relations(
    relations: list[Relation],
    sequence: CorrelationMatrix,
    frame_a: Frame,
    frame_b: Frame,
) -> tuple[list[Relation], set[Relation], int]:
    """Use sequence correspondences to break ambiguous wide relations.

    A split is accepted only when the sequence evidence partitions the
    relation into two or more sub-relations that each keep at least one
    object per side and remain call-stack compatible; otherwise the
    original wide relation is preserved (grouping in doubt, as the paper
    prescribes).  Returns the new relation list, the set of relations
    produced by a split (for provenance), and the split count.
    """
    out: list[Relation] = []
    split_pieces: set[Relation] = set()
    splits = 0
    for relation in relations:
        if not relation.is_wide:
            out.append(relation)
            continue
        nodes = [("A", cid) for cid in relation.left]
        nodes += [("B", cid) for cid in relation.right]
        sub = []
        for cid_a in relation.left:
            for cid_b in relation.right:
                try:
                    evidence = sequence.get(cid_a, cid_b)
                except KeyError:
                    evidence = 0.0
                if evidence > 0 and _callstacks_compatible(
                    frame_a, cid_a, frame_b, cid_b
                ):
                    sub.append((("A", cid_a), ("B", cid_b)))
        pieces = _component_relations(nodes, sub)
        valid = (
            len(pieces) > 1
            and all(piece.left and piece.right for piece in pieces)
        )
        if valid:
            splits += 1
            split_pieces.update(pieces)
        out.extend(pieces if valid else [relation])
    obs.count("tracking.relations_split", splits, evaluator=SEQUENCE)
    return out, split_pieces, splits


def _max_cell(matrix: CorrelationMatrix | None, pairs) -> float:
    """Strongest matrix value over (row, col) id pairs (0.0 if none)."""
    best = 0.0
    if matrix is None:
        return best
    for row, col in pairs:
        try:
            value = matrix.get(row, col)
        except KeyError:
            continue
        if value > best:
            best = value
    return best


def _relation_provenance(
    relation: Relation,
    links: Links,
    split_pieces: set[Relation],
    disp_ab: CorrelationMatrix,
    disp_ba: CorrelationMatrix,
    cs_ab: CorrelationMatrix | None,
    spmd_a: CorrelationMatrix | None,
    spmd_b: CorrelationMatrix | None,
    sequence_ab: CorrelationMatrix | None,
) -> RelationProvenance:
    """Attribute one final relation to the evaluators that built it.

    Matrices of disabled (ablated) evaluators are passed as ``None`` so
    their evidence is never claimed in the attribution.
    """
    nodes = {("A", cid) for cid in relation.left} | {
        ("B", cid) for cid in relation.right
    }
    counts: dict[str, int] = {}
    for (u, v), evaluator in links.items():
        if u in nodes and v in nodes:
            counts[evaluator] = counts.get(evaluator, 0) + 1
    proposed_by = next(
        (name for name in _PROPOSER_PRIORITY if counts.get(name)), UNMATCHED
    )

    events: list[str] = []
    if counts.get(CALLSTACK):
        events.append(f"rescue:{CALLSTACK}")
    if counts.get(SEQUENCE):
        events.append(f"rescue:{SEQUENCE}")
    if counts.get(SIMULTANEITY):
        events.append(f"attach:{SIMULTANEITY}")
    if relation in split_pieces:
        events.append(f"split:{SEQUENCE}")

    cross = [(a, b) for a in relation.left for b in relation.right]
    support: list[tuple[str, float]] = []
    disp = max(
        _max_cell(disp_ab, cross),
        _max_cell(disp_ba, [(b, a) for a, b in cross]),
    )
    if disp > 0:
        support.append((DISPLACEMENT, disp))
    stack = _max_cell(cs_ab, cross)
    if stack > 0:
        support.append((CALLSTACK, stack))
    seq = _max_cell(sequence_ab, cross)
    if seq > 0:
        support.append((SEQUENCE, seq))
    spmd = max(
        _max_cell(
            spmd_a,
            [(a, b) for a in relation.left for b in relation.left if a != b],
        ),
        _max_cell(
            spmd_b,
            [(a, b) for a in relation.right for b in relation.right if a != b],
        ),
    )
    if spmd > 0:
        support.append((SIMULTANEITY, spmd))

    return RelationProvenance(
        proposed_by=proposed_by,
        edge_counts=tuple(sorted(counts.items())),
        events=tuple(events),
        support=tuple(support),
    )


def combine_pair(
    frame_a: Frame,
    frame_b: Frame,
    points_a: np.ndarray,
    points_b: np.ndarray,
    *,
    outlier_threshold: float = 0.05,
    spmd_threshold: float = 0.5,
    sequence_threshold: float = 0.3,
    max_align_ranks: int = 64,
    use_callstack: bool = True,
    use_spmd: bool = True,
    use_sequence: bool = True,
    cache: "EvalCache | None" = None,
) -> PairRelations:
    """Run the full combination algorithm on one pair of frames.

    Parameters
    ----------
    frame_a, frame_b:
        Consecutive frames.
    points_a, points_b:
        The frames' points in the shared normalised space.
    outlier_threshold:
        Displacement cells below this fraction are neglected (paper: 5 %).
    spmd_threshold:
        Minimum mutual co-occurrence for SPMD widening.
    sequence_threshold:
        Minimum sequence-alignment correspondence used when splitting
        wide relations.
    max_align_ranks:
        Rank-sampling cap for the in-frame alignments.
    use_callstack / use_spmd / use_sequence:
        Ablation switches disabling individual evaluators (the
        displacement evaluator always runs — it seeds the relations).
        With everything off, the algorithm degrades to raw reciprocal
        nearest-neighbour matching, which is what the ablation benches
        measure the heuristics' contributions against.
    cache:
        Optional per-run :class:`~repro.tracking.evalcache.EvalCache`
        reusing per-frame artefacts (k-d trees, star alignments) across
        pairs.  Without one, a private per-pair cache still removes the
        in-pair duplication.  Caching never changes results — every
        cached value is the return of the identical uncached call.
    """
    from repro.tracking.evalcache import EvalCache

    if cache is None:
        cache = EvalCache()
    with obs.span("tracking.evaluator.displacement"):
        disp_ab = displacement_matrix(
            frame_a, frame_b, points_a, points_b,
            tree_b=cache.tree(frame_b, points_b),
        ).drop_below(outlier_threshold)
        disp_ba = displacement_matrix(
            frame_b, frame_a, points_b, points_a,
            tree_b=cache.tree(frame_a, points_a),
        ).drop_below(outlier_threshold)
    with obs.span("tracking.evaluator.callstack"):
        cs_ab = callstack_matrix(frame_a, frame_b)
    with obs.span("tracking.evaluator.simultaneity"):
        spmd_a = cache.simultaneity(frame_a, max_align_ranks)
        spmd_b = cache.simultaneity(frame_b, max_align_ranks)

    def compatible(cid_a: int, cid_b: int) -> bool:
        if not use_callstack:
            return True
        return _callstacks_compatible(frame_a, cid_a, frame_b, cid_b)

    # Relations, and so the pivots below, come in this order: A first.
    nodes = [("A", cid) for cid in frame_a.cluster_ids]
    nodes += [("B", cid) for cid in frame_b.cluster_ids]
    candidates = [(cid_a, cid_b) for cid_a, cid_b, _ in disp_ab.nonzero_pairs()]
    candidates += [(cid_a, cid_b) for cid_b, cid_a, _ in disp_ba.nonzero_pairs()]
    links: Links = {}
    pruned = 0
    for cid_a, cid_b in candidates:
        if compatible(cid_a, cid_b):
            _link(links, ("A", cid_a), ("B", cid_b), DISPLACEMENT)
        else:
            pruned += 1
    proposed = len(candidates)
    if obs.enabled():
        obs.count("tracking.links_proposed", proposed, evaluator=DISPLACEMENT)
        obs.count("tracking.links_pruned", pruned, evaluator=CALLSTACK)
        obs.count("tracking.links_confirmed", len(links), evaluator=DISPLACEMENT)

    rescued_callstack = 0
    rescued_sequence = 0
    widened = 0
    splits = 0
    if use_callstack:
        rescued_callstack = _callstack_rescue(links, frame_a, frame_b)
        obs.count("tracking.links_rescued", rescued_callstack, evaluator=CALLSTACK)
    if use_spmd:
        widened = _attach_orphans(links, "B", frame_b, spmd_b, spmd_threshold)
        widened += _attach_orphans(links, "A", frame_a, spmd_a, spmd_threshold)
        obs.count("tracking.links_widened", widened, evaluator=SIMULTANEITY)

    relations = _component_relations(nodes, links)

    # Sequence refinement needs pivots: take the univocal relations.
    pivots = {
        next(iter(rel.left)): next(iter(rel.right))
        for rel in relations
        if rel.is_univocal
    }
    has_orphans = any(not rel.left or not rel.right for rel in relations)
    sequence_ab: CorrelationMatrix | None = None
    split_pieces: set[Relation] = set()
    if use_sequence and pivots and (
        has_orphans or any(rel.is_wide for rel in relations)
    ):
        with obs.span("tracking.evaluator.sequence", n_pivots=len(pivots)):
            consensus_a = cache.consensus(frame_a, max_align_ranks)
            consensus_b = cache.consensus(frame_b, max_align_ranks)
            sequence_ab = sequence_matrix(
                consensus_a,
                consensus_b,
                frame_a.cluster_ids,
                frame_b.cluster_ids,
                pivots,
            ).drop_below(sequence_threshold)
            if has_orphans:
                rescued_sequence = _sequence_rescue(
                    links, sequence_ab, frame_a, frame_b
                )
                obs.count(
                    "tracking.links_rescued", rescued_sequence, evaluator=SEQUENCE
                )
                if rescued_sequence:
                    relations = _component_relations(nodes, links)
            relations, split_pieces, splits = _split_wide_relations(
                relations, sequence_ab, frame_a, frame_b
            )

    relations.sort(key=lambda rel: (min(rel.left, default=1 << 30), min(rel.right, default=1 << 30)))
    provenance = PairProvenance(
        relations=tuple(
            _relation_provenance(
                relation, links, split_pieces,
                disp_ab, disp_ba,
                cs_ab if use_callstack else None,
                spmd_a if use_spmd else None,
                spmd_b if use_spmd else None,
                sequence_ab,
            )
            for relation in relations
        ),
        proposed=proposed,
        pruned=pruned,
        rescued_callstack=rescued_callstack,
        rescued_sequence=rescued_sequence,
        widened=widened,
        splits=splits,
    )
    return PairRelations(
        relations=tuple(relations),
        displacement_ab=disp_ab,
        displacement_ba=disp_ba,
        callstack_ab=cs_ab,
        simultaneity_a=spmd_a,
        simultaneity_b=spmd_b,
        sequence_ab=sequence_ab,
        provenance=provenance,
    )
