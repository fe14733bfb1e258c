"""Property tests for region chaining against a connected-components reference.

:func:`~repro.tracking.tracker.chain_regions` is a union-find over
``(frame, cluster)`` nodes.  The reference below states the same rule
as a graph: a networkx graph with every cluster as a node and every
relation as edges, whose connected components are the regions, ranked
by decreasing duration with ties left in component order (the order of
each component's earliest node).  Both must agree on region ids,
members and order for any frames and relations.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tracking.combine import Relation
from repro.tracking.tracker import chain_regions


@dataclass(frozen=True)
class _Cluster:
    total_duration: float


@dataclass(frozen=True)
class _Frame:
    """The part of a frame chaining reads: cluster ids and durations."""

    durations: dict[int, float]

    @property
    def cluster_ids(self) -> tuple[int, ...]:
        return tuple(sorted(self.durations))

    def cluster(self, cluster_id: int) -> _Cluster:
        return _Cluster(self.durations[cluster_id])


def _pair(*relations: tuple[set[int], set[int]]) -> SimpleNamespace:
    return SimpleNamespace(
        relations=tuple(
            Relation(left=frozenset(left), right=frozenset(right))
            for left, right in relations
        )
    )


def _reference_chain(frames, pair_relations):
    """Regions as ``(region_id, members, total)`` via connected components."""
    graph = nx.Graph()
    for frame_index, frame in enumerate(frames):
        for cid in frame.cluster_ids:
            graph.add_node((frame_index, cid))
    for pair_index, pair in enumerate(pair_relations):
        for relation in pair.relations:
            linked = [(pair_index, cid) for cid in relation.left]
            linked += [(pair_index + 1, cid) for cid in relation.right]
            for node in linked[1:]:
                graph.add_edge(linked[0], node)
    components = list(nx.connected_components(graph))
    totals = [
        sum(frames[f].cluster(cid).total_duration for f, cid in component)
        for component in components
    ]
    ranked = sorted(range(len(components)), key=lambda k: -totals[k])
    return [
        (
            region_id,
            tuple(
                frozenset(cid for f, cid in components[k] if f == frame_index)
                for frame_index in range(len(frames))
            ),
            totals[k],
        )
        for region_id, k in enumerate(ranked, start=1)
    ]


def _as_tuples(regions):
    return [
        (region.region_id, region.members, region.total_duration)
        for region in regions
    ]


@st.composite
def _frames_and_relations(draw):
    # Two durations: many equal-duration regions, and sums that are
    # exact in any order, so totals compare exactly too.
    duration = st.sampled_from([1.0, 2.0])
    frames = [
        _Frame(
            draw(
                st.dictionaries(
                    st.integers(min_value=1, max_value=9),
                    duration,
                    min_size=1,
                    max_size=5,
                )
            )
        )
        for _ in range(draw(st.integers(min_value=1, max_value=5)))
    ]
    pairs = []
    for left, right in zip(frames, frames[1:]):
        # Either side may be empty: one-sided and empty relations too.
        relation = st.tuples(
            st.sets(st.sampled_from(left.cluster_ids)),
            st.sets(st.sampled_from(right.cluster_ids)),
        )
        pairs.append(_pair(*draw(st.lists(relation, max_size=6))))
    return frames, pairs


@given(_frames_and_relations())
@settings(max_examples=500, deadline=None)
def test_chain_regions_matches_connected_components(case):
    frames, pairs = case
    assert _as_tuples(chain_regions(frames, pairs)) == _reference_chain(
        frames, pairs
    )


def test_equal_durations_rank_by_earliest_node():
    """Three regions of duration 4: the one holding (frame 0, cluster 1)
    ranks first although its relation is listed second and its frame-1
    cluster id is the larger; the frame-1-only region ranks last."""
    frames = [
        _Frame({1: 1.0, 2: 3.0}),
        _Frame({1: 1.0, 2: 3.0, 3: 4.0}),
    ]
    pairs = [_pair(({2}, {1}), ({1}, {2}))]
    expected = [
        (1, (frozenset({1}), frozenset({2})), 4.0),
        (2, (frozenset({2}), frozenset({1})), 4.0),
        (3, (frozenset(), frozenset({3})), 4.0),
    ]
    assert _as_tuples(chain_regions(frames, pairs)) == expected
    assert _reference_chain(frames, pairs) == expected
