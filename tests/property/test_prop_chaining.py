"""Property tests for connected components against a networkx reference.

:func:`repro._util.components` is the one connected-components
primitive: a union-find that orders each component's nodes ascending
and the components by their smallest node, as
``nx.connected_components`` does over nodes inserted in ascending order.

:func:`~repro.tracking.tracker.chain_regions` takes its regions from
it over ``(frame, cluster)`` nodes.  The reference below states the
same rule as a graph: a networkx graph with every cluster as a node and
every relation as edges, whose connected components are the regions,
ranked by decreasing duration with ties left in component order (the
order of each component's earliest node).  Both must agree on region
ids, members and order for any frames and relations.

:func:`~repro.tracking.combine.combine_pair` takes a frame pair's
relations from it over a table of candidate links.  The reference
builds the ``nx.Graph`` the combination used to build, and both must
agree on the relations and their order, on which objects are linked,
and on each relation's per-evaluator link counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._util import components
from repro.tracking.combine import (
    Relation,
    _component_relations,
    _link,
    _linked,
    _relation_provenance,
)
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


@st.composite
def _graphs(draw):
    """Nodes ``0 .. n - 1`` and links between them, with isolated nodes,
    repeated links and self-links."""
    n_nodes = draw(st.integers(min_value=0, max_value=12))
    if not n_nodes:
        return 0, []
    node = st.integers(min_value=0, max_value=n_nodes - 1)
    links = draw(st.lists(st.tuples(node, node), max_size=16))
    if links:
        links += draw(st.lists(st.sampled_from(links), max_size=4))
    links += [(v, v) for v in draw(st.lists(node, max_size=3))]
    return n_nodes, draw(st.permutations(links))


@given(_graphs())
@settings(max_examples=500, deadline=None)
def test_components_match_networkx(case):
    n_nodes, links = case
    graph = nx.Graph()
    graph.add_nodes_from(range(n_nodes))
    graph.add_edges_from(links)
    expected = [sorted(component) for component in nx.connected_components(graph)]
    assert components(n_nodes, links) == expected


_EVALUATORS = ("displacement", "callstack", "sequence", "simultaneity")


@st.composite
def _pair_links(draw):
    """Objects of frames A and B (cluster ids in any order) and tagged
    candidate links between them: cross-frame and same-side links, some
    proposed again from either end, some re-tagged."""
    cluster_ids = st.lists(
        st.integers(min_value=1, max_value=9), min_size=1, max_size=6, unique=True
    )
    nodes = [("A", cid) for cid in draw(cluster_ids)]
    nodes += [("B", cid) for cid in draw(cluster_ids)]
    node = st.sampled_from(nodes)
    link = st.tuples(node, node).filter(lambda pair: pair[0] != pair[1])
    links = draw(st.lists(link, max_size=14))
    if links:
        again = draw(st.lists(st.sampled_from(links), max_size=6))
        links += [(v, u) if draw(st.booleans()) else (u, v) for u, v in again]
    tagged = [(u, v, draw(st.sampled_from(_EVALUATORS))) for u, v in links]
    return nodes, tagged


@given(_pair_links())
@settings(max_examples=500, deadline=None)
def test_pair_components_match_networkx(case):
    nodes, tagged = case
    graph = nx.Graph()
    graph.add_nodes_from(nodes)
    links = {}
    for u, v, evaluator in tagged:
        graph.add_edge(u, v, evaluator=evaluator)
        _link(links, u, v, evaluator)

    expected = [
        Relation(
            left=frozenset(cid for side, cid in component if side == "A"),
            right=frozenset(cid for side, cid in component if side == "B"),
        )
        for component in nx.connected_components(graph)
    ]
    relations = _component_relations(nodes, links)
    assert relations == expected
    assert _linked(links) == {node for node in graph if graph.degree(node) > 0}
    for relation in relations:
        members = {("A", cid) for cid in relation.left}
        members |= {("B", cid) for cid in relation.right}
        counts: dict[str, int] = {}
        for u, v, data in graph.edges(members, data=True):
            if u in members and v in members:
                counts[data["evaluator"]] = counts.get(data["evaluator"], 0) + 1
        record = _relation_provenance(
            relation, links, set(), None, None, None, None, None, None
        )
        assert record.edge_counts == tuple(sorted(counts.items()))
