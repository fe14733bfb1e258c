"""Unit tests for the evaluator-combination algorithm."""

from __future__ import annotations

import numpy as np
import pytest

import repro.tracking.combine as combine_mod
from repro import obs
from repro.clustering.frames import make_frame
from repro.tracking.combine import Relation, combine_pair
from repro.tracking.correlation import CorrelationMatrix
from repro.tracking.evalcache import EvalCache
from repro.tracking.scaling import normalize_frames
from tests.conftest import build_two_region_trace


def _frames(trace_a, trace_b, settings=None):
    frame_a = make_frame(trace_a, settings)
    frame_b = make_frame(trace_b, settings)
    space = normalize_frames([frame_a, frame_b])
    return frame_a, frame_b, space.points[0], space.points[1]


def combined(trace_a, trace_b, **kwargs):
    return combine_pair(*_frames(trace_a, trace_b), **kwargs)


class TestRelation:
    def test_univocal(self):
        rel = Relation(left=frozenset({1}), right=frozenset({2}))
        assert rel.is_univocal and not rel.is_wide

    def test_wide(self):
        rel = Relation(left=frozenset({1, 2}), right=frozenset({3, 4}))
        assert rel.is_wide and not rel.is_univocal

    def test_grouped_not_wide(self):
        rel = Relation(left=frozenset({1, 2}), right=frozenset({3}))
        assert not rel.is_wide

    def test_repr(self):
        rel = Relation(left=frozenset({2, 1}), right=frozenset({3}))
        assert repr(rel) == "{1,2}=={3}"


class TestCombinePair:
    def test_clean_case_univocal(self, toy_trace_pair):
        pair = combined(*toy_trace_pair)
        assert len(pair.relations) == 2
        assert all(rel.is_univocal for rel in pair.relations)
        mapping = pair.mapping()
        assert mapping[1] == frozenset({1})
        assert mapping[2] == frozenset({2})

    def test_diagnostics_exposed(self, toy_trace_pair):
        pair = combined(*toy_trace_pair)
        assert pair.displacement_ab.row_ids == (1, 2)
        assert pair.callstack_ab.get(1, 1) > 0
        assert pair.simultaneity_a.get(1, 1) == pytest.approx(1.0)

    def test_long_jump_recovered_by_callstack(self):
        """A 10x shift in instructions breaks the displacement evaluator
        but the unique call-stack references still pair the regions."""
        a = build_two_region_trace(seed=1)
        b = build_two_region_trace(seed=2, instr_a=10e6, instr_b=40e6)
        pair = combined(a, b)
        mapping = pair.mapping()
        assert mapping[1] == frozenset({1})
        assert mapping[2] == frozenset({2})

    def test_bimodal_merge_grouped(self, hydroc_traces):
        """HydroC's two modes share a call path; tracking them from the
        64 to the 128 block-size scenario must keep them separate (they
        are well separated in the space)."""
        pair = combined(*hydroc_traces)
        assert len([rel for rel in pair.relations if rel.left and rel.right]) == 2

    def test_outlier_threshold_effect(self, toy_trace_pair):
        strict = combined(*toy_trace_pair, outlier_threshold=0.4)
        assert all(rel.is_univocal for rel in strict.relations)

    def test_spmd_widening_recovers_orphans(self):
        """CGPOP from MareNostrum to MinoTauro groups two frame-B
        clusters into one relation, {2}=={2,3}, the shape of the
        paper's A5 == B5 u B13.  Displacement links A2 to both B2 and
        B3, so no orphan is left for SPMD widening (``widened == 0``);
        TestWideningAndSplit drives the widening itself."""
        from repro.apps import cgpop
        from repro.machine.machine import MARENOSTRUM, MINOTAURO

        a = cgpop.build(MARENOSTRUM, "gfortran", ranks=16, iterations=4).run(seed=1)
        b = cgpop.build(MINOTAURO, "gfortran", ranks=16, iterations=4).run(seed=2)
        pair = combined(a, b)
        grouped = [rel for rel in pair.relations if len(rel.right) == 2]
        assert len(grouped) == 1
        assert len(grouped[0].left) == 1


def _matrix(row_ids, col_ids, cells):
    """A correlation matrix holding *cells* ``{(row, col): value}``."""
    values = np.zeros((len(row_ids), len(col_ids)))
    for (row, col), value in cells.items():
        values[row_ids.index(row), col_ids.index(col)] = value
    return CorrelationMatrix(tuple(row_ids), tuple(col_ids), values)


def _displaced(frame_a, links):
    """Stand-in displacement evaluator proposing exactly *links*
    ``{(cid_a, cid_b)}``, in both directions."""

    def displacement(frame_x, frame_y, points_x, points_y, tree_b=None):
        cells = {
            (a, b) if frame_x is frame_a else (b, a): 1.0 for a, b in links
        }
        return _matrix(frame_x.cluster_ids, frame_y.cluster_ids, cells)

    return displacement


class _FixedCache(EvalCache):
    """Evaluator cache returning chosen simultaneity and consensus values:
    each cluster is simultaneous with itself and with *siblings*."""

    def __init__(self, siblings: float) -> None:
        super().__init__()
        self.siblings = siblings

    def simultaneity(self, frame, max_ranks):
        ids = frame.cluster_ids
        values = np.full((len(ids), len(ids)), self.siblings)
        np.fill_diagonal(values, 1.0)
        return CorrelationMatrix(ids, ids, values)

    def consensus(self, frame, max_ranks):
        return np.asarray(frame.cluster_ids)


@pytest.fixture
def enabled_obs():
    """Observability on, with metrics reset before and after the test."""
    obs.reset()
    obs.enable()
    yield
    obs.disable()
    obs.reset()


def _counter(name):
    return sum(
        entry["value"]
        for entry in obs.metrics_snapshot()["counters"]
        if entry["name"] == name
    )


def _attribution(pair):
    return [
        (record.proposed_by, record.edge_counts, record.events)
        for record in pair.provenance.relations
    ]


def _counters(pair):
    counters = pair.provenance.as_dict()
    del counters["relations"]
    return counters


def _rel(left, right):
    return Relation(left=frozenset(left), right=frozenset(right))


class TestWideningAndSplit:
    """Drive SPMD widening and the sequence split on real frames with
    hand-written evaluator evidence, pinning relations and provenance."""

    def test_widening_attaches_both_orphans(
        self, hydroc_traces, monkeypatch, enabled_obs
    ):
        """Both HydroC clusters share one call path, so neither orphan
        is rescued by the call stack; only A1<->B1 is displaced (from
        both directions, one link) and fully simultaneous siblings pull
        A2 and B2 into that relation."""
        frame_a, frame_b, points_a, points_b = _frames(*hydroc_traces)
        assert frame_a.cluster_ids == frame_b.cluster_ids == (1, 2)
        monkeypatch.setattr(
            combine_mod, "displacement_matrix", _displaced(frame_a, {(1, 1)})
        )
        pair = combine_pair(
            frame_a, frame_b, points_a, points_b, cache=_FixedCache(1.0)
        )
        assert pair.relations == (_rel({1, 2}, {1, 2}),)
        assert _attribution(pair) == [
            (
                "displacement",
                (("displacement", 1), ("simultaneity", 2)),
                ("attach:simultaneity",),
            )
        ]
        assert _counters(pair) == {
            "proposed": 2, "pruned": 0, "rescued_callstack": 0,
            "rescued_sequence": 0, "widened": 2, "splits": 0,
        }
        assert pair.sequence_ab is None  # a wide relation but no pivot
        assert _counter("tracking.links_confirmed") == 1
        assert _counter("tracking.links_widened") == 2

    def test_sequence_splits_a_wide_relation(self, monkeypatch, enabled_obs):
        """WRF clusters 1 and 6 share a call path.  A 2x2 displacement
        block joins them into one wide relation, A2<->B2 is the only
        displaced pivot, and the sequence evidence (one cell under the
        threshold) tells 1 from 6, so the relation splits in two and the
        block's cross links leave the pieces' edge counts.  Clusters
        with a unique call path are rescued by the call stack; 7 and 12
        share one and stay orphans."""
        from repro.apps import wrf
        from repro.clustering.frames import FrameSettings

        frame_a, frame_b, points_a, points_b = _frames(
            wrf.build(ranks=32, iterations=4, base_ranks=32).run(seed=21),
            wrf.build(ranks=64, iterations=4, base_ranks=32).run(seed=22),
            FrameSettings(relevance=0.995),
        )
        assert frame_a.cluster_ids == frame_b.cluster_ids == tuple(range(1, 13))
        block = {(1, 1), (1, 6), (6, 1), (6, 6)}
        monkeypatch.setattr(
            combine_mod,
            "displacement_matrix",
            _displaced(frame_a, block | {(2, 2)}),
        )
        seen_pivots = []

        def sequence(consensus_a, consensus_b, ids_a, ids_b, pivots):
            seen_pivots.append(list(pivots.items()))
            return _matrix(ids_a, ids_b, {(1, 1): 0.9, (6, 6): 0.8, (1, 6): 0.2})

        monkeypatch.setattr(combine_mod, "sequence_matrix", sequence)
        pair = combine_pair(
            frame_a, frame_b, points_a, points_b, cache=_FixedCache(0.0)
        )
        rescued = (3, 4, 5, 8, 9, 10, 11)
        # The pivots, in the order that numbers the alignment tokens.
        assert seen_pivots == [[(cid, cid) for cid in (2,) + rescued]]
        assert pair.relations == (
            _rel({1}, {1}),
            _rel({2}, {2}),
            *(_rel({cid}, {cid}) for cid in rescued[:3]),
            _rel({6}, {6}),
            _rel({7}, ()),
            *(_rel({cid}, {cid}) for cid in rescued[3:]),
            _rel({12}, ()),
            _rel((), {7}),
            _rel((), {12}),
        )
        split = ("displacement", (("displacement", 1),), ("split:sequence",))
        seed = ("displacement", (("displacement", 1),), ())
        rescue = ("callstack", (("callstack", 1),), ("rescue:callstack",))
        orphan = ("unmatched", (), ())
        assert _attribution(pair) == [
            split, seed, rescue, rescue, rescue, split, orphan,
            rescue, rescue, rescue, rescue, orphan, orphan, orphan,
        ]
        assert _counters(pair) == {
            "proposed": 10, "pruned": 0, "rescued_callstack": 7,
            "rescued_sequence": 0, "widened": 0, "splits": 1,
        }
        assert pair.sequence_ab.get(1, 6) == 0.0  # under the threshold
        assert _counter("tracking.links_confirmed") == 5
        assert _counter("tracking.relations_split") == 1
