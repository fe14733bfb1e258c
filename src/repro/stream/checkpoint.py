"""Checkpoint serde: resume a windowed watch from the pipeline cache.

A streaming run with a cache stores, after every live window, one
:class:`~repro.parallel.cache.PipelineCache` entry for that window,
keyed by the stream key (trace digest, window spec, settings, config,
strict, checkpoint format) plus the window's index.  The entry holds
only what nothing else stores: the JSON form of the window's
:class:`~repro.tracking.combine.PairRelations` (``None`` for the first
frame) and its quarantine record.  A resumed run takes the
cluster labels from the frame-label cache, the window statuses from
its pre-check pass and the alerts from the monitor its replayed pushes
re-feed, so a window's entry costs the same at window 500 as at
window 5.  JSON floats round-trip binary64 exactly, so replayed
relations are bit-identical to the ones originally computed.

Corruption handling follows the cache's contract: an entry that fails
to parse is dropped and reads as a miss, and the run continues live
from that window — never crashed on, never partially trusted.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Any, Mapping

import numpy as np

from repro._version import __version__
from repro.clustering.frames import FrameSettings
from repro.errors import ReproError
from repro.obs.log import get_logger
from repro.parallel.cache import PipelineCache, _canonical, trace_digest
from repro.robust.partial import ItemFailure
from repro.tracking.combine import (
    PairProvenance,
    PairRelations,
    Relation,
    RelationProvenance,
)
from repro.tracking.correlation import CorrelationMatrix
from repro.tracking.tracker import TrackerConfig
from repro.trace.trace import Trace

__all__ = [
    "stream_key",
    "window_key",
    "load_checkpoint",
    "save_checkpoint",
    "pair_relations_to_json",
    "pair_relations_from_json",
]

log = get_logger(__name__)

#: Checkpoint entry schema, part of the stream key.  Format 3 stores one
#: entry per window; entries of any other format are plain misses.
_CHECKPOINT_FORMAT = 3


def stream_key(
    trace: Trace,
    spec_dict: Mapping[str, Any],
    settings: FrameSettings,
    config: TrackerConfig,
    *,
    strict: bool,
    version: str = __version__,
) -> dict[str, Any]:
    """Cache key of one windowed streaming run.

    Every knob that can change an entry participates.  The memory bound
    (``max_live_windows``) does not: a pair is always evaluated while
    both of its frames are live, so a bounded and an unbounded run
    store the same entries and resume from each other's.
    """
    return {
        "kind": "stream",
        "trace": trace_digest(trace),
        "windows": _canonical(dict(spec_dict)),
        "settings": _canonical(asdict(settings)),
        "config": _canonical(asdict(config)),
        "strict": bool(strict),
        "format": _CHECKPOINT_FORMAT,
        "version": version,
    }


def window_key(key: Mapping[str, Any], window: int) -> dict[str, Any]:
    """Cache key of one window's checkpoint entry within stream *key*."""
    return {**key, "window": int(window)}


# ----------------------------------------------------------------------
# PairRelations <-> JSON
# ----------------------------------------------------------------------
def _matrix_to_json(matrix: CorrelationMatrix) -> dict[str, Any]:
    return {
        "row_ids": list(matrix.row_ids),
        "col_ids": list(matrix.col_ids),
        "values": np.asarray(matrix.values, dtype=np.float64).tolist(),
    }


def _matrix_from_json(data: Mapping[str, Any]) -> CorrelationMatrix:
    row_ids = tuple(int(v) for v in data["row_ids"])
    col_ids = tuple(int(v) for v in data["col_ids"])
    values = np.asarray(data["values"], dtype=np.float64).reshape(
        (len(row_ids), len(col_ids))
    )
    return CorrelationMatrix(row_ids=row_ids, col_ids=col_ids, values=values)


def _provenance_to_json(prov: PairProvenance) -> dict[str, Any]:
    return {
        "proposed": prov.proposed,
        "pruned": prov.pruned,
        "rescued_callstack": prov.rescued_callstack,
        "rescued_sequence": prov.rescued_sequence,
        "widened": prov.widened,
        "splits": prov.splits,
        "relations": [
            {
                "proposed_by": record.proposed_by,
                "edge_counts": [[name, n] for name, n in record.edge_counts],
                "events": list(record.events),
                "support": [[name, value] for name, value in record.support],
            }
            for record in prov.relations
        ],
    }


def _provenance_from_json(data: Mapping[str, Any]) -> PairProvenance:
    return PairProvenance(
        relations=tuple(
            RelationProvenance(
                proposed_by=str(record["proposed_by"]),
                edge_counts=tuple(
                    (str(name), int(n)) for name, n in record["edge_counts"]
                ),
                events=tuple(str(event) for event in record["events"]),
                support=tuple(
                    (str(name), float(value)) for name, value in record["support"]
                ),
            )
            for record in data["relations"]
        ),
        proposed=int(data["proposed"]),
        pruned=int(data["pruned"]),
        rescued_callstack=int(data["rescued_callstack"]),
        rescued_sequence=int(data["rescued_sequence"]),
        widened=int(data["widened"]),
        splits=int(data["splits"]),
    )


def pair_relations_to_json(pair: PairRelations) -> dict[str, Any]:
    """JSON form of one pair's relations (exact float round-trip)."""
    return {
        "relations": [
            {"left": sorted(rel.left), "right": sorted(rel.right)}
            for rel in pair.relations
        ],
        "displacement_ab": _matrix_to_json(pair.displacement_ab),
        "displacement_ba": _matrix_to_json(pair.displacement_ba),
        "callstack_ab": _matrix_to_json(pair.callstack_ab),
        "simultaneity_a": _matrix_to_json(pair.simultaneity_a),
        "simultaneity_b": _matrix_to_json(pair.simultaneity_b),
        "sequence_ab": (
            _matrix_to_json(pair.sequence_ab)
            if pair.sequence_ab is not None
            else None
        ),
        "provenance": (
            _provenance_to_json(pair.provenance)
            if pair.provenance is not None
            else None
        ),
    }


def pair_relations_from_json(data: Mapping[str, Any]) -> PairRelations:
    """Rebuild :class:`PairRelations` from its JSON form."""
    return PairRelations(
        relations=tuple(
            Relation(
                left=frozenset(int(v) for v in rel["left"]),
                right=frozenset(int(v) for v in rel["right"]),
            )
            for rel in data["relations"]
        ),
        displacement_ab=_matrix_from_json(data["displacement_ab"]),
        displacement_ba=_matrix_from_json(data["displacement_ba"]),
        callstack_ab=_matrix_from_json(data["callstack_ab"]),
        simultaneity_a=_matrix_from_json(data["simultaneity_a"]),
        simultaneity_b=_matrix_from_json(data["simultaneity_b"]),
        sequence_ab=(
            _matrix_from_json(data["sequence_ab"])
            if data.get("sequence_ab") is not None
            else None
        ),
        provenance=(
            _provenance_from_json(data["provenance"])
            if data.get("provenance") is not None
            else None
        ),
    )


# ----------------------------------------------------------------------
# Checkpoint load/save
# ----------------------------------------------------------------------
def save_checkpoint(
    cache: PipelineCache,
    key: Mapping[str, Any],
    window: int,
    pair: PairRelations | None,
    pair_failure: ItemFailure | None,
) -> None:
    """Store one completed window's pair relations under the stream key."""
    cache.put(
        window_key(key, window),
        {
            "pair": pair_relations_to_json(pair) if pair is not None else None,
            "pair_failure": (
                asdict(pair_failure) if pair_failure is not None else None
            ),
        },
    )


def load_checkpoint(
    cache: PipelineCache,
    key: Mapping[str, Any],
    window: int,
) -> tuple[PairRelations | None, ItemFailure | None] | None:
    """Fetch one window's ``(pair, pair_failure)``, or ``None`` on a miss.

    An entry that does not parse — missing fields, malformed matrices,
    inconsistent shapes — is dropped and reads as a miss.
    """
    entry = window_key(key, window)
    payload = cache.get(entry)
    if payload is None:
        return None
    try:
        pair, failure = payload["pair"], payload["pair_failure"]
        return (
            pair_relations_from_json(pair) if pair is not None else None,
            ItemFailure(**failure) if failure is not None else None,
        )
    except (
        KeyError, TypeError, ValueError, OverflowError, ReproError
    ) as error:
        log.warning("discarding corrupt checkpoint of window #%d: %s",
                    window, error)
        cache.invalidate(entry)
        return None
