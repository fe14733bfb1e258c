"""Checkpoint serde: resume a windowed watch from the pipeline cache.

A streaming run over N windows stores, after every completed window, a
checkpoint entry in the :class:`~repro.parallel.cache.PipelineCache`
keyed by ``(trace digest, window spec, settings, config, strict)``.  The
payload holds per-window outcomes (labels for built frames, quarantine
records, empty markers) plus the full JSON form of every evaluated
:class:`~repro.tracking.combine.PairRelations`, so a restarted watch
replays completed windows verbatim — no DBSCAN, no evaluators — and
continues live from the first uncompleted one.  JSON floats round-trip
binary64 exactly, so replayed relations are bit-identical to the ones
originally computed.

Corruption handling follows the cache's contract: a checkpoint that
fails to parse or validate in any way is dropped wholesale and the run
starts cold — never crashed on, never partially trusted.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Mapping

import numpy as np

from repro._version import __version__
from repro.clustering.frames import FrameSettings
from repro.errors import ReproError
from repro.obs.alerts import AlertRecord
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
    "WindowRecord",
    "stream_key",
    "load_checkpoint",
    "save_checkpoint",
    "pair_relations_to_json",
    "pair_relations_from_json",
]

log = get_logger(__name__)

#: Checkpoint payload schema written and read by this version.  Format 2
#: added the per-window ``alerts`` list.  A checkpoint in any other
#: format is discarded and the run starts cold.
_CHECKPOINT_FORMAT = 2


@dataclass(frozen=True)
class WindowRecord:
    """Outcome of one processed window, as stored in a checkpoint.

    ``status`` is ``"ok"`` (with the frame's per-point *labels*),
    ``"empty"`` (no bursts) or ``"quarantined"`` (with the *failure*
    record).  ``pair`` / ``pair_failure`` carry the relations evaluated
    when this window's frame was pushed (``None`` for the first frame
    and for non-ok windows).  ``alerts`` holds the monitor's alerts for
    this window when the run had alerting enabled (empty otherwise).
    """

    window: int
    status: str
    labels: np.ndarray | None = None
    failure: ItemFailure | None = None
    pair: PairRelations | None = None
    pair_failure: ItemFailure | None = None
    alerts: tuple[AlertRecord, ...] = ()


def stream_key(
    trace: Trace,
    spec_dict: Mapping[str, Any],
    settings: FrameSettings,
    config: TrackerConfig,
    *,
    strict: bool,
    max_live: int | None = None,
    version: str = __version__,
) -> dict[str, Any]:
    """Cache key of one windowed streaming run.

    Every knob that shapes the run participates — including the
    *max_live* memory bound, so a resumed run with a different
    retention configuration starts cold instead of silently adopting a
    checkpoint written under different settings.
    """
    return {
        "kind": "stream",
        "trace": trace_digest(trace),
        "windows": _canonical(dict(spec_dict)),
        "settings": _canonical(asdict(settings)),
        "config": _canonical(asdict(config)),
        "strict": bool(strict),
        "max_live": None if max_live is None else int(max_live),
        "version": version,
    }


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


def _failure_to_json(failure: ItemFailure | None) -> dict[str, str] | None:
    if failure is None:
        return None
    return {
        "item": failure.item,
        "stage": failure.stage,
        "error": failure.error,
        "message": failure.message,
    }


def _failure_from_json(data: Mapping[str, str] | None) -> ItemFailure | None:
    if data is None:
        return None
    return ItemFailure(
        item=str(data["item"]),
        stage=str(data["stage"]),
        error=str(data["error"]),
        message=str(data["message"]),
    )


# ----------------------------------------------------------------------
# Checkpoint load/save
# ----------------------------------------------------------------------
def save_checkpoint(
    cache: PipelineCache,
    key: Mapping[str, Any],
    records: list[WindowRecord],
) -> None:
    """Store the windows completed so far under the stream key."""
    payload = {
        "format": _CHECKPOINT_FORMAT,
        "windows": [
            {
                "window": record.window,
                "status": record.status,
                "labels": (
                    np.asarray(record.labels).tolist()
                    if record.labels is not None
                    else None
                ),
                "failure": _failure_to_json(record.failure),
                "pair": (
                    pair_relations_to_json(record.pair)
                    if record.pair is not None
                    else None
                ),
                "pair_failure": _failure_to_json(record.pair_failure),
                "alerts": [alert.to_dict() for alert in record.alerts],
            }
            for record in records
        ],
    }
    cache.put(key, payload)


def load_checkpoint(
    cache: PipelineCache,
    key: Mapping[str, Any],
) -> list[WindowRecord] | None:
    """Fetch and materialise a checkpoint, or ``None``.

    Any parse or validation problem — wrong schema, malformed matrices,
    inconsistent shapes — drops the entry and returns ``None`` so the
    run simply starts cold.
    """
    payload = cache.get(key)
    if payload is None:
        return None
    try:
        if payload.get("format") != _CHECKPOINT_FORMAT:
            raise ValueError(f"checkpoint format {payload.get('format')!r}")
        records: list[WindowRecord] = []
        for entry in payload["windows"]:
            status = str(entry["status"])
            if status not in ("ok", "empty", "quarantined"):
                raise ValueError(f"unknown window status {status!r}")
            labels = entry.get("labels")
            if status == "ok" and labels is None:
                raise ValueError("ok window without labels")
            records.append(
                WindowRecord(
                    window=int(entry["window"]),
                    status=status,
                    labels=(
                        np.asarray(labels, dtype=np.int32)
                        if labels is not None
                        else None
                    ),
                    failure=_failure_from_json(entry.get("failure")),
                    pair=(
                        pair_relations_from_json(entry["pair"])
                        if entry.get("pair") is not None
                        else None
                    ),
                    pair_failure=_failure_from_json(entry.get("pair_failure")),
                    alerts=tuple(
                        AlertRecord.from_dict(alert)
                        for alert in entry["alerts"]
                    ),
                )
            )
        return records
    except (KeyError, TypeError, ValueError, ReproError) as error:
        log.warning("discarding corrupt stream checkpoint: %s", error)
        cache.invalidate(key)
        return None
