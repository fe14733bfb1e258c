"""Durable job journal: the server's source of truth across restarts.

Every job state transition is one appended JSONL event (schema
``repro.job/1``) in a :class:`~repro.obs.ledger.JsonlJournal`, so the
journal inherits the ledger's guarantees — atomic ``O_APPEND`` line
writes, segment rotation, corrupt-line tolerance.  A restarted server
replays the journal to rebuild the queue: terminal jobs stay terminal,
non-terminal jobs (``submitted`` or ``started``) are re-queued exactly
once with a ``requeued`` event recording the recovery.

Event vocabulary (the ``event`` field):

``submitted``
    Job admitted; carries tenant, job_id, the full canonical spec, and
    the submission sequence number used for FIFO ordering.
``started``
    A worker claimed the job (carries attempt number).
``done`` / ``failed`` / ``cancelled``
    Terminal transitions; ``failed`` carries ``error_type`` and
    ``error`` so post-mortems never need the worker's stderr.
``requeued``
    Recovery transition: a non-terminal job found in the journal at
    startup was put back on the queue (carries the new attempt count).
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Any

from repro.obs.ledger import JsonlJournal

__all__ = ["JobJournal", "JOB_SCHEMA", "TERMINAL_STATES", "JOB_STATES"]

#: Schema tag on every job journal event.
JOB_SCHEMA = "repro.job/1"

#: Every state a job can be in.
JOB_STATES = ("submitted", "running", "done", "failed", "cancelled")

#: States from which a job never transitions again.
TERMINAL_STATES = frozenset({"done", "failed", "cancelled"})


class JobJournal(JsonlJournal):
    """Append-only record of job lifecycle events."""

    schema = JOB_SCHEMA

    def __init__(self, root: str | Path, **kwargs: Any) -> None:
        super().__init__(root, **kwargs)

    def record(self, event: str, job_id: str, **extra: Any) -> bool:
        """Append one lifecycle event for *job_id*; whether it was written."""
        payload: dict[str, Any] = {
            "event": event,
            "job_id": job_id,
            "ts": time.time(),
        }
        payload.update(extra)
        return self.append(payload)

    def replay(self) -> dict[str, dict[str, Any]]:
        """Fold the journal into the latest known record per job.

        Returns ``{job_id: record}`` where each record has at least
        ``state``, ``tenant``, ``spec``, ``seq`` and ``attempts`` (the
        number of ``started`` events seen plus requeue credit).  Events
        for unknown event types are ignored, so newer servers can add
        vocabulary without breaking older readers.
        """
        jobs: dict[str, dict[str, Any]] = {}
        for event in self.iter_events():
            kind = event.get("event")
            job_id = event.get("job_id")
            if not isinstance(job_id, str) or not job_id:
                continue
            if kind == "submitted":
                jobs[job_id] = {
                    "job_id": job_id,
                    "state": "submitted",
                    "tenant": event.get("tenant", ""),
                    "spec": event.get("spec", {}),
                    "seq": int(event.get("seq", 0)),
                    "attempts": 0,
                    "submitted_at": float(event.get("ts", 0.0)),
                }
                continue
            record = jobs.get(job_id)
            if record is None or record["state"] in TERMINAL_STATES:
                # Transitions for unknown or already-terminal jobs are
                # replay noise (e.g. duplicate lines after a crash).
                continue
            if kind == "started":
                record["state"] = "running"
                record["attempts"] = int(event.get("attempt", record["attempts"] + 1))
                record["started_at"] = float(event.get("ts", 0.0))
            elif kind == "requeued":
                record["state"] = "submitted"
                record["attempts"] = int(event.get("attempts", record["attempts"]))
            elif kind == "done":
                record["state"] = "done"
                record["finished_at"] = float(event.get("ts", 0.0))
                record["summary"] = event.get("summary", {})
            elif kind == "failed":
                record["state"] = "failed"
                record["finished_at"] = float(event.get("ts", 0.0))
                record["error_type"] = event.get("error_type", "")
                record["error"] = event.get("error", "")
            elif kind == "cancelled":
                record["state"] = "cancelled"
                record["finished_at"] = float(event.get("ts", 0.0))
        return jobs
