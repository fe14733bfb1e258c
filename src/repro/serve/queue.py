"""Journal-backed job queue with admission control.

The queue is the server's in-memory view of job state; every mutation
is journaled *before* it becomes visible, so the on-disk journal is
always at least as new as what clients can observe and a crash between
journal append and memory update only loses work the client was never
told about.

Admission control is enforced at submit time:

* **Queue depth** — at most ``max_queue`` jobs may be waiting
  (``submitted``); beyond that submissions fail with
  :class:`~repro.errors.AdmissionError` (reason ``"queue_full"``).
* **Per-tenant cap** — at most ``tenant_cap`` jobs per tenant may be
  active (waiting or running) at once; beyond that the tenant gets
  reason ``"tenant_cap"``.

Both map to HTTP 429 at the API layer.  Rejected jobs are never
journaled — admission is the contract that accepted means durable.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from repro.errors import AdmissionError, ServeError
from repro import obs
from repro.serve.journal import JobJournal, TERMINAL_STATES
from repro.serve.spec import JobSpec

__all__ = ["JobQueue", "JobRecord", "new_job_id"]


def new_job_id() -> str:
    """Random 12-hex job id (``os.urandom``: unique, not reproducible).

    Job ids are identities, not simulation inputs, so they are exempt
    from the determinism audit the same way ledger run ids are.
    """
    return os.urandom(6).hex()


@dataclass
class JobRecord:
    """One job as the queue tracks it."""

    job_id: str
    tenant: str
    spec: JobSpec
    state: str = "submitted"
    seq: int = 0
    attempts: int = 0
    submitted_at: float = 0.0
    started_at: float | None = None
    finished_at: float | None = None
    error_type: str = ""
    error: str = ""
    summary: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        """JSON status payload served by ``GET /jobs/{id}``."""
        return {
            "job_id": self.job_id,
            "tenant": self.tenant,
            "state": self.state,
            "attempts": self.attempts,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "error_type": self.error_type,
            "error": self.error,
            "summary": dict(self.summary),
            "spec": self.spec.to_dict(),
        }


class JobQueue:
    """Thread-safe FIFO of jobs, journaled for durability.

    ``max_queue`` bounds *waiting* jobs; ``tenant_cap`` bounds each
    tenant's *active* (waiting + running) jobs.  ``claim_next`` blocks
    workers until a job is available or the queue is closed.
    """

    def __init__(
        self,
        journal: JobJournal,
        *,
        max_queue: int = 32,
        tenant_cap: int = 4,
    ) -> None:
        if max_queue < 1:
            raise ServeError(f"max_queue must be >= 1, got {max_queue}")
        if tenant_cap < 1:
            raise ServeError(f"tenant_cap must be >= 1, got {tenant_cap}")
        self.journal = journal
        self.max_queue = int(max_queue)
        self.tenant_cap = int(tenant_cap)
        self._lock = threading.Lock()
        self._available = threading.Condition(self._lock)
        self._jobs: dict[str, JobRecord] = {}
        self._seq = 0
        self._closed = False

    # -- introspection -------------------------------------------------

    def get(self, job_id: str) -> JobRecord | None:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self, tenant: str | None = None) -> list[JobRecord]:
        """Jobs in submission order, optionally for one tenant."""
        with self._lock:
            records = sorted(self._jobs.values(), key=lambda r: r.seq)
        if tenant is not None:
            records = [r for r in records if r.tenant == tenant]
        return records

    def depth(self) -> int:
        """Number of jobs waiting to be claimed."""
        with self._lock:
            return sum(1 for r in self._jobs.values() if r.state == "submitted")

    def counts(self) -> dict[str, int]:
        """Jobs per state (all five states, zero-filled)."""
        out = {state: 0 for state in ("submitted", "running", "done", "failed", "cancelled")}
        with self._lock:
            for record in self._jobs.values():
                out[record.state] = out.get(record.state, 0) + 1
        return out

    def _tenant_active(self, tenant: str) -> int:
        return sum(
            1
            for r in self._jobs.values()
            if r.tenant == tenant and r.state in ("submitted", "running")
        )

    # -- lifecycle -----------------------------------------------------

    def submit(self, tenant: str, spec: JobSpec) -> JobRecord:
        """Admit a job or raise :class:`AdmissionError`; journaled.

        Raises :class:`ServeError` when the ``submitted`` event cannot
        be written: a job is accepted only once it is durable.
        """
        import time

        with self._lock:
            if self._closed:
                raise ServeError("queue is closed")
            waiting = sum(1 for r in self._jobs.values() if r.state == "submitted")
            if waiting >= self.max_queue:
                obs.count("serve.rejected_total", reason="queue_full")
                raise AdmissionError(
                    "queue_full",
                    f"queue depth {waiting} at capacity ({self.max_queue}); retry later",
                )
            if self._tenant_active(tenant) >= self.tenant_cap:
                obs.count("serve.rejected_total", reason="tenant_cap")
                raise AdmissionError(
                    "tenant_cap",
                    f"tenant {tenant!r} already has {self.tenant_cap} active job(s)",
                )
            record = JobRecord(
                job_id=new_job_id(),
                tenant=tenant,
                spec=spec,
                seq=self._seq + 1,
                submitted_at=time.time(),
            )
            if not self.journal.record(
                "submitted",
                record.job_id,
                tenant=tenant,
                spec=spec.to_dict(),
                seq=record.seq,
            ):
                raise ServeError(
                    "job journal write failed; the job was not accepted"
                )
            self._seq = record.seq
            self._jobs[record.job_id] = record
            obs.count("serve.submitted_total", tenant=tenant)
            self._available.notify()
            return record

    def claim_next(
        self,
        timeout: float | None = None,
        *,
        gate: "Callable[[], bool] | None" = None,
    ) -> JobRecord | None:
        """Claim the oldest waiting job; ``None`` on timeout or close.

        The claimed job transitions to ``running`` (journaled with its
        attempt number) before this returns, so a crash after the claim
        leaves a ``started`` event the recovery path will re-queue.

        *gate* is re-checked under the queue lock every wake-up; while
        it returns false nothing is claimed — this is how the runner's
        ``pause()`` wins races against concurrent submissions (a
        blocked claimer woken by a submit sees the closed gate before
        it can take the job).  Call :meth:`kick` after changing gate
        state so blocked claimers re-evaluate promptly.
        """
        import time

        with self._lock:
            while True:
                if self._closed:
                    return None
                waiting = [r for r in self._jobs.values() if r.state == "submitted"]
                if gate is not None and not gate():
                    self._available.wait(timeout)
                    return None
                if waiting:
                    record = min(waiting, key=lambda r: r.seq)
                    record.state = "running"
                    record.attempts += 1
                    record.started_at = time.time()
                    self.journal.record(
                        "started",
                        record.job_id,
                        tenant=record.tenant,
                        attempt=record.attempts,
                    )
                    return record
                if not self._available.wait(timeout):
                    return None

    def _finish(self, job_id: str, state: str, **updates: Any) -> JobRecord:
        import time

        with self._lock:
            record = self._jobs.get(job_id)
            if record is None:
                raise ServeError(f"unknown job {job_id!r}")
            if record.state in TERMINAL_STATES:
                raise ServeError(
                    f"job {job_id} already terminal ({record.state})"
                )
            record.state = state
            record.finished_at = time.time()
            for key, value in updates.items():
                setattr(record, key, value)
            extra = dict(updates)
            if "summary" in extra:
                extra["summary"] = dict(extra["summary"])
            self.journal.record(state, job_id, tenant=record.tenant, **extra)
            obs.count("serve.finished_total", state=state)
            # A slot freed up: wake a waiting submitter-side check (none
            # block today, but notify keeps the invariant obvious).
            self._available.notify()
            return record

    def mark_done(self, job_id: str, summary: dict[str, Any]) -> JobRecord:
        return self._finish(job_id, "done", summary=summary)

    def mark_failed(self, job_id: str, error_type: str, error: str) -> JobRecord:
        return self._finish(job_id, "failed", error_type=error_type, error=error)

    def cancel(self, job_id: str) -> JobRecord:
        """Cancel a *waiting* job; running/terminal jobs raise."""
        import time

        with self._lock:
            record = self._jobs.get(job_id)
            if record is None:
                raise ServeError(f"unknown job {job_id!r}")
            if record.state != "submitted":
                raise ServeError(
                    f"job {job_id} is {record.state}; only waiting jobs cancel"
                )
            record.state = "cancelled"
            record.finished_at = time.time()
            self.journal.record("cancelled", job_id, tenant=record.tenant)
            obs.count("serve.finished_total", state="cancelled")
            return record

    def kick(self) -> None:
        """Wake every blocked ``claim_next`` to re-check its gate."""
        with self._lock:
            self._available.notify_all()

    def close(self) -> None:
        """Stop handing out jobs; wakes all blocked ``claim_next``."""
        with self._lock:
            self._closed = True
            self._available.notify_all()

    # -- recovery ------------------------------------------------------

    def recover(self) -> list[JobRecord]:
        """Rebuild state from the journal; re-queue interrupted jobs.

        Jobs found ``submitted`` or ``running`` (the server died before
        finishing them) go back to the waiting state with a single
        ``requeued`` journal event each — exactly once per recovery, so
        repeated restarts never multiply attempts beyond actual claims.
        Returns the re-queued records.
        """
        from repro.serve.spec import JobSpec

        requeued: list[JobRecord] = []
        replayed = self.journal.replay()
        with self._lock:
            for job_id, raw in replayed.items():
                try:
                    spec = JobSpec.from_dict(raw.get("spec", {}))
                except Exception:
                    # A journal written by a newer server may carry
                    # specs this build cannot parse; skip rather than
                    # refuse to start.
                    continue
                record = JobRecord(
                    job_id=job_id,
                    tenant=str(raw.get("tenant", "")),
                    spec=spec,
                    state=str(raw.get("state", "submitted")),
                    seq=int(raw.get("seq", 0)),
                    attempts=int(raw.get("attempts", 0)),
                    submitted_at=float(raw.get("submitted_at", 0.0)),
                    started_at=raw.get("started_at"),
                    finished_at=raw.get("finished_at"),
                    error_type=str(raw.get("error_type", "")),
                    error=str(raw.get("error", "")),
                    summary=dict(raw.get("summary", {})),
                )
                self._seq = max(self._seq, record.seq)
                if record.state in ("submitted", "running"):
                    record.state = "submitted"
                    record.started_at = None
                    self.journal.record(
                        "requeued",
                        job_id,
                        tenant=record.tenant,
                        attempts=record.attempts,
                    )
                    obs.count("serve.requeued_total")
                    requeued.append(record)
                self._jobs[job_id] = record
            if requeued:
                self._available.notify_all()
        return requeued

    def __iter__(self) -> Iterator[JobRecord]:
        return iter(self.jobs())
