"""Queue + journal semantics: admission, ordering, durability, recovery."""

from __future__ import annotations

import errno
import json
import os
import threading

import pytest

from repro.errors import AdmissionError, ServeError
from repro.obs.ledger import RunLedger
from repro.serve import JobJournal, JobQueue, JobServer, JobSpec
from repro.serve.journal import JOB_SCHEMA
from tests.serve.test_api import raw_request

SPEC = JobSpec.from_dict(
    {
        "kind": "track",
        "app": "hydroc",
        "scenarios": [{"block_size": 64}, {"block_size": 128}],
        "seeds": [1, 2],
    }
)


def make_queue(tmp_path, **kwargs):
    journal = JobJournal(tmp_path / "journal")
    return JobQueue(journal, **kwargs), journal


class TestAdmission:
    def test_fifo_claim_order(self, tmp_path):
        queue, _ = make_queue(tmp_path)
        first = queue.submit("a", SPEC)
        second = queue.submit("a", SPEC)
        assert queue.claim_next(timeout=0).job_id == first.job_id
        assert queue.claim_next(timeout=0).job_id == second.job_id
        assert queue.claim_next(timeout=0) is None

    def test_queue_depth_cap(self, tmp_path):
        queue, _ = make_queue(tmp_path, max_queue=2, tenant_cap=10)
        queue.submit("a", SPEC)
        queue.submit("b", SPEC)
        with pytest.raises(AdmissionError) as excinfo:
            queue.submit("c", SPEC)
        assert excinfo.value.reason == "queue_full"
        # Claiming one frees a waiting slot.
        queue.claim_next(timeout=0)
        queue.submit("c", SPEC)

    def test_tenant_cap_counts_running_jobs(self, tmp_path):
        queue, _ = make_queue(tmp_path, max_queue=10, tenant_cap=2)
        queue.submit("a", SPEC)
        queue.submit("a", SPEC)
        with pytest.raises(AdmissionError) as excinfo:
            queue.submit("a", SPEC)
        assert excinfo.value.reason == "tenant_cap"
        # Other tenants are unaffected.
        queue.submit("b", SPEC)
        # Claiming does NOT free the cap (the job is running, still active)...
        claimed = queue.claim_next(timeout=0)
        assert claimed.tenant == "a"
        with pytest.raises(AdmissionError):
            queue.submit("a", SPEC)
        # ...finishing does.
        queue.mark_done(claimed.job_id, {})
        queue.submit("a", SPEC)

    def test_rejected_jobs_never_journaled(self, tmp_path):
        queue, journal = make_queue(tmp_path, max_queue=1)
        queue.submit("a", SPEC)
        with pytest.raises(AdmissionError):
            queue.submit("a", SPEC)
        events = journal.read_events()
        assert len(events) == 1 and events[0]["event"] == "submitted"


class TestLifecycle:
    def test_done_and_failed_are_terminal(self, tmp_path):
        queue, _ = make_queue(tmp_path)
        record = queue.submit("a", SPEC)
        claimed = queue.claim_next(timeout=0)
        assert claimed.state == "running" and claimed.attempts == 1
        queue.mark_done(record.job_id, {"coverage": 99.0})
        assert queue.get(record.job_id).state == "done"
        with pytest.raises(ServeError, match="terminal"):
            queue.mark_failed(record.job_id, "X", "late failure")

    def test_cancel_only_waiting_jobs(self, tmp_path):
        queue, _ = make_queue(tmp_path)
        record = queue.submit("a", SPEC)
        queue.cancel(record.job_id)
        assert queue.get(record.job_id).state == "cancelled"
        # A cancelled job is never claimed.
        assert queue.claim_next(timeout=0) is None
        running = queue.submit("a", SPEC)
        queue.claim_next(timeout=0)
        with pytest.raises(ServeError, match="running"):
            queue.cancel(running.job_id)
        with pytest.raises(ServeError, match="unknown job"):
            queue.cancel("000000000000")

    def test_claim_blocks_until_submit(self, tmp_path):
        queue, _ = make_queue(tmp_path)
        claimed = []
        thread = threading.Thread(
            target=lambda: claimed.append(queue.claim_next(timeout=5.0))
        )
        thread.start()
        record = queue.submit("a", SPEC)
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert claimed[0].job_id == record.job_id

    def test_close_wakes_blocked_claimers(self, tmp_path):
        queue, _ = make_queue(tmp_path)
        claimed = []
        thread = threading.Thread(
            target=lambda: claimed.append(queue.claim_next(timeout=30.0))
        )
        thread.start()
        queue.close()
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert claimed == [None]
        with pytest.raises(ServeError, match="closed"):
            queue.submit("a", SPEC)


class TestDurability:
    def test_events_carry_schema_and_parse(self, tmp_path):
        queue, journal = make_queue(tmp_path)
        record = queue.submit("acme", SPEC)
        queue.claim_next(timeout=0)
        queue.mark_done(record.job_id, {"coverage": 1.0})
        events = journal.read_events()
        assert [e["event"] for e in events] == ["submitted", "started", "done"]
        assert all(e["schema"] == JOB_SCHEMA for e in events)
        assert events[0]["spec"] == SPEC.to_dict()

    def test_recover_requeues_interrupted_jobs_exactly_once(self, tmp_path):
        queue, _ = make_queue(tmp_path)
        waiting = queue.submit("a", SPEC)
        running = queue.submit("a", SPEC)
        done = queue.submit("b", SPEC)
        # Drive: claim 'waiting' first (FIFO), finish nothing; claim and
        # finish 'done' via a second claim after reordering by marking.
        first = queue.claim_next(timeout=0)
        assert first.job_id == waiting.job_id
        queue.mark_done(waiting.job_id, {})
        second = queue.claim_next(timeout=0)  # 'running' now mid-flight
        assert second.job_id == running.job_id
        third = queue.claim_next(timeout=0)
        queue.mark_failed(third.job_id, "Boom", "kaput")
        assert third.job_id == done.job_id

        # "Server restart": fresh queue over the same journal.
        rebuilt = JobQueue(JobJournal(tmp_path / "journal"))
        requeued = rebuilt.recover()
        assert [r.job_id for r in requeued] == [running.job_id]
        assert rebuilt.get(waiting.job_id).state == "done"
        assert rebuilt.get(done.job_id).state == "failed"
        assert rebuilt.get(done.job_id).error_type == "Boom"
        revived = rebuilt.get(running.job_id)
        assert revived.state == "submitted"
        assert revived.attempts == 1  # one real claim happened
        assert revived.spec == SPEC

        # A second restart finds the job still waiting: it re-enters the
        # queue exactly once more — never duplicated, and attempts only
        # count real claims (exactly-once salvage, not at-least-once).
        again = JobQueue(JobJournal(tmp_path / "journal"))
        requeued_again = again.recover()
        assert [r.job_id for r in requeued_again] == [running.job_id]
        claimed = again.claim_next(timeout=0)
        assert claimed.job_id == running.job_id
        assert claimed.attempts == 2
        assert again.claim_next(timeout=0) is None  # no duplicate entry

    def test_recovery_tolerates_corrupt_journal_lines(self, tmp_path):
        queue, journal = make_queue(tmp_path)
        record = queue.submit("a", SPEC)
        segment = next(iter(journal.root.glob("events-*.jsonl")))
        with segment.open("a", encoding="utf-8") as handle:
            handle.write('{"truncated": \n')
            handle.write("garbage line\n")
        rebuilt = JobQueue(JobJournal(tmp_path / "journal"))
        rebuilt.recover()
        assert rebuilt.get(record.job_id).state == "submitted"

    def test_counts_and_depth(self, tmp_path):
        queue, _ = make_queue(tmp_path)
        queue.submit("a", SPEC)
        record = queue.submit("a", SPEC)
        queue.claim_next(timeout=0)
        assert queue.depth() == 1
        counts = queue.counts()
        assert counts["running"] == 1 and counts["submitted"] == 1
        assert json.dumps(counts)  # JSON-safe for /healthz
        assert record.to_dict()["spec"] == SPEC.to_dict()


def _no_space(fd, data):
    raise OSError(errno.ENOSPC, "No space left on device")


@pytest.fixture
def full_disk(monkeypatch):
    """Every journal line write fails as on a full disk."""
    monkeypatch.setattr("repro.obs.ledger.os.write", _no_space)


@pytest.fixture
def torn_first_line(monkeypatch):
    """The first journal line write stops halfway, as on a disk that
    fills up mid-write; later writes go through whole."""
    write = os.write
    torn = []

    def tearing_write(fd, data):
        if not torn and data.startswith(b"{") and data.endswith(b"\n"):
            torn.append(data)
            return write(fd, data[: len(data) // 2])
        return write(fd, data)

    monkeypatch.setattr("repro.obs.ledger.os.write", tearing_write)


class TestJournalWriteFailure:
    """Accepted means durable: a job whose journal write fails is refused."""

    def test_submit_raises_and_admits_nothing(self, tmp_path, full_disk):
        queue, _ = make_queue(tmp_path)
        with pytest.raises(ServeError, match="journal"):
            queue.submit("a", SPEC)
        assert queue.jobs() == []
        assert queue.claim_next(timeout=0) is None

    def test_recover_finds_no_jobs(self, tmp_path, full_disk):
        queue, _ = make_queue(tmp_path)
        with pytest.raises(ServeError):
            queue.submit("a", SPEC)
        rebuilt = JobQueue(JobJournal(tmp_path / "journal"))
        assert rebuilt.recover() == []
        assert rebuilt.jobs() == []

    def test_post_jobs_is_503(self, live_server, tmp_path, monkeypatch):
        server = live_server(JobServer, tmp_path / "srv", workers=1)
        server.runner.pause()
        monkeypatch.setattr("repro.obs.ledger.os.write", _no_space)
        body = json.dumps({"tenant": "acme", "spec": SPEC.to_dict()})
        status, _ = raw_request(f"{server.url}/jobs", "POST", body.encode())
        assert status == 503
        assert server.queue.jobs() == []

    def test_run_ledger_append_stays_best_effort(self, tmp_path, full_disk):
        ledger = RunLedger(tmp_path)
        assert ledger.append({"event": "start"}) is False  # must not raise
        assert ledger.read_events() == []

    def test_torn_line_costs_only_itself(self, tmp_path, torn_first_line):
        ledger = RunLedger(tmp_path)
        assert ledger.append({"event": "start", "run_id": "a"}) is False
        assert ledger.append({"event": "start", "run_id": "b"}) is True
        assert [e["run_id"] for e in ledger.read_events()] == ["b"]
        assert ledger.corrupt_lines == 1

    def test_job_accepted_after_a_torn_line_is_recovered(
        self, tmp_path, torn_first_line
    ):
        queue, _ = make_queue(tmp_path)
        with pytest.raises(ServeError, match="journal"):
            queue.submit("a", SPEC)
        accepted = queue.submit("b", SPEC)
        rebuilt = JobQueue(JobJournal(tmp_path / "journal"))
        assert [r.job_id for r in rebuilt.recover()] == [accepted.job_id]
