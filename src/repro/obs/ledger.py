"""Durable run ledger: schema-versioned JSONL records of pipeline runs.

Every pipeline entry point (``quick_track``, ``Tracker.run``,
``ParametricStudy.run``, ``track_windows`` and the CLI subcommands)
can append a *start* and an *end* event to a ledger directory so that
long-running deployments keep a durable, queryable record of what ran,
with which configuration, and how it went — exit code, wall time, RSS
peak, quarantine totals, quality summary and alert totals.

Design mirrors :class:`repro.parallel.cache.PipelineCache` hygiene:

* **Atomic appends** — each event is one JSON line written with a
  single ``os.write`` to an ``O_APPEND`` descriptor, so concurrent
  processes sharing a ledger dir interleave whole lines, never bytes.
* **Rotation** — events go to ``events-NNNNNNNN.jsonl`` segments; a
  segment that would exceed ``max_bytes`` is closed and the next index
  opened, keeping individual files tail-able and cheap to scan.
* **Corrupt-line tolerance** — readers skip (and count) lines that are
  truncated or fail to parse instead of crashing; a half-written line
  from a killed process or a full disk cannot poison the ledger, and
  the next append starts a fresh line after it.

The ledger is opt-in: :func:`resolve_ledger` returns ``None`` unless a
directory is given explicitly (``--ledger-dir``) or via the
``REPRO_LEDGER`` environment variable, and the disabled path is a
handful of ``None`` checks.  Nested entry points do not double-record:
only the outermost :func:`run_record` in a process writes events, and
inner code can enrich the eventual *end* event through
:func:`annotate`.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

from repro.obs.core import run_id as process_run_id
from repro.obs.runtime import rss_peak_kib

__all__ = [
    "LEDGER_SCHEMA",
    "LEDGER_ENV",
    "JsonlJournal",
    "RunLedger",
    "RunRecorder",
    "RunSummary",
    "resolve_ledger",
    "run_record",
    "begin_run",
    "annotate",
    "active_recorder",
    "config_digest",
]

#: Schema tag stamped on every ledger event.
LEDGER_SCHEMA = "repro.ledger/1"

#: Environment variable naming the default ledger directory.
LEDGER_ENV = "REPRO_LEDGER"

#: Rotate to a new segment once the current one reaches this size.
DEFAULT_MAX_BYTES = 4 * 1024 * 1024

_SEGMENT_PREFIX = "events-"
_SEGMENT_SUFFIX = ".jsonl"


def _canonical(obj: Any) -> Any:
    """Reduce *obj* to JSON-stable primitives for digesting."""
    if isinstance(obj, dict):
        return {str(k): _canonical(v) for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if isinstance(obj, (str, int, bool)) or obj is None:
        return obj
    if isinstance(obj, float):
        return float(obj)
    if hasattr(obj, "__dataclass_fields__"):
        return _canonical(
            {name: getattr(obj, name) for name in obj.__dataclass_fields__}
        )
    return repr(obj)


def config_digest(*parts: Any) -> str:
    """Short stable digest of configuration objects (dataclasses, dicts).

    Used in *start* events so runs with identical configuration share a
    digest without the ledger storing (possibly large) full configs.
    """
    payload = json.dumps(_canonical(parts), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


class JsonlJournal:
    """Append-only JSONL event store rooted at one directory.

    The reusable core of the run ledger — atomic ``O_APPEND`` line
    writes, size-based segment rotation and corrupt-line-tolerant
    reads — parameterised by the schema tag stamped on every event.
    :class:`RunLedger` specialises it for pipeline run records;
    :class:`repro.serve.journal.JobJournal` reuses it as the job
    server's durable state journal.
    """

    #: Schema tag stamped on every event; subclasses override.
    schema = LEDGER_SCHEMA

    def __init__(
        self,
        root: str | Path,
        *,
        max_bytes: int = DEFAULT_MAX_BYTES,
        schema: str | None = None,
    ) -> None:
        self.root = Path(root)
        self.max_bytes = int(max_bytes)
        self.corrupt_lines = 0
        if schema is not None:
            self.schema = schema
        self.root.mkdir(parents=True, exist_ok=True)

    # -- writing ------------------------------------------------------

    def _segments(self) -> list[Path]:
        """Existing segment files, oldest first."""
        return sorted(
            p
            for p in self.root.glob(f"{_SEGMENT_PREFIX}*{_SEGMENT_SUFFIX}")
            if p.is_file()
        )

    def _segment_index(self, path: Path) -> int:
        stem = path.name[len(_SEGMENT_PREFIX) : -len(_SEGMENT_SUFFIX)]
        try:
            return int(stem)
        except ValueError:
            return 0

    def _segment_path(self, index: int) -> Path:
        return self.root / f"{_SEGMENT_PREFIX}{index:08d}{_SEGMENT_SUFFIX}"

    def _writable_segment(self, payload_size: int) -> Path:
        segments = self._segments()
        if not segments:
            return self._segment_path(1)
        current = segments[-1]
        try:
            size = current.stat().st_size
        except OSError:
            size = 0
        if size and size + payload_size > self.max_bytes:
            return self._segment_path(self._segment_index(current) + 1)
        return current

    def append(self, event: dict[str, Any]) -> bool:
        """Append one event (adds the schema tag); atomic per line.

        Returns whether the whole line reached the file.  An OS-level
        failure is swallowed, so ledger writes never take a run down;
        callers that promise durability check the result.  A line torn
        by an earlier partial write is ended first, so it costs only
        itself and never the line appended after it.
        """
        record = {"schema": self.schema}
        record.update(event)
        line = json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
        data = line.encode("utf-8")
        path = self._writable_segment(len(data))
        try:
            fd = os.open(
                str(path), os.O_RDWR | os.O_CREAT | os.O_APPEND, 0o644
            )
            try:
                end = os.lseek(fd, 0, os.SEEK_END)
                if end and os.pread(fd, 1, end - 1) != b"\n":
                    data = b"\n" + data
                return os.write(fd, data) == len(data)
            finally:
                os.close(fd)
        except OSError:
            return False  # a full disk or revoked dir

    # -- reading ------------------------------------------------------

    def iter_events(self) -> Iterator[dict[str, Any]]:
        """Yield parsed events oldest-first, skipping corrupt lines.

        Corrupt (unparseable or schema-less) lines increment
        :attr:`corrupt_lines` and are otherwise ignored, mirroring the
        pipeline cache's tolerance of damaged entries.
        """
        for segment in self._segments():
            try:
                text = segment.read_text(encoding="utf-8", errors="replace")
            except OSError:
                continue
            for line in text.splitlines():
                line = line.strip()
                if not line:
                    continue
                try:
                    event = json.loads(line)
                except (json.JSONDecodeError, ValueError):
                    self.corrupt_lines += 1
                    continue
                if not isinstance(event, dict) or "schema" not in event:
                    self.corrupt_lines += 1
                    continue
                yield event

    def read_events(self) -> list[dict[str, Any]]:
        """All parseable events, oldest first."""
        return list(self.iter_events())


class RunLedger(JsonlJournal):
    """Pipeline run ledger: the :class:`JsonlJournal` of run records."""

    schema = LEDGER_SCHEMA

    def runs(self) -> list["RunSummary"]:
        """Pair start/end events into per-run summaries, oldest first."""
        summaries: dict[str, RunSummary] = {}
        order: list[str] = []
        for event in self.iter_events():
            rid = str(event.get("run_id", ""))
            entry = str(event.get("entry", ""))
            key = f"{rid}:{entry}"
            kind = event.get("event")
            if kind == "start":
                summary = RunSummary(
                    run_id=rid,
                    entry=entry,
                    started_at=float(event.get("ts", 0.0)),
                    argv=list(event.get("argv") or []),
                    config_digest=str(event.get("config_digest", "")),
                    meta={
                        k: v
                        for k, v in event.items()
                        if k
                        not in {
                            "schema",
                            "event",
                            "run_id",
                            "entry",
                            "ts",
                            "argv",
                            "config_digest",
                        }
                    },
                )
                summaries[key] = summary
                order.append(key)
            elif kind == "end":
                summary = summaries.get(key)
                if summary is None:
                    summary = RunSummary(run_id=rid, entry=entry)
                    summaries[key] = summary
                    order.append(key)
                summary.ended_at = float(event.get("ts", 0.0))
                summary.exit_code = event.get("exit_code")
                summary.wall_s = float(event.get("wall_s", 0.0))
                summary.rss_peak_kib = int(event.get("rss_peak_kib", 0))
                summary.error = event.get("error")
                summary.quality = event.get("quality")
                summary.alerts = event.get("alerts")
                summary.sampler = event.get("sampler")
                summary.end_meta = {
                    k: v
                    for k, v in event.items()
                    if k
                    not in {
                        "schema",
                        "event",
                        "run_id",
                        "entry",
                        "ts",
                        "exit_code",
                        "wall_s",
                        "rss_peak_kib",
                        "error",
                        "quality",
                        "alerts",
                        "sampler",
                    }
                }
        return [summaries[key] for key in order]


@dataclass
class RunSummary:
    """One run reconstructed from its start/end events."""

    run_id: str
    entry: str
    started_at: float = 0.0
    ended_at: float | None = None
    exit_code: int | None = None
    wall_s: float = 0.0
    rss_peak_kib: int = 0
    error: str | None = None
    argv: list[str] = field(default_factory=list)
    config_digest: str = ""
    quality: dict[str, Any] | None = None
    alerts: dict[str, Any] | None = None
    sampler: dict[str, Any] | None = None
    meta: dict[str, Any] = field(default_factory=dict)
    end_meta: dict[str, Any] = field(default_factory=dict)

    @property
    def open(self) -> bool:
        """Whether the run has no end event (crashed or still running)."""
        return self.ended_at is None


def resolve_ledger(
    ledger_dir: str | Path | None = None, *, env: bool = True
) -> RunLedger | None:
    """Build a :class:`RunLedger` from an explicit dir or ``REPRO_LEDGER``.

    Returns ``None`` when neither source names a directory — the ledger
    is strictly opt-in.
    """
    if ledger_dir is None and env:
        ledger_dir = os.environ.get(LEDGER_ENV) or None
    if ledger_dir is None:
        return None
    try:
        return RunLedger(ledger_dir)
    except OSError:
        return None


class RunRecorder:
    """Live handle for one recorded run; writes start now, end on close."""

    def __init__(
        self,
        ledger: RunLedger,
        entry: str,
        meta: dict[str, Any],
    ) -> None:
        self.ledger = ledger
        self.entry = entry
        self.run_id = process_run_id()
        self.extra: dict[str, Any] = {}
        self._wall0 = time.perf_counter()
        self._closed = False
        event: dict[str, Any] = {
            "event": "start",
            "run_id": self.run_id,
            "entry": entry,
            "ts": time.time(),
            "pid": os.getpid(),
        }
        event.update(meta)
        ledger.append(event)

    def annotate(self, **fields: Any) -> None:
        """Merge fields into the eventual *end* event."""
        self.extra.update(fields)

    def close(self, exit_code: int = 0, error: str | None = None) -> None:
        """Write the *end* event (idempotent)."""
        if self._closed:
            return
        self._closed = True
        event: dict[str, Any] = {
            "event": "end",
            "run_id": self.run_id,
            "entry": self.entry,
            "ts": time.time(),
            "exit_code": int(exit_code),
            "wall_s": round(time.perf_counter() - self._wall0, 6),
            "rss_peak_kib": rss_peak_kib(),
        }
        if error:
            event["error"] = error
        event.update(self.extra)
        self.ledger.append(event)


#: Stack of recorders active in this process (outermost first).  Only
#: the outermost entry point records a run; nested entry points see the
#: guard and stay silent, but can still :func:`annotate` the active one.
_ACTIVE: list[RunRecorder] = []


def active_recorder() -> RunRecorder | None:
    """The recorder of the outermost in-flight run, if any."""
    return _ACTIVE[0] if _ACTIVE else None


def annotate(**fields: Any) -> None:
    """Enrich the active run's end event; no-op without an active run."""
    rec = active_recorder()
    if rec is not None:
        rec.annotate(**fields)


def begin_run(
    entry: str,
    *,
    ledger: RunLedger | None = None,
    ledger_dir: str | Path | None = None,
    **meta: Any,
) -> RunRecorder | None:
    """Start recording a run; returns ``None`` when disabled or nested.

    The caller owns the returned recorder and must call
    :func:`end_run` (or ``recorder.close`` + :func:`end_run`) when done.
    """
    if _ACTIVE:
        return None
    if ledger is None:
        ledger = resolve_ledger(ledger_dir)
    if ledger is None:
        return None
    rec = RunRecorder(ledger, entry, meta)
    _ACTIVE.append(rec)
    return rec


def end_run(
    rec: RunRecorder | None, exit_code: int = 0, error: str | None = None
) -> None:
    """Close a recorder returned by :func:`begin_run` (``None``-safe)."""
    if rec is None:
        return
    if rec in _ACTIVE:
        _ACTIVE.remove(rec)
    rec.close(exit_code=exit_code, error=error)


@contextmanager
def run_record(
    entry: str,
    *,
    ledger: RunLedger | None = None,
    ledger_dir: str | Path | None = None,
    **meta: Any,
):
    """Context manager recording one run around a pipeline entry point.

    Yields the :class:`RunRecorder` (annotate it with result summaries
    before the block exits) or ``None`` when the ledger is disabled or
    an outer entry point is already recording.  Exceptions close the
    run with exit code 2 (the CLI's total-failure code) and the error
    type, then propagate.
    """
    rec = begin_run(entry, ledger=ledger, ledger_dir=ledger_dir, **meta)
    try:
        yield rec
    except BaseException as exc:
        end_run(rec, exit_code=2, error=type(exc).__name__)
        raise
    else:
        end_run(rec, exit_code=0)
