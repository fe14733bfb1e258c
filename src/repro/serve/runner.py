"""Worker-side job execution: spec in, artefacts + summary out.

:func:`run_job` is the function the server hands to
:func:`repro.parallel.run_isolated` — it executes inside a dedicated
child process, so a crash, hang or SIGKILL takes down only that job.
It rebuilds the :class:`~repro.serve.spec.JobSpec`, simulates the
requested traces, runs the batch or streaming pipeline against the
tenant's namespaced cache, and writes two artefacts into the tenant's
results tree:

``result.json``
    The canonical result payload (schema ``repro.serve.result/1``):
    per-frame region labels, region memberships, the full pairwise
    relation matrices (exact float round-trip via the checkpoint
    serde) and the quality report.  Serialised with sorted keys and
    minimal separators, the payload is *byte-stable*: the same spec
    always yields the same bytes, which is what the differential suite
    compares against direct :func:`repro.quick_track` /
    :func:`repro.stream.track_windows` runs.  Written atomically.
``report.html``
    The self-contained HTML run report (``repro.obs.report``), written
    in place by ``Path.write_text``; the server serves it only once the
    job is ``done``, so an API client never sees it half written.

What a job runs is imported at module level here and in
:mod:`repro.obs.report` (the rest comes with ``import repro``), so the
server holds it before it forks a worker, and a worker pays only for
its own job.

The returned summary dict becomes the job's ``summary`` field in status
payloads.  The worker also exports ``REPRO_LEDGER`` pointing at the
tenant's ledger dir before touching the pipeline, so the existing
``run_record`` instrumentation inside ``quick_track``/``track_windows``
lands in per-tenant ledgers with no pipeline changes.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Mapping

from repro._util import atomic_write
from repro.api import quick_track
from repro.apps.registry import build_app
from repro.obs.ledger import LEDGER_ENV
from repro.obs.quality import quality_report
from repro.obs.report import write_report
from repro.parallel.cache import PipelineCache
from repro.robust.partial import PartialResult
from repro.serve.spec import JobSpec
from repro.serve.tenancy import TenantPaths
from repro.stream.checkpoint import pair_relations_to_json
from repro.stream.pipeline import track_windows
from repro.tracking.relabel import relabel_frames

__all__ = [
    "RESULT_SCHEMA",
    "build_traces",
    "execute_spec",
    "result_payload",
    "canonical_json",
    "run_job",
]

#: Schema tag of the canonical result payload.
RESULT_SCHEMA = "repro.serve.result/1"


def build_traces(spec: JobSpec) -> list:
    """Simulate one trace per (scenario, seed) pair, in order."""
    return [
        build_app(spec.app, **scenario).run(seed=seed)
        for scenario, seed in zip(spec.scenarios, spec.seeds)
    ]


def execute_spec(spec: JobSpec, cache=None):
    """Run the pipeline a spec describes; returns ``(result, failures)``.

    ``result`` is always a plain
    :class:`~repro.tracking.tracker.TrackingResult`; a non-strict run's
    quarantine records come back in ``failures``.
    """
    traces = build_traces(spec)
    settings = spec.frame_settings()
    config = spec.tracker_config()
    if spec.kind == "watch":
        outcome = track_windows(
            traces[0],
            n_windows=spec.windows,
            window_ns=spec.window_ns,
            settings=settings,
            config=config,
            strict=spec.strict,
            cache=cache,
        )
    else:
        outcome = quick_track(
            traces,
            settings=settings,
            config=config,
            jobs=spec.jobs or None,
            cache=cache,
            strict=spec.strict,
        )
    partial = PartialResult.of(outcome)
    return partial.value, partial.failures


def result_payload(spec: JobSpec, result, failures=()) -> dict[str, Any]:
    """Canonical JSON payload of a tracking result.

    Every float goes through Python's ``repr`` when serialised (the
    ``json`` module's float emitter), which round-trips binary64
    exactly — so two bit-identical results serialise to identical
    bytes, and the differential suite can ``==`` whole payloads.
    """
    quality = quality_report(result, failures=failures).to_dict()
    # Byte-stability must not depend on ambient observability state:
    # repaired_bursts reads the obs registry and is None with obs off
    # but 0 with obs on (no repairs either way).  Coalesce so direct
    # runs and server workers serialise identically.
    if quality["robust"]["repaired_bursts"] is None:
        quality["robust"]["repaired_bursts"] = 0
    return {
        "schema": RESULT_SCHEMA,
        "spec_digest": spec.digest(),
        "coverage": float(result.coverage),
        "n_frames": len(result.frames),
        "frame_labels": [frame.label for frame in result.frames],
        "regions": [
            {
                "region_id": region.region_id,
                "total_duration": float(region.total_duration),
                "members": [sorted(m) for m in region.members],
            }
            for region in result.regions
        ],
        "relabeled": [
            {
                "mapping": {str(k): v for k, v in sorted(rf.mapping.items())},
                "labels": rf.labels.tolist(),
            }
            for rf in relabel_frames(result)
        ],
        "pair_relations": [
            pair_relations_to_json(pair) for pair in result.pair_relations
        ],
        "quality": quality,
    }


def canonical_json(payload: Mapping[str, Any]) -> str:
    """Byte-stable serialisation: sorted keys, no whitespace."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def run_job(task: Mapping[str, Any]) -> dict[str, Any]:
    """Execute one job inside its isolated worker process.

    *task* carries ``root`` (server root), ``tenant``, ``job_id`` and
    the canonical ``spec`` dict.  Returns the summary dict the queue
    stores on the job record.
    """
    paths = TenantPaths(task["root"], str(task["tenant"])).ensure()
    job_id = str(task["job_id"])
    # Pidfile first: fault-injection tests (and operators) can target
    # the worker of a specific job while it runs.
    paths.pid_path(job_id).write_text(str(os.getpid()), encoding="utf-8")
    # Route the pipeline's own run_record events to this tenant's ledger.
    os.environ[LEDGER_ENV] = str(paths.ledger_dir)
    try:
        spec = JobSpec.from_dict(task["spec"])
        if spec.hold_s > 0:
            time.sleep(spec.hold_s)
        cache = PipelineCache(paths.cache_dir)
        result, failures = execute_spec(spec, cache=cache)
        payload = result_payload(spec, result, failures)
        result_path = paths.result_path(job_id)
        atomic_write(result_path, canonical_json(payload))
        report_path = paths.report_path(job_id)
        report_path.parent.mkdir(parents=True, exist_ok=True)
        write_report(
            report_path,
            result,
            failures=failures,
            title=f"job {job_id} · tenant {paths.tenant} · {spec.app}",
        )
        quality = payload["quality"]
        return {
            "coverage": payload["coverage"],
            "n_frames": payload["n_frames"],
            "n_regions": len(payload["regions"]),
            "n_tracked": int(quality.get("n_tracked", 0)),
            "n_failures": len(failures),
            "spec_digest": payload["spec_digest"],
            "result_path": str(result_path),
            "report_path": str(report_path),
        }
    finally:
        try:
            paths.pid_path(job_id).unlink()
        except OSError:
            pass
