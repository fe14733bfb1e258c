"""The three workloads: inputs made from a seed, one op, and its check.

Each workload runs a fixed count of same-shaped ops from one client
process, one at a time (a closed loop with one client):

``track``
    One op is what ``repro-track track A.json B.json`` runs: load both
    trace files, ``quick_track`` with ``jobs=1`` and no cache, then the
    IPC trends and diagnosis the command prints.  Inputs are a pool of
    WRF rank-doubling studies (32 -> 64 ranks, ``base_ranks=32``)
    written as JSON trace files.  Check: 12 tracked regions at 100 %.
``watch``
    ``track_windows`` with a fresh ``PipelineCache`` per stream and
    ``WatchTelemetry(alerts=AlertConfig())``, as ``repro-track watch
    --cache-dir D --alerts`` runs it.  One op is the time between two
    consecutive ``on_update`` callbacks.  Inputs are long WRF runs of
    32 ranks, one iteration per window.  Check, after the timed phase:
    each stream's regions and coverage equal ``Tracker(frames).run()``
    over its window frames; a mismatch fails every update of the stream.
``serve``
    ``repro-track serve --port 0 --workers 1`` in its own process.  One
    op is one job: submit, poll ``GET /jobs/{id}`` every 20 ms, fetch
    ``result.json``.  Inputs are HydroC block-size sweeps (Table 2: 12
    images, 2 regions at 100 %), two specs for each of two tenants, so
    after one warm-up job per spec every tenant's frame-label cache is
    warm.  Check: the job is ``done`` with 2 tracked regions at 100 %,
    and the served bytes equal
    ``canonical_json(result_payload(spec, *execute_spec(spec)))``
    computed directly.

Inputs are written by the benchmark's parent process before any timing
(:func:`generate`); the program sees only these files.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import re
import resource
import signal
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Any

__all__ = ["WORKLOADS", "OpRecord", "generate", "make_workload", "ops_for"]

WORKLOADS = ("track", "watch", "serve")

#: Nominal ops per second.  A run executes about ``seconds * RATE`` ops
#: (at least ``MIN_OPS``) -- a count fixed by the arguments, never by how
#: fast the program is, so every run and every commit sees the same
#: history length.
RATE = 5.0
#: Enough ops that at least 10 lie beyond the 90th percentile.
MIN_OPS = 100
#: Sessions (fresh processes) per run.  ``setup_s`` is the median of
#: their set-ups, and the timed ops are split evenly over them, which
#: costs no more than running them all in one session.
SESSIONS = 3

TRACK_POOL = 4
#: A quarter of the paper's 128 -> 256 ranks and bursts (6.9k): a run of
#: 100 ops must fit the time budget on a slow host.  Still 12 regions at 100 %.
TRACK_RANKS = (32, 64)
TRACK_REGIONS = 12

WATCH_POOL = 3
WATCH_RANKS = 32
#: One iteration per window: every window holds the same bursts.  With
#: 35 windows the last fifth of a stream's updates cost three times the
#: first fifth in CPU time.
WATCH_WINDOWS = 35
WATCH_WARMUP_WINDOWS = 11

SERVE_TENANTS = ("tenant-a", "tenant-b")
SERVE_SPECS_PER_TENANT = 2
SERVE_REGIONS = 2
#: Client poll interval; well below job latency, the same on every commit.
#: A poll costs the client and the server about 1.7 ms of CPU time, and
#: a job sees as many polls as its wall time allows, so polls tie the
#: job's CPU time to host load.  At 20 ms they are under a tenth of it.
POLL_S = 0.020
_TERMINAL = ("done", "failed", "cancelled")
_URL = re.compile(r" on (http://\S+)")


def ops_for(workload: str, seconds: int) -> int:
    """Timed ops of one session; ``watch`` runs whole streams."""
    ops = -(-max(MIN_OPS, round(seconds * RATE)) // SESSIONS)
    if workload == "watch":
        per_stream = WATCH_WINDOWS - 1
        ops = -(-ops // per_stream) * per_stream
    return ops


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _seeds(workload: str, seed: int, n: int) -> list[int]:
    rng = random.Random(f"perfbench:{workload}:{seed}")
    return [rng.randrange(2**31) for _ in range(n)]


# -- inputs (parent process, before any timing) ---------------------------


def generate(workload: str, seed: int, out: Path) -> dict[str, str]:
    """Write the inputs of one run under *out*; return file -> sha256.

    The same *seed* always gives byte-identical files.  ``serve`` also
    writes each spec's expected result bytes (``*.expected``), computed
    by running the spec directly; those are references, not inputs, and
    are left out of the digests.
    """
    out.mkdir(parents=True, exist_ok=True)
    written = {"track": _generate_track, "watch": _generate_watch,
               "serve": _generate_serve}[workload](seed, out)
    return {path.name: _digest(path) for path in written}


def _generate_track(seed: int, out: Path) -> list[Path]:
    from repro.apps import wrf
    from repro.trace.io import save_trace

    seeds = _seeds("track", seed, TRACK_POOL * len(TRACK_RANKS))
    written = []
    for study in range(TRACK_POOL):
        for index, ranks in enumerate(TRACK_RANKS):
            trace = wrf.build(ranks=ranks, base_ranks=TRACK_RANKS[0]).run(
                seed=seeds[study * len(TRACK_RANKS) + index]
            )
            written.append(save_trace(trace, out / f"track-{study}-{ranks}.json"))
    return written


def _generate_watch(seed: int, out: Path) -> list[Path]:
    from repro.apps import wrf
    from repro.trace.io import save_trace

    seeds = _seeds("watch", seed, WATCH_POOL + 1)
    written = []
    for index in range(WATCH_POOL):
        trace = wrf.build(
            ranks=WATCH_RANKS, iterations=WATCH_WINDOWS, base_ranks=WATCH_RANKS
        ).run(seed=seeds[index])
        written.append(save_trace(trace, out / f"watch-{index}.json"))
    warmup = wrf.build(
        ranks=WATCH_RANKS, iterations=WATCH_WARMUP_WINDOWS, base_ranks=WATCH_RANKS
    ).run(seed=seeds[-1])
    written.append(save_trace(warmup, out / "watch-warmup.json"))
    return written


def _generate_serve(seed: int, out: Path) -> list[Path]:
    """Specs whose direct run gives the paper's HydroC row: 2 regions, 100 %.

    About one sweep in 200 has an image where noise moves a few
    bursts into a small third cluster that the 95 % relevance cut keeps;
    the maximum number of objects is then 3 and coverage is 66 %.  Such a
    sweep is not the paper's input, so the next seeds of the same stream
    are drawn instead, and the redraw is reported on stderr.
    """
    from repro.apps.hydroc import BLOCK_SIZES
    from repro.serve import JobSpec, canonical_json, result_payload
    from repro.serve.runner import execute_spec

    rng = random.Random(f"perfbench:serve:{seed}")
    scenarios = [{"block_size": size} for size in BLOCK_SIZES]
    written: list[Path] = []
    while len(written) < len(SERVE_TENANTS) * SERVE_SPECS_PER_TENANT:
        spec = {"kind": "track", "app": "hydroc", "scenarios": scenarios,
                "seeds": [rng.randrange(2**31) for _ in BLOCK_SIZES]}
        job = JobSpec.from_dict(spec)
        result, failures = execute_spec(job)
        if not is_table2_hydroc(len(result.tracked_regions), result.coverage):
            print(
                f"perfbench: serve seed {seed}: redrew a sweep that tracks "
                f"{len(result.tracked_regions)} regions at {result.coverage} %",
                file=sys.stderr,
            )
            continue
        index = len(written)
        path = out / f"serve-{index}.json"
        tenant = SERVE_TENANTS[index % len(SERVE_TENANTS)]
        path.write_text(json.dumps({"tenant": tenant, "spec": spec}, sort_keys=True))
        written.append(path)
        expected = canonical_json(result_payload(job, result, failures))
        (out / f"serve-{index}.expected").write_text(expected, encoding="utf-8")
    return written


def is_table2_hydroc(n_tracked: int, coverage: float) -> bool:
    """Whether a result is Table 2's HydroC row: 2 tracked regions at 100 %."""
    return n_tracked == SERVE_REGIONS and coverage == 100


# -- ops (session process) ------------------------------------------------


@dataclass
class OpRecord:
    """One timed op: wall and CPU seconds, and whether its output checked."""

    latency_s: float
    cpu_s: float
    ok: bool


def tree_cpu_s(pid: int) -> float:
    """CPU seconds used so far by process *pid* and its reaped children.

    The process's own threads are read from its CPU clock, in
    nanoseconds; its reaped children (the job server's workers) only
    from ``/proc/<pid>/stat``, in clock ticks.  Linux only.
    """
    own = time.clock_gettime((~pid << 3) | 2)  # CPUCLOCK_SCHED of the process
    # Fields from the third on; cutime and cstime are fields 16 and 17.
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    return own + (int(fields[13]) + int(fields[14])) / os.sysconf("SC_CLK_TCK")


def _report_failure(what: str) -> None:
    print(f"perfbench: {what} failed:\n{traceback.format_exc()}", file=sys.stderr)


class Workload:
    """One workload inside a session; the program runs in this process.

    A session calls :meth:`imports`, :meth:`prepare` (input preparation,
    left out of set-up time), :meth:`start`, :meth:`warm_up`, then
    :meth:`run` for the timed ops, :meth:`stop` and :meth:`verify`.
    """

    name = ""
    warmup_ops = 0

    def __init__(self, inputs: Path, work: Path) -> None:
        self.inputs = inputs
        self.work = work

    def prepare(self) -> None:
        """Inputs are files the ops load themselves."""

    def start(self) -> None:
        """Nothing outlives an op."""

    def reset(self) -> None:
        """Called before every op, outside its timing."""

    def cpu_s(self) -> float:
        """CPU seconds the program's processes have used so far."""
        return time.process_time()

    def warm_up(self) -> None:
        for index in range(self.warmup_ops):
            self.reset()
            self.op(index)

    def run(self, first: int, n_ops: int, tracer=None) -> list[OpRecord]:
        """Run ops ``first .. first + n_ops - 1`` one at a time, checking each."""
        records = []
        for index in range(first, first + n_ops):
            self.reset()
            if tracer is not None:
                tracer.begin_op(index)
            started, cpu = time.perf_counter(), self.cpu_s()
            try:
                output = self.op(index)
            except Exception:
                _report_failure(f"{self.name} op {index}")
                output = None
            latency, cpu = time.perf_counter() - started, self.cpu_s() - cpu
            if tracer is not None:
                tracer.end_op()
            ok = output is not None and self.check(index, output)
            records.append(OpRecord(latency, cpu, ok))
        return records

    def ops(self, first: int, n_ops: int) -> list:
        """Ids of the ops :meth:`run` opens on a tracer."""
        return list(range(first, first + n_ops))

    def stop(self) -> float:
        """Peak RSS of the program's processes, in MiB."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def verify(self, records: list[OpRecord]) -> None:
        """Checks that need the whole timed phase; none by default."""

    def merge_trace(self, tracer) -> None:
        """Fold spans recorded in other processes into *tracer*; none by default."""


class Track(Workload):
    """Batch analysis of one rank-doubling study per op."""

    name = "track"
    warmup_ops = 2

    def imports(self) -> None:
        from repro import api
        from repro.alignment import memo
        from repro.analysis import insights
        from repro.clustering.frames import FrameSettings
        from repro.trace import io
        from repro.tracking import trends

        self.api, self.insights, self.io, self.trends = api, insights, io, trends
        self.memo = memo
        self.settings = FrameSettings(relevance=0.995)

    def reset(self) -> None:
        # Each op stands for one `repro-track track` process, which
        # starts with an empty alignment memo.
        self.memo.clear_align_memo()

    def op(self, index: int):
        study = index % TRACK_POOL
        traces = [
            self.io.load_trace(self.inputs / f"track-{study}-{ranks}.json")
            for ranks in TRACK_RANKS
        ]
        result = self.api.quick_track(traces, settings=self.settings, jobs=1)
        self.trends.compute_trends(result, "ipc")
        self.insights.diagnose(result)
        return result

    def check(self, index: int, result) -> bool:
        return len(result.tracked_regions) == TRACK_REGIONS and result.coverage == 100


def region_signature(result) -> tuple:
    """Regions and coverage of a tracking result, comparable with ``==``."""
    regions = tuple(
        (
            region.region_id,
            float(region.total_duration),
            tuple(tuple(sorted(members)) for members in region.members),
        )
        for region in result.regions
    )
    return regions, result.coverage


class Watch(Workload):
    """Windowed streams with a stream checkpoint after every window."""

    name = "watch"
    per_stream = WATCH_WINDOWS - 1

    def __init__(self, inputs: Path, work: Path) -> None:
        super().__init__(inputs, work)
        #: (index of the stream's first record, its result) per stream
        self.streams: list[tuple[int, Any]] = []

    def imports(self) -> None:
        from repro.alignment import memo
        from repro.clustering.frames import FrameSettings
        from repro.obs.alerts import AlertConfig
        from repro.parallel.cache import PipelineCache
        from repro.stream import pipeline
        from repro.stream.forecast import WatchTelemetry
        from repro.trace import io
        from repro.tracking.tracker import Tracker

        self.pipeline, self.io, self.Tracker, self.memo = pipeline, io, Tracker, memo
        self.FrameSettings, self.AlertConfig = FrameSettings, AlertConfig
        self.PipelineCache, self.WatchTelemetry = PipelineCache, WatchTelemetry

    def prepare(self) -> None:
        self.traces = [
            self.io.load_trace(self.inputs / f"watch-{index}.json")
            for index in range(WATCH_POOL)
        ]
        self.warmup_trace = self.io.load_trace(self.inputs / "watch-warmup.json")

    def stream(self, trace, n_windows: int, name: str, on_update):
        # Each stream stands for one `repro-track watch` process, which
        # starts with an empty alignment memo.
        self.memo.clear_align_memo()
        return self.pipeline.track_windows(
            trace,
            n_windows=n_windows,
            settings=self.FrameSettings(),
            cache=self.PipelineCache(self.work / name),
            on_update=on_update,
            telemetry=self.WatchTelemetry(alerts=self.AlertConfig()),
            jobs=1,
        )

    def warm_up(self) -> None:
        self.stream(self.warmup_trace, WATCH_WARMUP_WINDOWS, "watch-warmup", None)

    def _streams(self, first: int, n_ops: int) -> range:
        return range(first // self.per_stream, (first + n_ops) // self.per_stream)

    def run(self, first: int, n_ops: int, tracer=None) -> list[OpRecord]:
        """Whole streams; op ``(stream, k)`` ends at the stream's k-th update."""
        records: list[OpRecord] = []
        for index in self._streams(first, n_ops):
            stamps: list[tuple[float, float]] = []

            def on_update(update, index=index, stamps=stamps) -> None:
                stamps.append((time.perf_counter(), self.cpu_s()))
                if tracer is not None:
                    tracer.end_op()
                    tracer.begin_op((index, len(stamps)))

            try:
                result = self.stream(
                    self.traces[index % WATCH_POOL], WATCH_WINDOWS,
                    f"watch-{index}", on_update,
                )
            except Exception:
                _report_failure(f"watch stream {index}")
                result = None
            if tracer is not None:
                tracer.end_op()  # the stream's tail after its last update
            updates = [
                OpRecord(b[0] - a[0], b[1] - a[1], result is not None)
                for a, b in zip(stamps, stamps[1:])
            ]
            # An update that never came is a failed op.
            updates += [OpRecord(0.0, 0.0, False) for _ in range(self.per_stream - len(updates))]
            self.streams.append((len(records), result))
            records.extend(updates)
        return records

    def ops(self, first: int, n_ops: int) -> list:
        return [
            (stream, update)
            for stream in self._streams(first, n_ops)
            for update in range(1, self.per_stream + 1)
        ]

    def verify(self, records: list[OpRecord]) -> None:
        """Fail every update of a stream whose regions differ from batch."""
        for offset, result in self.streams:
            if result is None:
                continue
            reference = self.Tracker(list(result.frames)).run()
            if region_signature(result) != region_signature(reference):
                for record in records[offset:offset + self.per_stream]:
                    record.ok = False


class Serve(Workload):
    """Jobs submitted to a job server running as its own process."""

    name = "serve"

    def __init__(self, inputs: Path, work: Path, *, traced_server: bool = False) -> None:
        super().__init__(inputs, work)
        self.traced_server = traced_server
        self.trace_dir = work / "worker-spans"
        self.proc: subprocess.Popen | None = None
        #: op index -> (job id, queue seconds, worker seconds)
        self.jobs: dict[int, tuple[str, float, float]] = {}

    def imports(self) -> None:
        from repro.serve.client import JobClient

        self.JobClient = JobClient

    def prepare(self) -> None:
        self.pool = []
        for index in range(len(SERVE_TENANTS) * SERVE_SPECS_PER_TENANT):
            job = json.loads((self.inputs / f"serve-{index}.json").read_text())
            expected = (self.inputs / f"serve-{index}.expected").read_bytes()
            self.pool.append((job["tenant"], job["spec"], expected))
        self.warmup_ops = len(self.pool)

    def start(self) -> None:
        argv = ["serve", "--root", str(self.work / "server"), "--port", "0", "--workers", "1"]
        if self.traced_server:
            self.trace_dir.mkdir(parents=True, exist_ok=True)
            command = ["-m", "perfbench.serve_launcher", str(self.trace_dir), *argv]
        else:
            command = ["-m", "repro", *argv]
        self.proc = subprocess.Popen(
            [sys.executable, *command],
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
        )
        seen = []
        for line in self.proc.stderr:
            seen.append(line)
            match = _URL.search(line)
            if match:
                break
        else:
            self.stop()
            raise RuntimeError("job server exited before serving:\n" + "".join(seen))
        # Keep the pipe drained so the server never blocks on stderr.
        threading.Thread(target=self.proc.stderr.read, daemon=True).start()
        self.client = self.JobClient(match.group(1), timeout=60.0)

    def warm_up(self) -> None:
        super().warm_up()
        self.jobs.clear()  # only timed jobs are folded into the trace

    def cpu_s(self) -> float:
        """CPU seconds of this client, the job server and its finished workers.

        A job's worker is reaped before its status turns ``done``, so
        its CPU time is in by the time the client has seen the result.
        """
        own = time.process_time()
        return own if self.proc is None else own + tree_cpu_s(self.proc.pid)

    def op(self, index: int) -> tuple[dict, bytes]:
        tenant, spec, _ = self.pool[index % len(self.pool)]
        job_id = self.client.submit(tenant, spec)["job_id"]
        while True:
            record = self.client.status(job_id)
            if record["state"] in _TERMINAL:
                break
            time.sleep(POLL_S)
        body = self.client.result(job_id) if record["state"] == "done" else b""
        started, finished = record["started_at"], record["finished_at"]
        if started is not None and finished is not None:
            self.jobs[index] = (job_id, started - record["submitted_at"], finished - started)
        return record, body

    def check(self, index: int, output: tuple[dict, bytes]) -> bool:
        record, body = output
        summary = record.get("summary", {})
        return (
            record.get("state") == "done"
            and is_table2_hydroc(summary.get("n_tracked"), summary.get("coverage"))
            and body == self.pool[index % len(self.pool)][2]
        )

    def stop(self) -> float:
        """Stop the server; peak RSS of it and its workers, in MiB."""
        if self.proc is not None:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGTERM)
                try:
                    self.proc.wait(timeout=60)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.wait()
            self.proc = None
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    def merge_trace(self, tracer) -> None:
        """Fold each job worker's spans and counts into its op.

        Also books the job's status-record times: ``serve.queue_ms``
        (claimed - submitted), ``serve.worker_ms`` (finished - claimed)
        and ``serve.spawn_ms``, the part of ``worker_ms`` outside the
        worker's ``run_job`` span.
        """
        for index, (job_id, queue_s, worker_s) in self.jobs.items():
            path = self.trace_dir / f"{job_id}.json"
            if not path.is_file():
                continue
            document = json.loads(path.read_text())
            offset = len(tracer.spans)
            run_job_s = 0.0
            for name, start, end, parent, _ in document["spans"]:
                tracer.spans.append(
                    [name, start, end, parent + offset if parent >= 0 else -1, index]
                )
                if name == "serve.run_job":
                    run_job_s = end - start
            counts = tracer.counts[index]
            for name, value in document["counts"].get(job_id, {}).items():
                counts[name] += value
            counts["serve.queue_ms"] = queue_s * 1000.0
            counts["serve.worker_ms"] = worker_s * 1000.0
            counts["serve.spawn_ms"] = (worker_s - run_job_s) * 1000.0


def make_workload(name: str, inputs: Path, work: Path, *, traced: bool = False) -> Workload:
    if name == "serve":
        return Serve(inputs, work, traced_server=traced)
    return {"track": Track, "watch": Watch}[name](inputs, work)
