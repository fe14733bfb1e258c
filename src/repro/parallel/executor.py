"""Executor abstraction: deterministic, ordered parallel mapping.

One pipeline stage fans out over processes: building a batch's
frames, one trace per task (:func:`repro.clustering.frames.make_frames`).
This module provides its primitive, :func:`pmap`, an *ordered* map
that runs tasks either in-process (``serial`` backend) or across
worker processes (``process`` backend over
:mod:`concurrent.futures`).  Simulation, pair tracking and a watch's
windows stay in-process: none measured consistently faster on a pool.

Guarantees:

- **Determinism** — results come back in input order regardless of
  completion order, so parallel runs are bit-identical to serial ones.
- **Graceful degradation** — if the pool cannot be created or breaks
  mid-flight (fork failure, unpicklable task, killed worker), the
  *unfinished* tasks are re-run serially instead of crashing; tasks
  that already completed keep their pool results, so side-effecting
  tasks never double-execute.  Exceptions raised *by the task itself*
  are not swallowed; they propagate as in a serial run.
- **Auto-selection** — the process backend is only engaged when it can
  pay for itself: more than one job requested and at least
  :data:`MIN_TASKS` items to spread.

Worker count resolution order: explicit ``jobs`` argument, then the
``REPRO_JOBS`` environment variable, then 1 (serial).  ``0``, negative
values or ``auto`` mean "one job per CPU".
"""

from __future__ import annotations

import concurrent.futures
import os
import pickle
import time
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Iterable, NamedTuple, Sequence, TypeVar

from repro import obs
from repro.obs.log import get_logger
from repro.obs.runtime import rss_peak_kib

__all__ = [
    "JOBS_ENV",
    "RemoteTaskError",
    "SerialExecutor",
    "ProcessExecutor",
    "TaskTimeout",
    "WorkerDeath",
    "get_executor",
    "pmap",
    "resolve_jobs",
    "run_isolated",
]

log = get_logger(__name__)

T = TypeVar("T")
R = TypeVar("R")

#: Environment variable consulted when no explicit job count is given.
JOBS_ENV = "REPRO_JOBS"

#: Below this many tasks a process pool cannot amortise its startup.
MIN_TASKS = 2

#: Errors that mean "the pool is unusable", as opposed to errors raised
#: by the mapped function itself (which must propagate unchanged).
#: AttributeError/TypeError cover unpicklable callables and arguments
#: (CPython reports those instead of PicklingError); if the task itself
#: raised one of these, the serial re-run reproduces it faithfully.
_POOL_ERRORS = (
    BrokenProcessPool,
    pickle.PicklingError,
    OSError,
    AttributeError,
    TypeError,
)


def resolve_jobs(jobs: int | None = None) -> int:
    """Resolve the worker count from the argument or ``REPRO_JOBS``.

    ``None`` defers to the environment; an unset/empty variable means 1
    (serial).  ``0``, negatives and ``auto`` map to the CPU count.  A
    malformed environment value logs a warning and falls back to 1, so
    a stray export never breaks a run.
    """
    if jobs is None:
        raw = os.environ.get(JOBS_ENV, "").strip()
        if not raw:
            return 1
        if raw.lower() == "auto":
            return os.cpu_count() or 1
        try:
            jobs = int(raw)
        except ValueError:
            log.warning(
                "ignoring malformed %s=%r (expected an integer or 'auto')",
                JOBS_ENV, raw,
            )
            return 1
    if jobs <= 0:
        return os.cpu_count() or 1
    return int(jobs)


class SerialExecutor:
    """In-process backend: a plain ordered loop."""

    name = "serial"
    jobs = 1

    def pmap(self, fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
        """Apply *fn* to every item, in order."""
        return [fn(item) for item in items]


class ProcessExecutor:
    """Worker-process backend over :class:`~concurrent.futures.ProcessPoolExecutor`.

    Results are gathered future-by-future in submission order, so the
    output list matches the input order exactly.  Pool-level failures
    fall back to a serial re-run of only the unfinished tasks
    (completed pool results are kept; ``parallel.fallback_tasks_total``
    counts exactly the re-run items).
    """

    name = "process"

    def __init__(self, jobs: int) -> None:
        if jobs < 2:
            raise ValueError(f"process backend needs >= 2 jobs, got {jobs}")
        self.jobs = int(jobs)

    def pmap(self, fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
        """Apply *fn* to every item across the pool, preserving order."""
        workers = min(self.jobs, len(items)) or 1
        timed: list[tuple[R, _WorkerTiming] | None] = [None] * len(items)
        futures: list[concurrent.futures.Future] = []
        try:
            with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
                futures = [pool.submit(_timed_call, fn, item) for item in items]
                for index, future in enumerate(futures):
                    timed[index] = future.result()
        except _POOL_ERRORS as error:
            # Salvage whatever already finished cleanly: tasks can have
            # side effects (cache writes, counters), so re-running the
            # whole batch would double-execute completed work.
            for index, future in enumerate(futures):
                if (
                    timed[index] is None
                    and future.done()
                    and not future.cancelled()
                ):
                    try:
                        if future.exception() is None:
                            timed[index] = future.result()
                    except concurrent.futures.CancelledError:
                        pass
            unfinished = [i for i, entry in enumerate(timed) if entry is None]
            log.warning(
                "process pool failed (%s: %s); falling back to serial "
                "execution of %d of %d task(s)",
                type(error).__name__, error, len(unfinished), len(items),
            )
            obs.count("parallel.fallbacks_total", backend=self.name)
            obs.count(
                "parallel.fallback_tasks_total", len(unfinished),
                backend=self.name,
            )
            for index in unfinished:
                start = time.perf_counter()
                cpu0 = time.process_time()
                result = fn(items[index])
                timed[index] = (
                    result,
                    _WorkerTiming(
                        os.getpid(),
                        start,
                        time.perf_counter(),
                        time.process_time() - cpu0,
                        rss_peak_kib(),
                    ),
                )
        if obs.enabled():
            busy = sum(t.end - t.start for _, t in timed)
            obs.observe("parallel.task_seconds", busy)
            # Worker-side sampler rollup: each task ships its CPU burn
            # and its worker's RSS peak home, so the parent's telemetry
            # covers the whole process tree, not just itself.
            worker_cpu = sum(t.cpu_s for _, t in timed)
            worker_rss = max((t.rss_kib for _, t in timed), default=0)
            obs.observe("parallel.worker_cpu_seconds", worker_cpu)
            if worker_rss:
                obs.set_gauge("parallel.worker_rss_peak_kib", worker_rss)
            span = obs.current_span()
            if span is not None:
                span.set(
                    busy_s=round(busy, 6),
                    workers=workers,
                    worker_cpu_s=round(worker_cpu, 6),
                    worker_rss_peak_kib=worker_rss,
                )
            _record_worker_spans(span, [t for _, t in timed])
        return [result for result, _ in timed]


class _WorkerTiming(NamedTuple):
    """One task's in-worker measurement: who ran it, when, at what cost.

    ``start``/``end`` are the worker's raw ``perf_counter`` readings.
    On Linux ``perf_counter`` is ``CLOCK_MONOTONIC``, which all
    processes share, so the parent can rebase them onto its own
    observability epoch and place the task on the worker's timeline.
    ``cpu_s`` is the task's in-worker CPU burn and ``rss_kib`` the
    worker's RSS peak after the task, so the parent-side sampler rollup
    can account resources spent outside its own process.
    """

    pid: int
    start: float
    end: float
    cpu_s: float = 0.0
    rss_kib: int = 0


def _record_worker_spans(parent, timings: Sequence[_WorkerTiming]) -> None:
    """Stitch the workers' task timings into the parent span tree.

    Each task becomes a finished ``parallel.worker_task`` span tagged
    with the worker pid and a ``flow_id`` naming the dispatching pmap
    span — the Chrome-trace exporter turns those into flow arrows from
    the dispatch to each worker lane (see
    :func:`repro.obs.export.chrome_trace_events`).
    """
    from repro.obs.core import STATE
    from repro.obs.spans import record_span

    flow_id = getattr(parent, "span_id", 0)
    for index, timing in enumerate(timings):
        record_span(
            "parallel.worker_task",
            timing.start - STATE.epoch,
            timing.end - STATE.epoch,
            parent=parent if flow_id else None,
            worker_pid=timing.pid,
            task_index=index,
            flow_id=flow_id,
        )


def _timed_call(fn: Callable[[T], R], item: T) -> tuple[R, _WorkerTiming]:
    """Run one task in a worker, returning (result, worker timing).

    Timing inside the worker lets the parent compute true utilisation
    (busy seconds over ``workers x wall``) without shipping the
    recorder state across process boundaries.
    """
    start = time.perf_counter()
    cpu0 = time.process_time()
    result = fn(item)
    return result, _WorkerTiming(
        os.getpid(),
        start,
        time.perf_counter(),
        time.process_time() - cpu0,
        rss_peak_kib(),
    )


class TaskTimeout(TimeoutError):
    """An isolated task overran its deadline; its worker was killed."""


class WorkerDeath(RuntimeError):
    """An isolated task's worker process died before returning.

    Raised when the worker exits without sending an outcome — a SIGKILL
    from the OOM killer, a hard crash in a C extension, or an operator
    kill.  The exit code (negative = killed by that signal number) is
    in the message.
    """


class RemoteTaskError(RuntimeError):
    """An isolated task raised; carries the original error's identity.

    Exceptions cannot always cross the process boundary intact
    (tracebacks and unpicklable payloads die with the worker), so the
    worker ships ``(type name, message)`` and the parent raises this
    wrapper.  :attr:`error_type` preserves the original class name for
    failure records.
    """

    def __init__(self, error_type: str, message: str) -> None:
        super().__init__(f"{error_type}: {message}")
        self.error_type = error_type
        self.message = message


def _isolated_main(conn, fn: Callable[[T], R], item: T) -> None:
    """Worker entry point: run the task, ship the outcome, exit."""
    try:
        payload: tuple = ("ok", fn(item))
    except BaseException as exc:  # noqa: BLE001 - identity must travel home
        payload = ("error", type(exc).__name__, str(exc))
    try:
        conn.send(payload)
    except (BrokenPipeError, OSError):  # parent gave up (timeout kill race)
        pass
    finally:
        conn.close()


def run_isolated(
    fn: Callable[[T], R],
    item: T,
    *,
    timeout: float | None = None,
) -> R:
    """Run one task in a dedicated worker process with a hard deadline.

    The complement of :func:`pmap` for long-lived services: where a
    pool amortises startup over a batch, ``run_isolated`` buys *blast
    containment* — the task gets its own process, so a runaway or
    killed task can be reaped without poisoning a shared pool, and the
    caller learns exactly which task died (a broken shared pool cannot
    attribute the death).  The job server runs every tracking job
    through this.

    Raises
    ------
    TaskTimeout
        The task exceeded *timeout* seconds; its worker was killed.
    WorkerDeath
        The worker died (signal, hard crash) before returning.
    RemoteTaskError
        The task itself raised; ``error_type`` names the original
        exception class.
    """
    import multiprocessing

    ctx = multiprocessing.get_context()
    parent_conn, child_conn = ctx.Pipe(duplex=False)
    proc = ctx.Process(
        target=_isolated_main, args=(child_conn, fn, item), daemon=False
    )
    start = time.perf_counter()
    proc.start()
    child_conn.close()
    try:
        # poll() goes readable on data *or* on EOF (worker death closed
        # the write end), so one wait covers both outcomes.
        if not parent_conn.poll(timeout):
            proc.kill()
            proc.join()
            obs.count("parallel.isolated_total", outcome="timeout")
            raise TaskTimeout(
                f"isolated task exceeded {timeout:g}s and was killed"
            )
        try:
            outcome = parent_conn.recv()
        except (EOFError, OSError):
            proc.join()
            obs.count("parallel.isolated_total", outcome="worker_death")
            raise WorkerDeath(
                f"worker pid {proc.pid} died before returning "
                f"(exit code {proc.exitcode})"
            ) from None
    finally:
        parent_conn.close()
    proc.join()
    if obs.enabled():
        obs.observe("parallel.task_seconds", time.perf_counter() - start)
    if outcome[0] == "error":
        obs.count("parallel.isolated_total", outcome="error")
        raise RemoteTaskError(outcome[1], outcome[2])
    obs.count("parallel.isolated_total", outcome="ok")
    return outcome[1]


Executor = SerialExecutor | ProcessExecutor


def get_executor(
    jobs: int | None = None, *, n_tasks: int | None = None
) -> Executor:
    """Pick a backend for *n_tasks* tasks at the resolved job count.

    Serial is chosen whenever it is at least as good: one job, or fewer
    tasks than :data:`MIN_TASKS` (a pool cannot amortise its startup on
    a single task).
    """
    resolved = resolve_jobs(jobs)
    if resolved <= 1 or (n_tasks is not None and n_tasks < MIN_TASKS):
        return SerialExecutor()
    return ProcessExecutor(resolved)


def pmap(
    fn: Callable[[T], R],
    items: Iterable[T],
    *,
    jobs: int | None = None,
    label: str = "parallel.pmap",
) -> list[R]:
    """Ordered map over *items*, parallel when it pays off.

    Parameters
    ----------
    fn:
        Task function.  For the process backend it must be picklable
        (module-level); closures silently degrade to a serial re-run
        via the pool-failure fallback.
    items:
        Task inputs; materialised once, results match their order.
    jobs:
        Worker count; ``None`` defers to ``REPRO_JOBS`` (default 1).
    label:
        Span name recorded for the batch (dispatch observability).
    """
    batch = list(items)
    executor = get_executor(jobs, n_tasks=len(batch))
    if not batch:
        return []
    with obs.span(
        label, n_tasks=len(batch), jobs=executor.jobs, backend=executor.name
    ) as span:
        start = time.perf_counter()
        results = executor.pmap(fn, batch)
        if obs.enabled():
            wall = time.perf_counter() - start
            obs.count("parallel.tasks_total", len(batch), backend=executor.name)
            obs.count("parallel.batches_total", backend=executor.name)
            busy = span.attrs.get("busy_s") if hasattr(span, "attrs") else None
            if busy is not None and wall > 0 and executor.jobs > 0:
                span.set(
                    utilisation=round(
                        min(1.0, busy / (wall * executor.jobs)), 4
                    )
                )
        return results
