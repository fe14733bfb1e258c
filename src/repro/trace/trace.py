"""The :class:`Trace` container: every CPU burst of one experiment.

A trace is immutable once built.  Storage is struct-of-arrays: parallel
NumPy columns for rank, begin time, duration, call-path id, plus a
``(n_bursts, n_counters)`` matrix of hardware counters.  This layout
makes clustering, frame construction and trend extraction vectorised
end to end — the idiom the HPC-Python guides recommend (views over
copies, no per-record Python loops on hot paths).

Use :class:`TraceBuilder` for burst-by-burst construction (trace readers
and the MPI simulator append through it) and
:meth:`Trace.from_bursts` for small literal traces in tests; the
synthetic application runner builds its columns directly.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping, Sequence
from typing import Any

import numpy as np

from repro.errors import TraceError
from repro.trace.burst import CPUBurst
from repro.trace.callstack import CallPath, CallstackTable
from repro.trace.counters import STANDARD_COUNTERS, metric_values

__all__ = ["Trace", "TraceBuilder"]


class Trace:
    """Immutable set of CPU bursts plus experiment metadata.

    Parameters
    ----------
    rank, begin, duration, callpath_id:
        Parallel 1-D columns, one entry per burst.
    counters:
        ``(n_bursts, len(counter_names))`` float64 matrix.
    counter_names:
        Column names of *counters*.
    callstacks:
        Interning table resolving ``callpath_id`` values.
    nranks:
        Number of MPI processes of the experiment (may exceed the number
        of distinct ranks appearing in the columns if some ranks emitted
        no bursts).
    app:
        Application name, e.g. ``"WRF"``.
    scenario:
        Free-form experiment parameters (compiler, problem class, tasks
        per node...).  Used to label frames.
    clock_hz:
        Nominal core clock of the machine the trace was captured on.
    """

    __slots__ = (
        "_rank",
        "_begin",
        "_duration",
        "_callpath_id",
        "_counters",
        "counter_names",
        "callstacks",
        "nranks",
        "app",
        "scenario",
        "clock_hz",
    )

    def __init__(
        self,
        *,
        rank: np.ndarray,
        begin: np.ndarray,
        duration: np.ndarray,
        callpath_id: np.ndarray,
        counters: np.ndarray,
        counter_names: Sequence[str] = STANDARD_COUNTERS,
        callstacks: CallstackTable,
        nranks: int,
        app: str = "unknown",
        scenario: Mapping[str, Any] | None = None,
        clock_hz: float = 1e9,
    ) -> None:
        rank = np.asarray(rank, dtype=np.int32)
        begin = np.asarray(begin, dtype=np.float64)
        duration = np.asarray(duration, dtype=np.float64)
        callpath_id = np.asarray(callpath_id, dtype=np.int32)
        counters = np.atleast_2d(np.asarray(counters, dtype=np.float64))
        n = rank.shape[0]
        if counters.size == 0:
            counters = counters.reshape(n, len(counter_names)) if n == 0 else counters
        for name, col in (
            ("begin", begin),
            ("duration", duration),
            ("callpath_id", callpath_id),
        ):
            if col.shape != (n,):
                raise TraceError(
                    f"column {name!r} has shape {col.shape}, expected ({n},)"
                )
        if counters.shape != (n, len(counter_names)):
            raise TraceError(
                f"counters matrix has shape {counters.shape}, expected "
                f"({n}, {len(counter_names)})"
            )
        if nranks <= 0:
            raise TraceError(f"nranks must be > 0, got {nranks}")
        if n and (rank.min() < 0 or rank.max() >= nranks):
            raise TraceError(
                f"ranks must lie in [0, {nranks}), got range "
                f"[{rank.min()}, {rank.max()}]"
            )
        if n and duration.min() < 0:
            raise TraceError("durations must be >= 0")
        if n and callpath_id.size and (
            callpath_id.min() < 0 or callpath_id.max() >= len(callstacks)
        ):
            raise TraceError("callpath ids out of range of the callstack table")
        if clock_hz <= 0:
            raise TraceError(f"clock_hz must be > 0, got {clock_hz}")

        self._rank = rank
        self._begin = begin
        self._duration = duration
        self._callpath_id = callpath_id
        self._counters = counters
        self.counter_names = tuple(counter_names)
        self.callstacks = callstacks
        self.nranks = int(nranks)
        self.app = app
        self.scenario: dict[str, Any] = dict(scenario or {})
        self.clock_hz = float(clock_hz)
        for arr in (self._rank, self._begin, self._duration, self._callpath_id, self._counters):
            arr.setflags(write=False)

    # ------------------------------------------------------------------
    # basic introspection
    # ------------------------------------------------------------------
    @property
    def n_bursts(self) -> int:
        """Number of bursts in the trace."""
        return int(self._rank.shape[0])

    def __len__(self) -> int:
        return self.n_bursts

    @property
    def rank(self) -> np.ndarray:
        """Per-burst MPI rank column (read-only)."""
        return self._rank

    @property
    def begin(self) -> np.ndarray:
        """Per-burst start timestamps in seconds (read-only)."""
        return self._begin

    @property
    def duration(self) -> np.ndarray:
        """Per-burst durations in seconds (read-only)."""
        return self._duration

    @property
    def end(self) -> np.ndarray:
        """Per-burst end timestamps in seconds."""
        return self._begin + self._duration

    @property
    def callpath_id(self) -> np.ndarray:
        """Per-burst call-path ids (read-only)."""
        return self._callpath_id

    @property
    def counters_matrix(self) -> np.ndarray:
        """The raw ``(n_bursts, n_counters)`` counter matrix (read-only)."""
        return self._counters

    @property
    def total_time(self) -> float:
        """Sum of all burst durations in seconds (CPU time, not makespan)."""
        return float(self._duration.sum())

    @property
    def makespan(self) -> float:
        """Wall-clock span from first burst begin to last burst end."""
        if self.n_bursts == 0:
            return 0.0
        return float(self.end.max() - self._begin.min())

    def counter(self, name: str) -> np.ndarray:
        """Return the column of counter *name* (a read-only view)."""
        try:
            idx = self.counter_names.index(name)
        except ValueError as exc:
            raise KeyError(
                f"trace has no counter {name!r}; available: {list(self.counter_names)}"
            ) from exc
        return self._counters[:, idx]

    def metric(self, name: str) -> np.ndarray:
        """Evaluate derived metric or raw counter *name* per burst."""
        return metric_values(self, name)

    def label(self) -> str:
        """Short human-readable experiment label built from the scenario."""
        if not self.scenario:
            return self.app
        parts = ", ".join(f"{key}={value}" for key, value in sorted(self.scenario.items()))
        return f"{self.app}({parts})"

    def __repr__(self) -> str:
        return (
            f"Trace(app={self.app!r}, nranks={self.nranks}, "
            f"n_bursts={self.n_bursts}, scenario={self.scenario!r})"
        )

    # ------------------------------------------------------------------
    # selection / iteration
    # ------------------------------------------------------------------
    def select(self, mask: np.ndarray) -> "Trace":
        """Return a new trace containing only bursts where *mask* is true.

        Metadata (app, scenario, counter names, callstack table, nranks)
        is preserved; the callstack table is shared, not copied.  *mask*
        may also be a 1-D array of burst indices, taken in its order.
        Bursts of a valid trace need no re-validation, so a selection
        costs only the gathers.
        """
        mask = np.asarray(mask)
        if mask.dtype == bool:
            if mask.shape != (self.n_bursts,):
                raise TraceError(
                    f"boolean mask has shape {mask.shape}, expected ({self.n_bursts},)"
                )
        elif mask.ndim != 1:
            raise TraceError(f"index array must be 1-D, got shape {mask.shape}")
        sub = object.__new__(Trace)
        sub._rank = self._rank[mask]
        sub._begin = self._begin[mask]
        sub._duration = self._duration[mask]
        sub._callpath_id = self._callpath_id[mask]
        # ``take`` gathers index rows several times faster than indexing.
        sub._counters = (
            self._counters[mask] if mask.dtype == bool else self._counters.take(mask, axis=0)
        )
        for arr in (sub._rank, sub._begin, sub._duration, sub._callpath_id, sub._counters):
            arr.setflags(write=False)
        sub.counter_names = self.counter_names
        sub.callstacks = self.callstacks
        sub.nranks = self.nranks
        sub.app = self.app
        sub.scenario = dict(self.scenario)
        sub.clock_hz = self.clock_hz
        return sub

    def sorted_by_time(self) -> "Trace":
        """Return a copy with bursts ordered by (begin, rank)."""
        order = np.lexsort((self._rank, self._begin))
        return self.select(order)

    def ranks_present(self) -> np.ndarray:
        """Sorted array of ranks that emitted at least one burst."""
        return np.unique(self._rank)

    def bursts_of_rank(self, rank: int) -> "Trace":
        """Sub-trace containing only the bursts of *rank*, time-ordered."""
        sub = self.select(self._rank == rank)
        order = np.argsort(sub._begin, kind="stable")
        return sub.select(order)

    def burst(self, index: int) -> CPUBurst:
        """Materialise burst *index* as a :class:`CPUBurst` record."""
        if not 0 <= index < self.n_bursts:
            raise IndexError(f"burst index {index} out of range [0, {self.n_bursts})")
        return CPUBurst(
            rank=int(self._rank[index]),
            begin=float(self._begin[index]),
            duration=float(self._duration[index]),
            callpath=self.callstacks.path(int(self._callpath_id[index])),
            counters={
                name: float(self._counters[index, i])
                for i, name in enumerate(self.counter_names)
            },
        )

    def bursts(self) -> Iterator[CPUBurst]:
        """Iterate over all bursts as records (slow path — use columns in hot code)."""
        for index in range(self.n_bursts):
            yield self.burst(index)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_bursts(
        cls,
        bursts: Iterable[CPUBurst],
        *,
        nranks: int,
        counter_names: Sequence[str] = STANDARD_COUNTERS,
        app: str = "unknown",
        scenario: Mapping[str, Any] | None = None,
        clock_hz: float = 1e9,
    ) -> "Trace":
        """Build a trace from burst records (test/API convenience path)."""
        builder = TraceBuilder(
            nranks=nranks,
            counter_names=counter_names,
            app=app,
            scenario=scenario,
            clock_hz=clock_hz,
        )
        for burst in bursts:
            builder.add(
                rank=burst.rank,
                begin=burst.begin,
                duration=burst.duration,
                callpath=burst.callpath,
                counters=[burst.counters.get(name, 0.0) for name in counter_names],
            )
        return builder.build()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return (
            self.app == other.app
            and self.nranks == other.nranks
            and self.scenario == other.scenario
            and self.counter_names == other.counter_names
            and self.clock_hz == other.clock_hz
            and self.callstacks == other.callstacks
            and np.array_equal(self._rank, other._rank)
            and np.allclose(self._begin, other._begin)
            and np.allclose(self._duration, other._duration)
            and np.array_equal(self._callpath_id, other._callpath_id)
            and np.allclose(self._counters, other._counters)
        )


class TraceBuilder:
    """Incremental, append-only constructor of :class:`Trace` objects.

    Appends go to Python lists and are converted to columns once at
    :meth:`build` time, which is far cheaper than growing NumPy arrays.
    """

    def __init__(
        self,
        *,
        nranks: int,
        counter_names: Sequence[str] = STANDARD_COUNTERS,
        app: str = "unknown",
        scenario: Mapping[str, Any] | None = None,
        clock_hz: float = 1e9,
    ) -> None:
        if nranks <= 0:
            raise TraceError(f"nranks must be > 0, got {nranks}")
        self.nranks = int(nranks)
        self.counter_names = tuple(counter_names)
        self.app = app
        self.scenario = dict(scenario or {})
        self.clock_hz = float(clock_hz)
        self.callstacks = CallstackTable()
        self._rank: list[int] = []
        self._begin: list[float] = []
        self._duration: list[float] = []
        self._callpath_id: list[int] = []
        self._counters: list[Sequence[float]] = []

    def add(
        self,
        *,
        rank: int,
        begin: float,
        duration: float,
        callpath: CallPath,
        counters: Sequence[float],
    ) -> None:
        """Append one burst; *counters* follows ``counter_names`` order."""
        if len(counters) != len(self.counter_names):
            raise TraceError(
                f"expected {len(self.counter_names)} counter values, got {len(counters)}"
            )
        self._rank.append(rank)
        self._begin.append(begin)
        self._duration.append(duration)
        self._callpath_id.append(self.callstacks.intern(callpath))
        self._counters.append(tuple(counters))

    def __len__(self) -> int:
        return len(self._rank)

    def build(self) -> Trace:
        """Finalize and return the immutable :class:`Trace`."""
        n = len(self._rank)
        counters = (
            np.asarray(self._counters, dtype=np.float64)
            if n
            else np.empty((0, len(self.counter_names)))
        )
        return Trace(
            rank=np.asarray(self._rank, dtype=np.int32),
            begin=np.asarray(self._begin, dtype=np.float64),
            duration=np.asarray(self._duration, dtype=np.float64),
            callpath_id=np.asarray(self._callpath_id, dtype=np.int32),
            counters=counters.reshape(n, len(self.counter_names)),
            counter_names=self.counter_names,
            callstacks=self.callstacks,
            nranks=self.nranks,
            app=self.app,
            scenario=self.scenario,
            clock_hz=self.clock_hz,
        )
