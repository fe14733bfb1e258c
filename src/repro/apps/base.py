"""The synthetic SPMD application framework.

An :class:`AppModel` is an ordered list of :class:`RegionSpec` code
regions executed once (or ``repeats`` times) per iteration by every
rank — the canonical bulk-synchronous SPMD shape of the paper's
workloads.  Each region carries:

- a machine-independent :class:`~repro.machine.perfmodel.WorkloadPoint`
  describing its computation;
- one or more behavioural :class:`Mode` variants — a region with two
  modes produces two clusters in the performance space, the paper's
  *bimodal* behaviour;
- imbalance and jitter parameters controlling how the work distributes
  across ranks and repetitions.

The runner (:mod:`repro.apps.runner`) turns a model into a trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Mapping

from repro.errors import ModelError
from repro.machine.compiler import CompilerModel, GFORTRAN
from repro.machine.machine import MINOTAURO, Machine
from repro.machine.perfmodel import WorkloadPoint
from repro.trace.callstack import CallPath

__all__ = ["Mode", "RegionSpec", "AppModel"]


@dataclass(frozen=True, slots=True)
class Mode:
    """One behavioural variant of a region.

    A region with a single mode forms one cluster; several modes split
    the region into several clusters (bimodal behaviour).  Modes are
    assigned to contiguous rank blocks proportionally to their weights —
    the typical domain-decomposition pattern where boundary processes
    behave differently from interior ones.

    Attributes
    ----------
    weight:
        Fraction of ranks executing this mode (weights are normalised).
    work_scale:
        Work-units multiplier (vertical displacement: more or fewer
        instructions).
    cpi_scale:
        Core-CPI multiplier (horizontal displacement: higher or lower
        IPC).
    ws_scale:
        Working-set multiplier (IPC displacement through the memory
        hierarchy).
    instr_scale:
        Instructions-per-unit multiplier (e.g. extra control overhead).
    """

    weight: float = 1.0
    work_scale: float = 1.0
    cpi_scale: float = 1.0
    ws_scale: float = 1.0
    instr_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise ModelError("mode weight must be > 0")
        for name in ("work_scale", "cpi_scale", "ws_scale", "instr_scale"):
            if getattr(self, name) <= 0:
                raise ModelError(f"mode {name} must be > 0")


@dataclass(frozen=True, slots=True)
class RegionSpec:
    """One code region of a synthetic application.

    Attributes
    ----------
    name:
        Region label (used in scenario reports, not by the tracker).
    callpath:
        Source reference every burst of the region records.  Distinct
        regions may intentionally share a call path (one routine with
        multiple behaviours).
    point:
        Machine-independent workload of one burst *per rank* — the
        ``work_units`` field is the per-rank work.
    modes:
        Behavioural variants (see :class:`Mode`).
    repeats:
        How many times the region executes per iteration.
    imbalance:
        Amplitude of a linear work gradient across ranks, in ``[0, 2]``:
        rank 0 gets ``1 - imbalance/2`` of the nominal work, the last
        rank ``1 + imbalance/2`` (vertical stretching in the frame).
    work_jitter:
        Log-normal sigma of per-burst work noise.
    cycle_jitter:
        Log-normal sigma of per-burst cycle noise (horizontal
        stretching: IPC variability at constant instructions).
    work_drift_per_iter:
        Relative work change per iteration — lets a single experiment
        evolve over time for interval-based studies.
    cpi_drift_per_iter:
        Relative core-CPI change per iteration (IPC drifting over time
        within one experiment).
    """

    name: str
    callpath: CallPath
    point: WorkloadPoint
    modes: tuple[Mode, ...] = (Mode(),)
    repeats: int = 1
    imbalance: float = 0.0
    work_jitter: float = 0.01
    cycle_jitter: float = 0.015
    work_drift_per_iter: float = 0.0
    cpi_drift_per_iter: float = 0.0

    def __post_init__(self) -> None:
        if not self.modes:
            raise ModelError(f"region {self.name!r} needs at least one mode")
        if self.repeats < 1:
            raise ModelError(f"region {self.name!r}: repeats must be >= 1")
        if not 0 <= self.imbalance <= 2:
            # Rank 0 gets 1 - imbalance/2 of the work, which must not
            # be negative.
            raise ModelError(
                f"region {self.name!r}: imbalance must be in [0, 2], "
                f"got {self.imbalance!r}"
            )
        if self.work_jitter < 0 or self.cycle_jitter < 0:
            raise ModelError(f"region {self.name!r}: jitters must be >= 0")

    def with_point(self, **changes: Any) -> "RegionSpec":
        """Copy of the region with fields of its workload point replaced."""
        return replace(self, point=replace(self.point, **changes))


@dataclass(frozen=True, slots=True)
class AppModel:
    """A complete synthetic application in one execution scenario.

    Attributes
    ----------
    name:
        Application name (trace metadata).
    nranks:
        MPI process count.
    regions:
        Ordered regions executed each iteration.
    iterations:
        Number of outer iterations to simulate.
    machine / compiler / processes_per_node:
        Hardware context handed to the performance model;
        ``processes_per_node`` defaults to filling nodes.
    scenario:
        Free-form scenario parameters recorded in the trace metadata.
    comm_fraction:
        MPI time between bursts as a fraction of the preceding burst
        duration (affects timestamps only, not counters).
    """

    name: str
    nranks: int
    regions: tuple[RegionSpec, ...]
    iterations: int = 8
    machine: Machine = MINOTAURO
    compiler: CompilerModel = GFORTRAN
    processes_per_node: int | None = None
    scenario: Mapping[str, Any] = field(default_factory=dict)
    comm_fraction: float = 0.05

    def __post_init__(self) -> None:
        if self.nranks < 1:
            raise ModelError("nranks must be >= 1")
        if not self.regions:
            raise ModelError("an application needs at least one region")
        if self.iterations < 1:
            raise ModelError("iterations must be >= 1")
        if self.comm_fraction < 0:
            raise ModelError("comm_fraction must be >= 0")
        ppn = self.effective_processes_per_node
        if ppn > self.machine.cores_per_node:
            raise ModelError(
                f"processes_per_node={ppn} exceeds {self.machine.name}'s "
                f"{self.machine.cores_per_node} cores per node"
            )

    @property
    def effective_processes_per_node(self) -> int:
        """Node occupation: explicit value or fill-the-node default."""
        if self.processes_per_node is not None:
            return self.processes_per_node
        return min(self.nranks, self.machine.cores_per_node)

    def run(self, seed: int = 0):
        """Simulate the application and return its trace.

        Convenience wrapper over :func:`repro.apps.runner.run_app`.
        """
        from repro.apps.runner import run_app

        return run_app(self, seed=seed)
