"""The synthetic execution engine: :class:`AppModel` -> :class:`Trace`.

Simulates a bulk-synchronous SPMD execution: every iteration, every
region executes (``repeats`` times) on every rank, with a barrier after
each repetition — the lockstep phase structure the paper's Figure 4
timelines show.  Per-burst hardware counters come from the machine's
:class:`~repro.machine.perfmodel.PerformanceModel`; work imbalance,
behavioural modes and log-normal jitter perturb them exactly where a
real system would (work distribution and achieved cycles), never in
ways that break counter consistency (IPC always equals instructions
over cycles).

The engine computes a whole trace as (block x rank) arrays, a block
being one (iteration, region, repeat) in execution order: one noise
draw for the trace, one performance-model evaluation per region and
mode (per iteration too under CPI drift), and the barrier times as a
running sum.  It reproduces the plain per-block loop kept in
``tests/apps/reference.py`` bit for bit.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro import obs
from repro._util import as_rng
from repro.apps.base import AppModel, RegionSpec
from repro.machine.perfmodel import PerformanceModel
from repro.trace.callstack import CallstackTable
from repro.trace.counters import STANDARD_COUNTERS
from repro.trace.trace import Trace

__all__ = ["run_app", "mode_assignment"]


def mode_assignment(region: RegionSpec, nranks: int) -> np.ndarray:
    """Assign each rank to one of the region's modes.

    Modes take contiguous rank blocks proportional to their weights —
    the boundary-versus-interior pattern of domain decompositions.  The
    assignment is deterministic, so the same region splits identically
    in every scenario (the tracker must be able to follow the split).
    """
    weights = np.asarray([mode.weight for mode in region.modes], dtype=np.float64)
    weights = weights / weights.sum()
    boundaries = np.floor(np.cumsum(weights) * nranks + 0.5).astype(np.int64)
    boundaries[-1] = nranks
    assignment = np.zeros(nranks, dtype=np.int64)
    start = 0
    for mode_index, end in enumerate(boundaries):
        assignment[start:end] = mode_index
        start = max(start, int(end))
    return assignment


def _work_gradient(nranks: int, imbalance: float) -> np.ndarray:
    """Linear work gradient across ranks, mean 1."""
    if nranks == 1 or imbalance == 0.0:
        return np.ones(nranks)
    fractions = np.arange(nranks) / (nranks - 1)
    return 1.0 + imbalance * (fractions - 0.5)


def run_app(model: AppModel, seed: int = 0) -> Trace:
    """Simulate *model* and return the generated trace.

    Parameters
    ----------
    model:
        The application scenario to execute.
    seed:
        Seed for all stochastic perturbations; identical seeds produce
        identical traces.
    """
    with obs.span(
        "apps.run_app",
        app=model.name,
        nranks=model.nranks,
        iterations=model.iterations,
    ):
        return _run_app(model, seed)


def _run_app(model: AppModel, seed: int) -> Trace:
    rng = as_rng(seed)
    nranks = model.nranks
    regions = model.regions
    perf = PerformanceModel(
        model.machine,
        compiler=model.compiler,
        processes_per_node=model.effective_processes_per_node,
    )
    callstacks = CallstackTable()
    path_ids = np.asarray(
        [callstacks.intern(region.callpath) for region in regions], dtype=np.int32
    )

    # The region of every block, in execution order.
    per_iteration = np.repeat(
        np.arange(len(regions)), [region.repeats for region in regions]
    )
    block_region = np.tile(per_iteration, model.iterations)
    nblocks = block_region.size

    # Work, achieved-cycles and miss noise of every block in one call:
    # the draws run in C order, so block by block each rank's work noise
    # comes first, then its cycle noise, then its miss noise.
    sigmas = np.asarray(
        [[region.work_jitter, region.cycle_jitter, 0.02] for region in regions]
    )[block_region, :, np.newaxis]
    noise = rng.lognormal(0.0, sigmas, size=(nblocks, 3, nranks))

    counters = np.empty((nblocks, nranks, len(STANDARD_COUNTERS)))
    for index, region in enumerate(regions):
        rows = np.flatnonzero(block_region == index)
        iteration = rows // per_iteration.size
        drift = np.asarray(
            [(1.0 + region.work_drift_per_iter) ** i for i in range(model.iterations)]
        )[iteration]
        work = (
            region.point.work_units
            * _work_gradient(nranks, region.imbalance)
            * drift[:, np.newaxis]
            * noise[rows, 0]
        )
        # CPI drift changes the workload point every iteration; without
        # it one evaluation per mode covers all of the region's blocks.
        if region.cpi_drift_per_iter:
            groups = [
                (iteration == i, (1.0 + region.cpi_drift_per_iter) ** i)
                for i in range(model.iterations)
            ]
        else:
            groups = [(slice(None), 1.0)]
        assignment = mode_assignment(region, nranks)
        for mode_index, mode in enumerate(region.modes):
            members = np.flatnonzero(assignment == mode_index)
            if not members.size:
                continue
            for group, cpi_drift in groups:
                point = replace(
                    region.point,
                    instructions_per_unit=(
                        region.point.instructions_per_unit * mode.instr_scale
                    ),
                    working_set_bytes=region.point.working_set_bytes * mode.ws_scale,
                    core_cpi_scale=(
                        region.point.core_cpi_scale * mode.cpi_scale * cpi_drift
                    ),
                )
                batch = perf.evaluate_batch(
                    point, work[group][:, members] * mode.work_scale
                )
                counters[rows[group][:, np.newaxis], members] = np.stack(
                    [
                        batch.instructions,
                        batch.cycles,
                        batch.l1_misses,
                        batch.l2_misses,
                        batch.tlb_misses,
                    ],
                    axis=-1,
                )
    # Achieved-cycles jitter: instructions stay exact, so the noise shows
    # up as IPC variability, as on real hardware.
    counters[:, :, 1] *= noise[:, 1]
    counters[:, :, 2:] *= noise[:, 2, :, np.newaxis]
    durations = counters[:, :, 1] / model.machine.clock_hz

    # Every block starts at the barrier closing the one before: each
    # rank's clock advances past its burst and MPI time, and the barrier
    # takes the latest.  The clocks are equal at every barrier and
    # rounding of ``T + x`` never decreases as ``x`` grows, so the
    # barrier is ``T`` plus the block's largest advance.
    advance = (durations * (1.0 + model.comm_fraction)).max(axis=1)
    begins = np.add.accumulate(np.concatenate(([0.0], advance[:-1])))

    trace = Trace(
        rank=np.tile(np.arange(nranks, dtype=np.int32), nblocks),
        begin=np.repeat(begins, nranks),
        duration=durations.reshape(-1),
        callpath_id=np.repeat(path_ids[block_region], nranks),
        counters=counters.reshape(-1, len(STANDARD_COUNTERS)),
        counter_names=STANDARD_COUNTERS,
        callstacks=callstacks,
        nranks=nranks,
        app=model.name,
        scenario=model.scenario,
        clock_hz=model.machine.clock_hz,
    )
    obs.count("apps.bursts_total", trace.n_bursts)
    return trace
