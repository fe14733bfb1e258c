"""Reference simulator: the per-block loop the vectorised runner replaced.

:func:`run_app_reference` walks the execution order one block at a
time — one (iteration, region, repeat) — evaluating the performance
model once per mode, drawing each block's work, cycle and miss noise in
three calls, advancing per-rank clocks to the barrier, and appending
every burst through :meth:`TraceBuilder.add`.  It is slow and plain on
purpose: it is the specification :func:`repro.apps.runner.run_app` must
reproduce bit for bit (``tests/property/test_prop_runner.py``).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro._util import as_rng
from repro.apps.base import AppModel
from repro.apps.runner import _work_gradient, mode_assignment
from repro.machine.perfmodel import PerformanceModel
from repro.trace.counters import STANDARD_COUNTERS
from repro.trace.trace import Trace, TraceBuilder


def run_app_reference(model: AppModel, seed: int = 0) -> Trace:
    """Simulate *model* block by block (see the module docstring)."""
    rng = as_rng(seed)
    nranks = model.nranks
    perf = PerformanceModel(
        model.machine,
        compiler=model.compiler,
        processes_per_node=model.effective_processes_per_node,
    )
    builder = TraceBuilder(
        nranks=nranks,
        counter_names=STANDARD_COUNTERS,
        app=model.name,
        scenario=dict(model.scenario),
        clock_hz=model.machine.clock_hz,
    )
    clocks = np.zeros(nranks, dtype=np.float64)

    for iteration in range(model.iterations):
        for region in model.regions:
            assignment = mode_assignment(region, nranks)
            gradient = _work_gradient(nranks, region.imbalance)
            drift = (1.0 + region.work_drift_per_iter) ** iteration
            cpi_drift = (1.0 + region.cpi_drift_per_iter) ** iteration
            for _repeat in range(region.repeats):
                work = (
                    region.point.work_units
                    * gradient
                    * drift
                    * rng.lognormal(0.0, region.work_jitter, nranks)
                )
                instructions = np.empty(nranks)
                cycles = np.empty(nranks)
                l1 = np.empty(nranks)
                l2 = np.empty(nranks)
                tlb = np.empty(nranks)
                for mode_index, mode in enumerate(region.modes):
                    members = assignment == mode_index
                    if not members.any():
                        continue
                    point = replace(
                        region.point,
                        instructions_per_unit=(
                            region.point.instructions_per_unit * mode.instr_scale
                        ),
                        working_set_bytes=(
                            region.point.working_set_bytes * mode.ws_scale
                        ),
                        core_cpi_scale=(
                            region.point.core_cpi_scale * mode.cpi_scale * cpi_drift
                        ),
                    )
                    counters = perf.evaluate_batch(
                        point, work[members] * mode.work_scale
                    )
                    instructions[members] = counters.instructions
                    cycles[members] = counters.cycles
                    l1[members] = counters.l1_misses
                    l2[members] = counters.l2_misses
                    tlb[members] = counters.tlb_misses
                cycles *= rng.lognormal(0.0, region.cycle_jitter, nranks)
                miss_noise = rng.lognormal(0.0, 0.02, nranks)
                l1 *= miss_noise
                l2 *= miss_noise
                tlb *= miss_noise
                durations = cycles / model.machine.clock_hz

                for rank in range(nranks):
                    builder.add(
                        rank=rank,
                        begin=float(clocks[rank]),
                        duration=float(durations[rank]),
                        callpath=region.callpath,
                        counters=(
                            float(instructions[rank]),
                            float(cycles[rank]),
                            float(l1[rank]),
                            float(l2[rank]),
                            float(tlb[rank]),
                        ),
                    )
                clocks += durations * (1.0 + model.comm_fraction)
                clocks[:] = clocks.max()
    return builder.build()
