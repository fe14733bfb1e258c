"""Differential property: the vectorised runner against the per-block loop.

:func:`tests.apps.reference.run_app_reference` simulates one
(iteration, region, repeat) block at a time and appends every burst
through :meth:`TraceBuilder.add`; it is the specification.
:func:`repro.apps.runner.run_app` computes the whole trace as
(block x rank) arrays and must reproduce its columns and callstack
table **bit for bit** on every model: several regions, some sharing a
call path; modes whose weights leave them no ranks; repeats; imbalance
up to its limit; zero and non-zero jitter; work and CPI drift.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.base import AppModel, Mode, RegionSpec
from repro.apps.runner import run_app
from repro.machine.compiler import COMPILERS
from repro.machine.machine import MACHINES
from repro.machine.perfmodel import WorkloadPoint
from repro.trace.callstack import CallPath
from tests.apps.reference import run_app_reference

jitters = st.sampled_from([0.0, 0.0, 0.01, 0.3])
drifts = st.sampled_from([0.0, 0.0, 0.05, -0.04])


@st.composite
def modes(draw):
    """1-3 modes; a weight of 0.01 leaves its mode no ranks on small runs."""
    return tuple(
        Mode(
            weight=draw(st.sampled_from([0.01, 0.3, 1.0, 2.5])),
            work_scale=draw(st.sampled_from([1.0, 0.5, 2.0])),
            cpi_scale=draw(st.sampled_from([1.0, 1.3])),
            ws_scale=draw(st.sampled_from([1.0, 8.0])),
            instr_scale=draw(st.sampled_from([1.0, 1.1])),
        )
        for _ in range(draw(st.integers(1, 3)))
    )


@st.composite
def regions(draw, index: int):
    """One region; call paths come from three lines, so regions share them."""
    line = draw(st.integers(1, 3))
    return RegionSpec(
        name=f"r{index}",
        callpath=CallPath.single(f"f{line}", "app.c", line),
        point=WorkloadPoint(
            work_units=draw(st.sampled_from([1.0, 1e3, 1e5])),
            instructions_per_unit=draw(st.sampled_from([20.0, 50.0])),
            memory_accesses_per_unit=draw(st.sampled_from([0.0, 0.5, 4.0])),
            working_set_bytes=draw(st.sampled_from([1e3, 1e5, 1e7])),
            streaming_accesses_per_unit=draw(st.sampled_from([0.0, 1.0])),
            outer_working_set_bytes=draw(st.sampled_from([None, 1e8])),
        ),
        modes=draw(modes()),
        repeats=draw(st.integers(1, 4)),
        imbalance=draw(st.sampled_from([0.0, 0.3, 1.0, 2.0])),
        work_jitter=draw(jitters),
        cycle_jitter=draw(jitters),
        work_drift_per_iter=draw(drifts),
        cpi_drift_per_iter=draw(drifts),
    )


@st.composite
def app_models(draw):
    n_regions = draw(st.integers(1, 4))
    return AppModel(
        name="prop",
        nranks=draw(st.integers(1, 64)),
        regions=tuple(draw(regions(index)) for index in range(n_regions)),
        iterations=draw(st.integers(1, 10)),
        machine=MACHINES[draw(st.sampled_from(sorted(MACHINES)))],
        compiler=COMPILERS[draw(st.sampled_from(sorted(COMPILERS)))],
        scenario={"case": draw(st.integers(0, 9))},
        comm_fraction=draw(st.sampled_from([0.0, 0.05, 0.5])),
    )


@given(app_models(), st.integers(0, 2**32 - 1))
@settings(max_examples=120, deadline=None)
def test_runner_matches_reference(model, seed):
    trace = run_app(model, seed=seed)
    expected = run_app_reference(model, seed=seed)
    for name in ("rank", "begin", "duration", "callpath_id", "counters_matrix"):
        got, want = getattr(trace, name), getattr(expected, name)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name
    assert trace.callstacks.to_strings() == expected.callstacks.to_strings()
    assert (trace.app, trace.nranks, trace.scenario, trace.clock_hz) == (
        expected.app,
        expected.nranks,
        expected.scenario,
        expected.clock_hz,
    )
    assert trace.counter_names == expected.counter_names
    assert np.all(trace.duration >= 0)
