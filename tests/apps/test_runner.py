"""Unit tests for the synthetic execution engine."""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.base import AppModel, Mode, RegionSpec
from repro.apps.runner import mode_assignment, run_app
from repro.machine.machine import MINOTAURO
from repro.machine.perfmodel import WorkloadPoint
from repro.trace.counters import CYCLES, INSTRUCTIONS


def region(name="r", line=1, **overrides) -> RegionSpec:
    base = dict(
        name=name,
        callpath=__import__("repro.trace.callstack", fromlist=["CallPath"]).CallPath.single(
            name, "a.c", line
        ),
        point=WorkloadPoint(
            work_units=1e5,
            instructions_per_unit=50.0,
            memory_accesses_per_unit=0.5,
            working_set_bytes=1024.0,
        ),
    )
    base.update(overrides)
    return RegionSpec(**base)


def app(regions, *, nranks=4, iterations=3, **overrides) -> AppModel:
    return AppModel(
        name="app", nranks=nranks, regions=tuple(regions),
        iterations=iterations, machine=MINOTAURO, **overrides
    )


class TestModeAssignment:
    def test_single_mode_all_zero(self):
        assignment = mode_assignment(region(), 8)
        assert (assignment == 0).all()

    def test_weights_respected(self):
        r = region(modes=(Mode(weight=0.25), Mode(weight=0.75)))
        assignment = mode_assignment(r, 8)
        assert (assignment == 0).sum() == 2
        assert (assignment == 1).sum() == 6

    def test_contiguous_blocks(self):
        r = region(modes=(Mode(weight=0.5), Mode(weight=0.5)))
        assignment = mode_assignment(r, 10)
        assert (np.diff(assignment) >= 0).all()

    def test_every_rank_assigned(self):
        r = region(modes=(Mode(weight=0.33), Mode(weight=0.33), Mode(weight=0.34)))
        assignment = mode_assignment(r, 7)
        assert assignment.shape == (7,)
        assert assignment.max() <= 2

    def test_deterministic(self):
        r = region(modes=(Mode(weight=0.4), Mode(weight=0.6)))
        np.testing.assert_array_equal(mode_assignment(r, 16), mode_assignment(r, 16))


class TestRunApp:
    def test_burst_count(self):
        trace = run_app(app([region("a", 1), region("b", 2)]))
        assert trace.n_bursts == 4 * 3 * 2

    def test_repeats_multiply_bursts(self):
        trace = run_app(app([region(repeats=3)]))
        assert trace.n_bursts == 4 * 3 * 3

    def test_deterministic_under_seed(self):
        model = app([region()])
        assert run_app(model, seed=5) == run_app(model, seed=5)

    def test_different_seeds_differ(self):
        model = app([region()])
        assert run_app(model, seed=1) != run_app(model, seed=2)

    def test_counters_consistent(self):
        trace = run_app(app([region()]))
        ipc = trace.metric("ipc")
        expected = trace.counter(INSTRUCTIONS) / trace.counter(CYCLES)
        np.testing.assert_allclose(ipc, expected)

    def test_durations_match_cycles(self):
        trace = run_app(app([region()]))
        np.testing.assert_allclose(
            trace.duration, trace.counter(CYCLES) / MINOTAURO.clock_hz
        )

    def test_spmd_lockstep_structure(self):
        """Each phase starts simultaneously on all ranks (barrier model)."""
        trace = run_app(app([region("a", 1), region("b", 2)], nranks=3))
        begins = trace.begin.reshape(-1, 3)  # blocks of nranks bursts
        for block in begins:
            assert np.allclose(block, block[0])

    def test_phase_order_preserved_per_rank(self):
        trace = run_app(app([region("a", 1), region("b", 2)], nranks=2))
        sub = trace.bursts_of_rank(0)
        paths = [sub.callstacks.path(int(pid)).leaf.line for pid in sub.callpath_id]
        assert paths == [1, 2] * 3

    def test_imbalance_creates_gradient(self):
        trace = run_app(app([region(imbalance=0.5, work_jitter=0.0)], nranks=8))
        instr = trace.counter(INSTRUCTIONS)
        by_rank = [instr[trace.rank == r].mean() for r in range(8)]
        assert by_rank[-1] > 1.3 * by_rank[0]

    def test_modes_create_distinct_behaviour(self):
        r = region(modes=(Mode(weight=0.5), Mode(weight=0.5, work_scale=2.0)),
                   work_jitter=0.0)
        trace = run_app(app([r], nranks=8))
        instr = trace.counter(INSTRUCTIONS)
        low = instr[trace.rank < 4].mean()
        high = instr[trace.rank >= 4].mean()
        assert high == pytest.approx(2 * low, rel=0.01)

    def test_work_drift_grows_over_iterations(self):
        r = region(work_drift_per_iter=0.1, work_jitter=0.0)
        trace = run_app(app([r], nranks=1, iterations=5))
        instr = trace.bursts_of_rank(0).counter(INSTRUCTIONS)
        assert (np.diff(instr) > 0).all()

    def test_cpi_drift_lowers_ipc_over_iterations(self):
        r = region(cpi_drift_per_iter=0.05, work_jitter=0.0, cycle_jitter=0.0)
        trace = run_app(app([r], nranks=1, iterations=5))
        ipc = trace.bursts_of_rank(0).metric("ipc")
        assert (np.diff(ipc) < 0).all()

    def test_scenario_metadata_propagates(self):
        model = app([region()], scenario={"tasks": 4})
        assert run_app(model).scenario == {"tasks": 4}

    def test_comm_fraction_stretches_makespan(self):
        fast = run_app(app([region()], comm_fraction=0.0))
        slow = run_app(app([region()], comm_fraction=0.5))
        assert slow.makespan > fast.makespan

    def test_regions_sharing_a_name_keep_their_own_modes(self):
        # Each region splits its ranks by its own modes, whatever its name.
        single = region("r", 1, work_jitter=0.0)
        split = region(
            "r", 2, work_jitter=0.0,
            modes=(Mode(weight=1.0), Mode(weight=1.0, work_scale=3.0)),
        )
        trace = run_app(app([single, split], nranks=6, iterations=1))
        instr = trace.counter(INSTRUCTIONS)
        np.testing.assert_array_equal(instr[:6], np.full(6, instr[0]))
        assert instr[9] == pytest.approx(3 * instr[6])
