"""Unit tests for the synthetic application framework."""

from __future__ import annotations

import pytest

from repro.apps.base import AppModel, Mode, RegionSpec
from repro.errors import ModelError
from repro.machine.machine import MARENOSTRUM, MINOTAURO
from repro.machine.perfmodel import WorkloadPoint
from repro.trace.callstack import CallPath


def region(**overrides) -> RegionSpec:
    base = dict(
        name="r",
        callpath=CallPath.single("r", "a.c", 1),
        point=WorkloadPoint(
            work_units=1e5,
            instructions_per_unit=50.0,
            memory_accesses_per_unit=0.5,
            working_set_bytes=1024.0,
        ),
    )
    base.update(overrides)
    return RegionSpec(**base)


class TestMode:
    def test_defaults_neutral(self):
        mode = Mode()
        assert mode.weight == 1.0
        assert mode.work_scale == mode.cpi_scale == mode.ws_scale == 1.0

    def test_validation(self):
        with pytest.raises(ModelError):
            Mode(weight=0.0)
        with pytest.raises(ModelError):
            Mode(work_scale=0.0)
        with pytest.raises(ModelError):
            Mode(cpi_scale=-1.0)


class TestRegionSpec:
    def test_needs_mode(self):
        with pytest.raises(ModelError):
            region(modes=())

    def test_repeats_positive(self):
        with pytest.raises(ModelError):
            region(repeats=0)

    def test_imbalance_nonnegative(self):
        with pytest.raises(ModelError):
            region(imbalance=-0.1)

    def test_imbalance_at_most_two(self):
        # Above 2 the first rank's share of the work, 1 - imbalance/2,
        # is negative.
        with pytest.raises(ModelError, match="region 'r': imbalance"):
            region(imbalance=2.5)
        with pytest.raises(ModelError, match="region 'r': imbalance"):
            region(imbalance=float("nan"))

    def test_imbalance_two_gives_rank_zero_no_work(self):
        model = AppModel(
            name="a", nranks=4, regions=(region(imbalance=2.0),), iterations=1
        )
        assert model.run().counter("PAPI_TOT_INS")[0] == 0.0

    def test_jitters_nonnegative(self):
        with pytest.raises(ModelError):
            region(work_jitter=-0.1)

    def test_with_point(self):
        changed = region().with_point(work_units=7.0)
        assert changed.point.work_units == 7.0
        assert changed.name == "r"


class TestAppModel:
    def test_defaults(self):
        model = AppModel(name="app", nranks=4, regions=(region(),))
        assert model.effective_processes_per_node == 4
        assert model.machine is MINOTAURO

    def test_fill_node_capped_by_cores(self):
        model = AppModel(name="app", nranks=64, regions=(region(),),
                         machine=MARENOSTRUM)
        assert model.effective_processes_per_node == 4

    def test_explicit_ppn(self):
        model = AppModel(name="app", nranks=12, regions=(region(),),
                         processes_per_node=2)
        assert model.effective_processes_per_node == 2

    def test_ppn_exceeding_cores_rejected(self):
        with pytest.raises(ModelError):
            AppModel(name="app", nranks=8, regions=(region(),),
                     machine=MARENOSTRUM, processes_per_node=8)

    def test_validation(self):
        with pytest.raises(ModelError):
            AppModel(name="app", nranks=0, regions=(region(),))
        with pytest.raises(ModelError):
            AppModel(name="app", nranks=1, regions=())
        with pytest.raises(ModelError):
            AppModel(name="app", nranks=1, regions=(region(),), iterations=0)
        with pytest.raises(ModelError):
            AppModel(name="app", nranks=1, regions=(region(),), comm_fraction=-1.0)

    def test_run_delegates_to_runner(self):
        model = AppModel(name="app", nranks=2, regions=(region(),), iterations=2)
        trace = model.run(seed=0)
        assert trace.n_bursts == 2 * 2
        assert trace.app == "app"
