"""Pin the simulator's output: Table 2 scenario traces against stored digests.

``golden_traces.json`` holds the :func:`~repro.parallel.cache.trace_digest`
of every Table 2 scenario trace at study seeds 0, 1 and 7, each scenario
simulated with ``seed + index`` as :class:`ParametricStudy` seeds it.
Trace and label cache keys, stored cache entries, the Table 2 rows and
served results all rest on these bytes, so any change to the runner or
the performance model that moves one of them fails here.

After a deliberate model change, regenerate the file with::

    PYTHONPATH=src python -m tests.apps.test_golden_traces
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis.experiments import CASE_STUDIES
from repro.apps.registry import build_app
from repro.parallel.cache import trace_digest

GOLDEN = Path(__file__).with_name("golden_traces.json")
SEEDS = (0, 1, 7)


def scenario_digests(case, seed: int) -> list[str]:
    """Digests of *case*'s scenario traces for study seed *seed*."""
    study = case.study
    return [
        trace_digest(build_app(study.app, **dict(scenario)).run(seed=seed + index))
        for index, scenario in enumerate(study.scenarios)
    ]


def golden_digests() -> dict:
    """``{seed: {case name: [digest per scenario]}}`` over :data:`SEEDS`."""
    return {
        str(seed): {case.name: scenario_digests(case, seed) for case in CASE_STUDIES}
        for seed in SEEDS
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_file_covers_every_scenario(golden):
    assert golden["seeds"] == list(SEEDS)
    for seed in SEEDS:
        stored = golden["digests"][str(seed)]
        assert sorted(stored) == sorted(case.name for case in CASE_STUDIES)
        for case in CASE_STUDIES:
            assert len(stored[case.name]) == len(case.study.scenarios)


@pytest.mark.parametrize("case", CASE_STUDIES, ids=lambda case: case.name)
def test_scenario_traces_match_golden_digests(golden, case):
    for seed in SEEDS:
        assert scenario_digests(case, seed) == golden["digests"][str(seed)][case.name], (
            f"{case.name} traces at study seed {seed} changed"
        )


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps({"seeds": list(SEEDS), "digests": golden_digests()}, indent=1)
        + "\n"
    )
    print(f"wrote {GOLDEN}")
