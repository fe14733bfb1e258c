"""Shared fixtures for the paper-reproduction benchmarks.

Every bench regenerates one table or figure of the paper.  The heavy
synthetic runs (WRF at 128/256 tasks, the ten Table 2 case studies) are
cached at session scope so a figure bench times only the pipeline stage
it focuses on, while all benches print the rows/series the paper
reports and assert the reproduction's *shape*.

Rendered artefacts (SVGs, text reports) are written to
``benchmarks/output/``.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from repro.analysis.experiments import CASE_STUDIES, CaseStudy
from repro.analysis.study import StudyResult
from repro.clustering.frames import FrameSettings, make_frames
from repro.obs.metrics import MetricsRegistry
from repro.tracking.tracker import Tracker, TrackingResult

OUTPUT_DIR = Path(__file__).parent / "output"

#: Seed used by every benchmark run, so the printed numbers are stable.
BENCH_SEED = 0

#: Dedicated (always-on) registry recording per-benchmark wall-times and
#: RSS peaks for ``BENCH_RESULTS.json``.
BENCH_REGISTRY = MetricsRegistry()


@pytest.fixture(scope="session")
def output_dir() -> Path:
    OUTPUT_DIR.mkdir(parents=True, exist_ok=True)
    return OUTPUT_DIR


class CaseStudyCache:
    """Lazily runs and caches the Table 2 case studies."""

    def __init__(self) -> None:
        self._results: dict[str, StudyResult] = {}

    def __getitem__(self, name: str) -> StudyResult:
        if name not in self._results:
            case = self._case(name)
            self._results[name] = case.run(seed=BENCH_SEED)
        return self._results[name]

    @staticmethod
    def _case(name: str) -> CaseStudy:
        for case in CASE_STUDIES:
            if case.name == name:
                return case
        raise KeyError(name)


@pytest.fixture(scope="session")
def case_results() -> CaseStudyCache:
    return CaseStudyCache()


@pytest.fixture(scope="session")
def wrf_traces():
    """The paper's running example: WRF at 128 and 256 tasks."""
    from repro.apps import wrf

    return [
        wrf.build(ranks=128, iterations=6).run(seed=BENCH_SEED + 1),
        wrf.build(ranks=256, iterations=6).run(seed=BENCH_SEED + 2),
    ]


@pytest.fixture(scope="session")
def wrf_settings() -> FrameSettings:
    return FrameSettings(relevance=0.995)


@pytest.fixture(scope="session")
def wrf_frames(wrf_traces, wrf_settings):
    return make_frames(wrf_traces, wrf_settings)


@pytest.fixture(scope="session")
def wrf_result(wrf_frames) -> TrackingResult:
    return Tracker(wrf_frames).run()


@pytest.fixture(autouse=True)
def _record_wall_time(request):
    """Record every benchmark's wall-time and RSS peak."""
    from repro.obs.runtime import rss_peak_kib

    start = time.perf_counter()
    yield
    BENCH_REGISTRY.gauge(
        "bench.wall_time_s", test=request.node.nodeid
    ).set(time.perf_counter() - start)
    BENCH_REGISTRY.gauge(
        "bench.rss_peak_kib", test=request.node.nodeid
    ).set(rss_peak_kib())


def pytest_sessionfinish(session, exitstatus):
    """Dump the recorded measurements to ``output/BENCH_RESULTS.json``.

    The schema-versioned payload is what ``repro-track bench-compare``
    consumes.
    """
    from repro.obs.bench import bench_results_payload

    snapshot = BENCH_REGISTRY.snapshot()
    if not snapshot["gauges"]:
        return
    OUTPUT_DIR.mkdir(parents=True, exist_ok=True)
    benches: dict[str, dict[str, float]] = {}
    for entry in snapshot["gauges"]:
        measurements = benches.setdefault(entry["labels"]["test"], {})
        if entry["name"] == "bench.wall_time_s":
            measurements["wall_time_s"] = entry["value"]
        elif entry["name"] == "bench.rss_peak_kib":
            measurements["rss_peak_kib"] = entry["value"]
    # Merge into whatever is already committed: a partial run (one
    # bench file) must update its own entries without clobbering the
    # rest of the recorded suite.
    try:
        with open(OUTPUT_DIR / "BENCH_RESULTS.json", encoding="utf-8") as handle:
            previous = json.load(handle).get("benches", {})
    except (OSError, ValueError):
        previous = {}
    benches = {**previous, **benches}
    with open(OUTPUT_DIR / "BENCH_RESULTS.json", "w", encoding="utf-8") as handle:
        json.dump(bench_results_payload(benches), handle, indent=2)
        handle.write("\n")


def run_once(benchmark, fn):
    """Run *fn* exactly once under pytest-benchmark and return its value.

    The reproductions are deterministic, so a single round both times
    the stage and produces the artefact the bench prints and asserts.
    """
    return benchmark.pedantic(fn, rounds=1, iterations=1)
