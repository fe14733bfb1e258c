"""A served job imports nothing the server has not already imported.

Each job runs in a fresh fork of the server (``run_isolated``), so a
module the server holds is free to every job, and a module a job
imports itself is paid for again by every job.  These tests pin that
``import repro.serve`` loads everything admission and a job run need.
"""

from __future__ import annotations

import json
import multiprocessing
import subprocess
import sys
import textwrap

import pytest

_SCRIPT = textwrap.dedent(
    """
    import json
    import sys
    import tempfile

    import repro.serve
    from repro.parallel.executor import run_isolated
    from repro.serve.runner import run_job
    from repro.serve.spec import JobSpec

    def added(before):
        return sorted(
            name for name in sys.modules
            if name.startswith("repro") and name not in before
        )

    def probe(task):
        before = set(sys.modules)
        run_job(task)
        return added(before)

    root = tempfile.mkdtemp()
    out = []
    for index, raw in enumerate(json.loads(sys.argv[1])):
        before = set(sys.modules)
        spec = JobSpec.from_dict(raw).to_dict()
        admission = added(before)
        task = {"root": root, "tenant": "t", "job_id": f"{index:012x}",
                "spec": spec}
        out.append([admission, run_isolated(probe, task, timeout=120)])
    print(json.dumps(out))
    """
)

_SCENARIOS = [
    {"block_size": 32, "ranks": 4, "iterations": 3},
    {"block_size": 64, "ranks": 4, "iterations": 3},
]
_SPECS = [
    {"kind": "track", "app": "hydroc", "scenarios": _SCENARIOS,
     "seeds": [0, 1], "strict": strict}
    for strict in (True, False)
] + [
    {"kind": "watch", "app": "hydroc", "scenarios": _SCENARIOS[:1],
     "seeds": [0], "windows": 3, "strict": strict}
    for strict in (True, False)
]


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="only a forked worker inherits the server's modules",
)
def test_admission_and_jobs_import_nothing_after_import_repro_serve():
    completed = subprocess.run(
        [sys.executable, "-c", _SCRIPT, json.dumps(_SPECS)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    imported = json.loads(completed.stdout.strip().splitlines()[-1])
    assert len(imported) == len(_SPECS)
    for raw, (admission, worker) in zip(_SPECS, imported):
        what = f"{raw['kind']} strict={raw['strict']}"
        assert admission == [], f"admitting {what} imported {admission}"
        assert worker == [], f"running {what} imported {worker}"
