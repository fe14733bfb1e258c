"""One benchmark session: a fresh process that sets up and runs a workload.

Usage (from the benchmark's parent, with the repository root as the
working directory)::

    python3 -m perfbench.session CONFIG.json

The session imports the program, prepares its inputs, starts the
program (the job server, for ``serve``) and runs the warm-up ops.  Its
set-up ends when the first timed op would start.  Set-up CPU time is
what the program's processes used until then (this process from its
start, the job server and its workers), less the input preparation;
the parent also times set-up on the wall clock, from spawning this
process.  Then the session runs its share of the run's timed ops
(numbered from ``first``), traced when asked, and prints one JSON line:
each op's wall and CPU time and outcome, the timed phase's wall and CPU
time, and peak RSS.
A traced session also writes its spans, counts and op ids to
``spans_out`` (:meth:`perfbench.tracing.Tracer.dump`).
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from perfbench.layers import CLIENT_TARGETS, TARGETS
from perfbench.tracing import Tracer, install
from perfbench.workloads import make_workload


def main(argv: list[str]) -> int:
    config = json.loads(Path(argv[0]).read_text())
    name = config["workload"]
    traced = bool(config["trace"])
    first, n_ops = int(config["first"]), int(config["ops"])
    workload = make_workload(name, Path(config["inputs"]), Path(config["work"]), traced=traced)
    workload.imports()
    started, prep_cpu_s = time.monotonic(), time.process_time()
    workload.prepare()
    prep_s, prep_cpu_s = time.monotonic() - started, time.process_time() - prep_cpu_s
    try:
        workload.start()
        workload.warm_up()
        ready_at, setup_cpu_s = time.monotonic(), workload.cpu_s() - prep_cpu_s
        tracer = None
        if traced:
            tracer = Tracer()
            install(tracer, CLIENT_TARGETS if name == "serve" else TARGETS)
        began, cpu_s = time.perf_counter(), workload.cpu_s()
        records = workload.run(first, n_ops, tracer)
        wall_s, cpu_s = time.perf_counter() - began, workload.cpu_s() - cpu_s
    finally:
        peak_mib = workload.stop()
    workload.verify(records)
    if tracer is not None:
        workload.merge_trace(tracer)
        tracer.dump(config["spans_out"], workload.ops(first, n_ops))
    print(json.dumps({
        "ready_at": ready_at,
        "prep_s": prep_s,
        "setup_cpu_s": setup_cpu_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mib": peak_mib,
        "latencies_ms": [record.latency_s * 1000.0 for record in records],
        "cpu_ms": [record.cpu_s * 1000.0 for record in records],
        "ok": [record.ok for record in records],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
