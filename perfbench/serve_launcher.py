"""Start the job server through its CLI entry point, traced.

Usage::

    python3 -m perfbench.serve_launcher SPAN_DIR serve --root R --port 0 ...

Installs the traced run's wrappers in the server process, then calls
``repro.cli.main`` with the remaining arguments.  Wrapping happens as
each module is first imported (see :mod:`perfbench.tracing`), so the
server imports what an untraced one does.  Forked job workers inherit
the wrappers; each worker opens one op named after its job, and writes
its spans and counts to ``SPAN_DIR/<job_id>.json`` when the job ends.
"""

from __future__ import annotations

import os
import sys

from perfbench.layers import WORKER_TARGETS
from perfbench.tracing import Target, Tracer, install


def _worker_entry(span_dir: str):
    def factory(tracer: Tracer, run_job):
        def traced_run_job(task):
            # A fresh worker: drop whatever the server process recorded.
            tracer.reset()
            job_id = str(task["job_id"])
            tracer.begin_op(job_id)
            try:
                return tracer.call("serve.run_job", run_job, (task,), {})
            finally:
                tracer.end_op()
                tracer.dump(os.path.join(span_dir, f"{job_id}.json"))

        return traced_run_job

    return factory


def main(argv: list[str]) -> int:
    span_dir, *cli_argv = argv
    tracer = Tracer()
    entry = Target("repro.serve.runner", "run_job", "serve.run_job",
                   factory=_worker_entry(span_dir))
    install(tracer, [*WORKER_TARGETS, entry])
    from repro.cli import main as cli_main

    return cli_main(cli_argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
