"""Benchmark of the tracking stack: ``track``, ``watch`` and ``serve``.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload track --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

A run makes its inputs from the seed (:mod:`perfbench.workloads`), then
runs ``SESSIONS`` sessions one after another, each a fresh
process that sets the workload up and runs an equal share of the timed
ops (:mod:`perfbench.session`).  ``--seconds`` sets the op count at a
fixed nominal rate, never from measured speed.  ``setup_s`` is the
median of the sessions' set-ups, and the ops of all sessions are
pooled, so a run averages over several processes.

With ``--trace 0`` the metrics are the end-to-end ones, from untraced
sessions.  Every time among them is CPU time (user + system) of the
processes that run the program: the session for ``track`` and
``watch``; for ``serve``, the client, the job server and its workers.
CPU time leaves out what the wall clock adds on a shared host, above
all the time the hypervisor runs other guests on this one's CPUs
(steal); it still follows the speed of the host's cores, which such a
host can change by half within minutes.  The program runs serially on
one thread, so for ``track`` and
``watch`` an op's CPU time is its latency on an idle host; for ``serve``
it is the work a job costs the client, the server and the worker,
including the client's polls and the server's answers to them.

``setup_s``
    From process start to the first timed op: imports, program
    start-up (the job server, for ``serve``) and warm-up ops; input
    preparation is left out.  The median over the run's sessions.
``ops_per_s``, ``p50_ms``, ``p90_ms``
    Timed ops over the summed CPU time of the timed phases, and the
    median and nearest-rank 90th percentile of op CPU time (at least 10
    samples beyond it).
``peak_rss_mib``
    Peak RSS of the process that runs the program; for ``serve``, the
    job server and its workers (``RUSAGE_CHILDREN`` of the client after
    the server is reaped).  The highest over the run's sessions.

The same figures on the wall clock go to the run's details file.

With ``--trace 1`` a run has two sessions on the same inputs: an
untraced one, with the ops of one untraced session, then a traced one,
with all the ops of an untraced run.  The metrics are the per-layer ones
of :mod:`perfbench.layers`, from the traced session, plus
``tracing.overhead_pct`` (traced against untraced ``p50_ms``).  Ops of
both sessions are checked and counted.

The program's environment is pinned in every process, the server
included: ``REPRO_JOBS=1``, and no ``REPRO_OBS``, ``REPRO_OBS_SAMPLE``,
``REPRO_LEDGER`` or ``REPRO_CACHE``.  Details of each run (input
digests, sample counts, set-up samples, wall-clock figures) go to
``.perfbench/last-<workload>.json``, and a traced run's spans to
``.perfbench/spans-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.layers import LAYERS  # noqa: E402
from perfbench.stats import layer_metrics, median, percentile  # noqa: E402
from perfbench.workloads import SESSIONS, WORKLOADS, generate, ops_for  # noqa: E402

#: A run must end within this many seconds of its start.
DEADLINE_S = 170.0
PINNED = {"REPRO_JOBS": "1"}
UNSET = ("REPRO_OBS", "REPRO_OBS_SAMPLE", "REPRO_LEDGER", "REPRO_CACHE")


def pinned_env() -> dict[str, str]:
    """This environment with the program's knobs pinned (see module doc)."""
    env = {k: v for k, v in os.environ.items() if k not in UNSET}
    env.update(PINNED)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


class Runner:
    """Spawns the sessions of one run, each in a fresh process group."""

    def __init__(self, workload: str, run_dir: Path, spans: Path, started: float) -> None:
        self.workload = workload
        self.run_dir = run_dir
        self.spans = spans
        self.deadline = started + DEADLINE_S
        self.env = pinned_env()
        self.count = 0

    def session(self, first: int, n_ops: int, *, trace: bool = False) -> dict:
        """Run timed ops ``first .. first + n_ops - 1`` in a new session.

        Returns the session's result plus ``setup_wall_s``: the wall time
        from spawning the process to its first timed op, less its input
        preparation.  A traced session writes its spans to ``self.spans``.
        """
        self.count += 1
        work = self.run_dir / f"session-{self.count}"
        work.mkdir(parents=True)
        config = work / "config.json"
        config.write_text(json.dumps({
            "workload": self.workload,
            "inputs": str(self.run_dir / "inputs"),
            "work": str(work),
            "first": first,
            "ops": n_ops,
            "trace": trace,
            "spans_out": str(self.spans),
        }))
        spawned = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, "-m", "perfbench.session", str(config)],
            cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, start_new_session=True,
        )
        try:
            stdout, _ = proc.communicate(
                timeout=max(1.0, self.deadline - time.monotonic())
            )
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise RuntimeError(f"{self.workload} session overran the run deadline")
        finally:
            _kill_group(proc.pid)
        if proc.returncode != 0:
            raise RuntimeError(f"{self.workload} session exited with {proc.returncode}")
        result = json.loads(stdout.decode().strip().splitlines()[-1])
        result["setup_wall_s"] = result["ready_at"] - spawned - result["prep_s"]
        shutil.rmtree(work, ignore_errors=True)
        return result


def _kill_group(pgid: int) -> None:
    """Kill anything a session left running in its process group."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def end_to_end(sessions: list[dict]) -> tuple[dict, dict]:
    """End-to-end metrics over the pooled ops of *sessions*, and details."""
    cpu_ms = [ms for s in sessions for ms in s["cpu_ms"]]
    wall_ms = [ms for s in sessions for ms in s["latencies_ms"]]
    p90 = percentile(cpu_ms, 90)
    metrics = {
        "setup_s": (median(s["setup_cpu_s"] for s in sessions), "s"),
        "ops_per_s": (len(cpu_ms) / sum(s["cpu_s"] for s in sessions), "op/s"),
        "p50_ms": (median(cpu_ms), "ms"),
        "p90_ms": (p90.value, "ms"),
        "peak_rss_mib": (max(s["peak_rss_mib"] for s in sessions), "MiB"),
    }
    details = {
        "setup_samples_s": [s["setup_cpu_s"] for s in sessions],
        "samples": p90.n,
        "p90_beyond": p90.beyond,
        "session_p50_ms": [median(s["cpu_ms"]) for s in sessions],
        "wall": {
            "setup_s": median(s["setup_wall_s"] for s in sessions),
            "ops_per_s": len(wall_ms) / sum(s["wall_s"] for s in sessions),
            "p50_ms": median(wall_ms),
            "p90_ms": percentile(wall_ms, 90).value,
        },
    }
    return metrics, details


def per_layer(plain: dict, traced: dict, spans: Path) -> dict:
    """Per-layer metrics of the traced session, and the tracing overhead."""
    trace = json.loads(spans.read_text())
    values = layer_metrics(trace["spans"], trace["counts"], trace["ops"], LAYERS)
    plain_p50, traced_p50 = median(plain["cpu_ms"]), median(traced["cpu_ms"])
    values["tracing.overhead_pct"] = (traced_p50 - plain_p50) / plain_p50 * 100.0
    return {layer.name: (values[layer.name], layer.unit) for layer in LAYERS}


def main(argv: list[str] | None = None) -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2

    env = pinned_env()
    os.environ.clear()
    os.environ.update(env)
    sys.path.insert(0, str(ROOT / "src"))
    state = ROOT / ".perfbench"
    run_dir = state / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    ops = ops_for(args.workload, args.seconds)
    try:
        began = time.monotonic()
        digests = generate(args.workload, args.seed, run_dir / "inputs")
        details = {
            "workload": args.workload, "seed": args.seed, "trace": args.trace,
            "sessions": SESSIONS, "ops_per_session": ops,
            "input_sha256": digests, "generate_s": time.monotonic() - began,
        }
        spans = state / f"spans-{args.workload}.json"
        runner = Runner(args.workload, run_dir, spans, started)
        if args.trace:
            plain = runner.session(0, ops)
            traced = runner.session(0, SESSIONS * ops, trace=True)
            metrics = per_layer(plain, traced, spans)
            measured = [plain, traced]
        else:
            measured = [runner.session(share * ops, ops) for share in range(SESSIONS)]
            metrics, more = end_to_end(measured)
            details.update(more)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    outcomes = [ok for s in measured for ok in s["ok"]]
    failed = outcomes.count(False)
    details["metrics"] = {name: value for name, (value, _) in metrics.items()}
    (state / f"last-{args.workload}.json").write_text(json.dumps(details, indent=2) + "\n")
    print(
        f"perfbench {args.workload} seed {args.seed}: {len(outcomes)} ops, "
        f"{failed} failed; "
        + ", ".join(f"{name} {value:.4g}" for name, (value, _) in metrics.items()),
        file=sys.stderr,
    )
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
