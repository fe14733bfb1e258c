"""Peak-RSS curve of the bounded watch.

Before pointing ``watch`` at a burst-scale trace an adopter asks: does
``--max-live-windows`` actually bound peak RSS as the window count
grows?  Each configuration runs in its own subprocess because
``ru_maxrss`` is a process-lifetime high-water mark — a single process
could only ever report the largest configuration.

The test prints its curve and stashes it in ``extra_info`` so the
committed ``BENCH_RESULTS.json`` carries the trajectory commit over
commit.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from benchmarks.conftest import run_once


_RSS_CHILD = """\
import json, sys, time
from repro.apps import wrf
from repro.clustering.frames import FrameSettings
from repro.obs.runtime import rss_peak_kib
from repro.stream import track_windows

n_windows = int(sys.argv[1])
max_live = None if sys.argv[2] == "none" else int(sys.argv[2])
trace = wrf.build(ranks=64, iterations=24, base_ranks=64).run(seed=1)
start = time.perf_counter()
result = track_windows(
    trace, n_windows=n_windows, settings=FrameSettings(relevance=0.995),
    max_live_windows=max_live,
)
print(json.dumps({
    "wall_s": time.perf_counter() - start,
    "rss_kib": rss_peak_kib(),
    "n_frames": result.n_frames,
}))
"""


def _measure_watch(n_windows: int, max_live: int | None) -> dict:
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", _RSS_CHILD, str(n_windows),
         "none" if max_live is None else str(max_live)],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_perf_bounded_watch_rss(benchmark):
    """Peak RSS vs window count, bounded (k=2) against unbounded.

    The acceptance bar is *flatness*: tripling the window count must
    not grow the bounded run's high-water mark beyond allocator jitter
    (the generous 20%+16MiB slack absorbs interpreter noise; the
    committed curve is the real evidence).
    """
    window_counts = (4, 12)
    curves: dict[str, dict[int, dict]] = {"bounded": {}, "unbounded": {}}
    for n_windows in window_counts:
        curves["unbounded"][n_windows] = _measure_watch(n_windows, None)
        if n_windows == window_counts[-1]:
            curves["bounded"][n_windows] = run_once(
                benchmark, lambda: _measure_watch(n_windows, 2)
            )
        else:
            curves["bounded"][n_windows] = _measure_watch(n_windows, 2)
        assert curves["bounded"][n_windows]["n_frames"] == n_windows
        assert curves["unbounded"][n_windows]["n_frames"] == n_windows

    for mode, curve in curves.items():
        for n_windows, sample in curve.items():
            benchmark.extra_info[f"{mode}_{n_windows}w_rss_kib"] = (
                sample["rss_kib"]
            )
            benchmark.extra_info[f"{mode}_{n_windows}w_wall_s"] = round(
                sample["wall_s"], 3
            )
        line = ", ".join(
            f"{n}w {s['rss_kib'] / 1024:.0f}MiB/{s['wall_s']:.2f}s"
            for n, s in curve.items()
        )
        print(f"\nwatch RSS [{mode}]: {line}")

    small = curves["bounded"][window_counts[0]]["rss_kib"]
    large = curves["bounded"][window_counts[-1]]["rss_kib"]
    assert large <= small * 1.20 + 16 * 1024, (
        f"bounded watch RSS not flat in window count: "
        f"{small} KiB @ {window_counts[0]}w -> "
        f"{large} KiB @ {window_counts[-1]}w"
    )
