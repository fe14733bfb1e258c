"""NAS FT — 3-D FFT kernel of the NAS Parallel Benchmarks.

Table 2 row: 15 input images, 2 tracked regions, 100 % coverage.  This
case exercises the paper's *evolutionary* use of tracking: instead of
separate experiments, the images are consecutive time intervals of one
long run, whose performance drifts as the run progresses (allocator
fragmentation degrading locality).  Two behaviours — the FFT compute
and the all-to-all transpose packing — are tracked across all windows.

Use :func:`build` for the long run and :func:`window_traces` to slice
its trace into the per-interval traces that become frames.
"""

from __future__ import annotations

from repro.apps._generic import simple_region
from repro.apps.base import AppModel
from repro.errors import ModelError
from repro.machine.machine import MARENOSTRUM, Machine
from repro.stream.window import slice_trace
from repro.trace.trace import Trace

__all__ = ["build", "window_traces"]


def build(
    *,
    ranks: int = 32,
    iterations: int = 45,
    machine: Machine = MARENOSTRUM,
) -> AppModel:
    """Build the single long-running NAS FT model."""
    regions = (
        simple_region(
            "fft_compute",
            "fft3d.f",
            210,
            instructions=8.0e8,
            cpi_scale=1.10,
            cpi_drift_per_iter=0.004,
        ),
        simple_region(
            "transpose_pack",
            "transpose.f",
            95,
            instructions=3.0e8,
            cpi_scale=1.80,
            cpi_drift_per_iter=0.006,
        ),
    )
    return AppModel(
        name="NAS-FT",
        nranks=ranks,
        regions=regions,
        iterations=iterations,
        machine=machine,
        scenario={"steps": iterations},
    )


def window_traces(trace: Trace, n_windows: int = 15) -> list[Trace]:
    """Slice one long trace into *n_windows* equal time intervals.

    The windows of :func:`repro.stream.window.slice_trace`: each keeps
    the full metadata plus a ``window`` scenario key, so downstream
    frames are labelled by interval.
    """
    if n_windows < 1:
        raise ModelError(f"n_windows must be >= 1, got {n_windows}")
    if trace.n_bursts == 0:
        raise ModelError("cannot window an empty trace")
    return slice_trace(trace, n_windows=n_windows)[1]
