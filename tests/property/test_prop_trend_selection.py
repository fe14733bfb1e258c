"""Property-based tests for trend-family selection.

Includes the differential suite against :mod:`tests.predict.reference`:
the brute-force fits (``np.polyfit`` lines, one ``lstsq`` per plateau
scale, one refit per held-out point) are the specification, and the
closed-form engine must pick the same family, score the same
leave-one-out errors and forecast the same next value.
"""

from __future__ import annotations

import numpy as np
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from repro.predict.models import (
    ConstantModel,
    LinearModel,
    PowerLawModel,
    _loo_rmse,
    fit_best_model,
)
from tests.predict import reference

positive_y = st.floats(min_value=1e-3, max_value=1e6)


@given(st.integers(min_value=1, max_value=10_000), positive_y, positive_y)
@settings(max_examples=200, deadline=None)
def test_two_points_never_pick_the_power_law_by_rounding(x0, y0, y1):
    # At two points a line and a power law both interpolate exactly, so
    # their scores differ only by rounding: the first family in
    # candidate order must win, whichever rounds lower.
    x = np.asarray([x0, x0 + 1.0])
    model = fit_best_model(x, np.asarray([y0, y1]))
    if not np.isclose(y0, y1, rtol=1e-9, atol=0.0):
        assert isinstance(model, LinearModel)


SHAPES = ("flat", "linear-1e9", "power-law", "plateau", "noise")


@st.composite
def series(draw):
    """``(x, y)`` of 2-64 points: consecutive or irregular x (from 0 or
    above), and one of :data:`SHAPES`, noise-free or noisy."""
    n = draw(st.integers(min_value=2, max_value=64))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    start = draw(st.sampled_from([0.0, 1.0, float(draw(st.integers(2, 500)))]))
    if draw(st.booleans()):
        x = start + np.arange(n, dtype=np.float64)
    else:
        gaps = rng.uniform(0.05, 10.0, n)
        x = start + np.cumsum(gaps) - gaps[0]
    shape = draw(st.sampled_from(SHAPES))
    noise = draw(st.sampled_from([0.0, 1e-9, 1e-3, 0.1]))
    wiggle = 1.0 + noise * rng.uniform(-1.0, 1.0, n)
    if shape == "flat":
        y = draw(st.floats(-1e3, 1e3)) * wiggle
    elif shape == "linear-1e9":
        slope, intercept = rng.uniform(-1.0, 1.0, 2)
        y = 1e9 * (slope * x + intercept) * wiggle
    elif shape == "power-law":
        base = x + (x[0] == 0)  # a power law needs positive x
        y = rng.uniform(0.1, 1e3) * np.power(base, rng.uniform(-2, 2)) * wiggle
    elif shape == "plateau":
        scale = rng.uniform(0.05, 2.0) * max(float(np.ptp(x)), 1.0)
        y = 0.4 + rng.uniform(-2.0, 2.0) * np.exp(-(x - x[0]) / scale) * wiggle
    else:
        low = draw(st.sampled_from([-1.0, 0.0, 1.0]))
        y = rng.uniform(low, low + 2.0, n)
    event(f"shape {shape}")
    return x, y


def _close(a: float, b: float, y: np.ndarray) -> bool:
    """Within 1e-9 relative, or both infinite.  The absolute floor is
    the selection's tie floor, for values that are rounding noise."""
    if not (np.isfinite(a) and np.isfinite(b)):
        return not (np.isfinite(a) or np.isfinite(b))
    floor = 1e-12 * max(1.0, float(np.max(np.abs(y))))
    return abs(a - b) <= 1e-9 * max(abs(a), abs(b)) + floor


@given(series())
@settings(max_examples=300, deadline=None)
def test_engine_matches_reference(data):
    x, y = data
    reference.LOWEST_RANK[0] = 2
    with np.errstate(all="ignore"):
        expected = reference.fit_best_model(x, y)
        scores = {
            family: reference.loo_rmse(family, x, y)
            for family in (ConstantModel, LinearModel, PowerLawModel)
        } if x.size >= 4 else {}
        # Truncating a near-singular design is the one place the two
        # solvers may part; the closed form keeps the full rank.
        if reference.LOWEST_RANK[0] < 2:
            event("skipped: reference lstsq rank < 2")
        assume(reference.LOWEST_RANK[0] == 2)
        model = fit_best_model(x, y)
        x_next = np.asarray([x[-1] + 1.0])
        predicted = float(model.predict(x_next)[0])
        wanted = float(expected.predict(x_next)[0])

    assert type(model) is type(expected)
    for family, score in scores.items():
        assert _close(_loo_rmse(family, x, y), score, y), family.__name__
    assert _close(predicted, wanted, y)
