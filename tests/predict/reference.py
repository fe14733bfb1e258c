"""Brute-force trend fitting: the specification of the closed-form engine.

:mod:`repro.predict.models` fits and cross-validates in closed form.
This module keeps the direct formulation it must reproduce: line fits by
``np.polyfit``, the plateau by one ``lstsq`` per grid scale, and
leave-one-out by refitting each family once per held-out point, with the
same selection and tie rule as :func:`repro.predict.models.fit_best_model`.

The two solvers part only where a design matrix is (near-)singular:
``lstsq`` truncates it to a lower rank, the closed form does not.
:data:`LOWEST_RANK` records the lowest rank any fit returned since it was
last reset, so a differential test can tell those series apart.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ModelError
from repro.predict.models import (
    ConstantModel,
    LinearModel,
    PlateauModel,
    PowerLawModel,
    TrendModel,
)

#: Lowest ``lstsq`` rank returned since the last reset (2 = full rank).
LOWEST_RANK = [2]


def _line(u: np.ndarray, v: np.ndarray) -> tuple[float, float]:
    (slope, intercept), _, rank, _, _ = np.polyfit(u, v, 1, full=True)
    LOWEST_RANK[0] = min(LOWEST_RANK[0], int(rank))
    return float(slope), float(intercept)


def fit_constant(x: np.ndarray, y: np.ndarray) -> ConstantModel:
    return ConstantModel(value=float(np.mean(y)))


def fit_linear(x: np.ndarray, y: np.ndarray) -> LinearModel:
    slope, intercept = _line(x, y)
    return LinearModel(slope=slope, intercept=intercept)


def fit_power_law(x: np.ndarray, y: np.ndarray) -> PowerLawModel:
    if np.any(x <= 0) or np.any(y <= 0):
        raise ModelError("power-law fit requires positive x and y")
    exponent, log_c = _line(np.log(x), np.log(y))
    return PowerLawModel(coefficient=float(np.exp(log_c)), exponent=exponent)


def fit_plateau(x: np.ndarray, y: np.ndarray) -> PlateauModel:
    if x.size < 3:
        raise ModelError("plateau fit needs at least 3 points")
    spans = np.ptp(x) or 1.0
    best: tuple[float, float, float, float] | None = None
    for scale in np.geomspace(spans / 20, spans * 5, 24):
        design = np.column_stack([np.ones_like(x), np.exp(-x / scale)])
        coef, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
        LOWEST_RANK[0] = min(LOWEST_RANK[0], int(rank))
        residual = design @ coef - y
        sse = float(residual @ residual)
        if best is None or sse < best[0]:
            best = (sse, float(coef[0]), float(coef[1]), float(scale))
    _, plateau, amplitude, scale = best
    return PlateauModel(plateau=plateau, amplitude=amplitude, scale=scale)


FITS = {
    ConstantModel: fit_constant,
    LinearModel: fit_linear,
    PowerLawModel: fit_power_law,
    PlateauModel: fit_plateau,
}


def loo_rmse(family: type[TrendModel], x: np.ndarray, y: np.ndarray) -> float:
    """Leave-one-out RMSE, refitting once per held-out point."""
    errors = []
    for hold in range(x.size):
        mask = np.arange(x.size) != hold
        try:
            model = FITS[family](x[mask], y[mask])
        except (ModelError, np.linalg.LinAlgError):
            return float("inf")
        prediction = float(model.predict(np.asarray([x[hold]]))[0])
        errors.append((prediction - y[hold]) ** 2)
    return float(np.sqrt(np.mean(errors)))


def fit_best_model(x: np.ndarray, y: np.ndarray) -> TrendModel:
    """Fit every family, score each and return the winner (finite x, y)."""
    scored: list[tuple[float, int, TrendModel]] = []
    for family, fit in FITS.items():
        try:
            model = fit(x, y)
        except (ModelError, np.linalg.LinAlgError):
            continue
        if x.size >= 4:
            score = loo_rmse(family, x, y)
        else:
            scale = float(np.std(y)) or 1.0
            score = model.rmse(x, y) + 0.05 * scale * family.n_parameters
        if np.isfinite(score):
            scored.append((score, family.n_parameters, model))
    if not scored:
        raise ModelError("no trend model could fit the data")
    floor = 1e-12 * max(1.0, float(np.max(np.abs(y))))
    best_score = min(score for score, _, _ in scored)
    contenders = [item for item in scored if item[0] <= best_score * 1.15 + floor]
    fewest = min(n_parameters for _, n_parameters, _ in contenders)
    contenders = [item for item in contenders if item[1] == fewest]
    lowest = min(score for score, _, _ in contenders)
    return next(
        model for score, _, model in contenders
        if score <= lowest * (1.0 + 1e-9) + floor
    )
