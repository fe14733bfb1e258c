"""Trend model zoo for per-region metric evolution.

Each model maps a scalar scenario parameter (process count, problem
size, block size, node occupation...) to a metric value.  Models are
deliberately simple — the trends the tracker extracts are low-sample
(one point per experiment), so parsimony beats flexibility.  Model
selection uses leave-one-out cross-validation when enough points exist,
falling back to training error otherwise.

Every family but the constant is a least-squares line ``y ≈ a + b u``
in one basis ``u``: ``x`` itself, ``log x`` against ``log y``, or
``exp(-x / scale)`` at each scale of the plateau's grid.  One
closed-form core, :class:`_Lines`, fits them from centred sums, and the
same sums give each point's leverage ``h_ii``, so cross-validation
needs no refit: the fit without point *i* misses it by
``e_i / (1 - h_ii)`` (the PRESS residual).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from repro.errors import ModelError

__all__ = [
    "TrendModel",
    "ConstantModel",
    "LinearModel",
    "PowerLawModel",
    "PlateauModel",
    "fit_best_model",
]

#: Elements per block of the plateau's (scale, fold, point) residuals,
#: which bounds cross-validation memory on long series.
_BLOCK = 1 << 20


class _Lines:
    """Least-squares lines ``y ≈ intercept + slope * u``, one per row of *u*.

    Solved from centred sums; a row whose ``u`` has no spread fits the
    mean (slope 0).  Row *k* of the hat matrix is
    ``1/n + du[k, i] du[k, j] / suu[k]``, and ``held_out`` is each
    point's residual under the fit to the other points.
    """

    def __init__(self, u: np.ndarray, y: np.ndarray) -> None:
        # Sums over the small arrays of a trend: ndarray.sum is cheaper
        # than mean's per-call overhead, and rounds the same.
        n = y.size
        y_mean = y.sum() / n
        u_mean = u.sum(axis=-1) / n
        dy = y - y_mean
        self.n = n
        self.du = u - u_mean[..., None]
        suu = (self.du * self.du).sum(axis=-1)
        self.suu = np.where(suu > 0.0, suu, 1.0)
        self.slope = (self.du @ dy) / self.suu
        self.intercept = y_mean - self.slope * u_mean
        self.residual = dy - self.slope[..., None] * self.du

    @property
    def held_out(self) -> np.ndarray:
        """PRESS residuals ``e_i / (1 - h_ii)``."""
        leverage = 1.0 / self.n + self.du * self.du / self.suu[..., None]
        return self.residual / (1.0 - leverage)


def _first_min(values: np.ndarray) -> np.ndarray:
    """Index of the first minimum along axis 0, NaN counting as +inf."""
    return np.argmin(np.where(np.isnan(values), np.inf, values), axis=0)


class TrendModel(ABC):
    """A fitted scalar trend model."""

    #: Number of free parameters (for selection tie-breaking).
    n_parameters: ClassVar[int]

    @abstractmethod
    def predict(self, x: np.ndarray) -> np.ndarray:
        """Evaluate the model at *x*."""

    @classmethod
    @abstractmethod
    def fit(cls, x: np.ndarray, y: np.ndarray) -> "TrendModel":
        """Fit the model to observations."""

    @classmethod
    @abstractmethod
    def _loo_residuals(cls, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Leave-one-out residuals: ``y_i`` minus the prediction at
        ``x_i`` of the model fit to every other point."""

    def rmse(self, x: np.ndarray, y: np.ndarray) -> float:
        """Root-mean-square error on the given points."""
        residual = self.predict(np.asarray(x, dtype=np.float64)) - y
        return float(np.sqrt(np.mean(residual**2)))


@dataclass(frozen=True)
class ConstantModel(TrendModel):
    """``y = c`` — metrics that do not respond to the parameter."""

    value: float
    n_parameters = 1

    @classmethod
    def fit(cls, x: np.ndarray, y: np.ndarray) -> "ConstantModel":
        return cls(value=float(np.mean(y)))

    @classmethod
    def _loo_residuals(cls, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        # The mean of the other points misses y_i by n/(n-1) (y_i - mean).
        return y.size / (y.size - 1) * (y - y.mean())

    def predict(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        return np.full_like(x, self.value)


@dataclass(frozen=True)
class LinearModel(TrendModel):
    """``y = a x + b``."""

    slope: float
    intercept: float
    n_parameters = 2

    @classmethod
    def fit(cls, x: np.ndarray, y: np.ndarray) -> "LinearModel":
        x = np.asarray(x, dtype=np.float64)
        line = _Lines(x, np.asarray(y, dtype=np.float64))
        return cls(slope=float(line.slope), intercept=float(line.intercept))

    @classmethod
    def _loo_residuals(cls, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return _Lines(x, y).held_out

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self.slope * np.asarray(x, dtype=np.float64) + self.intercept


@dataclass(frozen=True)
class PowerLawModel(TrendModel):
    """``y = c x^e`` — scaling laws (work per process vs process count)."""

    coefficient: float
    exponent: float
    n_parameters = 2

    @staticmethod
    def _log_line(x: np.ndarray, y: np.ndarray) -> _Lines:
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if np.any(x <= 0) or np.any(y <= 0):
            raise ModelError("power-law fit requires positive x and y")
        return _Lines(np.log(x), np.log(y))

    @classmethod
    def fit(cls, x: np.ndarray, y: np.ndarray) -> "PowerLawModel":
        line = cls._log_line(x, y)
        return cls(
            coefficient=float(np.exp(line.intercept)), exponent=float(line.slope)
        )

    @classmethod
    def _loo_residuals(cls, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        # A held-out log residual r means the fold predicts y * exp(-r).
        return -y * np.expm1(-cls._log_line(x, y).held_out)

    def predict(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        return self.coefficient * np.power(x, self.exponent)


@dataclass(frozen=True)
class PlateauModel(TrendModel):
    """``y = plateau + amplitude * exp(-x / scale)`` — saturating trends.

    Captures the paper's "drops then stabilises" IPC patterns (NAS BT
    regions after the L2 cliff, HydroC after the L1 dip).  The scale,
    the only non-linear parameter, is the best of a 24-point grid over
    the span of *x*; at each scale plateau and amplitude are one line
    in ``exp(-x / scale)``, and all 24 are fit at once.
    """

    plateau: float
    amplitude: float
    scale: float
    n_parameters = 3

    @staticmethod
    def _scales(x: np.ndarray) -> np.ndarray:
        spans = float(np.ptp(x)) or 1.0
        return np.geomspace(spans / 20, spans * 5, 24)

    @classmethod
    def fit(cls, x: np.ndarray, y: np.ndarray) -> "PlateauModel":
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if x.size < 3:
            raise ModelError("plateau fit needs at least 3 points")
        scales = cls._scales(x)
        lines = _Lines(np.exp(-x / scales[:, None]), y)
        best = _first_min(np.einsum("ki,ki->k", lines.residual, lines.residual))
        return cls(
            plateau=float(lines.intercept[best]),
            amplitude=float(lines.slope[best]),
            scale=float(scales[best]),
        )

    @classmethod
    def _loo_residuals(cls, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        n = x.size
        if n < 4:
            raise ModelError("plateau cross-validation needs at least 4 points")
        scales = cls._scales(x)
        lines = _Lines(np.exp(-x / scales[:, None]), y)
        held = lines.held_out
        # Without point i, the others' residuals at each scale are
        # e_j + h_ij e_i / (1 - h_ii).  Summing their squares keeps each
        # fold's SSE exact; the shortcut SSE - e_i^2 / (1 - h_ii)
        # cancels to rounding noise on near-exact fits and picks the
        # wrong scale.
        fold_sse = np.empty_like(held)
        step = max(1, _BLOCK // held.size)
        for start in range(0, n, step):
            folds = np.arange(start, min(start + step, n))
            du_i = lines.du[:, folds, None] / lines.suu[:, None, None]
            hat = 1.0 / n + du_i * lines.du[:, None, :]
            resid = lines.residual[:, None, :] + hat * held[:, folds, None]
            resid[:, np.arange(folds.size), folds] = 0.0
            fold_sse[:, folds] = np.einsum("kij,kij->ki", resid, resid)
        residuals = held[_first_min(fold_sse), np.arange(n)]
        # Dropping the lone lowest or highest x narrows the grid: those
        # (at most two) folds are refit on their own grid.
        for i in {int(np.argmin(x)), int(np.argmax(x))}:
            rest = np.arange(n) != i
            if not np.array_equal(cls._scales(x[rest]), scales):
                fold = cls.fit(x[rest], y[rest])
                residuals[i] = y[i] - fold.predict(x[i : i + 1])[0]
        return residuals

    def predict(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        return self.plateau + self.amplitude * np.exp(-x / self.scale)


_CANDIDATES: tuple[type[TrendModel], ...] = (
    ConstantModel,
    LinearModel,
    PowerLawModel,
    PlateauModel,
)


def _loo_rmse(model_cls: type[TrendModel], x: np.ndarray, y: np.ndarray) -> float:
    """Leave-one-out RMSE of a model class on the observations."""
    try:
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            residuals = model_cls._loo_residuals(x, y)
            return float(np.sqrt(np.mean(residuals * residuals)))
    except ModelError:
        return float("inf")


def _winner(
    scored: list[tuple[float, type[TrendModel]]], y: np.ndarray
) -> type[TrendModel]:
    """The family to use, from ``(score, family)`` in candidate order."""
    scored = [(score, family) for score, family in scored if np.isfinite(score)]
    if not scored:
        raise ModelError("no trend model could fit the data")
    # Prefer parsimony among models whose scores are essentially tied —
    # a flat series must select the constant model, not a zero-slope
    # line that happened to win the cross-validation by float dust.
    floor = 1e-12 * max(1.0, float(np.max(np.abs(y))))
    best_score = min(score for score, _ in scored)
    contenders = [item for item in scored if item[0] <= best_score * 1.15 + floor]
    fewest = min(family.n_parameters for _, family in contenders)
    contenders = [item for item in contenders if item[1].n_parameters == fewest]
    # Equal-size families whose scores differ only by rounding (two
    # points, which a line and a power law both interpolate) are tied;
    # the first in candidate order wins, not the float dust.
    lowest = min(score for score, _ in contenders)
    return next(
        family for score, family in contenders
        if score <= lowest * (1.0 + 1e-9) + floor
    )


def fit_best_model(x: np.ndarray, y: np.ndarray) -> TrendModel:
    """Return the candidate that fits best by LOO cross-validation.

    Families are ranked before any fit, by their closed-form
    leave-one-out RMSE, and only the winner is fit.  With fewer than 4
    points, selection falls back to training RMSE with a parsimony
    penalty; candidates that cannot fit the data (e.g. power law with
    non-positive values) are skipped.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ModelError("x and y must be 1-D arrays of equal length")
    finite = np.isfinite(x) & np.isfinite(y)
    x, y = x[finite], y[finite]
    if x.size < 2:
        raise ModelError("need at least 2 finite points to fit a trend")

    if x.size >= 4:
        scored = [(_loo_rmse(family, x, y), family) for family in _CANDIDATES]
        return _winner(scored, y).fit(x, y)
    fitted: dict[type[TrendModel], TrendModel] = {}
    for family in _CANDIDATES:
        try:
            fitted[family] = family.fit(x, y)
        except ModelError:
            continue
    scale = float(np.std(y)) or 1.0
    scored = [
        (model.rmse(x, y) + 0.05 * scale * family.n_parameters, family)
        for family, model in fitted.items()
    ]
    return fitted[_winner(scored, y)]
