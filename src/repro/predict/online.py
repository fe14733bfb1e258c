"""Incremental trend refitting: the online half of :mod:`repro.predict`.

:func:`fit_best_model` was written for offline extrapolation — one shot
over a complete series.  A live watch refits after *every* window, so
running full model selection (with its leave-one-out cross-validation)
on each new point would make the forecast cost quadratic in stream
length.  :class:`OnlineTrend` splits the work:

- **coefficient refit** on every new observation — a single
  ``model_cls.fit`` of the currently selected family over the (bounded)
  history, cheap and exact.  The same pass over the history records
  the residuals' RMSE (for the reselection gate) and standard
  deviation (for :meth:`OnlineTrend.forecast`);
- **family reselection** — the full :func:`fit_best_model` pass, whose
  leave-one-out scores are closed-form — on the first fit, and
  thereafter only when two conditions coincide: at least
  ``reselect_every`` observations since the last selection, and the
  refit model's RMSE over the history has degraded beyond
  :data:`RESELECT_DEGRADATION` times the RMSE recorded at selection
  time.  A healthy family keeps fitting its regime, so steady streams
  pay one cheap fit per point; the costlier cross-validated selection
  re-runs exactly when the data stops looking like the chosen family —
  which is also when it could pick a different one.

Both steps are deterministic functions of the observed points, so a
resumed stream that replays its history lands in exactly the same model
state as the uninterrupted run — the property the checkpointed watch
relies on.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import ModelError
from repro.predict.extrapolate import RegionForecast
from repro.predict.models import TrendModel, fit_best_model

__all__ = ["ForecastPoint", "OnlineTrend", "RESELECT_DEGRADATION"]

#: Reselection trigger: the refit model's RMSE over the history must
#: exceed this multiple of the RMSE recorded at the last full selection
#: before another cross-validated :func:`fit_best_model` pass runs.
RESELECT_DEGRADATION = 2.0


class ForecastPoint:
    """One one-step-ahead prediction with its residual scale.

    Attributes
    ----------
    x:
        The parameter value the prediction targets (the next window).
    predicted:
        The model's value at *x*.
    residual_std:
        Standard deviation of the model's residuals over the history —
        the natural noise scale a divergence threshold is measured
        against.
    model:
        The fitted model that produced the prediction.
    """

    __slots__ = ("x", "predicted", "residual_std", "model")

    def __init__(
        self, x: float, predicted: float, residual_std: float, model: TrendModel
    ) -> None:
        self.x = x
        self.predicted = predicted
        self.residual_std = residual_std
        self.model = model

    @property
    def model_kind(self) -> str:
        """Class name of the producing model (``"LinearModel"``...)."""
        return type(self.model).__name__

    def __repr__(self) -> str:
        return (
            f"ForecastPoint(x={self.x:g}, predicted={self.predicted:.4g}, "
            f"residual_std={self.residual_std:.4g}, model={self.model_kind})"
        )


class OnlineTrend:
    """A scalar trend model refit incrementally as observations arrive.

    Parameters
    ----------
    reselect_every:
        Minimum number of observations between full model-family
        selections (:func:`fit_best_model`); between selections only
        the chosen family's coefficients are refit, and once the
        cadence is reached selection still waits for the refit RMSE to
        degrade past :data:`RESELECT_DEGRADATION` times the
        at-selection RMSE.  ``1`` reselects on every point (the
        offline behaviour, no degradation gate).
    max_history:
        Keep at most this many most-recent observations (``None`` =
        unbounded).  Bounding the history also bounds the refit cost,
        making per-window forecasting O(1) amortised in stream length.
    """

    def __init__(
        self, *, reselect_every: int = 4, max_history: int | None = 64
    ) -> None:
        if reselect_every < 1:
            raise ModelError("reselect_every must be >= 1")
        if max_history is not None and max_history < 2:
            raise ModelError("max_history must be >= 2 (or None)")
        self.reselect_every = int(reselect_every)
        self.max_history = max_history
        self._x: list[float] = []
        self._y: list[float] = []
        self._model: TrendModel | None = None
        self._since_reselect = 0
        self._selection_rmse = 0.0
        self._selection_points = 0
        self._residual_rmse = 0.0
        self._residual_std = 0.0

    # ------------------------------------------------------------------
    @property
    def n_observations(self) -> int:
        """Number of observations currently in the history window."""
        return len(self._x)

    @property
    def x(self) -> np.ndarray:
        """Observed parameter values (bounded history)."""
        return np.asarray(self._x, dtype=np.float64)

    @property
    def y(self) -> np.ndarray:
        """Observed metric values (bounded history)."""
        return np.asarray(self._y, dtype=np.float64)

    @property
    def model(self) -> TrendModel | None:
        """The current fitted model (``None`` before the first fit)."""
        return self._model

    @property
    def model_kind(self) -> str | None:
        """Class name of the current model, or ``None``."""
        return None if self._model is None else type(self._model).__name__

    # ------------------------------------------------------------------
    def observe(self, x: float, y: float) -> None:
        """Append one observation and refit.

        Non-finite observations are dropped (matching the offline
        fitters' finite-mask behaviour).  Refitting never raises: when
        no model can fit the current history (e.g. a single point), the
        model simply stays ``None`` until enough data arrives.
        """
        if not (np.isfinite(x) and np.isfinite(y)):
            return
        self._x.append(float(x))
        self._y.append(float(y))
        if self.max_history is not None and len(self._x) > self.max_history:
            del self._x[0], self._y[0]
        self._refit()

    def _refit(self) -> None:
        if len(self._x) < 2:
            return
        x, y = self.x, self.y
        try:
            if self._model is None:
                self._select(x, y)
                return
            self._adopt(type(self._model).fit(x, y), x, y)
            self._since_reselect += 1
            if self._since_reselect >= self.reselect_every and self._degraded(y):
                self._select(x, y)
        except ModelError:
            # The selected family stopped fitting (e.g. power law after
            # a non-positive value): fall back to full reselection, and
            # keep the previous model if even that fails.
            try:
                self._select(x, y)
            except ModelError:
                if self._model is not None:
                    self._adopt(self._model, x, y)

    def _adopt(self, model: TrendModel, x: np.ndarray, y: np.ndarray) -> None:
        """Make *model* current and record its residuals' RMSE and
        standard deviation over the history, so neither the
        reselection gate nor :meth:`forecast` re-predicts it."""
        residuals = model.predict(x) - y
        centred = residuals - residuals.sum() / residuals.size
        self._model = model
        self._residual_rmse = math.sqrt(residuals @ residuals / residuals.size)
        self._residual_std = math.sqrt(centred @ centred / residuals.size)

    def _select(self, x: np.ndarray, y: np.ndarray) -> None:
        """Full cross-validated family selection; records its RMSE."""
        self._adopt(fit_best_model(x, y), x, y)
        self._since_reselect = 0
        self._selection_rmse = self._residual_rmse
        self._selection_points = len(x)

    def _degraded(self, y: np.ndarray) -> bool:
        """Has the refit model's accuracy slipped since selection?

        A selection made with fewer than four points fits its tiny
        history exactly, so its RMSE says nothing about the series'
        noise level; the first cadence check with enough data
        re-baselines the RMSE from the cheap refit instead of treating
        ordinary noise as degradation.  The absolute floor keeps float
        dust from tripping the gate when the selected family fits
        exactly (``_selection_rmse == 0``).
        """
        if self.reselect_every == 1:
            return True
        if self._selection_points < 4 and len(y) >= 4:
            self._selection_rmse = self._residual_rmse
            self._selection_points = len(y)
            self._since_reselect = 0
            return False
        floor = 1e-9 * max(1.0, float(np.max(np.abs(y))))
        threshold = max(RESELECT_DEGRADATION * self._selection_rmse, floor)
        return self._residual_rmse > threshold

    def forecast(self, x_next: float) -> ForecastPoint | None:
        """One-step-ahead prediction at *x_next*, or ``None``.

        ``None`` means the trend has no usable model yet (fewer than
        two finite observations, or nothing could fit).
        """
        if self._model is None:
            return None
        predicted = float(self._model.predict(np.asarray([x_next]))[0])
        return ForecastPoint(
            x=float(x_next),
            predicted=predicted,
            residual_std=self._residual_std,
            model=self._model,
        )

    def as_region_forecast(
        self,
        region_id: int,
        metric: str,
        x_predict: np.ndarray | list[float],
    ) -> RegionForecast:
        """Package the current state as an offline-compatible forecast.

        Bridges back into :class:`repro.predict.RegionForecast`, so
        report code written for offline extrapolations renders online
        trends unchanged.
        """
        if self._model is None:
            raise ModelError(
                f"trend for region {region_id} metric {metric!r} has no "
                "fitted model yet"
            )
        x_predict = np.asarray(x_predict, dtype=np.float64)
        return RegionForecast(
            region_id=region_id,
            metric=metric,
            model=self._model,
            x_observed=self.x,
            y_observed=self.y,
            x_predicted=x_predict,
            y_predicted=self._model.predict(x_predict),
        )
