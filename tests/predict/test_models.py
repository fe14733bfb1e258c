"""Unit tests for trend models and model selection."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.errors import ModelError
from repro.predict import models
from repro.predict.models import (
    ConstantModel,
    LinearModel,
    PlateauModel,
    PowerLawModel,
    fit_best_model,
)


class TestIndividualModels:
    def test_constant(self):
        model = ConstantModel.fit(np.asarray([1.0, 2.0]), np.asarray([5.0, 5.2]))
        assert model.value == pytest.approx(5.1)
        np.testing.assert_allclose(model.predict(np.asarray([9.0])), [5.1])

    def test_linear_exact(self):
        x = np.asarray([1.0, 2.0, 3.0])
        model = LinearModel.fit(x, 2 * x + 1)
        assert model.slope == pytest.approx(2.0)
        assert model.intercept == pytest.approx(1.0)

    def test_power_law_exact(self):
        x = np.asarray([1.0, 2.0, 4.0, 8.0])
        y = 3.0 * x**-0.5
        model = PowerLawModel.fit(x, y)
        assert model.coefficient == pytest.approx(3.0)
        assert model.exponent == pytest.approx(-0.5)

    def test_power_law_rejects_nonpositive(self):
        with pytest.raises(ModelError):
            PowerLawModel.fit(np.asarray([0.0, 1.0]), np.asarray([1.0, 2.0]))
        with pytest.raises(ModelError):
            PowerLawModel.fit(np.asarray([1.0, 2.0]), np.asarray([-1.0, 2.0]))

    def test_plateau_recovers_shape(self):
        x = np.linspace(0, 10, 12)
        y = 0.3 + 0.5 * np.exp(-x / 2.0)
        model = PlateauModel.fit(x, y)
        assert model.plateau == pytest.approx(0.3, abs=0.03)
        np.testing.assert_allclose(model.predict(x), y, atol=0.02)

    def test_plateau_needs_points(self):
        with pytest.raises(ModelError):
            PlateauModel.fit(np.asarray([1.0, 2.0]), np.asarray([1.0, 2.0]))

    def test_rmse(self):
        model = ConstantModel(value=1.0)
        assert model.rmse(np.asarray([0.0, 1.0]), np.asarray([1.0, 3.0])) == (
            pytest.approx(np.sqrt(2.0))
        )


class TestSelection:
    def test_selects_constant_for_flat(self):
        rng = np.random.default_rng(0)
        x = np.arange(1.0, 9.0)
        y = 5.0 + 1e-6 * rng.standard_normal(8)
        assert isinstance(fit_best_model(x, y), ConstantModel)

    def test_selects_linearish_for_line(self):
        x = np.arange(1.0, 9.0)
        model = fit_best_model(x, 2 * x + 3)
        np.testing.assert_allclose(model.predict(x), 2 * x + 3, rtol=1e-3)

    def test_selects_power_law_for_scaling(self):
        x = np.asarray([16.0, 32.0, 64.0, 128.0, 256.0])
        y = 1e9 / x
        model = fit_best_model(x, y)
        prediction = float(model.predict(np.asarray([512.0]))[0])
        assert prediction == pytest.approx(1e9 / 512, rel=0.05)

    def test_selects_plateau_for_saturation(self):
        x = np.linspace(0, 12, 13)
        y = 0.4 + 0.6 * np.exp(-x / 1.5)
        model = fit_best_model(x, y)
        tail = float(model.predict(np.asarray([50.0]))[0])
        assert tail == pytest.approx(0.4, abs=0.05)

    def test_negative_values_fall_back_gracefully(self):
        x = np.arange(1.0, 6.0)
        y = -2 * x  # power law impossible
        model = fit_best_model(x, y)
        np.testing.assert_allclose(model.predict(x), y, atol=1e-6)

    def test_nan_filtering(self):
        x = np.asarray([1.0, 2.0, 3.0, 4.0])
        y = np.asarray([2.0, np.nan, 6.0, 8.0])
        model = fit_best_model(x, y)
        assert float(model.predict(np.asarray([5.0]))[0]) == pytest.approx(10.0, rel=0.05)

    def test_two_point_tie_goes_to_the_line(self):
        # Both two-parameter families interpolate two points; their
        # training errors (2.2e-16 vs 1.6e-16) differ only by rounding.
        model = fit_best_model(np.asarray([23.0, 24.0]), np.asarray([0.6, 0.61]))
        assert isinstance(model, LinearModel)

    def test_too_few_points(self):
        with pytest.raises(ModelError):
            fit_best_model(np.asarray([1.0]), np.asarray([1.0]))

    def test_shape_mismatch(self):
        with pytest.raises(ModelError):
            fit_best_model(np.asarray([1.0, 2.0]), np.asarray([1.0]))


class TestSelectionCost:
    def test_fits_do_not_grow_with_the_history(self, monkeypatch):
        # Leave-one-out used to refit every family once per held-out
        # point (36 fits at 8 points, 260 at 64); the closed form fits
        # the winner, plus the plateau folds that narrow its grid.
        calls: Counter[str] = Counter()
        for family in models._CANDIDATES:
            def counting(cls, x, y, fit=family.fit, name=family.__name__):
                calls[name] += 1
                return fit(x, y)

            monkeypatch.setattr(family, "fit", classmethod(counting))
        rng = np.random.default_rng(0)
        x = np.arange(1.0, 65.0)
        y = 3.0 + 0.5 * x + 0.05 * rng.standard_normal(x.size)
        counts = []
        for n in (8, 64):
            calls.clear()
            fit_best_model(x[:n], y[:n])
            counts.append(dict(calls))
        assert counts[0] == counts[1]

    def test_plateau_folds_in_blocks_score_the_same(self, monkeypatch):
        # Long series split the (scale, fold, point) residuals into
        # blocks of folds; the blocks must not change any fold's score.
        rng = np.random.default_rng(1)
        x = np.arange(1.0, 41.0)
        y = 0.4 + 0.6 * np.exp(-x / 6.0) + 0.01 * rng.standard_normal(x.size)
        whole = models._loo_rmse(PlateauModel, x, y)
        monkeypatch.setattr(models, "_BLOCK", 24 * x.size * 3)
        assert models._loo_rmse(PlateauModel, x, y) == whole
