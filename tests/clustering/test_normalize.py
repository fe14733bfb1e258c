"""Unit tests for axis normalisation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.clustering.normalize import MinMaxScaler, normalize_columns
from repro.errors import ClusteringError


class TestMinMaxScaler:
    def test_maps_to_unit_box(self):
        values = np.asarray([[0.0, 10.0], [5.0, 20.0], [10.0, 30.0]])
        scaled, scaler = normalize_columns(values)
        np.testing.assert_allclose(scaled.min(axis=0), [0.0, 0.0])
        np.testing.assert_allclose(scaled.max(axis=0), [1.0, 1.0])

    def test_inverse_roundtrip(self):
        rng = np.random.default_rng(0)
        values = rng.normal(size=(40, 3)) * [1.0, 100.0, 1e-6]
        scaled, scaler = normalize_columns(values)
        np.testing.assert_allclose(scaler.inverse(scaled), values, atol=1e-12)

    def test_degenerate_column_maps_to_half(self):
        values = np.asarray([[1.0, 5.0], [2.0, 5.0]])
        scaled, _ = normalize_columns(values)
        np.testing.assert_allclose(scaled[:, 1], [0.5, 0.5])

    def test_transform_out_of_range(self):
        scaler = MinMaxScaler.fit(np.asarray([[0.0], [10.0]]))
        assert scaler.transform(np.asarray([[20.0]]))[0, 0] == pytest.approx(2.0)

    def test_fit_empty_rejected(self):
        with pytest.raises(ClusteringError):
            MinMaxScaler.fit(np.empty((0, 2)))

    def test_fit_1d_rejected(self):
        with pytest.raises(ClusteringError):
            MinMaxScaler.fit(np.zeros(5))

    def test_fit_nan_rejected(self):
        with pytest.raises(ClusteringError):
            MinMaxScaler.fit(np.asarray([[np.nan, 1.0]]))

    def test_span_never_zero(self):
        scaler = MinMaxScaler.fit(np.asarray([[3.0], [3.0]]))
        assert scaler.span[0] == 1.0
