"""Axis normalisation for clustering and cross-frame comparison.

Two scalings are used in the pipeline:

- **per-frame min-max** before DBSCAN, so one eps value is meaningful
  for both axes regardless of units (IPC is O(1), instruction counts
  are O(10^9));
- **cross-frame scale normalisation** for tracking (implemented in
  :mod:`repro.tracking.scaling`), whose
  :class:`~repro.tracking.scaling.SpaceBounds` fits a
  :class:`MinMaxScaler` over the union of all frames' weighted points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ClusteringError

__all__ = ["MinMaxScaler", "normalize_columns"]


@dataclass(frozen=True, slots=True)
class MinMaxScaler:
    """Affine map sending ``[lo, hi]`` per column to ``[0, 1]``.

    Degenerate columns (``lo == hi``) map to the constant 0.5 so that
    single-valued metrics do not explode the transform.
    """

    lo: np.ndarray
    hi: np.ndarray

    @classmethod
    def fit(cls, values: np.ndarray) -> "MinMaxScaler":
        """Fit column-wise bounds on a ``(n, d)`` array."""
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 2:
            raise ClusteringError(f"expected a 2-D array, got shape {values.shape}")
        if values.shape[0] == 0:
            raise ClusteringError("cannot fit a scaler on an empty array")
        if not np.isfinite(values).all():
            raise ClusteringError("values contain NaN or infinite entries")
        return cls(lo=values.min(axis=0), hi=values.max(axis=0))

    @property
    def span(self) -> np.ndarray:
        """Per-column range, with degenerate columns mapped to 1."""
        span = self.hi - self.lo
        return np.where(span > 0, span, 1.0)

    def transform(self, values: np.ndarray) -> np.ndarray:
        """Scale *values* into the fitted [0, 1] box (out-of-range values
        land outside [0, 1], which is fine for distance computations)."""
        values = np.asarray(values, dtype=np.float64)
        scaled = (values - self.lo) / self.span
        degenerate = (self.hi - self.lo) <= 0
        if degenerate.any():
            scaled[:, degenerate] = 0.5
        return scaled

    def inverse(self, scaled: np.ndarray) -> np.ndarray:
        """Undo :meth:`transform`."""
        scaled = np.asarray(scaled, dtype=np.float64)
        return scaled * self.span + self.lo


def normalize_columns(values: np.ndarray) -> tuple[np.ndarray, MinMaxScaler]:
    """Min-max scale each column of *values*; return (scaled, scaler)."""
    scaler = MinMaxScaler.fit(values)
    return scaler.transform(values), scaler
