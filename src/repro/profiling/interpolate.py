"""Interpolation over sampled performance data.

"Interpolation of these data gives reasonable prediction of application
performance under different run-time conditions."  Given scattered or
gridded samples of one metric over the resource space, an
:class:`Interpolator` predicts the metric at arbitrary query points:

- 1-D: piecewise-linear with linear extrapolation at the ends;
- N-D on a full rectangular grid: multilinear
  (:class:`scipy.interpolate.RegularGridInterpolator`), clipped to the
  grid's bounding box for out-of-range queries;
- N-D scattered: linear barycentric (``scipy.interpolate.griddata``) with
  nearest-neighbour fallback outside the convex hull.

Flat samples, where some axis holds a single value (a vary-one-axis
sweep), span no N-D volume: Qhull cannot triangulate them, so every
query is answered by the nearest sample.  That lookup runs in numpy over
the same squared distances scipy's k-d tree compares; only an exact tie
is handed to scipy's :class:`~scipy.interpolate.NearestNDInterpolator`,
so its tie-breaking decides.

scipy is imported on the first N-D build that needs it, not with this
module: the constant, 1-D and flat kinds, and every process that never
builds another N-D interpolator, run without it.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

__all__ = ["Interpolator", "InterpolationError"]


class InterpolationError(Exception):
    """Raised for unusable sample sets."""


def _detect_grid(X: np.ndarray) -> Optional[List[np.ndarray]]:
    """Return per-dimension sorted unique values if X is a full grid."""
    axes = [np.unique(X[:, j]) for j in range(X.shape[1])]
    expected = int(np.prod([len(a) for a in axes]))
    if expected != X.shape[0]:
        return None
    # Verify every grid point is present (unique rows == expected).
    if len({tuple(row) for row in X}) != expected:
        return None
    return axes


class Interpolator:
    """Predicts one scalar quantity from samples over R^d."""

    def __init__(self, X: Sequence[Sequence[float]], y: Sequence[float]):
        Xa = np.asarray(X, dtype=np.float64)
        ya = np.asarray(y, dtype=np.float64)
        if Xa.ndim != 2 or Xa.shape[0] != ya.shape[0] or Xa.shape[0] == 0:
            raise InterpolationError(
                f"bad sample shapes X={Xa.shape} y={ya.shape}"
            )
        # Deduplicate identical sample locations (keep the mean response).
        seen = {}
        for row, val in zip(map(tuple, Xa), ya):
            seen.setdefault(row, []).append(val)
        Xa = np.asarray(list(seen.keys()), dtype=np.float64)
        ya = np.asarray([float(np.mean(v)) for v in seen.values()])
        self.X = Xa
        self.y = ya
        self.ndim = Xa.shape[1]
        self._build()

    def _build(self) -> None:
        if len(self.y) == 1:
            const = float(self.y[0])
            self._predict = lambda q: const
            self.kind = "constant"
            return
        if self.ndim == 1:
            order = np.argsort(self.X[:, 0])
            xs = self.X[order, 0]
            ys = self.y[order]

            def predict_1d(q: np.ndarray) -> float:
                x = float(q[0])
                if x == xs[0]:
                    return float(ys[0])
                if x == xs[-1]:
                    return float(ys[-1])
                if x < xs[0]:  # linear extrapolation at the low end
                    with np.errstate(over="ignore", invalid="ignore"):
                        slope = (ys[1] - ys[0]) / (xs[1] - xs[0])
                        value = ys[0] + slope * (x - xs[0])
                    return float(value) if np.isfinite(value) else float(ys[0])
                if x > xs[-1]:
                    with np.errstate(over="ignore", invalid="ignore"):
                        slope = (ys[-1] - ys[-2]) / (xs[-1] - xs[-2])
                        value = ys[-1] + slope * (x - xs[-1])
                    return float(value) if np.isfinite(value) else float(ys[-1])
                return float(np.interp(x, xs, ys))

            self._predict = predict_1d
            self.kind = "linear-1d"
            return
        if (self.X == self.X[0]).all(axis=0).any():
            # Flat: the scattered path below could only ever answer by
            # nearest neighbour, so skip the Qhull build that must fail.
            X, y = self.X, self.y
            tie_break = None

            def predict_flat(q: np.ndarray) -> float:
                nonlocal tie_break
                # Summed over every axis, in axis order, as cKDTree does.
                d = ((X - q) ** 2).sum(axis=1)
                i = int(d.argmin())
                if np.count_nonzero(d == d[i]) == 1:
                    return float(y[i])
                if tie_break is None:  # exact tie (or a non-finite query)
                    from scipy.interpolate import NearestNDInterpolator

                    tie_break = NearestNDInterpolator(X, y)
                return float(tie_break(q[None, :])[0])

            self._predict = predict_flat
            self.kind = "scattered"
            return
        from scipy.interpolate import (
            LinearNDInterpolator,
            NearestNDInterpolator,
            RegularGridInterpolator,
        )

        axes = _detect_grid(self.X)
        if axes is not None and all(len(a) >= 2 for a in axes):
            shape = tuple(len(a) for a in axes)
            values = np.empty(shape)
            index = {tuple(row): i for i, row in enumerate(map(tuple, self.X))}
            for combo_idx in np.ndindex(*shape):
                coords = tuple(axes[j][combo_idx[j]] for j in range(self.ndim))
                values[combo_idx] = self.y[index[coords]]
            rgi = RegularGridInterpolator(
                axes, values, method="linear", bounds_error=False, fill_value=None
            )
            lo = np.array([a[0] for a in axes])
            hi = np.array([a[-1] for a in axes])

            def predict_grid(q: np.ndarray) -> float:
                # Clip to the box: beyond-sampled-range queries use the edge
                # value ("or even extrapolation" in the paper is the RGI's
                # linear fill for mild overshoot; we clip to stay stable).
                clipped = np.minimum(hi, np.maximum(lo, q))
                return float(rgi(clipped)[0])

            self._predict = predict_grid
            self.kind = "multilinear-grid"
            return
        # Scattered data.
        nearest = NearestNDInterpolator(self.X, self.y)
        linear = None
        if len(self.y) > self.ndim + 1:
            try:
                linear = LinearNDInterpolator(self.X, self.y)
            except Exception:  # degenerate geometry (collinear points, ...)
                linear = None

        def predict_scattered(q: np.ndarray) -> float:
            if linear is not None:
                v = linear(q[None, :])[0]
                if not np.isnan(v):
                    return float(v)
            return float(nearest(q[None, :])[0])

        self._predict = predict_scattered
        self.kind = "scattered"

    def __call__(self, query: Sequence[float]) -> float:
        q = np.asarray(query, dtype=np.float64)
        if q.shape != (self.ndim,):
            raise InterpolationError(
                f"query shape {q.shape} does not match dimensionality {self.ndim}"
            )
        return self._predict(q)
