"""Weighted point configurations: the discrete measures being optimized."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, SchemaError, floats
from .geometry import ChartManifold

WEIGHT_JITTER = 0.5   # random_measure draws weights in 1 +- this, then scales them


@dataclass(frozen=True)
class DiscreteMeasure:
    """A finite sum of weighted Dirac points on a chart manifold.

    All weights are strictly positive; a point whose weight reaches zero
    must be dropped, not stored.
    """

    manifold: ChartManifold
    points: np.ndarray   # (n, m)
    weights: np.ndarray  # (n,)

    def __post_init__(self):
        pts = floats(self.points, "measure points")
        w = floats(self.weights, "measure weights").ravel()
        # before the dimension, which an empty list, of shape (0,), does not have
        if pts.size == 0 and w.size == 0:
            raise SchemaError("a measure needs at least one point")
        pts = np.atleast_2d(pts)
        if pts.shape[1] != self.manifold.dim:
            raise DimensionMismatchError(
                f"points of dimension {pts.shape[1]} on a "
                f"{self.manifold.dim}-dimensional manifold")
        if pts.shape[0] != w.shape[0]:
            raise SchemaError("points and weights must have equal length")
        if not (np.isfinite(pts).all() and np.isfinite(w).all()):
            raise SchemaError("points and weights must be finite")
        if (w <= 0).any():
            raise SchemaError("all weights must be strictly positive")
        pts.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)

    @property
    def count(self) -> int:
        return self.points.shape[0]

    @property
    def total_volume(self) -> float:
        return float(self.weights.sum())

    def replace(self, points: np.ndarray | None = None,
                weights: np.ndarray | None = None) -> "DiscreteMeasure":
        return DiscreteMeasure(
            manifold=self.manifold,
            points=self.points if points is None else points,
            weights=self.weights if weights is None else weights)

    def to_dict(self) -> dict:
        return {
            "manifold": self.manifold.to_dict(),
            "points": self.points.tolist(),
            "weights": self.weights.tolist(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DiscreteMeasure":
        try:
            manifold = ChartManifold.from_dict(data["manifold"])
            points, weights = data["points"], data["weights"]
        except (KeyError, TypeError) as exc:
            raise SchemaError(f"bad measure descriptor: {exc}") from exc
        return cls(manifold=manifold, points=points, weights=weights)


def random_measure(manifold: ChartManifold, count: int, total_volume: float,
                   seed: int, box: tuple | None = None) -> DiscreteMeasure:
    """Seeded random configuration with weights jittered around the mean."""
    if count < 1 or total_volume <= 0:
        raise SchemaError("generator needs count >= 1 and positive volume")
    rng = np.random.default_rng(seed)
    pts = manifold.uniform_samples(count, rng, box)
    w = rng.uniform(1.0 - WEIGHT_JITTER, 1.0 + WEIGHT_JITTER, count)
    w *= total_volume / w.sum()
    return DiscreteMeasure(manifold=manifold, points=pts, weights=w)
