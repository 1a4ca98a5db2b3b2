"""Chart manifolds (euclidean space and flat tori) and displacement vectors."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, SchemaError, known_fields, number

EUCLIDEAN = "euclidean"
TORUS = "torus"


@dataclass(frozen=True)
class ChartManifold:
    """A single-chart manifold: R^m, or a flat torus with given periods.

    The torus displacement reduces each component of ``x - y`` to the
    nearest representative, so displacements are antisymmetric and their
    components lie in [-period/2, period/2].
    """

    kind: str
    dim: int
    periods: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.kind not in (EUCLIDEAN, TORUS):
            raise SchemaError(f"unknown manifold kind {self.kind!r}")
        object.__setattr__(self, "dim", number(
            self.dim, "manifold dim", integer=True, least=1))
        if self.kind == TORUS:
            if not isinstance(self.periods, (list, tuple, np.ndarray)) \
                    or len(self.periods) != self.dim:
                raise SchemaError("torus needs one period per dimension")
            object.__setattr__(self, "periods", tuple(
                number(p, "manifold periods entry", above=0) for p in self.periods))
        elif self.periods is not None:
            raise SchemaError("euclidean manifold takes no periods")

    def displacement(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Componentwise x - y, wrapped to the nearest representative on a torus.

        Broadcasts over leading axes; the trailing axis must have length ``dim``.
        """
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.shape[-1] != self.dim or y.shape[-1] != self.dim:
            raise DimensionMismatchError(
                f"points of dimension {x.shape[-1]}/{y.shape[-1]} on a "
                f"{self.dim}-dimensional manifold"
            )
        # One contiguous array per chart component: elementwise operations on
        # the (..., dim) array would each run an inner loop of length dim.
        d = np.empty(np.broadcast(x[..., 0], y[..., 0]).shape + (self.dim,))
        for k in range(self.dim):
            dk = x[..., k] - y[..., k]
            if self.kind == TORUS:
                p = self.periods[k]
                # rint ties-to-even keeps displacement antisymmetric at half period
                dk -= p * np.rint(dk / p)
            d[..., k] = dk
        return d

    def uniform_samples(self, count: int, rng: np.random.Generator,
                        box: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
        """Uniform sample points: over the torus cell, or over a bounding box."""
        if self.kind == TORUS:
            lo = np.zeros(self.dim)
            hi = np.asarray(self.periods)
        else:
            if box is None:
                raise SchemaError("euclidean sampling needs a bounding box")
            lo, hi = (np.asarray(b, dtype=float) for b in box)
        return rng.uniform(lo, hi, size=(count, self.dim))

    def to_dict(self) -> dict:
        out = {"kind": self.kind, "dim": self.dim}
        if self.periods is not None:
            out["periods"] = list(self.periods)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "ChartManifold":
        try:
            kind, dim = data["kind"], data["dim"]
        except (KeyError, TypeError) as exc:
            raise SchemaError(f"bad manifold descriptor: {exc}") from exc
        known_fields(data, ("kind", "dim", "periods"), "manifold")
        return cls(kind=kind, dim=dim, periods=data.get("periods"))
