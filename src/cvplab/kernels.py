"""Symmetric non-negative kernel families with analytic derivatives.

Every family is a radial profile g of the squared chart distance,
L(x, y) = g(|displacement(x, y)|^2).  Evaluating through the squared
distance makes L(x, y) = L(y, x) hold bit-identically, and gives the
closed-form derivatives

    grad1   = dL/dx      = 2 g'(s) d
    hess11  = d2L/dx dx  = 2 g'(s) I + 4 g''(s) d d^T
    hess12  = d2L/dx dy  = -hess11

with d = displacement(x, y) and s = |d|^2.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from functools import cached_property

import numpy as np

from .errors import SchemaError, known_fields, number
from .geometry import ChartManifold


class RadialKernel:
    """Base class: a C^2 profile of the squared distance.

    Each family is a frozen dataclass whose fields are its parameters:
    positive finite numbers, checked on construction.
    """

    family: str = ""

    @property
    def cutoff(self) -> float | None:
        """Distance from which the profile is exactly +0.0, or None if it
        never vanishes."""
        return None

    def profile(self, s):
        raise NotImplementedError

    def profile_d1(self, s):
        raise NotImplementedError

    def profile_d2(self, s):
        raise NotImplementedError

    def _check_positive(self, *names: str) -> None:
        """Store each named field as a float; it must be a positive number."""
        for name in names:
            object.__setattr__(self, name, number(
                getattr(self, name), f"{self.family} {name}", above=0))

    def params(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def to_dict(self) -> dict:
        return {"family": self.family, "params": self.params()}


@dataclass(frozen=True)
class GaussianKernel(RadialKernel):
    """g(s) = exp(-s / sigma^2)."""

    sigma: float
    family = "gaussian"

    def __post_init__(self):
        self._check_positive("sigma")

    def profile(self, s):
        return np.exp(-np.asarray(s) / self.sigma**2)

    def profile_d1(self, s):
        return -self.profile(s) / self.sigma**2

    def profile_d2(self, s):
        return self.profile(s) / self.sigma**4


@dataclass(frozen=True)
class InversePowerKernel(RadialKernel):
    """g(s) = (1 + s / sigma^2)^(-p); long-range, strictly positive."""

    sigma: float
    exponent: float
    family = "inverse-power"

    def __post_init__(self):
        self._check_positive("sigma", "exponent")

    def _base(self, s):
        return 1.0 + np.asarray(s) / self.sigma**2

    def profile(self, s):
        return self._base(s) ** (-self.exponent)

    def profile_d1(self, s):
        p = self.exponent
        return -(p / self.sigma**2) * self._base(s) ** (-p - 1)

    def profile_d2(self, s):
        p = self.exponent
        return (p * (p + 1) / self.sigma**4) * self._base(s) ** (-p - 2)


@dataclass(frozen=True)
class CompactSupportKernel(RadialKernel):
    """g(s) = max(0, r^2 - s)^k with integer k >= 3 (C^2 at the cutoff).

    The zero set gives pairs a genuine spacelike (non-interacting) regime.
    """

    radius: float
    power: int
    family = "compact-support-power"

    def __post_init__(self):
        self._check_positive("radius")
        object.__setattr__(self, "power", number(
            self.power, f"{self.family} power", integer=True, least=3))

    @property
    def cutoff(self) -> float:
        return self.radius

    def _core(self, s):
        return np.maximum(0.0, self.radius**2 - np.asarray(s))

    def profile(self, s):
        # pow only inside the cutoff: the +0.0 beyond it is already g(s)
        core = np.asarray(self._core(s))
        np.power(core, self.power, out=core, where=core > 0.0)
        return core[()]

    def profile_d1(self, s):
        return -self.power * self._core(s) ** (self.power - 1)

    def profile_d2(self, s):
        k = self.power
        return k * (k - 1) * self._core(s) ** (k - 2)


_FAMILIES = {cls.family: cls for cls in
             (GaussianKernel, InversePowerKernel, CompactSupportKernel)}


def kernel_from_dict(data: dict) -> RadialKernel:
    """Build a kernel from {"family": ..., "params": {...}}; params are
    exactly the family's fields."""
    known_fields(data, ("family", "params"), "lagrangian")
    family = data.get("family")
    if family not in _FAMILIES:
        raise SchemaError(f"unknown lagrangian family {family!r}")
    params = data.get("params", {})
    if not isinstance(params, dict):
        raise SchemaError("lagrangian params must be a JSON object")
    try:
        return _FAMILIES[family](**params)
    except TypeError as exc:   # an unknown or a missing parameter
        raise SchemaError(f"bad params for family {family!r}: {exc}") from exc


def _squared_norms(displacements: np.ndarray) -> np.ndarray:
    """|d|^2 over the trailing axis: the per-component squares summed in
    component order, so equal displacements give bit-equal squares."""
    s = np.square(displacements[..., 0])
    for k in range(1, displacements.shape[-1]):
        s += np.square(displacements[..., k])
    return s


class PairTables:
    """Kernel data at the pairs of an (..., m) displacement array D.

    L = L(x, y); G = grad1 L(x, y) (..., m); H11 = hess11 L(x, y)
    (..., m, m), and hess12 = -H11.  Each table is computed from D on
    first read.  With D = manifold.displacement(x, y) this is the kernel
    at any points, broadcast over the leading axes of x and y.

    Build a single pair as a one-row stack, D of shape (1, m), and read
    row 0: numpy's scalar path of `**` rounds differently from its array
    path, so a bare (m,) displacement can differ from the same pair
    inside a table in the last bit.
    """

    def __init__(self, kernel: RadialKernel, displacements: np.ndarray):
        self.kernel = kernel
        self.D = displacements
        self.s = _squared_norms(displacements)

    @cached_property
    def L(self) -> np.ndarray:
        return self.kernel.profile(self.s)

    @cached_property
    def _g1(self) -> np.ndarray:
        return self.kernel.profile_d1(self.s)

    @cached_property
    def G(self) -> np.ndarray:
        return 2.0 * self._g1[..., None] * self.D

    @cached_property
    def H11(self) -> np.ndarray:
        h = np.einsum("...a,...b->...ab", self.D, self.D)   # then in place: one (..., m, m) array
        h *= 4.0 * self.kernel.profile_d2(self.s)[..., None, None]
        np.einsum("...aa->...a", h)[...] += 2.0 * self._g1[..., None]
        return h


def pair_tables(kernel: RadialKernel, manifold: ChartManifold,
                points: np.ndarray) -> PairTables:
    """The tables over the (n, n) pairs of a point configuration."""
    return PairTables(kernel, manifold.displacement(points[:, None, :],
                                                    points[None, :, :]))


@dataclass(frozen=True)
class KernelVerification:
    """Finite-difference audit of the analytic kernel derivatives."""

    symmetry_defect: float
    grad1_rel_error: float
    hess11_rel_error: float
    hess12_rel_error: float

    def max_rel_error(self) -> float:
        return max(self.grad1_rel_error, self.hess11_rel_error, self.hess12_rel_error)

    def to_dict(self) -> dict:
        return asdict(self)


def verify_lagrangian(kernel: RadialKernel, manifold: ChartManifold,
                      sample_count: int, step: float, seed: int,
                      box: tuple | None = None) -> KernelVerification:
    """Compare analytic derivatives against centered finite differences.

    Samples random point pairs and evaluates every stencil of all of them
    in one pass; relative errors are normalized by the larger of the
    finite-difference magnitude and the kernel value at coincidence (so
    near-zero entries do not blow up the ratio).
    """
    if step <= 0:
        raise SchemaError("finite-difference step must be positive")
    rng = np.random.default_rng(seed)
    if box is None and manifold.kind == "euclidean":
        box = (-np.ones(manifold.dim), np.ones(manifold.dim))
    xs = manifold.uniform_samples(sample_count, rng, box)
    ys = manifold.uniform_samples(sample_count, rng, box)
    m = manifold.dim

    def L(x, y):
        return PairTables(kernel, manifold.displacement(x, y)).L

    scale = max(float(L(np.zeros((1, m)), np.zeros(m))[0]), 1e-300)
    # steps[0, a] = +step e_a and steps[1, a] = -step e_a
    steps = np.array([1.0, -1.0])[:, None, None] * (step * np.eye(m))
    x_a = xs[:, None, None] + steps             # (S, sign a, a, m)
    fd_g = L(x_a, ys[:, None, None])
    fd_g = (fd_g[:, 0] - fd_g[:, 1]) / (2 * step)
    # second differences over (S, sign a, a, sign b, b) stencils
    x_a, y = x_a[:, :, :, None, None], ys[:, None, None, None, None]
    fd_h11, fd_h12 = ((v[:, 0, :, 0] - v[:, 0, :, 1] - v[:, 1, :, 0]
                       + v[:, 1, :, 1]) / (4 * step**2)
                      for v in (L(x_a + steps, y), L(x_a, y + steps)))
    tables = PairTables(kernel, manifold.displacement(xs, ys))
    errors = [np.abs(exact - fd) / np.maximum(np.abs(fd), scale)
              for exact, fd in ((tables.G, fd_g), (tables.H11, fd_h11),
                                (-tables.H11, fd_h12))]
    return KernelVerification(
        float(np.abs(tables.L - L(ys, xs)).max(initial=0.0)),
        *(float(e.max(initial=0.0)) for e in errors))
