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

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import SchemaError, UnsupportedOrderError
from .geometry import ChartManifold

GRAD1 = "grad1"
HESS11 = "hess11"
HESS12 = "hess12"


class RadialKernel:
    """Base class: a C^2 profile of the squared distance."""

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

    def params(self) -> dict:
        raise NotImplementedError

    def to_dict(self) -> dict:
        return {"family": self.family, "params": self.params()}


@dataclass(frozen=True)
class GaussianKernel(RadialKernel):
    """g(s) = exp(-s / sigma^2)."""

    sigma: float
    family = "gaussian"

    def __post_init__(self):
        if self.sigma <= 0:
            raise SchemaError("gaussian width must be positive")

    def profile(self, s):
        return np.exp(-np.asarray(s) / self.sigma**2)

    def profile_d1(self, s):
        return -self.profile(s) / self.sigma**2

    def profile_d2(self, s):
        return self.profile(s) / self.sigma**4

    def params(self):
        return {"sigma": self.sigma}


@dataclass(frozen=True)
class InversePowerKernel(RadialKernel):
    """g(s) = (1 + s / sigma^2)^(-p); long-range, strictly positive."""

    sigma: float
    exponent: float
    family = "inverse-power"

    def __post_init__(self):
        if self.sigma <= 0 or self.exponent <= 0:
            raise SchemaError("inverse-power width and exponent must be positive")

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

    def params(self):
        return {"sigma": self.sigma, "exponent": self.exponent}


@dataclass(frozen=True)
class CompactSupportKernel(RadialKernel):
    """g(s) = max(0, r^2 - s)^k with integer k >= 3 (C^2 at the cutoff).

    The zero set gives pairs a genuine spacelike (non-interacting) regime.
    """

    radius: float
    power: int
    family = "compact-support-power"

    def __post_init__(self):
        if self.radius <= 0:
            raise SchemaError("cutoff radius must be positive")
        if int(self.power) != self.power or self.power < 3:
            raise SchemaError("compact-support power must be an integer >= 3")
        object.__setattr__(self, "power", int(self.power))

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

    def params(self):
        return {"radius": self.radius, "power": self.power}


_FAMILIES = {
    "gaussian": lambda p: GaussianKernel(sigma=float(p["sigma"])),
    "inverse-power": lambda p: InversePowerKernel(
        sigma=float(p["sigma"]), exponent=float(p["exponent"])),
    "compact-support-power": lambda p: CompactSupportKernel(
        radius=float(p["radius"]), power=int(p["power"])),
}


def kernel_from_dict(data: dict) -> RadialKernel:
    """Build a kernel from {"family": ..., "params": {...}}."""
    family = data.get("family")
    if family not in _FAMILIES:
        raise SchemaError(f"unknown lagrangian family {family!r}")
    try:
        return _FAMILIES[family](data.get("params", {}))
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"bad params for family {family!r}: {exc}") from exc


def lagrangian_eval(kernel: RadialKernel, manifold: ChartManifold,
                    x: np.ndarray, y: np.ndarray) -> float:
    d = manifold.displacement(x, y)
    return float(kernel.profile(d @ d))


def lagrangian_derivatives(kernel: RadialKernel, manifold: ChartManifold,
                           x: np.ndarray, y: np.ndarray, order: str) -> np.ndarray:
    """Analytic grad1 / hess11 / hess12 of L at (x, y).

    The gradient in the second slot is grad1 with swapped arguments
    (equivalently -grad1 here, since the profile is radial).
    """
    d = manifold.displacement(x, y)
    s = d @ d
    if order == GRAD1:
        return 2.0 * kernel.profile_d1(s) * d
    if order in (HESS11, HESS12):
        h = 2.0 * kernel.profile_d1(s) * np.eye(manifold.dim) \
            + 4.0 * kernel.profile_d2(s) * np.outer(d, d)
        return h if order == HESS11 else -h
    raise UnsupportedOrderError(f"unknown derivative order {order!r}")


def _squared_norms(displacements: np.ndarray) -> np.ndarray:
    """|d|^2 over the trailing axis: the per-component squares summed in
    component order, so equal displacements give bit-equal squares."""
    s = np.square(displacements[..., 0])
    for k in range(1, displacements.shape[-1]):
        s += np.square(displacements[..., k])
    return s


class PairTables:
    """Pairwise kernel data over a point configuration.

    L[i, j] = L(x_i, x_j); G[i, j] = grad1 L(x_i, x_j) (n, n, m);
    H11[i, j] = hess11 L(x_i, x_j) (n, n, m, m).  hess12 = -H11.
    Each table is computed from the displacements D on first read.
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
        return 2.0 * self._g1[:, :, None] * self.D

    @cached_property
    def H11(self) -> np.ndarray:
        D = self.D
        g2 = self.kernel.profile_d2(self.s)
        return 2.0 * self._g1[:, :, None, None] * np.eye(D.shape[-1]) + \
            4.0 * g2[:, :, None, None] * np.einsum("ija,ijb->ijab", D, D)


def pair_tables(kernel: RadialKernel, manifold: ChartManifold,
                points: np.ndarray) -> PairTables:
    return PairTables(kernel, manifold.pairwise_displacement(points))


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
        return {
            "symmetry_defect": self.symmetry_defect,
            "grad1_rel_error": self.grad1_rel_error,
            "hess11_rel_error": self.hess11_rel_error,
            "hess12_rel_error": self.hess12_rel_error,
        }


def verify_lagrangian(kernel: RadialKernel, manifold: ChartManifold,
                      sample_count: int, step: float, seed: int,
                      box: tuple | None = None) -> KernelVerification:
    """Compare analytic derivatives against centered finite differences.

    Samples random point pairs; relative errors are normalized by the
    larger of the finite-difference magnitude and the kernel value at
    coincidence (so near-zero entries do not blow up the ratio).
    """
    if step <= 0:
        raise SchemaError("finite-difference step must be positive")
    rng = np.random.default_rng(seed)
    if box is None and manifold.kind == "euclidean":
        box = (-np.ones(manifold.dim), np.ones(manifold.dim))
    xs = manifold.uniform_samples(sample_count, rng, box)
    ys = manifold.uniform_samples(sample_count, rng, box)
    scale = max(float(kernel.profile(0.0)), 1e-300)
    m = manifold.dim
    sym = 0.0
    errs = {GRAD1: 0.0, HESS11: 0.0, HESS12: 0.0}

    def ev(x, y):
        return lagrangian_eval(kernel, manifold, x, y)

    for x, y in zip(xs, ys):
        sym = max(sym, abs(ev(x, y) - ev(y, x)))
        for a in range(m):
            ea = np.zeros(m)
            ea[a] = step
            fd_g = (ev(x + ea, y) - ev(x - ea, y)) / (2 * step)
            an_g = lagrangian_derivatives(kernel, manifold, x, y, GRAD1)[a]
            errs[GRAD1] = max(errs[GRAD1],
                              abs(an_g - fd_g) / max(abs(fd_g), scale))
            an_h11 = lagrangian_derivatives(kernel, manifold, x, y, HESS11)
            an_h12 = lagrangian_derivatives(kernel, manifold, x, y, HESS12)
            for b in range(m):
                eb = np.zeros(m)
                eb[b] = step
                fd_h11 = (ev(x + ea + eb, y) - ev(x + ea - eb, y)
                          - ev(x - ea + eb, y) + ev(x - ea - eb, y)) / (4 * step**2)
                fd_h12 = (ev(x + ea, y + eb) - ev(x + ea, y - eb)
                          - ev(x - ea, y + eb) + ev(x - ea, y - eb)) / (4 * step**2)
                errs[HESS11] = max(errs[HESS11],
                                   abs(an_h11[a, b] - fd_h11) / max(abs(fd_h11), scale))
                errs[HESS12] = max(errs[HESS12],
                                   abs(an_h12[a, b] - fd_h12) / max(abs(fd_h12), scale))
    return KernelVerification(symmetry_defect=sym,
                              grad1_rel_error=errs[GRAD1],
                              hess11_rel_error=errs[HESS11],
                              hess12_rel_error=errs[HESS12])
