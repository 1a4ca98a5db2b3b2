"""The action, the function ell, EL diagnostics and the action difference."""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DimensionMismatchError
from .jets import FormEvaluator, weak_residual
from .kernels import (GRAD1, RadialKernel, lagrangian_derivatives,
                      lagrangian_eval, pair_tables)
from .measure import DiscreteMeasure


def action(rho: DiscreteMeasure, kernel: RadialKernel) -> float:
    """Double sum S = sum_ij w_i w_j L(x_i, x_j), diagonal included."""
    tables = pair_tables(kernel, rho.manifold, rho.points)
    w = rho.weights
    return float(w @ tables.L @ w)


def ell(rho: DiscreteMeasure, kernel: RadialKernel, nu: float, x):
    """ell(x) = sum_j w_j L(x, x_j) - nu/2 at one chart point x, a float,
    or at each point of an (..., m) array of them."""
    x = np.asarray(x, dtype=float)[..., None, :]
    return lagrangian_eval(kernel, rho.manifold, x, rho.points) @ rho.weights \
        - nu / 2.0


def ell_gradient(rho: DiscreteMeasure, kernel: RadialKernel, x) -> np.ndarray:
    """Gradient of ell (independent of nu) at one chart point x, an (m,)
    array, or at each point of an (..., m) array of them."""
    x = np.asarray(x, dtype=float)[..., None, :]
    return rho.weights @ lagrangian_derivatives(kernel, rho.manifold, x,
                                                rho.points, GRAD1)


@dataclass(frozen=True)
class ELReport:
    """Pointwise ell values/gradients and the EL residuals of a measure."""

    nu: float
    ell_values: np.ndarray      # (n,)
    ell_gradients: np.ndarray   # (n, m)
    strong_residual: float      # max_i |ell(x_i)|
    weak_residual: float        # max_i max(|ell(x_i)|, |grad ell(x_i)|_inf)

    def to_dict(self) -> dict:
        return {
            "nu": self.nu,
            "nu_convention": "2 * min_i row_sum_i (min row sum)",
            "ell_values": self.ell_values.tolist(),
            "ell_gradients": self.ell_gradients.tolist(),
            "strong_residual": self.strong_residual,
            "weak_residual": self.weak_residual,
        }

    def write_csv(self, path: str | Path) -> None:
        with Path(path).open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["index", "ell", "grad_ell_norm"])
            norms = np.abs(self.ell_gradients).max(axis=1)
            writer.writerows(zip(range(len(norms)), self.ell_values.tolist(),
                                 norms.tolist()))


def el_report(ev: FormEvaluator) -> ELReport:
    """EL diagnostics on the support, read from the evaluator's ell jet and
    calibrated nu; builds no tables."""
    return ELReport(nu=ev.nu, ell_values=ev.ell, ell_gradients=ev.grad_ell,
                    strong_residual=float(np.abs(ev.ell).max()),
                    weak_residual=weak_residual(ev.ell, ev.grad_ell))


def action_difference(rho: DiscreteMeasure, rho_tilde: DiscreteMeasure,
                      kernel: RadialKernel) -> float:
    """S(rho_tilde) - S(rho) through the three-term signed-difference formula.

    The difference measure delta = rho_tilde - rho is represented by the
    concatenated atoms with signed weights; the result must agree with
    direct subtraction of the two actions.
    """
    if rho.manifold != rho_tilde.manifold:
        raise DimensionMismatchError("measures live on different manifolds")
    delta_pts = np.vstack([rho_tilde.points, rho.points])
    delta_w = np.concatenate([rho_tilde.weights, -rho.weights])

    def kernel_sum(pa, wa, pb, wb):
        return float(wa @ lagrangian_eval(kernel, rho.manifold,
                                          pa[:, None, :], pb) @ wb)

    cross = kernel_sum(delta_pts, delta_w, rho.points, rho.weights)
    return 2.0 * cross + kernel_sum(delta_pts, delta_w, delta_pts, delta_w)
