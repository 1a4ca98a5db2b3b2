"""The action, the function ell, EL diagnostics and the action difference."""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatchError
from .jets import FormEvaluator, weak_residual
from .kernels import PairTables, RadialKernel, pair_tables
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
    d = rho.manifold.displacement(x, rho.points)
    return PairTables(kernel, d).L @ rho.weights - nu / 2.0


def ell_gradient(rho: DiscreteMeasure, kernel: RadialKernel, x) -> np.ndarray:
    """Gradient of ell (independent of nu) at one chart point x, an (m,)
    array, or at each point of an (..., m) array of them."""
    x = np.asarray(x, dtype=float)[..., None, :]
    d = rho.manifold.displacement(x, rho.points)
    return rho.weights @ PairTables(kernel, d).G


def el_report(ev: FormEvaluator) -> dict:
    """The `state.el_report` section: ell and grad ell on the support and
    their EL residuals (strong: max |ell|, weak: `weak_residual`), read
    from the evaluator's ell jet; builds no tables.  The calibrated nu
    itself is `ev.nu`, the state's top-level `nu`."""
    return {"nu_convention": "2 * min_i row_sum_i (min row sum)",
            "ell_values": ev.ell.tolist(), "ell_gradients": ev.grad_ell.tolist(),
            "strong_residual": float(np.abs(ev.ell).max()),
            "weak_residual": weak_residual(ev.ell, ev.grad_ell)}


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
        d = rho.manifold.displacement(pa[:, None, :], pb)
        return float(wa @ PairTables(kernel, d).L @ wb)

    cross = kernel_sum(delta_pts, delta_w, rho.points, rho.weights)
    return 2.0 * cross + kernel_sum(delta_pts, delta_w, delta_pts, delta_w)
