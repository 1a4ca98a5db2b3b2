from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import pytest

from cvplab import (ChartManifold, CompactSupportKernel, DiscreteMeasure,
                    FormEvaluator, GaussianKernel, OptimizerConfig,
                    RadialKernel, minimize)


@dataclass(frozen=True)
class Fixture:
    """A measure together with its kernel."""

    rho: DiscreteMeasure
    kernel: RadialKernel
    status: str = "converged"
    final_residual: float | None = None   # the last trace row's weak residual

    @cached_property
    def ev(self) -> FormEvaluator:
        """The one form evaluator of this fixture's measure."""
        return FormEvaluator(self.rho, self.kernel)

    @property
    def nu(self) -> float:
        """The calibrated multiplier, as the evaluator holds it."""
        return self.ev.nu


def _converge(rho0, kernel, tol=1e-6, max_iterations=20_000):
    config = OptimizerConfig(tolerance_weak_el=tol, max_iterations=max_iterations)
    rho, trace = minimize(rho0, kernel, config)
    assert trace.status == "converged", f"fixture failed to converge: {trace.status}"
    return Fixture(rho=rho, kernel=kernel, status=trace.status,
                   final_residual=trace.rows[-1][2])


def _unit_gap_start(n: int, seed: int) -> DiscreteMeasure:
    """Perturbed equispaced start on the unit-gap torus of n points."""
    rng = np.random.default_rng(seed)
    manifold = ChartManifold(kind="torus", dim=1, periods=(float(n),))
    pts = (np.arange(n) + 0.05 * rng.normal(size=n))[:, None]
    w = 1.0 + 0.1 * rng.normal(size=n)
    w *= n / w.sum()
    return DiscreteMeasure(manifold=manifold, points=pts, weights=w)


def _csp_kernel() -> CompactSupportKernel:
    # cutoff at sqrt(2) gaps: nearest neighbors interact, next-nearest do not
    return CompactSupportKernel(radius=np.sqrt(2.0), power=3)


@pytest.fixture(scope="session")
def csp5() -> Fixture:
    return _converge(_unit_gap_start(5, seed=11), _csp_kernel())


@pytest.fixture(scope="session")
def csp8() -> Fixture:
    return _converge(_unit_gap_start(8, seed=7), _csp_kernel())


@pytest.fixture(scope="session")
def gauss5() -> Fixture:
    from cvplab import random_measure
    manifold = ChartManifold(kind="torus", dim=1, periods=(2.0 * np.pi,))
    rho0 = random_measure(manifold, count=5, total_volume=5.0, seed=0)
    return _converge(rho0, GaussianKernel(sigma=1.0))


@pytest.fixture(scope="session")
def single_gauss() -> Fixture:
    manifold = ChartManifold(kind="euclidean", dim=1)
    kernel = GaussianKernel(sigma=1.0)
    rho = DiscreteMeasure(manifold=manifold, points=np.array([[0.0]]),
                          weights=np.array([2.0]))
    return Fixture(rho=rho, kernel=kernel)


@pytest.fixture(scope="session")
def lattice2d() -> Fixture:
    """Unit triangular lattice, 4 x 4 points on its torus, equal weights.

    The kernel reaches nearest neighbours only, so the lattice is an exact
    EL point, but its SP1 Gram is indefinite: a saddle whose only null
    modes are the two translations.
    """
    i, j = np.meshgrid(np.arange(4), np.arange(4), indexing="ij")
    manifold = ChartManifold(kind="torus", dim=2,
                             periods=(4.0, 2.0 * np.sqrt(3.0)))
    pts = np.stack([(i + 0.5 * j).ravel() % 4.0,
                    (j * np.sqrt(3.0) / 2.0).ravel()], axis=1)
    rho = DiscreteMeasure(manifold=manifold, points=pts, weights=np.ones(16))
    kernel = CompactSupportKernel(radius=1.5, power=3)
    return Fixture(rho=rho, kernel=kernel)
