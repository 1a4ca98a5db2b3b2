from __future__ import annotations

import numpy as np
import pytest

from cvplab import (ChartManifold, DimensionMismatchError, DiscreteMeasure,
                    FormEvaluator, GaussianKernel, action, action_difference,
                    el_report, ell, ell_gradient, pair_tables, random_measure)

TORUS = ChartManifold(kind="torus", dim=1, periods=(5.0,))


def _row_sums(rho, kernel):
    """sum_j w_j L(x_i, x_j) for every support point, from fresh tables."""
    return pair_tables(kernel, rho.manifold, rho.points).L @ rho.weights


def _el_from_fresh_tables(rho, kernel):
    """nu, ell, grad ell and the residuals from fresh pair tables.

    The path el_report took before it read the evaluator: the oracle for
    the evaluator's ell jet and calibrated nu.
    """
    tables = pair_tables(kernel, rho.manifold, rho.points)
    rows = tables.L @ rho.weights
    nu = 2.0 * float(rows.min())
    values = rows - nu / 2.0
    gradients = np.einsum("ija,j->ia", tables.G, rho.weights)
    strong = float(np.abs(values).max())
    weak = max(strong, float(np.abs(gradients).max()))
    return nu, values, gradients, strong, weak


def test_single_point_frozen_values(single_gauss):
    f = single_gauss
    # one atom of weight 2: S = 2*2*L(x,x) = 4, row sum = 2, nu = 4
    assert action(f.rho, f.kernel) == 4.0
    assert _row_sums(f.rho, f.kernel)[0] == 2.0
    assert f.nu == 4.0
    assert ell(f.rho, f.kernel, f.nu, f.rho.points[0]) == 0.0
    assert ell_gradient(f.rho, f.kernel, f.rho.points[0])[0] == 0.0


def test_action_double_counting_identity():
    rho = random_measure(TORUS, count=6, total_volume=6.0, seed=2)
    kernel = GaussianKernel(sigma=1.0)
    direct = action(rho, kernel)
    via_rows = float(rho.weights @ _row_sums(rho, kernel))
    assert direct == pytest.approx(via_rows, rel=1e-15)
    assert direct > 0.0


def test_el_report_fields(csp5):
    rep = el_report(csp5.ev)
    assert rep["weak_residual"] <= 1e-6
    assert rep["strong_residual"] <= rep["weak_residual"]
    # calibration convention: ell >= 0 on the support, min exactly 0
    assert min(rep["ell_values"]) == 0.0
    # off the support, ell at a stack of samples is one call
    samples = csp5.rho.manifold.uniform_samples(64, np.random.default_rng(1))
    values = ell(csp5.rho, csp5.kernel, csp5.ev.nu, samples)
    assert values.shape == (64,) and np.isfinite(values).all()
    # nu is the state's top-level value; the section says how it was calibrated
    assert "nu" not in rep and "nu_convention" in rep
    # the state section: plain Python values, one per point
    assert len(rep["ell_values"]) == len(rep["ell_gradients"]) == csp5.rho.count
    assert all(type(v) is float for v in rep["ell_values"])


def test_calibrated_nu_zeroes_minimum():
    rho = random_measure(TORUS, count=5, total_volume=5.0, seed=7)
    kernel = GaussianKernel(sigma=1.0)
    nu = FormEvaluator(rho, kernel).nu
    values = [ell(rho, kernel, nu, x) for x in rho.points]
    assert min(values) == pytest.approx(0.0, abs=1e-14)
    assert all(v >= -1e-14 for v in values)


def test_el_report_reads_evaluator_bit_for_bit(csp5, csp8, gauss5):
    for f in (csp5, csp8, gauss5):
        nu, values, gradients, strong, weak = _el_from_fresh_tables(f.rho, f.kernel)
        rep = el_report(f.ev)
        assert nu == f.ev.nu
        # tobytes compares sign bits too: ell is +0.0 at its minimum
        assert np.array(rep["ell_values"]).tobytes() == values.tobytes()
        assert np.array(rep["ell_gradients"]).tobytes() == gradients.tobytes()
        assert (rep["strong_residual"], rep["weak_residual"]) == (strong, weak)
        # the optimizer's last trace row is the same residual of the same tables
        assert f.final_residual == rep["weak_residual"]


def test_action_difference_matches_direct_subtraction():
    kernel = GaussianKernel(sigma=1.0)
    rng = np.random.default_rng(12)
    for trial in range(10):
        rho = random_measure(TORUS, count=5, total_volume=5.0, seed=trial)
        other = rho.replace(
            points=rho.points + 0.3 * rng.normal(size=rho.points.shape),
            weights=rho.weights * (1.0 + 0.2 * rng.uniform(size=rho.count)))
        direct = action(other, kernel) - action(rho, kernel)
        formula = action_difference(rho, other, kernel)
        scale = max(abs(direct), abs(action(rho, kernel)))
        assert abs(formula - direct) <= 1e-12 * scale


def test_action_difference_zero_and_errors():
    kernel = GaussianKernel(sigma=1.0)
    rho = random_measure(TORUS, count=4, total_volume=4.0, seed=3)
    assert action_difference(rho, rho, kernel) == pytest.approx(0.0, abs=1e-13)
    euc = ChartManifold(kind="euclidean", dim=1)
    other = DiscreteMeasure(manifold=euc, points=rho.points,
                            weights=rho.weights)
    with pytest.raises(DimensionMismatchError):
        action_difference(rho, other, kernel)
