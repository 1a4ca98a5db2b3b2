from __future__ import annotations

import numpy as np
import pytest

import cvplab.optimizer as optimizer
from cvplab import (ChartManifold, CompactSupportKernel, FormEvaluator,
                    GaussianKernel, InfeasibleProjectionError, OptimizerConfig,
                    SchemaError, minimize, pair_tables, project_volume,
                    random_measure)
from cvplab.jets import FORM_SP1, action_hessian
from cvplab.optimizer import _gradients

README_KERNEL = CompactSupportKernel(radius=np.sqrt(2.0), power=3)


def _readme_ring(count: int, seed: int):
    """The README generator start at count and period `count`."""
    manifold = ChartManifold(kind="torus", dim=1, periods=(float(count),))
    return random_measure(manifold, count=count, total_volume=float(count),
                          seed=seed)


def test_project_volume_frozen_example():
    out = project_volume(np.array([2.0, 0.0]), 2.0, weight_floor=0.1)
    assert np.allclose(out, [1.9, 0.1], atol=1e-14)
    assert out.sum() == pytest.approx(2.0, abs=1e-14)


def test_project_volume_identity_on_feasible_input():
    w = np.array([0.5, 1.5, 1.0])
    out = project_volume(w, 3.0, weight_floor=0.1)
    assert np.allclose(out, w, atol=1e-14)


def test_project_volume_shifts_uniformly_without_floor():
    w = np.array([1.0, 2.0, 3.0])
    out = project_volume(w, 9.0)
    assert np.allclose(out, w + 1.0, atol=1e-14)


def test_project_volume_infeasible():
    with pytest.raises(InfeasibleProjectionError):
        project_volume(np.ones(3), 2.0, weight_floor=1.0)
    with pytest.raises(SchemaError):
        project_volume(np.ones(3), -1.0)


def test_project_volume_is_euclidean_projection():
    # against a brute scan over clip patterns on random inputs
    rng = np.random.default_rng(0)
    for _ in range(20):
        w = rng.normal(size=4)
        out = project_volume(w, 2.0, weight_floor=0.05)
        assert out.sum() == pytest.approx(2.0, rel=1e-12)
        assert (out >= 0.05 - 1e-12).all()
        # projection optimality: moving mass between any two free coords
        # cannot decrease the distance
        free = out > 0.05 + 1e-9
        if free.sum() >= 2:
            i, j = np.flatnonzero(free)[:2]
            eps = 1e-4
            trial = out.copy()
            trial[i] += eps
            trial[j] -= eps
            assert ((trial - w) ** 2).sum() >= ((out - w) ** 2).sum() - 1e-12


def test_config_validation_and_round_trip():
    cfg = OptimizerConfig(step_size_initial=0.1, max_backtracks=3)
    assert OptimizerConfig.from_dict(cfg.to_dict()) == cfg
    with pytest.raises(SchemaError):
        OptimizerConfig(armijo_factor=1.5)
    with pytest.raises(SchemaError):
        OptimizerConfig(max_iterations=0)
    with pytest.raises(SchemaError):
        OptimizerConfig.from_dict({"not_a_field": 1})


def test_minimize_monotone_and_volume_conserving(tmp_path):
    manifold = ChartManifold(kind="torus", dim=1, periods=(2.0 * np.pi,))
    rho0 = random_measure(manifold, count=5, total_volume=5.0, seed=4)
    kernel = GaussianKernel(sigma=1.0)
    rho, trace = minimize(rho0, kernel, OptimizerConfig())
    assert trace.status == "converged"
    actions = [row[1] for row in trace.rows]
    assert all(b <= a + 1e-12 for a, b in zip(actions, actions[1:]))
    assert rho.total_volume == pytest.approx(5.0, rel=1e-12)
    assert trace.rows[-1][2] <= 1e-6
    path = tmp_path / "trace.csv"
    trace.write_csv(path)
    header = path.read_text().splitlines()[0]
    assert header == "iteration,action,weak_residual,step"


def test_minimize_returns_immediately_at_stationary_point(single_gauss):
    rho, trace = minimize(single_gauss.rho, single_gauss.kernel,
                          OptimizerConfig())
    assert trace.status == "converged"
    assert trace.rows[-1][0] == 0
    assert rho is single_gauss.rho


def test_minimize_stops_at_a_repeated_state():
    # an 8-point README ring whose accepted steps stop moving the iterate
    # short of a residual of 1e-14
    manifold = ChartManifold(kind="torus", dim=1, periods=(8.0,))
    rho0 = random_measure(manifold, count=8, total_volume=8.0, seed=5)
    kernel = CompactSupportKernel(radius=np.sqrt(2.0), power=3)
    rho, trace = minimize(rho0, kernel, OptimizerConfig(
        max_iterations=1000, tolerance_weak_el=1e-14))
    stall = trace.rows[-1][0]
    assert trace.status == "stalled" and 1 < stall < 1000
    # the iteration before the stall already ended in the returned state
    capped, capped_trace = minimize(rho0, kernel, OptimizerConfig(
        max_iterations=stall - 1, tolerance_weak_el=1e-14))
    assert capped_trace.status == "budget-exhausted"
    assert capped.points.tobytes() == rho.points.tobytes()
    assert capped.weights.tobytes() == rho.weights.tobytes()


def test_budget_exhausted_final_row_keeps_the_accepted_step():
    # the 8-point README ring that stalls at iteration 81 (tolerance 1e-14)
    manifold = ChartManifold(kind="torus", dim=1, periods=(8.0,))
    rho0 = random_measure(manifold, count=8, total_volume=8.0, seed=5)
    kernel = CompactSupportKernel(radius=np.sqrt(2.0), power=3)
    _, stalled = minimize(rho0, kernel, OptimizerConfig(
        max_iterations=1000, tolerance_weak_el=1e-14))
    _, capped = minimize(rho0, kernel, OptimizerConfig(
        max_iterations=80, tolerance_weak_el=1e-14))
    assert (stalled.status, stalled.rows[-1][0]) == ("stalled", 81)
    assert (capped.status, capped.rows[-1][0]) == ("budget-exhausted", 80)
    assert capped.rows[-1][3] == stalled.rows[-1][3]
    assert capped.rows[-1][3] == pytest.approx(6.10e-6, rel=1e-2)


def _jet_gradient(kernel, manifold, x, w, w0):
    """Gradient of the action in the unit jets (a_i, u_i) of the weights w0."""
    _, gx, gw, _ = _gradients(pair_tables(kernel, manifold, x), w)
    return np.hstack([(w0 * gw)[:, None], gx]).ravel()


@pytest.mark.parametrize("rho, kernel", [
    (_readme_ring(5, seed=0), README_KERNEL),
    (random_measure(ChartManifold(kind="torus", dim=2,
                                  periods=(2.0 * np.pi, 2.0 * np.pi)),
                    count=6, total_volume=6.0, seed=1), GaussianKernel(sigma=1.0)),
], ids=["compact-support-1d", "gaussian-2d"])
def test_action_hessian_matches_central_differences(rho, kernel):
    n, m = rho.count, rho.manifold.dim
    x, w = rho.points, rho.weights
    hessian = action_hessian(pair_tables(kernel, rho.manifold, x), w)
    h = 1e-5
    fd = np.empty_like(hessian)
    for k in range(n * (1 + m)):
        e = np.zeros((n, 1 + m))
        e.flat[k] = h
        plus = _jet_gradient(kernel, rho.manifold, x + e[:, 1:], w * (1 + e[:, 0]), w)
        minus = _jet_gradient(kernel, rho.manifold, x - e[:, 1:], w * (1 - e[:, 0]), w)
        fd[:, k] = (plus - minus) / (2.0 * h)
    scale = np.abs(hessian).max()
    assert np.abs(fd - hessian).max() <= 1e-8 * scale
    # twice SP1 less the scalar ell diagonal, from the evaluator of the point
    ev = FormEvaluator(rho, kernel)
    expected = ev.form_matrix(FORM_SP1)
    scalar = np.arange(n) * (1 + m)
    expected[scalar, scalar] -= w * ev.ell
    assert np.abs(hessian - 2.0 * expected).max() <= 1e-14 * scale


def test_minimize_prunes_the_floor_atom_of_the_n40_ring():
    rho0 = _readme_ring(40, seed=0)
    rho, trace = minimize(rho0, README_KERNEL, OptimizerConfig(max_iterations=1000))
    assert trace.status == "converged" and trace.newton_steps > 0
    assert rho.count == 39 and trace.pruned_points == [5]
    assert trace.floored_points == []
    assert trace.rows[-1][1] == pytest.approx(398.4612116, rel=1e-9)
    assert rho.total_volume == pytest.approx(40.0, rel=1e-12)


def test_minimize_keeps_an_atom_that_leaves_the_floor():
    # atom 7 of this start is at the floor after iteration 1 only
    rho0 = _readme_ring(12, seed=5)
    _, first = minimize(rho0, README_KERNEL, OptimizerConfig(max_iterations=1))
    assert first.floored_points == [7]
    rho, trace = minimize(rho0, README_KERNEL, OptimizerConfig(max_iterations=1000))
    assert trace.status == "converged"
    assert rho.count == 12 and trace.pruned_points == []


def test_rejected_newton_trials_keep_the_gradient_path(monkeypatch):
    rho0 = _readme_ring(5, seed=0)
    monkeypatch.setattr(optimizer, "NEWTON_RESIDUAL", 0.0)
    reference, reference_trace = minimize(rho0, README_KERNEL, OptimizerConfig())
    monkeypatch.undo()
    calls = []

    def no_progress(tables, weights, gx, gw):
        calls.append(weights.size)
        return np.zeros((weights.size, 2)), 0.0

    monkeypatch.setattr(optimizer, "_newton_direction", no_progress)
    rho, trace = minimize(rho0, README_KERNEL, OptimizerConfig())
    assert trace.newton_steps == 0 and trace.rows == reference_trace.rows
    assert rho.points.tobytes() == reference.points.tobytes()
    assert rho.weights.tobytes() == reference.weights.tobytes()
    # each rejection waits for the residual to halve: 0.1 to 1e-6 is 17 halvings
    assert 0 < len(calls) <= 18 < trace.rows[-1][0]
