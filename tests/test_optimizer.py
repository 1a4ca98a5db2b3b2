from __future__ import annotations

import numpy as np
import pytest

from cvplab import (ChartManifold, CompactSupportKernel, GaussianKernel,
                    InfeasibleProjectionError, OptimizerConfig, SchemaError,
                    minimize, project_volume, random_measure)


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
    cfg = OptimizerConfig(step_size_initial=0.1, seed=3)
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
    manifold = ChartManifold(kind="torus", dim=1, periods=(8.0,))
    rho0 = random_measure(manifold, count=8, total_volume=8.0, seed=5)
    kernel = CompactSupportKernel(radius=np.sqrt(2.0), power=3)
    rho, trace = minimize(rho0, kernel, OptimizerConfig(max_iterations=1000))
    stall = trace.rows[-1][0]
    assert trace.status == "stalled" and 1 < stall < 1000
    # the iteration before the stall already ended in the returned state
    capped, capped_trace = minimize(rho0, kernel,
                                    OptimizerConfig(max_iterations=stall - 1))
    assert capped_trace.status == "budget-exhausted"
    assert capped.points.tobytes() == rho.points.tobytes()
    assert capped.weights.tobytes() == rho.weights.tobytes()


def test_budget_exhausted_final_row_keeps_the_accepted_step():
    # the 8-point README ring that stalls at iteration 174
    manifold = ChartManifold(kind="torus", dim=1, periods=(8.0,))
    rho0 = random_measure(manifold, count=8, total_volume=8.0, seed=5)
    kernel = CompactSupportKernel(radius=np.sqrt(2.0), power=3)
    _, stalled = minimize(rho0, kernel, OptimizerConfig(max_iterations=1000))
    _, capped = minimize(rho0, kernel, OptimizerConfig(max_iterations=173))
    assert (stalled.status, stalled.rows[-1][0]) == ("stalled", 174)
    assert (capped.status, capped.rows[-1][0]) == ("budget-exhausted", 173)
    assert capped.rows[-1][3] == stalled.rows[-1][3]
    assert capped.rows[-1][3] == pytest.approx(2.22e-17, rel=1e-2)
