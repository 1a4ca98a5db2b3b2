from __future__ import annotations

import numpy as np
import pytest

import cvplab.optimizer as optimizer
from cvplab import (ChartManifold, CompactSupportKernel, DiscreteMeasure,
                    FormEvaluator, GaussianKernel, InfeasibleProjectionError,
                    NonFiniteIterateError, OptimizerConfig, SchemaError,
                    arc_regions, minimize, osi_report, pair_tables,
                    project_volume, random_measure, solve_linfield)
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
    cfg = OptimizerConfig(max_iterations=7, tolerance_weak_el=1e-9, trace_period=3)
    assert cfg.to_dict() == {"max_iterations": 7, "tolerance_weak_el": 1e-9,
                             "trace_period": 3}
    assert OptimizerConfig.from_dict(cfg.to_dict()) == cfg
    for bad in ({"max_iterations": 0}, {"trace_period": -1},
                {"tolerance_weak_el": 0.0}, {"tolerance_weak_el": float("inf")},
                {"max_iterations": 2.0}, {"trace_period": True},
                {"not_a_field": 1}, {"armijo_factor": 0.5}):
        with pytest.raises(SchemaError):
            OptimizerConfig.from_dict(bad)


def test_minimize_monotone_and_volume_conserving():
    manifold = ChartManifold(kind="torus", dim=1, periods=(2.0 * np.pi,))
    rho0 = random_measure(manifold, count=5, total_volume=5.0, seed=4)
    kernel = GaussianKernel(sigma=1.0)
    rho, trace = minimize(rho0, kernel, OptimizerConfig())
    assert trace.status == "converged"
    actions = [row[1] for row in trace.rows]
    assert all(b <= a + 1e-12 for a, b in zip(actions, actions[1:]))
    assert rho.total_volume == pytest.approx(5.0, rel=1e-12)
    assert trace.rows[-1][2] <= 1e-6


def test_minimize_stops_on_a_non_finite_action():
    """Weights near the float limit overflow the action of the start: the
    first iteration raises, carrying the start's points and weights."""
    manifold = ChartManifold(kind="torus", dim=1, periods=(2.0 * np.pi,))
    rho0 = DiscreteMeasure(manifold=manifold, points=np.array([[0.0], [1.0]]),
                           weights=np.array([1e200, 2e200]))
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NonFiniteIterateError, match="at iteration 1") as info:
        minimize(rho0, GaussianKernel(sigma=1.0), OptimizerConfig())
    assert info.value.iteration == 1
    assert np.array_equal(info.value.points, rho0.points)
    assert np.array_equal(info.value.weights, rho0.weights)


def test_minimize_returns_immediately_at_stationary_point(single_gauss):
    rho, trace = minimize(single_gauss.rho, single_gauss.kernel,
                          OptimizerConfig())
    assert trace.status == "converged"
    assert trace.rows[-1][0] == 0
    assert rho is single_gauss.rho


def _ring8(seed: int):
    return random_measure(ChartManifold(kind="torus", dim=1, periods=(8.0,)),
                          count=8, total_volume=8.0, seed=seed)


def test_minimize_stops_at_a_repeated_state():
    # an 8-point README ring whose accepted steps stop moving the iterate
    # short of a residual of 1e-14
    rho0 = _ring8(seed=1)
    tight = dict(tolerance_weak_el=1e-14)
    rho, trace = minimize(rho0, README_KERNEL, OptimizerConfig(max_iterations=1000, **tight))
    stall = trace.rows[-1][0]
    assert trace.status == "stalled" and 1 < stall < 1000
    # the iteration before the stall already ended in the returned state,
    # and the stall iteration accepted a step: it is a repeat, not a search
    # that found no decrease
    capped, capped_trace = minimize(rho0, README_KERNEL, OptimizerConfig(
        max_iterations=stall - 1, **tight))
    assert capped_trace.status == "budget-exhausted"
    assert capped.points.tobytes() == rho.points.tobytes()
    assert capped.weights.tobytes() == rho.weights.tobytes()
    assert trace.trials - capped_trace.trials < optimizer.MAX_BACKTRACKS


def test_minimize_stops_at_a_two_iteration_cycle():
    # on this start the iterate alternates between two states of equal action
    rho0 = _ring8(seed=9)
    tight = dict(tolerance_weak_el=1e-14)
    rho, trace = minimize(rho0, README_KERNEL, OptimizerConfig(max_iterations=1000, **tight))
    stall = trace.rows[-1][0]
    assert trace.status == "stalled" and 2 < stall < 1000
    ends = [minimize(rho0, README_KERNEL, OptimizerConfig(max_iterations=stall - k, **tight))[0]
            for k in (1, 2)]
    same = [end.points.tobytes() + end.weights.tobytes()
            == rho.points.tobytes() + rho.weights.tobytes() for end in ends]
    assert same == [False, True]


def test_budget_exhausted_final_row_keeps_the_accepted_step():
    # the 8-point README ring that stalls at iteration 28 (tolerance 1e-14),
    # where no backtracked gradient trial lowers the action
    rho0 = _ring8(seed=5)
    _, stalled = minimize(rho0, README_KERNEL, OptimizerConfig(
        max_iterations=1000, tolerance_weak_el=1e-14))
    _, capped = minimize(rho0, README_KERNEL, OptimizerConfig(
        max_iterations=27, tolerance_weak_el=1e-14))
    assert (stalled.status, stalled.rows[-1][0]) == ("stalled", 28)
    assert (capped.status, capped.rows[-1][0]) == ("budget-exhausted", 27)
    assert stalled.trials - capped.trials == optimizer.MAX_BACKTRACKS
    assert capped.rows[-1][3] == stalled.rows[-1][3]
    assert capped.rows[-1][3] == pytest.approx(4.63e-3, rel=1e-2)


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
    # one atom pruned at the floor, five merged into a neighbor they coincide with
    assert rho.count == 34 and trace.pruned_points == [23]
    assert trace.merged_points == [11, 16, 26, 29, 33]
    assert trace.floored_points == []
    assert trace.rows[-1][1] == pytest.approx(398.4612116, rel=1e-9)
    assert rho.total_volume == pytest.approx(40.0, rel=1e-12)


def test_minimize_merges_the_coincident_atoms_of_the_readme_ring(monkeypatch):
    """The README start converges to a 4-ring with a doubled atom: the merge
    sums its two weights at the earlier atom's position, after the last
    iterate, and leaves the linearized kernel the translation alone."""
    rho0 = _readme_ring(5, seed=0)
    rho, trace = minimize(rho0, README_KERNEL, OptimizerConfig())
    monkeypatch.setattr(optimizer, "_merge", lambda tables, w:
                        (np.ones(len(w), dtype=bool), w))
    unmerged, unmerged_trace = minimize(rho0, README_KERNEL, OptimizerConfig())
    monkeypatch.undo()
    assert trace.rows == unmerged_trace.rows and trace.status == "converged"
    assert trace.merged_points == [3] and unmerged_trace.merged_points == []
    L = pair_tables(README_KERNEL, rho0.manifold, unmerged.points).L
    (into,) = np.flatnonzero(L[:3, 3] == L[3, 3])
    kept = [0, 1, 2, 4]
    assert rho.points.tobytes() == unmerged.points[kept].tobytes()
    expected = unmerged.weights[kept]
    expected[into] += unmerged.weights[3]
    assert rho.weights.tobytes() == expected.tobytes()
    assert rho.count == 4
    assert np.abs(rho.weights - 1.25).max() <= 1e-12
    ev = FormEvaluator(rho, README_KERNEL)
    jets, _ = solve_linfield(ev)
    assert len(jets) == 1
    assert osi_report(ev, jets, arc_regions(rho)).min() > 1.0


def test_minimize_merges_on_return_at_iteration_zero():
    """An exact 4-ring with one atom split into two coincident halves
    solves the EL equations: the run returns at once, with the ring."""
    manifold = ChartManifold(kind="torus", dim=1, periods=(4.0,))
    ring = DiscreteMeasure(manifold=manifold, points=np.arange(4.0)[:, None],
                           weights=np.ones(4))
    split = ring.replace(points=np.array([[0.0], [1.0], [2.0], [1.0], [3.0]]),
                         weights=np.array([1.0, 0.5, 1.0, 0.5, 1.0]))
    rho, trace = minimize(split, README_KERNEL, OptimizerConfig())
    assert trace.status == "converged" and trace.rows[-1][0] == 0
    assert trace.merged_points == [3] and trace.pruned_points == []
    assert rho.points.tobytes() == ring.points.tobytes()
    assert rho.weights.tobytes() == ring.weights.tobytes()
    same, same_trace = minimize(ring, README_KERNEL, OptimizerConfig())
    assert same_trace.status == "converged" and same_trace.merged_points == []
    assert same.points.tobytes() == ring.points.tobytes()
    assert same.weights.tobytes() == ring.weights.tobytes()


# The 22 starts of the ring-minimize benchmark workload: the README family
# at counts 5, 8 and 12, three Gaussian rings and the n=40 README ring.
RING_STARTS = ([(README_KERNEL, n, float(n), s) for n in (5, 8, 12) for s in range(6)]
               + [(GaussianKernel(sigma=1.0), 5, 2.0 * np.pi, s) for s in range(3)]
               + [(README_KERNEL, 40, 40.0, 0)])


def test_minimize_returns_no_pair_the_kernel_cannot_tell_apart():
    for kernel, count, period, seed in RING_STARTS:
        manifold = ChartManifold(kind="torus", dim=1, periods=(period,))
        rho0 = random_measure(manifold, count=count, total_volume=float(count),
                              seed=seed)
        rho, trace = minimize(rho0, kernel, OptimizerConfig(max_iterations=1000))
        L = pair_tables(kernel, manifold, rho.points).L
        same = np.triu(L == np.diag(L)[:, None], 1)
        assert not same.any(), (count, period, seed, np.argwhere(same))
        assert rho.count == count - len(trace.pruned_points) - len(trace.merged_points)
        assert rho.total_volume == pytest.approx(count, rel=1e-12)


def test_minimize_keeps_an_atom_that_leaves_the_floor():
    # atom 7 of this start is at the floor after iteration 1 only
    rho0 = _readme_ring(12, seed=5)
    _, first = minimize(rho0, README_KERNEL, OptimizerConfig(max_iterations=1))
    assert first.floored_points == [7]
    rho, trace = minimize(rho0, README_KERNEL, OptimizerConfig(max_iterations=1000))
    assert trace.status == "converged"
    # atom 7 stays; atom 8 is merged into an atom it coincides with
    assert rho.count == 11 and trace.pruned_points == []
    assert trace.merged_points == [8]


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


def _gradient_trial_step(monkeypatch, rho0, kernel, it):
    """The iterate after it - 1 iterations, its trace, and the step of the
    first gradient trial of iteration it, read off the points it is tried at."""
    before, trace = minimize(rho0, kernel, OptimizerConfig(max_iterations=it - 1))
    assert trace.newton_steps == 0 and trace.pruned_points == []
    tried = []
    monkeypatch.setattr(optimizer, "pair_tables",
                        lambda k, m, x: tried.append(x) or pair_tables(k, m, x))
    minimize(rho0, kernel, OptimizerConfig(max_iterations=it))
    monkeypatch.undo()
    _, gx, _, residual = _gradients(pair_tables(kernel, rho0.manifold, before.points),
                                    before.weights)
    assert residual > optimizer.NEWTON_RESIDUAL   # no Newton trial comes first
    moved = before.points - tried[1 + trace.trials]   # after the start's tables
    return before, trace, float((moved * gx).sum() / (gx * gx).sum())


def _secant(kernel, old, new):
    """<s,s>, <s,y>, <y,y> of the change from measure old to measure new."""
    (_, gx0, gw0, _), (_, gx1, gw1, _) = (
        _gradients(pair_tables(kernel, rho.manifold, rho.points), rho.weights)
        for rho in (old, new))
    s = np.hstack([new.points.ravel() - old.points.ravel(), new.weights - old.weights])
    y = np.hstack([(gx1 - gx0).ravel(), gw1 - gw0])
    return s @ s, s @ y, y @ y


@pytest.mark.parametrize("it, long", [(2, False), (3, True), (4, False)])
def test_first_gradient_trial_is_the_abb_step(monkeypatch, it, long):
    # the README ring of 5 points: every early <s,y> is positive
    rho0 = _readme_ring(5, seed=0)
    older = (rho0 if it == 2 else
             minimize(rho0, README_KERNEL, OptimizerConfig(max_iterations=it - 2))[0])
    before, _, first = _gradient_trial_step(monkeypatch, rho0, README_KERNEL, it)
    ss, sy, yy = _secant(README_KERNEL, older, before)
    assert sy > 0
    assert first == pytest.approx(ss / sy if long else sy / yy, rel=1e-9)


def test_first_gradient_trial_falls_back_without_positive_curvature(monkeypatch):
    # on this start the second accepted change has <s,y> < 0, so the third
    # iteration starts from the second's accepted step, doubled
    rho0 = _readme_ring(5, seed=1)
    older, _ = minimize(rho0, README_KERNEL, OptimizerConfig(max_iterations=1))
    before, trace, first = _gradient_trial_step(monkeypatch, rho0, README_KERNEL, 3)
    assert _secant(README_KERNEL, older, before)[1] < 0
    assert first == pytest.approx(trace.rows[-1][3] * 2.0, rel=1e-9)


RING_MINIMIZE_STARTS = (
    [(_readme_ring(n, seed=s), README_KERNEL) for n in (5, 8, 12) for s in range(6)]
    + [(random_measure(ChartManifold(kind="torus", dim=1, periods=(2.0 * np.pi,)),
                       count=5, total_volume=5.0, seed=s), GaussianKernel(sigma=1.0))
       for s in range(3)]
    + [(_readme_ring(40, seed=0), README_KERNEL)])


def test_accepted_steps_never_raise_the_action_on_the_ring_starts():
    for rho0, kernel in RING_MINIMIZE_STARTS:
        _, trace = minimize(rho0, kernel, OptimizerConfig(
            max_iterations=1000, trace_period=1))
        assert trace.status == "converged"
        actions = [row[1] for row in trace.rows]
        assert all(b <= a for a, b in zip(actions, actions[1:]))


def test_n40_ring_reaches_a_tight_residual_within_100_iterations():
    _, trace = minimize(_readme_ring(40, seed=0), README_KERNEL, OptimizerConfig(
        max_iterations=100, tolerance_weak_el=1e-8))
    assert trace.status == "converged" and trace.rows[-1][2] <= 1e-8
    assert trace.rows[-1][0] <= 100   # growing the last step instead took 352
