from __future__ import annotations

import numpy as np
import pytest

from cvplab import (ChartManifold, DimensionMismatchError, FormEvaluator,
                    GaussianKernel, JetField, RegionMask, arc_regions,
                    assemble_linfield, gram_spectrum, osi_report,
                    random_measure, random_regions, solve_linfield,
                    surface_layer_integral)
from cvplab.errors import SchemaError
from cvplab.jets import FORM_SP1, nabla1_nabla2_L
from cvplab.kernels import lagrangian_derivatives, lagrangian_eval


def test_operator_shape_and_zero_jet(csp5):
    op = assemble_linfield(csp5.ev)
    n = csp5.rho.count
    assert op.matrix.shape == (2 * n, 2 * n)
    assert np.isfinite(op.matrix).all()
    assert op.residual(JetField.zero(n, 1)) == 0.0


def test_translation_jet_solves_linearized_equations(csp5):
    op = assemble_linfield(csp5.ev)
    scale = float(np.abs(op.matrix).max())
    u = JetField.translation(csp5.rho.count, 1)
    assert op.residual(u) <= 1e-8 * scale


def test_constant_scalar_jet_is_not_a_solution(csp5):
    # bracket of a constant scalar beta is 2*beta*ell + beta*nu/2,
    # which is beta*nu/2 at a minimizer -- nonzero for nu != 0
    beta = 0.7
    jf = JetField(scalar=np.full(csp5.rho.count, beta),
                  vector=np.zeros((csp5.rho.count, 1)))
    op = assemble_linfield(csp5.ev)
    values = op.apply(jf).reshape(csp5.rho.count, 2)
    assert np.allclose(values[:, 0], beta * csp5.nu / 2.0, atol=1e-5)
    assert op.residual(jf) > 1.0


def test_random_jets_have_positive_residual(csp5):
    op = assemble_linfield(csp5.ev)
    for seed in range(10):
        rng = np.random.default_rng(seed)
        jf = JetField(scalar=rng.normal(size=csp5.rho.count),
                      vector=rng.normal(size=(csp5.rho.count, 1)))
        assert op.residual(jf) > 1e-6


def test_solve_linfield_contains_translation(csp5):
    op = assemble_linfield(csp5.ev)
    sol = solve_linfield(op, threshold_rel=1e-8)
    assert sol.dimension >= 1
    scale = float(np.abs(op.matrix).max())
    for res in sol.residuals:
        assert res <= 1e-8 * scale * 10
    # the translation jet lies in the returned span
    t = JetField.translation(csp5.rho.count, 1).stacked()
    basis = np.array([jf.stacked() for jf in sol.solutions])
    coeffs = basis @ t
    projection = coeffs @ basis
    assert np.abs(projection - t).max() <= 1e-8 * np.abs(t).max()


def test_solve_linfield_threshold_validation(csp5):
    op = assemble_linfield(csp5.ev)
    with pytest.raises(SchemaError):
        solve_linfield(op, threshold_rel=1.5)
    exact = solve_linfield(op, threshold_rel=0.0)
    assert exact.dimension <= solve_linfield(op, 1e-8).dimension


def _svd_null_projector(matrix, threshold_rel=1e-10):
    """Oracle: projector onto the right singular vectors of the operator
    with sigma <= threshold_rel * sigma_max."""
    _, sigma, vt = np.linalg.svd(matrix)
    null = vt[sigma <= threshold_rel * sigma[0]]
    return null.T @ null


@pytest.mark.parametrize("name", ["csp5", "gauss5", "lattice2d"])
def test_solve_linfield_matches_svd_null_space(name, request):
    f = request.getfixturevalue(name)
    op = assemble_linfield(f.ev)
    sol = solve_linfield(op)
    assert sol.dimension >= 1
    basis = np.array([jf.stacked() for jf in sol.solutions])
    assert np.abs(basis.T @ basis - _svd_null_projector(op.matrix)).max() <= 1e-8
    scale = float(np.abs(op.matrix).max())
    assert max(sol.residuals) <= 1e-8 * scale


def test_spectrum_and_kernel_share_one_sp1_solve(csp5, gauss5, lattice2d):
    for f in (csp5, gauss5, lattice2d):
        spectrum = gram_spectrum(f.ev, FORM_SP1).eigenvalues
        kernel = solve_linfield(assemble_linfield(f.ev)).eigenvalues
        assert spectrum.tobytes() == kernel.tobytes()


def _pointwise_brackets(rho, kernel, nu, jf):
    """Oracle: the bracket and its chart gradient at every point, pair by pair."""
    w, x, a, u = rho.weights, rho.points, jf.scalar, jf.vector
    out = np.zeros((rho.count, 1 + rho.manifold.dim))
    for i in range(rho.count):
        for j in range(rho.count):
            L = lagrangian_eval(kernel, rho.manifold, x[i], x[j])
            G = lagrangian_derivatives(kernel, rho.manifold, x[i], x[j], "grad1")
            H11 = lagrangian_derivatives(kernel, rho.manifold, x[i], x[j], "hess11")
            out[i, 0] += w[j] * ((a[i] + a[j]) * L + (u[i] - u[j]) @ G)
            out[i, 1:] += w[j] * ((a[i] + a[j]) * G + H11 @ (u[i] - u[j]))
        out[i, 0] -= a[i] * nu / 2.0
    return out.ravel()


def _gauss_2d() -> FormEvaluator:
    manifold = ChartManifold(kind="torus", dim=2, periods=(6.0, 6.0))
    rho = random_measure(manifold, count=12, total_volume=12.0, seed=4)
    return FormEvaluator(rho, GaussianKernel(sigma=1.0))


def test_operator_matches_pointwise_brackets(csp5):
    rng = np.random.default_rng(10)
    for ev in (csp5.ev, _gauss_2d()):
        rho = ev.rho
        op = assemble_linfield(ev)
        for _ in range(3):
            jf = JetField(scalar=rng.normal(size=rho.count),
                          vector=rng.normal(size=(rho.count, rho.manifold.dim)))
            oracle = _pointwise_brackets(rho, ev.kernel, ev.nu, jf)
            err = np.abs(op.apply(jf) - oracle).max()
            assert err <= 1e-12 * np.abs(oracle).max()


def test_surface_layer_trivial_cases(csp5):
    n = csp5.rho.count
    zero = JetField.zero(n, 1)
    omega = RegionMask.from_indices(n, [0, 1])
    assert surface_layer_integral(csp5.rho, csp5.kernel, omega, zero) == 0.0
    u = JetField.translation(n, 1)
    empty = RegionMask(inside=np.zeros(n, dtype=bool))
    everything = RegionMask(inside=np.ones(n, dtype=bool))
    assert surface_layer_integral(csp5.rho, csp5.kernel, empty, u) == 0.0
    assert surface_layer_integral(csp5.rho, csp5.kernel, everything, u) == 0.0
    with pytest.raises(DimensionMismatchError):
        surface_layer_integral(csp5.rho, csp5.kernel,
                               RegionMask.from_indices(n + 1, [0]), u)


def test_complement_symmetry(csp5):
    n = csp5.rho.count
    rng = np.random.default_rng(2)
    jf = JetField(scalar=rng.normal(size=n), vector=rng.normal(size=(n, 1)))
    for omega in random_regions(csp5.rho, count=8, seed=5):
        a = surface_layer_integral(csp5.rho, csp5.kernel, omega, jf)
        b = surface_layer_integral(csp5.rho, csp5.kernel,
                                   omega.complement(), jf)
        assert a == pytest.approx(b, rel=1e-12, abs=1e-12)


def test_additivity_splitting(csp5):
    """Full double sum = within-region + within-complement + 2 * cross."""
    n = csp5.rho.count
    rng = np.random.default_rng(3)
    jf = JetField(scalar=rng.normal(size=n), vector=rng.normal(size=(n, 1)))
    ev = csp5.ev
    full = ev.double_sum(jf, jf)
    omega = RegionMask.from_indices(n, [0, 2])
    cross = -surface_layer_integral(csp5.rho, csp5.kernel, omega, jf)

    def restricted(mask):
        sub = JetField(scalar=np.where(mask, jf.scalar, 0.0),
                       vector=np.where(mask[:, None], jf.vector, 0.0))
        return ev.double_sum(sub, sub)

    inside = restricted(omega.inside)
    outside = restricted(~omega.inside)
    scale = max(abs(full), 1.0)
    assert abs(full - (inside + outside + 2.0 * cross)) <= 1e-12 * scale


def test_arc_regions_enumeration(csp5):
    arcs = arc_regions(csp5.rho)
    n = csp5.rho.count
    assert len(arcs) == n * (n - 1)
    assert all(0 < a.size < n for a in arcs)
    # on a shuffled point order, each arc is its run of sorted positions
    order = np.random.default_rng(5).permutation(n)
    rho = csp5.rho.replace(points=csp5.rho.points[order],
                           weights=csp5.rho.weights[order])
    sorted_order = np.argsort(rho.points[:, 0])
    arcs = iter(arc_regions(rho))
    for start in range(n):
        for length in range(1, n):
            arc = next(arcs)
            expected = RegionMask.from_indices(
                n, sorted_order[(start + np.arange(length)) % n])
            assert np.array_equal(arc.inside, expected.inside)
            assert arc.label == f"arc(start={start}, length={length})"
    assert next(arcs, None) is None


def test_osi_report_translation_positive(csp5):
    u = JetField.translation(csp5.rho.count, 1)
    rep = osi_report(assemble_linfield(csp5.ev), u, arc_regions(csp5.rho))
    assert rep.solution_hypothesis
    assert rep.min_value > 0.0
    assert rep.all_positive
    d = rep.to_dict()
    assert d["min_value"] == rep.min_value
    assert d["osi"] == [v for _, v in rep.values]
    assert len(d["osi"]) == len(arc_regions(csp5.rho))


def test_osi_report_flags_non_solution(csp5):
    rng = np.random.default_rng(6)
    jf = JetField(scalar=rng.normal(size=csp5.rho.count),
                  vector=rng.normal(size=(csp5.rho.count, 1)))
    op = assemble_linfield(csp5.ev)
    rep = osi_report(op, jf, random_regions(csp5.rho, count=4, seed=1))
    assert not rep.solution_hypothesis
    with pytest.raises(SchemaError):
        osi_report(op, jf, [])


def _pointwise_osi(rho, kernel, region, jf):
    """Oracle: boundary double sum of the pointwise analytic D1 D2 L."""
    w = rho.weights
    return -sum(
        w[i] * w[j] * nabla1_nabla2_L(kernel, rho.manifold, rho.points[i],
                                      rho.points[j], jf.jet(i), jf.jet(j))
        for i in np.flatnonzero(region.inside)
        for j in np.flatnonzero(~region.inside))


def _assert_osi_matches_oracle(ev, jf, regions):
    rho, kernel = ev.rho, ev.kernel
    op = assemble_linfield(ev)
    rep = osi_report(op, jf, regions)
    assert [lab for lab, _ in rep.values] == [r.label for r in regions]
    for (_, val), region in zip(rep.values, regions):
        assert val == pytest.approx(_pointwise_osi(rho, kernel, region, jf),
                                    rel=1e-12)
    k = int(np.argmin([val for _, val in rep.values]))
    assert (rep.min_region, rep.min_value) == rep.values[k]


def test_osi_report_matches_pointwise_oracle_on_arcs(csp5):
    rng = np.random.default_rng(7)
    n = csp5.rho.count
    for jf in (JetField.translation(n, 1),
               JetField(scalar=rng.normal(size=n), vector=rng.normal(size=(n, 1)))):
        _assert_osi_matches_oracle(csp5.ev, jf, arc_regions(csp5.rho))


def test_osi_report_matches_pointwise_oracle_in_2d():
    ev = _gauss_2d()
    rng = np.random.default_rng(8)
    jf = JetField(scalar=rng.normal(size=12), vector=rng.normal(size=(12, 2)))
    _assert_osi_matches_oracle(ev, jf, random_regions(ev.rho, count=16, seed=3))
