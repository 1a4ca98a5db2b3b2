"""End-to-end acceptance suite.

Each test exercises one headline capability at its stated tolerance and
prints a single PASS/FAIL line; the printed verdict always matches the
assertion outcome.
"""

from __future__ import annotations

import numpy as np

from cvplab import (ChartManifold, FormEvaluator, GaussianKernel,
                    OptimizerConfig, action, action_difference, arc_regions,
                    el_report, frag_lower_bound, frag_second_variation,
                    frag_second_variation_rescaled, fragment_deform,
                    gram_spectrum, linfield_residual, minimize,
                    optimal_weights, random_measure, sample_scheme,
                    second_variation_fd, solve_linfield, stability_probe,
                    surface_layer_integral, translation, volume_preserved)
from cvplab.jets import BASIS_FULL, BASIS_SCALAR, FORM_Q1, FORM_SP1


def _verdict(number, ok, detail):
    print(f"\n[criterion {number:02d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_01_minimizer_existence_and_el():
    """10 random starts reach weak EL and the equispaced configuration."""
    manifold = ChartManifold(kind="torus", dim=1, periods=(2.0 * np.pi,))
    kernel = GaussianKernel(sigma=1.0)
    worst_res, worst_gap, worst_weight = 0.0, 0.0, 0.0
    for seed in range(10):
        rho0 = random_measure(manifold, count=5, total_volume=5.0, seed=seed)
        rho, trace = minimize(rho0, kernel, OptimizerConfig())
        rep = el_report(FormEvaluator(rho, kernel))
        worst_res = max(worst_res, rep["weak_residual"])
        pos = np.sort(rho.points[:, 0])
        gaps = np.diff(np.append(pos, pos[0] + 2.0 * np.pi))
        worst_gap = max(worst_gap, float(np.abs(gaps - 2.0 * np.pi / 5).max()))
        worst_weight = max(worst_weight, float(np.abs(rho.weights - 1.0).max()))
    ok = worst_res <= 1e-6 and worst_gap <= 1e-4 and worst_weight <= 1e-4
    _verdict(1, ok, f"max weak residual {worst_res:.2e}, max gap deviation "
                    f"{worst_gap:.2e}, max weight deviation {worst_weight:.2e}")


def test_criterion_02_q1_sp1_positivity(csp5, csp8):
    """Q1 and SP1 Gram matrices are PSD at every converged fixture."""
    worst = np.inf
    details = []
    for name, f in (("csp5", csp5), ("csp8", csp8)):
        for form_id in (FORM_Q1, FORM_SP1):
            rep = gram_spectrum(f.ev, form_id, BASIS_FULL)
            ratio = rep.min_eigenvalue / rep.scale
            worst = min(worst, ratio)
            details.append(f"{name}/{form_id}: {ratio:.2e}")
    ok = worst >= -1e-8
    _verdict(2, ok, "min eigenvalue / scale " + ", ".join(details))


def test_criterion_03_second_variation_oracle(csp5):
    """Analytic second variation matches the Richardson FD oracle."""
    f = csp5
    rng = np.random.default_rng(42)
    scale = abs(action(f.rho, f.kernel))
    worst = 0.0
    for _ in range(20):
        # a curve is the one-fragment scheme
        # n scalars, then n vectors: rows [a, u] of the one fragment
        jets = rng.normal(size=(2, f.rho.count)).T[None]
        c, u = volume_preserved(f.rho, np.ones((1, f.rho.count)), jets)
        fd = second_variation_fd(f.rho, f.kernel, c, u,
                                 tau_step=1e-3 / np.abs(u).max())
        jf = u[0]
        an = f.ev.sp1(jf, jf)
        worst = max(worst, abs(an - fd) / max(abs(fd), scale))
    ok = worst <= 1e-5
    _verdict(3, ok, f"worst relative analytic/FD deviation {worst:.2e} "
                    f"over 20 random volume-preserving jet fields")


def test_criterion_04_scalar_inequality(gauss5, csp5, csp8):
    """The scalar-only SP1 Gram (weighted kernel matrix) is PSD."""
    worst = np.inf
    details = []
    for name, f in (("gauss5", gauss5), ("csp5", csp5), ("csp8", csp8)):
        rep = gram_spectrum(f.ev, FORM_SP1, BASIS_SCALAR)
        ratio = rep.min_eigenvalue / rep.scale
        worst = min(worst, ratio)
        details.append(f"{name}: {ratio:.2e}")
    ok = worst >= -1e-8
    _verdict(4, ok, "scalar-block min eigenvalue / scale " + ", ".join(details))


def test_criterion_05_fragmentation_algebra(csp5):
    """Substitution identity, weight minimality, and the closed form."""
    f = csp5
    rng = np.random.default_rng(5)
    # closed form
    c, lam = optimal_weights([1.0, 4.0])
    closed = np.allclose(c, [1 / 3, 2 / 3], atol=1e-15) and lam == 9.0
    # substitution identity on random schemes
    sub_dev = 0.0
    for _ in range(5):
        cw, u = sample_scheme(f.rho, fragments=3, rng=rng)
        rescaled = cw[:, :, None] * u
        pre = frag_second_variation(f.ev, cw, u)
        post = frag_second_variation_rescaled(f.ev, rescaled, cw)
        sub_dev = max(sub_dev, abs(pre - post) / max(abs(pre), 1e-300))
    # minimality of the lower bound over random weights, equality at optimum
    jets = np.array([volume_preserved(
        f.rho, np.ones((1, f.rho.count)),
        rng.normal(size=(2, f.rho.count)).T[None])[1][0] for _ in range(3)])
    lb = frag_lower_bound(f.ev, jets)
    min_gap = np.inf
    for _ in range(50):
        cw = rng.dirichlet(np.ones(3), size=f.rho.count).T
        val = frag_second_variation_rescaled(f.ev, jets, cw)
        min_gap = min(min_gap, val - lb)
    diag = np.maximum(f.ev.q1_terms(jets, jets), 0.0).T
    c_opt = np.array([optimal_weights(row)[0] for row in diag]).T
    at_opt = frag_second_variation_rescaled(f.ev, jets, c_opt)
    eq_dev = abs(at_opt - lb) / max(abs(lb), 1e-300)
    ok = closed and sub_dev <= 1e-12 and min_gap >= -1e-10 and eq_dev <= 1e-10
    _verdict(5, ok, f"closed form {'ok' if closed else 'BAD'}, substitution "
                    f"deviation {sub_dev:.2e}, minimality gap {min_gap:.2e}, "
                    f"optimum equality deviation {eq_dev:.2e}")


def test_criterion_06_stability_probe(csp5):
    """100 fragmented variations never lower the action; quadratic fit holds."""
    f = csp5
    rep = gram_spectrum(f.ev, FORM_SP1, BASIS_FULL)
    # strict positivity off the translation symmetry mode
    second_smallest = float(np.sort(rep.eigenvalues)[1]) / rep.scale
    probe = stability_probe(f.ev, fragments=3,
                            tau_grid=[-0.02, -0.01, 0.01, 0.02],
                            trials=100, seed=2026)
    stable = probe.min_delta >= -1e-12 * abs(probe.base_action)
    fit_ok = probe.max_fit_deviation <= 0.05
    ok = stable and fit_ok and second_smallest > 1e-6
    _verdict(6, ok, f"min action difference {probe.min_delta:.2e} over 100 "
                    f"schemes, worst quadratic-fit deviation "
                    f"{probe.max_fit_deviation:.2%}, SP1 spectrum positive off "
                    f"the translation mode ({second_smallest:.2e} relative)")


def test_criterion_07_symmetry_kernel(gauss5, csp5):
    """Translation jets: sp1 vanishes while sp2 reduces to its q1 value."""
    worst_sp1, worst_rel = 0.0, 0.0
    for f in (gauss5, csp5):
        u = translation(f.rho.count, 1)
        rep = gram_spectrum(f.ev, FORM_SP1, BASIS_FULL)
        s1 = f.ev.sp1(u, u)
        s2 = f.ev.sp2(u, u)
        qq = f.ev.q1(u, u)
        worst_sp1 = max(worst_sp1, abs(s1) / rep.scale)
        worst_rel = max(worst_rel, abs(s2 - qq) / max(abs(qq), 1e-300))
    ok = worst_sp1 <= 1e-8 and worst_rel <= 1e-10
    _verdict(7, ok, f"|sp1(translation)| / scale {worst_sp1:.2e}, "
                    f"sp2 vs q1 relative deviation {worst_rel:.2e}")


def test_criterion_08_linfield_and_osi(csp5, monkeypatch):
    """Translation solves the linearized equations; OSI positive on arcs."""
    f = csp5
    monkeypatch.setattr("cvplab.linfield.KERNEL_THRESHOLD_REL", 1e-8)
    rows = np.repeat(f.rho.weights, 1 + f.rho.manifold.dim)[:, None]
    scale = float(np.abs(f.ev.sp1_gram / rows).max())
    res = linfield_residual(f.ev, translation(f.rho.count, 1)) / scale
    jets, _ = solve_linfield(f.ev)
    arcs, _ = arc_regions(f.rho)
    worst = np.inf
    osi_scale = 1e-300
    for jf in jets:
        for omega in arcs:
            val = surface_layer_integral(f.rho, f.kernel, omega, jf)
            worst = min(worst, val)
            osi_scale = max(osi_scale, abs(val))
    ok = res <= 1e-8 and len(jets) >= 1 and worst >= -1e-8 * osi_scale
    _verdict(8, ok, f"translation residual / scale {res:.2e}, kernel "
                    f"dimension {len(jets)}, minimum surface layer "
                    f"integral {worst:.2e} over {len(arcs)} arcs")


def test_criterion_09_negative_control(single_gauss):
    """A weak-EL point that is not a minimizer is flagged by the suite."""
    f = single_gauss
    rep = el_report(f.ev)
    weak_ok = rep["weak_residual"] <= 1e-12
    spec = gram_spectrum(f.ev, FORM_Q1, BASIS_FULL)
    q1_fails = spec.min_eigenvalue <= -1.0
    jets = np.array([[[0.0, 1.0]], [[0.0, -1.0]]])
    split = fragment_deform(f.rho, np.full((2, 1), 0.5), jets, tau=1.0)
    drop = action(split, f.kernel) - action(f.rho, f.kernel)
    ok = weak_ok and q1_fails and drop < 0
    _verdict(9, ok, f"weak residual {rep['weak_residual']:.2e}, Q1 min "
                    f"eigenvalue {spec.min_eigenvalue:.2f}, 2-fragment split "
                    f"changes the action by {drop:.3f}")


def test_criterion_10_action_difference_identity():
    """Three-term difference formula vs direct subtraction, 50 pairs."""
    manifold = ChartManifold(kind="torus", dim=1, periods=(5.0,))
    kernel = GaussianKernel(sigma=1.0)
    rng = np.random.default_rng(10)
    worst = 0.0
    for trial in range(50):
        rho = random_measure(manifold, count=5, total_volume=5.0, seed=trial)
        other = rho.replace(
            points=rho.points + 0.4 * rng.normal(size=rho.points.shape),
            weights=rho.weights * rng.uniform(0.5, 1.5, size=rho.count))
        direct = action(other, kernel) - action(rho, kernel)
        formula = action_difference(rho, other, kernel)
        scale = max(abs(direct), abs(action(rho, kernel)))
        worst = max(worst, abs(formula - direct) / scale)
    ok = worst <= 1e-12
    _verdict(10, ok, f"worst relative deviation {worst:.2e} over 50 pairs")
