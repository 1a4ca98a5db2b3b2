from __future__ import annotations

import numpy as np
import pytest

from cvplab import (ChartManifold, DiscreteMeasure, FragmentationScheme,
                    GaussianKernel, NegativeDiagonalError,
                    SchemaError, WeightPositivityError, action,
                    FormEvaluator, frag_lower_bound,
                    frag_second_variation, frag_second_variation_rescaled,
                    fragment_deform, optimal_weights, second_variation_fd,
                    stability_probe, translation)
from cvplab.variations import sample_scheme


def _curve(rho, jf, volume_preserving=True):
    """The one-fragment scheme of a jet field, by default with its scalars
    shifted to zero the volume defect."""
    c, u = np.ones((rho.count, 1)), jf[None]
    if volume_preserving:
        return FragmentationScheme.volume_preserved(rho, c, u)
    return FragmentationScheme(weights=c, jets=u)


def _random_vp_field(rho, rng, scale=1.0):
    scalar = scale * rng.normal(size=rho.count)
    jf = np.column_stack(
        [scalar, scale * rng.normal(size=(rho.count, rho.manifold.dim))])
    return _curve(rho, jf).jets[0]


def test_deform_tau_zero_is_base(csp5):
    jf = translation(csp5.rho.count, 1)
    curve = _curve(csp5.rho, jf, volume_preserving=False)
    assert fragment_deform(curve, csp5.rho, 0.0) is csp5.rho


def test_deform_volume_constant_for_projected_scalars(csp5):
    rng = np.random.default_rng(0)
    curve = _curve(csp5.rho, _random_vp_field(csp5.rho, rng))
    for tau in (-0.1, 0.05, 0.2):
        assert fragment_deform(curve, csp5.rho, tau).total_volume == \
            pytest.approx(csp5.rho.total_volume, rel=1e-13)


def test_deform_pure_vector_translates_support(csp5):
    jf = translation(csp5.rho.count, 1)
    curve = _curve(csp5.rho, jf, volume_preserving=False)
    out = fragment_deform(curve, csp5.rho, 0.3)
    assert np.array_equal(out.weights, csp5.rho.weights)
    assert np.allclose(out.points, csp5.rho.points + 0.3)


def test_deform_weight_positivity_error(csp5):
    scalar = np.zeros(csp5.rho.count)
    scalar[2] = -1.0
    curve = _curve(csp5.rho, np.column_stack(
        [scalar, np.zeros((csp5.rho.count, 1))]))
    with pytest.raises(WeightPositivityError) as exc:
        fragment_deform(curve, csp5.rho, 2.0)
    assert exc.value.point_index == 2


def test_curve_flag_validation(csp5):
    # a fragmented scheme whose scalars all equal one changes the volume
    n = csp5.rho.count
    c = np.random.default_rng(10).dirichlet(np.ones(3), size=n)
    jets = np.zeros((3, n, 2))
    jets[:, :, 0] = 1.0
    scheme = FragmentationScheme(weights=c, jets=jets)
    assert scheme.combined_defect(csp5.rho) == pytest.approx(
        csp5.rho.total_volume, rel=1e-14)
    with pytest.raises(SchemaError):
        second_variation_fd(csp5.rho, csp5.kernel, scheme, 1e-3)
    fixed = FragmentationScheme.volume_preserved(csp5.rho, c, jets)
    assert abs(fixed.combined_defect(csp5.rho)) <= 1e-14


def test_analytic_second_variation_equals_sp1(csp5):
    rng = np.random.default_rng(1)
    jf = _random_vp_field(csp5.rho, rng)
    lhs = csp5.ev.sp1(jf, jf)
    rhs = FormEvaluator(csp5.rho, csp5.kernel).sp1(jf, jf)
    assert lhs == rhs  # shared and fresh evaluator, bit-identical


def test_fd_oracle_agrees_with_analytic(csp5):
    rng = np.random.default_rng(2)
    scale = abs(action(csp5.rho, csp5.kernel))
    for _ in range(5):
        jf = _random_vp_field(csp5.rho, rng)
        norm = max(np.abs(jf[:, 0]).max(), np.abs(jf[:, 1:]).max())
        fd = second_variation_fd(csp5.rho, csp5.kernel, _curve(csp5.rho, jf),
                                 tau_step=1e-3 / norm)
        an = csp5.ev.sp1(jf, jf)
        assert abs(an - fd) <= 1e-5 * max(abs(fd), scale)


def test_fd_first_variation_vanishes(csp5):
    rng = np.random.default_rng(3)
    jf = _random_vp_field(csp5.rho, rng)
    curve = _curve(csp5.rho, jf)
    h = 1e-4
    s0 = action(csp5.rho, csp5.kernel)
    first = (action(fragment_deform(curve, csp5.rho, h), csp5.kernel)
             - action(fragment_deform(curve, csp5.rho, -h), csp5.kernel)) / (2 * h)
    assert abs(first) <= max(1e-6, 100 * 1e-6) * max(1.0, abs(s0))


def test_fd_requires_volume_preserving_curve(csp5):
    jf = np.column_stack([np.ones(csp5.rho.count),
                          np.zeros((csp5.rho.count, 1))])
    curve = _curve(csp5.rho, jf, volume_preserving=False)
    with pytest.raises(SchemaError):
        second_variation_fd(csp5.rho, csp5.kernel, curve, 1e-3)


def test_scheme_validation(csp5):
    n = csp5.rho.count
    good = np.full((n, 2), 0.5)
    jets = np.zeros((2, n, 2))
    FragmentationScheme(weights=good, jets=jets)
    with pytest.raises(SchemaError):
        FragmentationScheme(weights=np.full((n, 2), 0.4), jets=jets)
    with pytest.raises(SchemaError):
        FragmentationScheme(weights=np.array([[1.2, -0.2]] * n), jets=jets)
    with pytest.raises(SchemaError):
        FragmentationScheme(weights=good, jets=jets[:1])
    with pytest.raises(SchemaError):   # (n, L, 1 + m) instead of (L, n, 1 + m)
        FragmentationScheme(weights=good, jets=np.zeros((n, 2, 2)))


def test_fragment_deform_single_fragment_equals_deform(csp5):
    # one fragment is the curve: points x + tau u, weights w (1 + tau a)
    rng = np.random.default_rng(4)
    jf = _random_vp_field(csp5.rho, rng)
    scheme = _curve(csp5.rho, jf)
    for tau in (0.0, 0.1, -0.05):
        a = fragment_deform(scheme, csp5.rho, tau)
        assert np.array_equal(a.points, csp5.rho.points + tau * jf[:, 1:])
        assert np.array_equal(a.weights,
                              csp5.rho.weights * (1.0 + tau * jf[:, 0]))


def test_fragment_deform_two_point_split(single_gauss):
    # one atom split into two equal fragments pushed apart symmetrically
    rho = single_gauss.rho
    jets = np.array([[[0.0, 1.0]], [[0.0, -1.0]]])
    scheme = FragmentationScheme(weights=np.array([[0.5, 0.5]]), jets=jets)
    out = fragment_deform(scheme, rho, tau=0.7)
    assert out.count == 2
    assert out.total_volume == pytest.approx(rho.total_volume, rel=1e-14)
    assert sorted(out.points[:, 0]) == pytest.approx([-0.7, 0.7])
    assert np.allclose(out.weights, [1.0, 1.0])


def test_fragment_deform_preserves_action_at_tau_zero(csp5):
    rng = np.random.default_rng(5)
    scheme = sample_scheme(csp5.rho, fragments=3, rng=rng)
    out = fragment_deform(scheme, csp5.rho, 0.0)
    assert out is csp5.rho
    tiny = fragment_deform(scheme, csp5.rho, 1e-300)
    assert action(tiny, csp5.kernel) == pytest.approx(
        action(csp5.rho, csp5.kernel), rel=1e-12)


def test_frag_second_variation_single_fragment_reduces(csp5):
    rng = np.random.default_rng(6)
    jf = _random_vp_field(csp5.rho, rng)
    scheme = _curve(csp5.rho, jf)
    frag = frag_second_variation(csp5.ev, scheme)
    plain = csp5.ev.sp1(jf, jf)
    assert frag == pytest.approx(plain, rel=1e-12)


def test_fd_oracle_agrees_with_frag_second_variation(csp5):
    """The FD oracle steps along fragment_deform, so it checks fragmented
    second variations too, on schemes of three fragments."""
    rng = np.random.default_rng(12)
    scale = abs(action(csp5.rho, csp5.kernel))
    checked = 0
    while checked < 10:
        scheme = sample_scheme(csp5.rho, fragments=3, rng=rng)
        if scheme.weights.shape[1] != 3:
            continue
        fd = second_variation_fd(csp5.rho, csp5.kernel, scheme,
                                 tau_step=1e-3 / np.abs(scheme.jets).max())
        an = frag_second_variation(csp5.ev, scheme)
        assert abs(an - fd) <= 1e-5 * max(abs(fd), scale)
        checked += 1


def test_substitution_identity(csp5):
    """Pre-substitution formula equals the transformed form at v = c*u."""
    rng = np.random.default_rng(7)
    scheme = sample_scheme(csp5.rho, fragments=3, rng=rng)
    c = scheme.weights
    rescaled_jets = c.T[:, :, None] * scheme.jets
    pre = frag_second_variation(csp5.ev, scheme)
    post = frag_second_variation_rescaled(csp5.ev, rescaled_jets, c)
    assert pre == pytest.approx(post, rel=1e-12)


def test_optimal_weights_closed_form():
    c, lam = optimal_weights([1.0, 4.0])
    assert np.allclose(c, [1.0 / 3.0, 2.0 / 3.0], atol=1e-15)
    assert lam == 9.0
    # the minimized value sum A_a / c_a equals lambda
    assert 1.0 / c[0] + 4.0 / c[1] == pytest.approx(lam, rel=1e-14)
    c, lam = optimal_weights([1.0, 1.0])
    assert np.allclose(c, [0.5, 0.5])
    c, lam = optimal_weights([0.0, 1.0])
    assert np.array_equal(c, [0.0, 1.0]) and lam == 1.0
    c, lam = optimal_weights([0.0, 0.0])
    assert np.allclose(c, [0.5, 0.5]) and lam == 0.0
    with pytest.raises(NegativeDiagonalError):
        optimal_weights([-1.0, 2.0])


def test_frag_lower_bound_single_field_is_sp1(csp5):
    rng = np.random.default_rng(8)
    jf = _random_vp_field(csp5.rho, rng)
    lb = frag_lower_bound(csp5.ev, jf[None])
    sp = csp5.ev.sp1(jf, jf)
    assert lb == pytest.approx(sp, rel=1e-10)


def test_frag_lower_bound_is_minimum_over_weights(csp5):
    rng = np.random.default_rng(9)
    jets = np.array([_random_vp_field(csp5.rho, rng) for _ in range(3)])
    lb = frag_lower_bound(csp5.ev, jets)
    for _ in range(50):
        c = rng.dirichlet(np.ones(3), size=csp5.rho.count)
        val = frag_second_variation_rescaled(csp5.ev, jets, c)
        assert val >= lb - 1e-10


def test_frag_lower_bound_rejects_indefinite_base(single_gauss):
    # vector jets see Hess ell = -4 at the single atom: significantly negative
    jets = np.array([[[0.0, 1.0]]])
    with pytest.raises(NegativeDiagonalError):
        frag_lower_bound(single_gauss.ev, jets)


def test_stability_probe_zero_jets(csp5):
    rep = stability_probe(csp5.ev, fragments=2,
                          tau_grid=[-0.02, 0.02], trials=5, seed=0,
                          jet_scale=0.0)
    assert abs(rep.min_delta) <= 1e-14 * abs(rep.base_action)


def test_stability_probe_report_and_csv(tmp_path, csp5):
    rep = stability_probe(csp5.ev, fragments=3,
                          tau_grid=[-0.02, -0.01, 0.01, 0.02], trials=10,
                          seed=3)
    assert rep.min_delta >= -1e-12 * abs(rep.base_action)
    assert rep.max_fit_deviation <= 0.05
    assert len(rep.rows) == 40
    path = tmp_path / "probe.csv"
    rep.write_csv(path)
    assert path.read_text().splitlines()[0] == "trial,tau,delta_action"
    d = rep.to_dict()
    assert len(d["fits"]) == 10
