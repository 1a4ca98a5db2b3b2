from __future__ import annotations

import numpy as np
import pytest

from cvplab import Jet, JetField, SchemaError, gram_spectrum
from cvplab.jets import (BASIS_FULL, BASIS_SCALAR, BASIS_VECTOR, FORM_Q1,
                         FORM_SP1, FORM_SP2, nabla1_nabla2_L)


def _random_field(n, m, rng, scale=1.0):
    return JetField(scalar=scale * rng.normal(size=n),
                    vector=scale * rng.normal(size=(n, m)))


def test_stacked_round_trip():
    rng = np.random.default_rng(0)
    jf = _random_field(4, 2, rng)
    again = JetField.from_stacked(jf.stacked(), dim=2)
    assert np.array_equal(again.scalar, jf.scalar)
    assert np.array_equal(again.vector, jf.vector)
    assert jf.stacked().shape == (4 * 3,)


def test_translation_field():
    jf = JetField.translation(3, 2, axis=1)
    assert np.array_equal(jf.scalar, np.zeros(3))
    assert np.array_equal(jf.vector[:, 1], np.ones(3))
    assert np.array_equal(jf.vector[:, 0], np.zeros(3))


def test_jet_validation():
    with pytest.raises(SchemaError):
        Jet(a=np.nan, u=np.zeros(1))
    with pytest.raises(Exception):
        JetField(scalar=np.zeros(3), vector=np.zeros((2, 1)))


def test_forms_symmetric_and_bilinear(csp5):
    f = csp5
    n, m = f.rho.count, f.rho.manifold.dim
    rng = np.random.default_rng(1)
    u, v, w = (_random_field(n, m, rng) for _ in range(3))
    for form in (f.ev.q1, f.ev.sp1, f.ev.sp2):
        a = form(u, v)
        b = form(v, u)
        assert a == pytest.approx(b, rel=1e-12, abs=1e-12)
        # linearity in the first slot
        combo = JetField(scalar=2.0 * u.scalar + 3.0 * w.scalar,
                         vector=2.0 * u.vector + 3.0 * w.vector)
        lhs = form(combo, v)
        rhs = 2.0 * form(u, v) + 3.0 * form(w, v)
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


def test_sp2_is_sp1_plus_q1(csp5):
    f = csp5
    rng = np.random.default_rng(2)
    u = _random_field(f.rho.count, 1, rng)
    s1 = f.ev.sp1(u, u)
    s2 = f.ev.sp2(u, u)
    q = f.ev.q1(u, u)
    assert s2 == pytest.approx(s1 + q, rel=1e-12, abs=1e-14)


def test_gram_matrix_matches_direct_evaluation(csp5):
    """Dual route: matrix entries vs evaluating the form on basis fields."""
    f = csp5
    n, m = f.rho.count, f.rho.manifold.dim
    ev = f.ev
    dim = n * (1 + m)
    basis = [JetField.from_stacked(np.eye(dim)[k], m) for k in range(dim)]
    for form_id, func in ((FORM_Q1, ev.q1), (FORM_SP1, ev.sp1),
                          (FORM_SP2, ev.sp2)):
        matrix = ev.form_matrix(form_id)
        direct = np.array([[func(bi, bj) for bj in basis] for bi in basis])
        assert np.allclose(matrix, direct, atol=1e-12)


def test_quadratic_form_via_matrix(csp5):
    f = csp5
    ev = f.ev
    rng = np.random.default_rng(3)
    u = _random_field(f.rho.count, 1, rng)
    c = u.stacked()
    assert ev.sp1(u, u) == pytest.approx(
        float(c @ ev.form_matrix(FORM_SP1) @ c), rel=1e-12)


def test_translation_annihilates_sp1(csp5):
    f = csp5
    u = JetField.translation(f.rho.count, 1)
    val = f.ev.sp1(u, u)
    scale = float(np.abs(f.ev.form_matrix(FORM_SP1)).max())
    assert abs(val) <= 1e-10 * scale


def test_pointwise_forms_and_index_errors(csp5):
    f = csp5
    jet = Jet(a=0.5, u=np.array([1.0]))
    # weak EL: first-order jet derivative of ell vanishes on the support
    ev = f.ev
    for i in range(f.rho.count):
        assert abs(ev.nabla_ell(i, jet)) <= 2e-6
    for i in (99, -1, f.rho.count):
        with pytest.raises(IndexError):
            ev.nabla_ell(i, jet)
        with pytest.raises(IndexError):
            ev.nabla2_ell(i, jet, jet)
    # the batched q1 terms are the pointwise nabla2_ell diagonals
    u = _random_field(f.rho.count, 1, np.random.default_rng(5))
    terms = ev.q1_terms(u, u)
    assert terms.shape == (f.rho.count,)
    for i in range(f.rho.count):
        assert terms[i] == pytest.approx(
            ev.nabla2_ell(i, u.jet(i), u.jet(i)), rel=1e-12, abs=1e-14)


def test_nabla1_nabla2_consistent_with_double_sum(csp5):
    f = csp5
    rng = np.random.default_rng(4)
    u = _random_field(f.rho.count, 1, rng)
    ev = f.ev
    w = f.rho.weights
    brute = sum(
        w[i] * w[j] * nabla1_nabla2_L(f.kernel, f.rho.manifold,
                                      f.rho.points[i], f.rho.points[j],
                                      u.jet(i), u.jet(j))
        for i in range(f.rho.count) for j in range(f.rho.count))
    assert ev.double_sum(u, u) == pytest.approx(brute, rel=1e-12)


def test_gram_spectrum_bases_and_errors(csp5):
    f = csp5
    full = gram_spectrum(f.ev, FORM_SP1, BASIS_FULL)
    scal = gram_spectrum(f.ev, FORM_SP1, BASIS_SCALAR)
    vect = gram_spectrum(f.ev, FORM_SP1, BASIS_VECTOR)
    n = f.rho.count
    assert full.matrix.shape == (2 * n, 2 * n)
    assert scal.matrix.shape == (n, n)
    assert vect.matrix.shape == (n, n)
    assert full.psd and scal.psd
    assert scal.min_eigenvalue > 0  # weighted kernel matrix, strictly positive
    with pytest.raises(SchemaError):
        gram_spectrum(f.ev, "SP9")
    with pytest.raises(SchemaError):
        gram_spectrum(f.ev, FORM_SP1, basis="diagonal")
    with pytest.raises(SchemaError):
        gram_spectrum(f.ev, FORM_SP1, max_dim=3)


def test_q1_spectrum_from_point_blocks(csp5, gauss5, lattice2d, single_gauss):
    for f in (csp5, gauss5, lattice2d, single_gauss):
        rep = gram_spectrum(f.ev, FORM_Q1)
        dense = np.linalg.eigvalsh(f.ev.form_matrix(FORM_Q1))
        assert np.abs(rep.eigenvalues - dense).max() <= 1e-13 * rep.scale
    # the negative control keeps failing its Q1 verdict
    assert gram_spectrum(single_gauss.ev, FORM_Q1).min_eigenvalue <= -1.0


def test_gram_report_serialization(csp5):
    f = csp5
    rep = gram_spectrum(f.ev, FORM_Q1)
    d = rep.to_dict()
    assert "matrix" not in d
    assert d["psd"] is True
    assert len(d["eigenvalues"]) == 2 * f.rho.count
