from __future__ import annotations

import numpy as np
import pytest

from cvplab import (ChartManifold, CompactSupportKernel, DimensionMismatchError,
                    GaussianKernel, InversePowerKernel, PairTables, SchemaError,
                    arc_regions, frag_lower_bound, frag_second_variation_rescaled,
                    gram_spectrum, linfield_residual, osi_report, pair_tables,
                    random_measure, surface_layer_integral, translation,
                    verify_lagrangian)
from cvplab.jets import (BASIS_FULL, BASIS_SCALAR, BASIS_VECTOR, FORM_Q1,
                         FORM_SP1, FORM_SP2, _basis_indices, jet_pair_block,
                         nabla1_nabla2_L)


def _random_field(n, m, rng, scale=1.0):
    """An (n, 1 + m) jet field: n scalars drawn first, then the n x m vectors."""
    scalar = scale * rng.normal(size=n)
    return np.column_stack([scalar, scale * rng.normal(size=(n, m))])


def _jet(u, i):
    """The jet of point i of the jet field u: its (1 + m,) row."""
    return u[i]


def test_stacked_round_trip():
    # a raveled jet field is its coefficient vector in the unit-jet basis order
    rng = np.random.default_rng(0)
    jf = _random_field(4, 2, rng)
    again = jf.ravel().reshape(4, 3)
    assert np.array_equal(again[:, 0], jf[:, 0])
    assert np.array_equal(again[:, 1:], jf[:, 1:])
    assert jf.ravel().shape == (4 * 3,)
    assert np.array_equal(jf.ravel()[_basis_indices(4, 2, BASIS_SCALAR)], jf[:, 0])
    assert np.array_equal(jf.ravel()[_basis_indices(4, 2, BASIS_VECTOR)],
                          jf[:, 1:].ravel())


def test_translation_field():
    jf = translation(3, 2, axis=1)
    assert np.array_equal(jf[:, 0], np.zeros(3))
    assert np.array_equal(jf[:, 2], np.ones(3))
    assert np.array_equal(jf[:, 1], np.zeros(3))


def test_jet_validation(csp5):
    with pytest.raises(SchemaError):
        csp5.ev.nabla_ell(0, [np.nan, 0.0])
    with pytest.raises(DimensionMismatchError):
        csp5.ev.q1(np.zeros((3, 2)), np.zeros((3, 2)))


def test_pointwise_jets_are_checked_rows(csp5):
    ev, manifold = csp5.ev, csp5.rho.manifold
    x = csp5.rho.points[0]
    good = np.array([0.5, 1.0])
    takers = [lambda j: ev.nabla_ell(0, j), lambda j: ev.nabla2_ell(0, j, good),
              lambda j: ev.nabla2_ell(0, good, j),
              lambda j: nabla1_nabla2_L(csp5.kernel, manifold, x, x, j, good),
              lambda j: nabla1_nabla2_L(csp5.kernel, manifold, x, x, good, j)]
    for call in takers:
        assert isinstance(call(good), float)
        assert call(good) == call([0.5, 1.0])   # any sequence of 1 + m numbers
        for bad in ([np.inf, 0.0], [0.0, np.nan]):
            with pytest.raises(SchemaError, match="finite"):
                call(bad)
        for bad in (np.zeros(1), np.zeros(3), np.zeros((1, 2)), 0.5):
            with pytest.raises(DimensionMismatchError):
                call(bad)


def _field_takers(f, good):
    """Every public call taking an (n, 1 + m) jet field, as a function of it."""
    ev, n = f.ev, f.rho.count
    return [
        lambda u: ev.q1_terms(u, good), lambda u: ev.q1_terms(good, u),
        lambda u: ev.q1(u, good), lambda u: ev.q1(good, u),
        lambda u: ev.double_sum(u, good), lambda u: ev.double_sum(good, u),
        lambda u: ev.sp1(u, good), lambda u: ev.sp1(good, u),
        lambda u: ev.sp2(u, good), lambda u: ev.sp2(good, u),
        lambda u: linfield_residual(ev, u),
        lambda u: osi_report(ev, u[None], arc_regions(f.rho)),
        lambda u: surface_layer_integral(f.rho, f.kernel, np.arange(n) < 2, u),
        # the fragment-jet functions take L such fields stacked on a first axis
        lambda u: frag_lower_bound(ev, u[None]),
        lambda u: frag_second_variation_rescaled(ev, u[None], np.ones((1, n))),
    ]


@pytest.mark.parametrize("name", ["csp5", "lattice2d"])
def test_every_jet_taker_checks_the_shape(name, request):
    f = request.getfixturevalue(name)
    n, m = f.rho.count, f.rho.manifold.dim
    good = translation(n, m)
    for call in _field_takers(f, good):
        call(good)   # the right shape passes
        for bad in (np.zeros((n, m)), np.zeros((n + 1, 1 + m)),
                    np.zeros(n * (1 + m))):
            with pytest.raises(DimensionMismatchError):
                call(bad)


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
        combo = 2.0 * u + 3.0 * w
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
    basis = [np.eye(dim)[k].reshape(n, 1 + m) for k in range(dim)]
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
    c = u.ravel()
    assert ev.sp1(u, u) == pytest.approx(
        float(c @ ev.form_matrix(FORM_SP1) @ c), rel=1e-12)


def test_translation_annihilates_sp1(csp5):
    f = csp5
    u = translation(f.rho.count, 1)
    val = f.ev.sp1(u, u)
    scale = float(np.abs(f.ev.form_matrix(FORM_SP1)).max())
    assert abs(val) <= 1e-10 * scale


def test_pointwise_forms_and_index_errors(csp5):
    f = csp5
    jet = np.array([0.5, 1.0])
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
            ev.nabla2_ell(i, _jet(u, i), _jet(u, i)), rel=1e-12, abs=1e-14)


def test_nabla1_nabla2_consistent_with_double_sum(csp5):
    f = csp5
    rng = np.random.default_rng(4)
    u = _random_field(f.rho.count, 1, rng)
    ev = f.ev
    w = f.rho.weights
    brute = sum(
        w[i] * w[j] * nabla1_nabla2_L(f.kernel, f.rho.manifold,
                                      f.rho.points[i], f.rho.points[j],
                                      _jet(u, i), _jet(u, j))
        for i in range(f.rho.count) for j in range(f.rho.count))
    assert ev.double_sum(u, u) == pytest.approx(brute, rel=1e-12)


KERNELS = [GaussianKernel(sigma=1.1), InversePowerKernel(sigma=0.9, exponent=2.5),
           CompactSupportKernel(radius=1.9, power=3)]
TORUS2 = ChartManifold(kind="torus", dim=2, periods=(4.0, 5.0))


@pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.family)
def test_nabla1_nabla2_L_on_unit_jets_is_the_pair_block(kernel):
    """The oracle reads one pair as its row of the configuration's tables:
    along unit jets it gives each entry of the unweighted jet-pair block."""
    rho = random_measure(TORUS2, count=12, total_volume=12.0, seed=3)
    block = jet_pair_block(pair_tables(kernel, TORUS2, rho.points),
                           np.ones(rho.count))
    unit = np.eye(1 + TORUS2.dim)
    for i, j in np.ndindex(rho.count, rho.count):
        pair = [[nabla1_nabla2_L(kernel, TORUS2, rho.points[i], rho.points[j],
                                 a, b) for b in unit] for a in unit]
        assert np.array_equal(pair, block[i, :, j, :]), (i, j)


def test_each_oracle_builds_its_pair_tables_once(monkeypatch, csp5):
    shapes = []
    init = PairTables.__init__

    def counted(self, kernel, displacements):
        shapes.append(displacements.shape)
        init(self, kernel, displacements)

    monkeypatch.setattr(PairTables, "__init__", counted)
    x, y = csp5.rho.points[:2]
    nabla1_nabla2_L(csp5.kernel, csp5.rho.manifold, x, y, [1.0, 0.5], [0.2, 1.0])
    assert shapes == [(1, 1)]   # one pair, as a one-row stack
    shapes.clear()
    verify_lagrangian(KERNELS[1], TORUS2, sample_count=5, step=1e-4, seed=0)
    # the coincidence scale, the three stencils and the (xs, ys) and
    # (ys, xs) tables, whose first also gives the analytic G and H11
    assert len(shapes) == 6, shapes


def test_gram_spectrum_bases_and_errors(csp5, monkeypatch):
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
    monkeypatch.setattr("cvplab.jets.MAX_DENSE_DIM", 3)
    with pytest.raises(SchemaError):
        gram_spectrum(f.ev, FORM_SP1)


def test_q1_spectrum_from_point_blocks(csp5, gauss5, lattice2d, single_gauss,
                                      monkeypatch):
    # every Q1 spectrum comes from the point blocks, so none is capped
    monkeypatch.setattr("cvplab.jets.MAX_DENSE_DIM", 1)
    for f in (csp5, gauss5, lattice2d, single_gauss):
        rep = gram_spectrum(f.ev, FORM_Q1)
        dense = np.linalg.eigvalsh(f.ev.form_matrix(FORM_Q1))
        assert np.abs(rep.eigenvalues - dense).max() <= 1e-13 * rep.scale
        # each restriction from the sub-blocks of the point blocks
        for basis in (BASIS_SCALAR, BASIS_VECTOR):
            rep = gram_spectrum(f.ev, FORM_Q1, basis)
            dense = np.linalg.eigvalsh(rep.matrix)
            assert np.abs(rep.eigenvalues - dense).max() <= 1e-13 * rep.scale
    # the negative control keeps failing its Q1 verdict
    assert gram_spectrum(single_gauss.ev, FORM_Q1).min_eigenvalue <= -1.0


def test_the_scale_is_the_largest_entry_magnitude(csp5, lattice2d, single_gauss):
    for f in (csp5, lattice2d, single_gauss):
        for form_id in (FORM_Q1, FORM_SP1, FORM_SP2):
            for basis in (BASIS_FULL, BASIS_SCALAR, BASIS_VECTOR):
                rep = gram_spectrum(f.ev, form_id, basis)
                assert rep.scale == np.abs(rep.matrix).max()


def test_gram_report_serialization(csp5):
    f = csp5
    rep = gram_spectrum(f.ev, FORM_Q1)
    d = rep.to_dict()
    assert "matrix" not in d
    assert d["psd"] is True
    assert len(d["eigenvalues"]) == 2 * f.rho.count
