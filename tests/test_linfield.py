from __future__ import annotations

import numpy as np
import pytest

from cvplab import (ChartManifold, CompactSupportKernel, DimensionMismatchError,
                    DiscreteMeasure, FormEvaluator, GaussianKernel, PairTables,
                    arc_osi, arc_regions, gram_spectrum, linfield_residual,
                    osi_report, random_measure, random_regions, solve_linfield,
                    surface_layer_integral, translation)
from cvplab.errors import SchemaError
from cvplab.linfield import KERNEL_THRESHOLD_REL
from cvplab.jets import (BASIS_FULL, BASIS_SCALAR, BASIS_VECTOR, FORM_Q1,
                         FORM_SP1, FORM_SP2, _basis_indices, action_hessian,
                         nabla1_nabla2_L)


def _random_field(n, m, rng):
    """An (n, 1 + m) jet field: n scalars drawn first, then the n x m vectors."""
    scalar = rng.normal(size=n)
    return np.column_stack([scalar, rng.normal(size=(n, m))])


def _operator(ev):
    """W^-1 SP1: the SP1 Gram with each row divided by its point's weight."""
    return ev.sp1_gram / np.repeat(ev.rho.weights, 1 + ev.rho.manifold.dim)[:, None]


def _mask(n, indices):
    inside = np.zeros(n, dtype=bool)
    inside[indices] = True
    return inside


def test_operator_shape_and_zero_jet(csp5):
    ev = csp5.ev
    n = csp5.rho.count
    assert _operator(ev).shape == (2 * n, 2 * n)
    assert np.isfinite(_operator(ev)).all()
    assert linfield_residual(ev, np.zeros((n, 2))) == 0.0


def test_translation_jet_solves_linearized_equations(csp5):
    scale = float(np.abs(_operator(csp5.ev)).max())
    u = translation(csp5.rho.count, 1)
    assert linfield_residual(csp5.ev, u) <= 1e-8 * scale


def test_constant_scalar_jet_is_not_a_solution(csp5):
    # bracket of a constant scalar beta is 2*beta*ell + beta*nu/2,
    # which is beta*nu/2 at a minimizer -- nonzero for nu != 0
    beta = 0.7
    jf = np.column_stack([np.full(csp5.rho.count, beta),
                          np.zeros((csp5.rho.count, 1))])
    values = (_operator(csp5.ev) @ jf.ravel()).reshape(csp5.rho.count, 2)
    assert np.allclose(values[:, 0], beta * csp5.nu / 2.0, atol=1e-5)
    assert linfield_residual(csp5.ev, jf) > 1.0


def test_random_jets_have_positive_residual(csp5):
    for seed in range(10):
        rng = np.random.default_rng(seed)
        jf = _random_field(csp5.rho.count, 1, rng)
        assert linfield_residual(csp5.ev, jf) > 1e-6


def test_solve_linfield_contains_translation(csp5, monkeypatch):
    monkeypatch.setattr("cvplab.linfield.KERNEL_THRESHOLD_REL", 1e-8)
    jets, _ = solve_linfield(csp5.ev)
    assert len(jets) >= 1
    scale = float(np.abs(_operator(csp5.ev)).max())
    for res in linfield_residual(csp5.ev, jets):
        assert res <= 1e-8 * scale * 10
    # the translation jet lies in the returned span
    t = translation(csp5.rho.count, 1).ravel()
    basis = jets.reshape(len(jets), -1)
    coeffs = basis @ t
    projection = coeffs @ basis
    assert np.abs(projection - t).max() <= 1e-8 * np.abs(t).max()


def _svd_null_projector(matrix, threshold_rel=1e-10):
    """Oracle: projector onto the right singular vectors of the operator
    with sigma <= threshold_rel * sigma_max."""
    _, sigma, vt = np.linalg.svd(matrix)
    null = vt[sigma <= threshold_rel * sigma[0]]
    return null.T @ null


@pytest.mark.parametrize("name", ["csp5", "gauss5", "lattice2d"])
def test_solve_linfield_matches_svd_null_space(name, request):
    f = request.getfixturevalue(name)
    jets, _ = solve_linfield(f.ev)
    assert len(jets) >= 1
    basis = jets.reshape(len(jets), -1)
    assert np.abs(basis.T @ basis - _svd_null_projector(_operator(f.ev))).max() <= 1e-8
    scale = float(np.abs(_operator(f.ev)).max())
    assert linfield_residual(f.ev, jets).max() <= 1e-8 * scale


def test_spectrum_and_kernel_share_one_sp1_solve(csp5, gauss5, lattice2d):
    """The kernel is cut from the full SP1 spectrum, bit for bit: its
    threshold is KERNEL_THRESHOLD_REL times the largest |eigenvalue|, and it
    holds one jet per eigenvalue within the threshold."""
    for f in (csp5, gauss5, lattice2d):
        spectrum = gram_spectrum(f.ev, FORM_SP1).eigenvalues
        assert spectrum.tobytes() == f.ev.sp1_eigenvalues.tobytes()
        jets, threshold = solve_linfield(f.ev)
        assert threshold == KERNEL_THRESHOLD_REL * np.abs(spectrum).max()
        assert len(jets) == np.count_nonzero(np.abs(spectrum) <= threshold)


def _capped_spectra(ev):
    """The SP1 spectra over the scalar and the vector basis, each with the
    dense cap at its own basis dimension."""
    n, m = ev.rho.count, ev.rho.manifold.dim
    for basis, dim in ((BASIS_SCALAR, n), (BASIS_VECTOR, n * m)):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr("cvplab.jets.MAX_DENSE_DIM", dim)
            gram_spectrum(ev, FORM_SP1, basis)


def _count_eigh(monkeypatch) -> list:
    """The shape of every array np.linalg.eigh is called on from now."""
    calls, eigh = [], np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh",
                        lambda a, *args, **kwargs:
                        calls.append(np.shape(a)) or eigh(a, *args, **kwargs))
    return calls


def test_only_the_full_sp1_spectrum_decomposes_the_full_gram(csp5,
                                                             monkeypatch):
    """The operator, its residual and every SP1 restriction read the SP1
    Gram and run no eigh, so MAX_DENSE_DIM bounds every eigensolve of a call;
    the full spectrum and the kernel solve share one eigh."""
    f = csp5
    n, m = f.rho.count, f.rho.manifold.dim
    calls = _count_eigh(monkeypatch)
    ev = FormEvaluator(f.rho, f.kernel)
    assert linfield_residual(ev, np.zeros((n, 1 + m))) == 0.0
    _capped_spectra(ev)
    assert calls == []
    gram_spectrum(ev, FORM_SP1)
    solve_linfield(ev)
    assert ev.lattice is None
    assert calls == [(n * (1 + m), n * (1 + m))]


def test_a_lattice_spectrum_solves_only_its_symbols(lattice2d, monkeypatch):
    """On a lattice the full spectrum and the kernel share one batched solve
    of the symbols and no (N, N) eigh: one batch of (1+m)^2 symbols for the
    self-conjugate characters, one of 2(1+m) x 2(1+m) symbols for the
    conjugate pairs."""
    f = lattice2d
    n, m = f.rho.count, f.rho.manifold.dim
    calls = _count_eigh(monkeypatch)
    ev = FormEvaluator(f.rho, f.kernel)
    _capped_spectra(ev)
    assert calls == []
    gram_spectrum(ev, FORM_SP1)
    solve_linfield(ev)
    assert ev.lattice == [2, 8]
    # Z_2 x Z_8 has 4 self-conjugate characters and 6 conjugate pairs
    assert calls == [(4, 1 + m, 1 + m), (6, 2 + 2 * m, 2 + 2 * m)]


@pytest.mark.parametrize("name", ["csp5", "gauss5", "lattice2d"])
def test_operator_and_sp1_restrictions_read_the_one_sp1_gram(name, request):
    """The SP1 Gram is symmetric bit for bit: L is symmetric, displacements
    antisymmetric and H11 symmetric.  So the symmetrized Gram ev.sp1_gram
    is the Gram itself, and the operator and every SP1 restriction read it."""
    ev = request.getfixturevalue(name).ev
    sp1 = ev.form_matrix(FORM_SP1)
    assert sp1.tobytes() == sp1.T.tobytes()
    rows = np.repeat(ev.rho.weights, 1 + ev.rho.manifold.dim)[:, None]
    assert _operator(ev).tobytes() == (sp1 / rows).tobytes()
    idx = _basis_indices(ev.rho.count, ev.rho.manifold.dim, BASIS_SCALAR)
    scalar = gram_spectrum(ev, FORM_SP1, BASIS_SCALAR).matrix
    assert scalar.tobytes() == ev.sp1_gram[np.ix_(idx, idx)].tobytes()


def _gauss_ring(n: int) -> FormEvaluator:
    """n points a unit apart on a period-n torus.  At even n the antipodal
    pair's wrapped displacement takes its sign from rounding, and the
    Gaussian has a slope there."""
    manifold = ChartManifold(kind="torus", dim=1, periods=(float(n),))
    rho = DiscreteMeasure(manifold=manifold, points=(np.arange(n) + 0.37)[:, None],
                          weights=np.ones(n))
    return FormEvaluator(rho, GaussianKernel(sigma=1.5))


def _moved_ring() -> FormEvaluator:
    """The exact n=40 unit ring of the README kernel, translated and with
    its points shuffled, so that the point order is not the ring order."""
    n, rng = 40, np.random.default_rng(40)
    manifold = ChartManifold(kind="torus", dim=1, periods=(float(n),))
    points = np.mod(np.arange(n) + rng.uniform(0.0, n), n)[rng.permutation(n)]
    rho = DiscreteMeasure(manifold=manifold, points=points[:, None],
                          weights=np.ones(n))
    return FormEvaluator(rho, CompactSupportKernel(radius=np.sqrt(2.0), power=3))


def _euclidean() -> FormEvaluator:
    rng = np.random.default_rng(8)
    rho = DiscreteMeasure(manifold=ChartManifold(kind="euclidean", dim=2),
                          points=rng.normal(size=(7, 2)),
                          weights=rng.uniform(0.5, 1.5, size=7))
    return FormEvaluator(rho, GaussianKernel(sigma=1.0))


# measures built for a test, beside the conftest fixtures
BUILT = {"even-gauss-ring": lambda: _gauss_ring(8),
         "odd-gauss-ring": lambda: _gauss_ring(7),
         "two-point-ring": lambda: _gauss_ring(2), "moved-ring": _moved_ring,
         "euclidean": _euclidean}


def _evaluator(name: str, request) -> FormEvaluator:
    return BUILT[name]() if name in BUILT else request.getfixturevalue(name).ev


@pytest.mark.parametrize("name", ["csp5", "gauss5", "lattice2d", "even-gauss-ring",
                                  "euclidean"])
def test_the_gram_and_the_action_hessian_are_symmetric_bit_for_bit(name, request):
    """Neither is symmetrized: L is symmetric, the wrapped displacements are
    antisymmetric (rint rounds ties to even) and H11 is symmetric."""
    ev = _evaluator(name, request)
    for matrix in (ev.sp1_gram, action_hessian(ev.tables, ev.rho.weights)):
        assert matrix.tobytes() == matrix.T.tobytes()


def _pointwise_brackets(rho, kernel, nu, jf):
    """Oracle: the bracket and its chart gradient at every point, pair by pair."""
    w, x, a, u = rho.weights, rho.points, jf[:, 0], jf[:, 1:]
    out = np.zeros((rho.count, 1 + rho.manifold.dim))
    for i in range(rho.count):
        for j in range(rho.count):
            t = PairTables(kernel, rho.manifold.displacement(x[i], x[j])[None])
            L, G, H11 = t.L[0], t.G[0], t.H11[0]
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
        for _ in range(3):
            jf = _random_field(rho.count, rho.manifold.dim, rng)
            oracle = _pointwise_brackets(rho, ev.kernel, ev.nu, jf)
            err = np.abs(_operator(ev) @ jf.ravel() - oracle).max()
            assert err <= 1e-12 * np.abs(oracle).max()


def test_surface_layer_trivial_cases(csp5):
    n = csp5.rho.count
    zero = np.zeros((n, 2))
    omega = _mask(n, [0, 1])
    assert surface_layer_integral(csp5.rho, csp5.kernel, omega, zero) == 0.0
    u = translation(n, 1)
    empty = np.zeros(n, dtype=bool)
    everything = np.ones(n, dtype=bool)
    assert surface_layer_integral(csp5.rho, csp5.kernel, empty, u) == 0.0
    assert surface_layer_integral(csp5.rho, csp5.kernel, everything, u) == 0.0
    with pytest.raises(DimensionMismatchError):
        surface_layer_integral(csp5.rho, csp5.kernel, _mask(n + 1, [0]), u)


def test_complement_symmetry(csp5):
    n = csp5.rho.count
    rng = np.random.default_rng(2)
    jf = _random_field(n, 1, rng)
    for omega in random_regions(csp5.rho, count=8, seed=5)[0]:
        a = surface_layer_integral(csp5.rho, csp5.kernel, omega, jf)
        b = surface_layer_integral(csp5.rho, csp5.kernel, ~omega, jf)
        assert a == pytest.approx(b, rel=1e-12, abs=1e-12)


def test_additivity_splitting(csp5):
    """Full double sum = within-region + within-complement + 2 * cross."""
    n = csp5.rho.count
    rng = np.random.default_rng(3)
    jf = _random_field(n, 1, rng)
    ev = csp5.ev
    full = ev.double_sum(jf, jf)
    omega = _mask(n, [0, 2])
    cross = -surface_layer_integral(csp5.rho, csp5.kernel, omega, jf)

    def restricted(mask):
        sub = np.where(mask[:, None], jf, 0.0)
        return ev.double_sum(sub, sub)

    inside = restricted(omega)
    outside = restricted(~omega)
    scale = max(abs(full), 1.0)
    assert abs(full - (inside + outside + 2.0 * cross)) <= 1e-12 * scale


def test_arc_regions_enumeration(csp5, single_gauss):
    masks, labels = arc_regions(csp5.rho)
    n = csp5.rho.count
    assert len(labels) == n * (n - 1) == len(masks)
    assert all(0 < a.sum() < n for a in masks)
    # on a shuffled point order, each arc is its run of sorted positions
    order = np.random.default_rng(5).permutation(n)
    rho = csp5.rho.replace(points=csp5.rho.points[order],
                           weights=csp5.rho.weights[order])
    sorted_order = np.argsort(rho.points[:, 0])
    arcs = iter(zip(*arc_regions(rho)))
    for start in range(n):
        for length in range(1, n):
            inside, label = next(arcs)
            expected = _mask(n, sorted_order[(start + np.arange(length)) % n])
            assert np.array_equal(inside, expected)
            assert label == f"arc(start={start}, length={length})"
    assert next(arcs, None) is None
    # a one-point measure has no arc, and a stack no value on one
    masks, labels = arc_regions(single_gauss.rho)
    assert masks.shape == (0, 1) and labels == []
    assert arc_osi(single_gauss.ev, np.ones((3, 1, 2))).shape == (3, 0)


def test_osi_report_translation_positive(csp5):
    u = translation(csp5.rho.count, 1)
    values = osi_report(csp5.ev, u[None], arc_regions(csp5.rho))
    assert values.shape == (1, len(arc_regions(csp5.rho)[1]))
    assert values.min() > 0.0


def test_osi_report_flags_non_solution(csp5):
    rng = np.random.default_rng(6)
    jf = _random_field(csp5.rho.count, 1, rng)
    values = osi_report(csp5.ev, jf[None], random_regions(csp5.rho, count=4, seed=1))
    assert values.shape == (1, 4)
    with pytest.raises(SchemaError):
        osi_report(csp5.ev, jf[None], (np.zeros((0, csp5.rho.count), dtype=bool), []))
    inside, labels = random_regions(csp5.rho, count=4, seed=1)
    with pytest.raises(SchemaError):   # one label short
        osi_report(csp5.ev, jf[None], (inside, labels[:-1]))


def _pointwise_osi(rho, kernel, inside, jf):
    """Oracle: boundary double sum of the pointwise analytic D1 D2 L."""
    w = rho.weights

    return -sum(
        w[i] * w[j] * nabla1_nabla2_L(kernel, rho.manifold, rho.points[i],
                                      rho.points[j], jf[i], jf[j])
        for i in np.flatnonzero(inside)
        for j in np.flatnonzero(~inside))


def _assert_osi_matches_oracle(ev, jf, regions, values=None):
    """osi_report's values, or the given ones, against the pointwise sums."""
    rho, kernel = ev.rho, ev.kernel
    if values is None:
        (values,) = osi_report(ev, jf[None], regions)
    masks, labels = regions
    assert len(values) == len(labels)
    for val, inside in zip(values, masks):
        assert val == pytest.approx(_pointwise_osi(rho, kernel, inside, jf),
                                    rel=1e-12)


def test_osi_report_matches_pointwise_oracle_on_arcs(csp5):
    rng = np.random.default_rng(7)
    n = csp5.rho.count
    for jf in (translation(n, 1), _random_field(n, 1, rng)):
        _assert_osi_matches_oracle(csp5.ev, jf, arc_regions(csp5.rho))
        (values,) = arc_osi(csp5.ev, jf[None])
        _assert_osi_matches_oracle(csp5.ev, jf, arc_regions(csp5.rho), values)


def test_osi_report_matches_pointwise_oracle_in_2d():
    ev = _gauss_2d()
    rng = np.random.default_rng(8)
    jf = _random_field(12, 2, rng)
    _assert_osi_matches_oracle(ev, jf, random_regions(ev.rho, count=16, seed=3))


def test_random_regions_replay_their_draws(lattice2d):
    n = lattice2d.rho.count
    inside, labels = random_regions(lattice2d.rho, count=32, seed=0)
    assert inside.shape == (32, n) and inside.dtype == bool
    rng = np.random.default_rng(0)
    for k, (row, label) in enumerate(zip(inside, labels)):
        size = int(rng.integers(1, n))
        assert np.array_equal(row, _mask(n, rng.choice(n, size=size, replace=False)))
        assert label == f"random(seed_draw={k})"
    with pytest.raises(SchemaError):
        random_regions(lattice2d.rho.replace(points=lattice2d.rho.points[:1],
                                             weights=lattice2d.rho.weights[:1]),
                       count=1, seed=0)


@pytest.mark.parametrize("name", ["csp5", "lattice2d"])
def test_osi_is_the_sp1_defect_of_the_restricted_jet(name, request):
    """osi(Omega) = sp1(chi u, chi u) - sp1(chi u, u) for chi the region mask:
    q1 is pointwise, so only the boundary pairs survive the difference."""
    f = request.getfixturevalue(name)
    ev, n, m = f.ev, f.rho.count, f.rho.manifold.dim
    regions = (arc_regions(f.rho) if m == 1
               else random_regions(f.rho, count=32, seed=0))
    jets = [_random_field(n, m, np.random.default_rng(9)),
            *solve_linfield(ev)[0]]
    for u in jets:
        (values,) = osi_report(ev, u[None], regions)
        restricted = [inside[:, None] * u for inside in regions[0]]
        identity = np.array([ev.sp1(chi_u, chi_u) - ev.sp1(chi_u, u)
                             for chi_u in restricted])
        assert np.abs(values - identity).max() <= 1e-12 * np.abs(values).max()


@pytest.mark.parametrize("name", ["csp5", "lattice2d", "moved-ring",
                                  "odd-gauss-ring", "two-point-ring"])
def test_osi_report_on_a_stack_is_its_single_jet_reports(name, request):
    """One row per jet of a (k, n, 1+m) stack, bit for bit the row of that
    jet alone.  On a one-dimensional measure arc_osi gives the table over
    the arcs from prefix sums, to rounding."""
    ev = _evaluator(name, request)
    n, m = ev.rho.count, ev.rho.manifold.dim
    regions = (arc_regions(ev.rho) if m == 1
               else random_regions(ev.rho, count=32, seed=0))
    rng = np.random.default_rng(12)
    stack = np.stack([*solve_linfield(ev)[0], translation(n, m),
                      _random_field(n, m, rng), _random_field(n, m, rng)])
    values = osi_report(ev, stack, regions)
    assert values.shape == (len(stack), len(regions[1]))
    for u, row in zip(stack, values):
        (alone,) = osi_report(ev, u[None], regions)
        assert row.tobytes() == alone.tobytes()
    with pytest.raises(DimensionMismatchError):
        osi_report(ev, stack[0], regions)   # one jet is a stack of one
    if m == 1:
        # the translation and a random jet, then the whole stack
        for u in (stack[-3:-1], stack):
            arcs = arc_osi(ev, u)
            expected = osi_report(ev, u, regions)
            assert arcs.shape == expected.shape
            assert np.abs(arcs - expected).max() <= 1e-12 * np.abs(expected).max()
        with pytest.raises(DimensionMismatchError):
            arc_osi(ev, stack[0])


def test_max_dim_caps_only_dense_eigensolves(csp5, lattice2d, monkeypatch):
    """Q1 over the full basis takes the point blocks, and a lattice's SP1
    spectra the symbols: neither runs an (N, N) eigensolve, so neither is
    capped.  The dense Grams are."""
    ev = FormEvaluator(lattice2d.rho, lattice2d.kernel)
    monkeypatch.setattr("cvplab.jets.MAX_DENSE_DIM", 10)
    for form_id, basis in ((FORM_Q1, BASIS_FULL), (FORM_SP1, BASIS_FULL),
                           (FORM_SP1, BASIS_SCALAR), (FORM_SP1, BASIS_VECTOR)):
        gram_spectrum(ev, form_id, basis)
    with pytest.raises(SchemaError, match="exceeds cap 10"):
        gram_spectrum(ev, FORM_SP2)
    monkeypatch.setattr("cvplab.jets.MAX_DENSE_DIM", 1)
    gram_spectrum(csp5.ev, FORM_Q1)
    for form_id, basis in ((FORM_SP1, BASIS_FULL), (FORM_SP1, BASIS_SCALAR),
                           (FORM_SP2, BASIS_FULL)):
        with pytest.raises(SchemaError, match="exceeds cap 1"):
            gram_spectrum(csp5.ev, form_id, basis)
