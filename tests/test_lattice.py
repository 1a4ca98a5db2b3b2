"""The Fourier symbol of a lattice measure against the dense SP1 Gram.

A measure whose support is one orbit of a translation group, with equal
weights, has an SP1 Gram that commutes with the group.  Its spectrum is
then the union of the spectra of one (1+m) x (1+m) symbol per character,
which `FormEvaluator.sp1_eigenvalues`, `FormEvaluator.sp1_eigenvectors`
and `gram_spectrum` read in place of a dense eigensolve.  These tests hold
that path to the dense one.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvplab import (ChartManifold, CompactSupportKernel, DiscreteMeasure,
                    FormEvaluator, GaussianKernel, gram_spectrum,
                    linfield_residual, solve_linfield)
from cvplab.jets import (BASIS_FULL, BASIS_SCALAR, BASIS_VECTOR, FORM_SP1,
                         _basis_indices, _lattice, _smith)

README_KERNEL = CompactSupportKernel(radius=math.sqrt(2.0), power=3)


def _ring(n: int, shift: float = 0.0, seed: int | None = None):
    """n equal weights equispaced on a torus of period n, moved by shift
    and, with a seed, listed in a random order."""
    manifold = ChartManifold(kind="torus", dim=1, periods=(float(n),))
    points = (np.arange(n) + shift) % n
    if seed is not None:
        points = np.random.default_rng(seed).permutation(points)
    return DiscreteMeasure(manifold=manifold, points=points[:, None],
                           weights=np.ones(n))


def _triangular(side: int, seed: int | None = None):
    """The triangular lattice of the lattice-2d benchmark: side x side unit
    cells on a sheared torus, moved and shuffled by a seeded draw."""
    i, j = np.meshgrid(np.arange(side), np.arange(side), indexing="ij")
    periods = np.array([float(side), side * math.sqrt(3.0) / 2.0])
    points = np.stack([(i + 0.5 * j).ravel() % side,
                       (j * math.sqrt(3.0) / 2.0).ravel()], axis=1)
    if seed is not None:
        rng = np.random.default_rng(seed)
        points = np.mod(points[rng.permutation(len(points))]
                        + rng.uniform(0.0, periods), periods)
    manifold = ChartManifold(kind="torus", dim=2, periods=tuple(periods))
    return DiscreteMeasure(manifold=manifold, points=points,
                           weights=np.ones(side * side))


def _rectangular(rows: int, cols: int, seed: int):
    """rows x cols unit cells on a torus of periods (rows, cols), moved and
    shuffled by a seeded draw."""
    i, j = np.meshgrid(np.arange(rows), np.arange(cols), indexing="ij")
    rng = np.random.default_rng(seed)
    periods = np.array([float(rows), float(cols)])
    points = np.stack([i.ravel(), j.ravel()], axis=1).astype(float)
    points = np.mod(points[rng.permutation(len(points))]
                    + rng.uniform(0.0, periods), periods)
    manifold = ChartManifold(kind="torus", dim=2, periods=tuple(periods))
    return DiscreteMeasure(manifold=manifold, points=points,
                           weights=np.ones(rows * cols))


# (measure, kernel, invariant factors)
CASES = {
    "ring40": (_ring(40, shift=0.3, seed=1), README_KERNEL, [40]),
    "odd-ring": (_ring(9, shift=0.7, seed=2),
                 GaussianKernel(sigma=1.0), [9]),
    "triangular10": (_triangular(10, seed=3),
                     CompactSupportKernel(radius=1.2, power=3), [5, 20]),
    # Z_4 x Z_6 = Z_2 x Z_12: 4 does not divide 6, so its Smith form needs
    # the step that brings in an entry the pivot does not divide
    "rectangular4x6": (_rectangular(4, 6, seed=4),
                       CompactSupportKernel(radius=1.5, power=3), [2, 12]),
}


@pytest.fixture(params=["ring40", "odd-ring", "lattice2d", "triangular10",
                        "rectangular4x6"])
def lattice_case(request):
    if request.param == "lattice2d":
        f = request.getfixturevalue("lattice2d")
        return FormEvaluator(f.rho, f.kernel), [2, 8]
    rho, kernel, factors = CASES[request.param]
    return FormEvaluator(rho, kernel), factors


def test_invariant_factors_are_pinned(lattice_case):
    ev, factors = lattice_case
    assert _lattice(ev.rho)[1].tolist() == factors
    assert ev.lattice == factors   # the symbol path runs


@pytest.mark.parametrize("basis", [BASIS_FULL, BASIS_SCALAR, BASIS_VECTOR])
def test_symbol_spectra_match_the_dense_gram(lattice_case, basis):
    ev, _ = lattice_case
    idx = _basis_indices(ev.rho.count, ev.rho.manifold.dim, basis)
    dense = np.linalg.eigvalsh(ev.sp1_gram[np.ix_(idx, idx)])
    rep = gram_spectrum(ev, FORM_SP1, basis)
    scale = np.abs(ev.sp1_gram).max()
    assert rep.eigenvalues.shape == dense.shape
    assert np.all(np.diff(rep.eigenvalues) >= 0.0)
    assert np.abs(rep.eigenvalues - dense).max() <= 1e-12 * scale


def test_symbol_eigenvectors_are_real_and_orthonormal(lattice_case):
    ev, _ = lattice_case
    values, vectors = ev.sp1_eigenvalues, ev.sp1_eigenvectors(slice(None))
    gram = ev.sp1_gram
    assert vectors.dtype == np.float64 and vectors.shape == gram.shape
    scale = np.abs(gram).max()
    assert np.abs(gram @ vectors - vectors * values).max() <= 1e-12 * scale
    assert np.abs(vectors.T @ vectors - np.eye(len(values))).max() <= 1e-12


def test_selected_symbol_eigenvectors_are_columns_of_all_of_them(lattice_case):
    """A selection maps only its own symbol eigenvectors: each is the
    matching column of the all-selected mapping bit for bit,
    and an eigenvector of the dense Gram."""
    ev, _ = lattice_case
    values, vectors = ev.sp1_eigenvalues, ev.sp1_eigenvectors(slice(None))
    gram = ev.sp1_gram
    scale = np.abs(gram).max()
    magnitude = np.abs(values)
    picks = np.random.default_rng(5).random(values.size) < 0.2
    for select in (magnitude <= 1e-10 * magnitude.max(), picks,
                   np.arange(values.size) == values.size - 1):
        chosen = ev.sp1_eigenvectors(select)
        assert chosen.shape == (len(values), select.sum())
        assert chosen.tobytes() == vectors[:, select].tobytes()
        residual = gram @ chosen - chosen * values[select]
        assert np.abs(residual).max() <= 1e-12 * scale


def test_the_gram_is_block_circulant_from_block_row_zero(lattice_case):
    """Block (i, j) is block (0, p) for the point p at g_j - g_i."""
    ev, _ = lattice_case
    g, d = _lattice(ev.rho)
    n, k = ev.rho.count, 1 + ev.rho.manifold.dim
    where = {tuple(c): p for p, c in enumerate(g.tolist())}
    grid = ev.sp1_gram.reshape(n, k, n, k)
    rebuilt = np.empty_like(grid)
    for i in range(n):
        for j in range(n):
            rebuilt[i, :, j, :] = grid[0, :, where[tuple((g[j] - g[i]) % d)], :]
    assert np.abs(rebuilt - grid).max() <= 1e-12 * np.abs(grid).max()


def test_the_kernel_is_the_translations(lattice_case):
    """The symbol path finds exactly the m translation jets as the kernel."""
    ev, factors = lattice_case
    jets, _ = solve_linfield(ev)
    m = ev.rho.manifold.dim
    assert len(jets) == m and ev.lattice == factors
    rows = np.repeat(ev.rho.weights, 1 + m)[:, None]
    assert linfield_residual(ev, jets).max() <= 1e-10 * np.abs(ev.sp1_gram / rows).max()


def test_a_group_of_self_conjugate_characters_only():
    """Z_2 has no conjugate pair, so one of the two groups of symbols is
    empty.  At half a period apart the two points cannot interact."""
    kernel = CompactSupportKernel(radius=0.9, power=3)
    ev = FormEvaluator(_ring(2, shift=0.25), kernel)
    assert ev.lattice == [2]
    values, vectors = ev.sp1_eigenvalues, ev.sp1_eigenvectors(slice(None))
    assert np.abs(values - np.linalg.eigvalsh(ev.sp1_gram)).max() <= 1e-12
    assert np.abs(vectors.T @ vectors - np.eye(4)).max() <= 1e-12
    for basis in (BASIS_SCALAR, BASIS_VECTOR):
        assert gram_spectrum(ev, FORM_SP1, basis).eigenvalues.shape == (2,)


def test_smith_form():
    for a, factors in (([[10, 0], [-5, 10]], [5, 20]), ([[4, 0], [-2, 4]], [2, 8]),
                       ([[40]], [40]), ([[6, 4], [2, 8]], [2, 20]),
                       ([[2, 4, 4], [-6, 6, 12], [10, -4, -16]], [2, 6, 12]),
                       ([[4, 0], [0, 6]], [2, 12]), ([[2, 0], [0, 3]], [1, 6])):
        a = np.array(a, dtype=np.int64)
        u, d = _smith(a)
        assert d.tolist() == factors
        assert round(abs(np.linalg.det(u))) == 1
        # U a = diag(d) V^-1: row k of U a is a multiple of d_k
        assert not ((u @ a) % d[:, None]).any()
    assert _smith(np.array([[2, 4], [1, 2]], dtype=np.int64)) is None   # singular


def _det(a) -> int:
    """Exact determinant of a small integer matrix, by cofactors."""
    a = [[int(v) for v in row] for row in a]
    if len(a) == 1:
        return a[0][0]
    return sum((-1) ** j * a[0][j] * _det([row[:j] + row[j + 1:] for row in a[1:]])
               for j in range(len(a)))


@settings(max_examples=400, deadline=None)
@given(st.integers(1, 3).flatmap(lambda m: st.lists(
    st.integers(-12, 12), min_size=m * m, max_size=m * m).map(
        lambda v: np.array(v, dtype=np.int64).reshape(m, m))))
def test_smith_form_properties(a):
    """U a V = diag(d) with U and V unimodular, d positive, each d_k
    dividing d_k+1: diag(d)^-1 U a is V^-1, an integer matrix of |det| 1."""
    det = _det(a)
    result = _smith(a)
    if det == 0:
        assert result is None
        return
    u, d = result
    assert abs(_det(u)) == 1
    assert (d > 0).all()
    assert not (d[1:] % d[:-1]).any()
    assert math.prod(d.tolist()) == abs(det)
    ua = u @ a
    assert not (ua % d[:, None]).any()
    assert abs(_det(ua // d[:, None])) == 1


def _lattice_none_cases():
    rho = _triangular(4)
    w = rho.weights.copy()
    w[3] *= 1.0 + 1e-13
    moved = rho.points.copy()
    moved[5, 1] += 1e-9
    flat = ChartManifold(kind="euclidean", dim=2)
    plane = ChartManifold(kind="torus", dim=2, periods=(5.0, 5.0))
    line = np.stack([np.arange(5.0), np.zeros(5)], axis=1)
    return {
        # an orbit of Z_5 along one axis: one independent displacement, not 2
        "collinear": DiscreteMeasure(manifold=plane, points=line,
                                     weights=np.ones(5)),
        "weight-off-1e-13": rho.replace(weights=w),
        "point-moved-1e-9": rho.replace(points=moved),
        "point-removed": rho.replace(points=rho.points[1:],
                                     weights=rho.weights[1:]),
        "euclidean": DiscreteMeasure(manifold=flat, points=rho.points,
                                     weights=rho.weights),
    }


@pytest.mark.parametrize("name", sorted(_lattice_none_cases()))
def test_no_lattice_near_an_exact_one(name):
    assert _lattice(_triangular(4)) is not None
    assert _lattice(_lattice_none_cases()[name]) is None


@pytest.mark.parametrize("name", ["csp5", "csp8", "gauss5", "single_gauss"])
def test_no_lattice_on_a_minimizer(name, request):
    f = request.getfixturevalue(name)
    assert _lattice(f.rho) is None and f.ev.lattice is None


def test_a_slope_at_half_a_period_keeps_the_dense_path():
    """On an even ring a pair sits at half a period, where the wrapped
    displacement takes either sign.  A Gaussian has a slope there, so the
    Gram is not block circulant, and the evaluator solves it densely."""
    rho = _ring(8, shift=0.37)
    ev = FormEvaluator(rho, GaussianKernel(sigma=1.5))
    assert _lattice(rho) is not None and ev.lattice is None
    dense = np.linalg.eigvalsh(ev.sp1_gram)
    assert np.abs(ev.sp1_eigenvalues - dense).max() <= 1e-12 * np.abs(ev.sp1_gram).max()


def test_a_cutoff_beyond_half_a_period_keeps_the_dense_path():
    """A compact-support kernel whose radius exceeds half the period (which
    a config rejects) has a slope at the antipodal pair of an even ring,
    here a displacement within rounding of half a period."""
    rho = _ring(4, shift=0.3)
    ev = FormEvaluator(rho, CompactSupportKernel(radius=2.5, power=3))
    assert _lattice(rho) is not None and ev.lattice is None
    dense = np.linalg.eigvalsh(ev.sp1_gram)
    assert np.abs(ev.sp1_eigenvalues - dense).max() <= 1e-12 * np.abs(ev.sp1_gram).max()
    # at radius 2 the kernel vanishes there to second order: the symbols run
    assert FormEvaluator(rho, CompactSupportKernel(radius=2.0, power=3)).lattice == [4]
