from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvplab import (ChartManifold, DimensionMismatchError, GaussianKernel,
                    SchemaError, pair_tables)


def _pairwise(manifold, points):
    """The (n, n, m) displacements that the pair tables of `points` hold."""
    return pair_tables(GaussianKernel(sigma=1.0), manifold, points).D


def test_euclidean_displacement_is_plain_difference():
    m = ChartManifold(kind="euclidean", dim=2)
    d = m.displacement(np.array([1.0, 2.0]), np.array([0.5, -1.0]))
    assert np.array_equal(d, [0.5, 3.0])


def test_torus_wrap_frozen_value():
    # 0.1 - 6.2 = -6.1 wraps forward by one period 2*pi
    m = ChartManifold(kind="torus", dim=1, periods=(2.0 * np.pi,))
    d = m.displacement(np.array([0.1]), np.array([6.2]))
    assert d[0] == pytest.approx(0.18318530717958605, abs=1e-15)


def test_torus_components_bounded_by_half_period():
    m = ChartManifold(kind="torus", dim=2, periods=(3.0, 7.0))
    rng = np.random.default_rng(0)
    x = rng.uniform(-20, 20, size=(50, 2))
    y = rng.uniform(-20, 20, size=(50, 2))
    d = m.displacement(x, y)
    assert (np.abs(d) <= np.array([1.5, 3.5]) + 1e-12).all()


@settings(max_examples=50, deadline=None)
@given(st.floats(-50, 50), st.floats(-50, 50))
def test_torus_displacement_antisymmetric(a, b):
    m = ChartManifold(kind="torus", dim=1, periods=(2.0 * np.pi,))
    forward = m.displacement(np.array([a]), np.array([b]))
    backward = m.displacement(np.array([b]), np.array([a]))
    assert forward[0] == -backward[0]


def test_pairwise_displacement_shape_and_diagonal():
    m = ChartManifold(kind="torus", dim=1, periods=(5.0,))
    pts = np.arange(4, dtype=float)[:, None]
    D = _pairwise(m, pts)
    assert D.shape == (4, 4, 1)
    assert np.array_equal(np.diagonal(D[:, :, 0]), np.zeros(4))
    assert np.array_equal(D, -D.transpose(1, 0, 2))


def _pair_reference(manifold, a, b):
    """One displacement in Python floats, one chart component at a time."""
    out = []
    for k in range(manifold.dim):
        d = float(a[k]) - float(b[k])
        if manifold.periods is not None:
            p = manifold.periods[k]
            d -= p * round(d / p)  # round() ties to even, as np.rint does
        out.append(d)
    return out


@pytest.mark.parametrize("manifold", [
    ChartManifold(kind="torus", dim=1, periods=(5.0,)),
    ChartManifold(kind="torus", dim=2, periods=(3.0, 7.0)),
    ChartManifold(kind="torus", dim=3, periods=(2.0, 2.5, 4.0)),
    ChartManifold(kind="euclidean", dim=1),
    ChartManifold(kind="euclidean", dim=2),
    ChartManifold(kind="euclidean", dim=3),
], ids=["torus-1d", "torus-2d", "torus-3d",
        "euclidean-1d", "euclidean-2d", "euclidean-3d"])
def test_pairwise_displacement_matches_pair_loop(manifold):
    m = manifold.dim
    cell = np.asarray(manifold.periods or (4.0,) * m)
    rng = np.random.default_rng(11)
    # quarter-cell grid points, so that differences of exactly (j + 1/2)
    # periods occur, plus random points up to two cells outside the cell
    grid = rng.integers(-8, 12, size=(8, m)) * (cell / 4.0)
    pts = np.vstack([grid, grid[0] + cell / 2.0, grid[1] - 1.5 * cell,
                     rng.uniform(-2.0, 3.0, size=(8, m)) * cell])
    D = _pairwise(manifold, pts)
    loop = np.array([[manifold.displacement(a, b) for b in pts] for a in pts])
    ref = np.array([[_pair_reference(manifold, a, b) for b in pts] for a in pts])
    assert D.shape == loop.shape == ref.shape == (len(pts), len(pts), m)
    assert D.dtype == loop.dtype == np.float64
    for other in (loop, ref):
        assert np.array_equal(D, other)
        assert np.array_equal(np.signbit(D), np.signbit(other))
    if manifold.periods is not None:
        # the half-period pairs really occur, and their sign flips bit for bit
        assert (np.abs(D) == cell / 2.0).any()
        assert np.array_equal(D, -D.transpose(1, 0, 2))


def test_validation_errors():
    with pytest.raises(SchemaError):
        ChartManifold(kind="sphere", dim=2)
    with pytest.raises(SchemaError):
        ChartManifold(kind="torus", dim=2, periods=(1.0,))
    with pytest.raises(SchemaError):
        ChartManifold(kind="torus", dim=1, periods=(-1.0,))
    with pytest.raises(SchemaError):
        ChartManifold(kind="euclidean", dim=1, periods=(1.0,))
    m = ChartManifold(kind="euclidean", dim=2)
    with pytest.raises(DimensionMismatchError):
        m.displacement(np.zeros(3), np.zeros(3))


def test_dict_round_trip():
    m = ChartManifold(kind="torus", dim=2, periods=(3.0, 4.0))
    assert ChartManifold.from_dict(m.to_dict()) == m
    e = ChartManifold(kind="euclidean", dim=3)
    assert ChartManifold.from_dict(e.to_dict()) == e


def test_uniform_samples_inside_cell():
    m = ChartManifold(kind="torus", dim=1, periods=(5.0,))
    rng = np.random.default_rng(3)
    s = m.uniform_samples(100, rng)
    assert s.shape == (100, 1)
    assert (s >= 0).all() and (s <= 5.0).all()
    e = ChartManifold(kind="euclidean", dim=1)
    with pytest.raises(SchemaError):
        e.uniform_samples(3, rng)
