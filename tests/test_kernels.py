from __future__ import annotations

import numpy as np
import pytest

from cvplab import (ChartManifold, CompactSupportKernel, GaussianKernel,
                    InversePowerKernel, PairTables, SchemaError,
                    kernel_from_dict, pair_tables, verify_lagrangian)

EUC1 = ChartManifold(kind="euclidean", dim=1)
EUC2 = ChartManifold(kind="euclidean", dim=2)


def _one_pair(kernel, manifold, x, y) -> PairTables:
    """The tables of one pair, built as a one-row stack."""
    return PairTables(kernel, manifold.displacement(x, y)[None])


def test_gaussian_frozen_values():
    k = GaussianKernel(sigma=1.0)
    assert k.profile(0.0) == 1.0
    assert k.profile(1.0) == pytest.approx(np.exp(-1.0), rel=1e-15)
    # at coincidence: grad1 = 0, hess11 = 2 g'(0) I = -2, hess12 = +2
    x = np.array([0.3])
    t = _one_pair(k, EUC1, x, x)
    assert t.L[0] == 1.0 and t.G[0, 0] == 0.0
    assert t.H11[0, 0, 0] == -2.0 and -t.H11[0, 0, 0] == 2.0


def test_symmetry_bit_identical():
    k = InversePowerKernel(sigma=0.7, exponent=2.5)
    rng = np.random.default_rng(5)
    for _ in range(20):
        x, y = rng.normal(size=(2, 2))
        assert _one_pair(k, EUC2, x, y).L[0] == _one_pair(k, EUC2, y, x).L[0]


def test_compact_support_vanishes_beyond_cutoff():
    k = CompactSupportKernel(radius=1.0, power=3)
    assert k.profile(1.0) == 0.0
    assert k.profile(2.0) == 0.0
    assert k.profile_d1(1.5) == 0.0
    assert k.profile_d2(1.5) == 0.0
    assert k.profile(0.0) == 1.0
    # C^2 continuity at the cutoff: value and two derivatives tend to 0
    eps = 1e-6
    assert abs(k.profile(1.0 - eps)) < 1e-17
    assert abs(k.profile_d1(1.0 - eps)) < 1e-11
    assert abs(k.profile_d2(1.0 - eps)) < 1e-5


def test_cutoff_of_each_family():
    assert GaussianKernel(sigma=1.0).cutoff is None
    assert InversePowerKernel(sigma=1.0, exponent=2.0).cutoff is None
    k = CompactSupportKernel(radius=1.5, power=3)
    assert k.cutoff == 1.5
    with pytest.raises(AttributeError):
        k.cutoff = 2.0
    # pruning pairs at s >= r^2 relies on an exact +0.0 there
    r2 = k.cutoff**2
    for s in (r2, np.nextafter(r2, np.inf)):
        g = k.profile(s)
        assert g == 0.0 and not np.signbit(g)


@pytest.mark.parametrize("kernel", [
    GaussianKernel(sigma=1.3),
    InversePowerKernel(sigma=0.9, exponent=2.0),
    CompactSupportKernel(radius=2.0, power=4),
])
def test_analytic_derivatives_match_finite_differences(kernel):
    report = verify_lagrangian(kernel, EUC2, sample_count=15, step=1e-4, seed=2)
    assert report.symmetry_defect == 0.0
    assert report.max_rel_error() < 1e-6


def test_verify_on_torus():
    m = ChartManifold(kind="torus", dim=1, periods=(6.0,))
    report = verify_lagrangian(GaussianKernel(sigma=1.0), m,
                               sample_count=20, step=1e-4, seed=4)
    assert report.max_rel_error() < 1e-6


def test_pair_tables_structure():
    k = GaussianKernel(sigma=1.0)
    pts = np.array([[0.0], [1.0], [2.5]])
    t = pair_tables(k, EUC1, pts)
    assert t.L.shape == (3, 3) and t.G.shape == (3, 3, 1)
    assert np.array_equal(t.L, t.L.T)
    assert np.array_equal(t.G, -t.G.transpose(1, 0, 2))
    assert np.array_equal(t.H11, t.H11.transpose(1, 0, 2, 3))
    # entries agree with the single-pair tables
    for i in range(3):
        for j in range(3):
            one = _one_pair(k, EUC1, pts[i], pts[j])
            assert t.L[i, j] == one.L[0]
            assert np.array_equal(t.G[i, j], one.G[0])
    # 2-D input, so the off-diagonal Hessian entries are exercised too
    k = InversePowerKernel(sigma=0.8, exponent=3.0)
    pts = np.random.default_rng(9).uniform(-1.0, 1.0, size=(4, 2))
    t = pair_tables(k, EUC2, pts)
    assert t.G.shape == (4, 4, 2) and t.H11.shape == (4, 4, 2, 2)
    assert np.array_equal(t.H11, t.H11.transpose(0, 1, 3, 2))
    for i in range(4):
        for j in range(4):
            one = _one_pair(k, EUC2, pts[i], pts[j])
            assert t.L[i, j] == one.L[0]
            for name in ("G", "H11"):
                np.testing.assert_allclose(getattr(t, name)[i, j],
                                           getattr(one, name)[0], rtol=1e-14, atol=0)


@pytest.mark.parametrize("kernel", [
    GaussianKernel(sigma=0.8),
    InversePowerKernel(sigma=0.7, exponent=2.5),
    CompactSupportKernel(radius=1.5, power=3),
], ids=["gaussian", "inverse-power", "compact-support"])
def test_hess11_table_is_the_closed_form_bit_for_bit(kernel):
    """H11, built in place, is 2 g1 I + 4 g2 d d^T to the bit: each profile
    decreases, so g1 <= 0 and an off-diagonal 2 g1 * 0 is -0.0, which adds
    nothing.  Pairs beyond the cutoff, where g1 = -0.0, included."""
    pts = np.random.default_rng(12).uniform(-2.0, 2.0, size=(16, 2))
    t = pair_tables(kernel, EUC2, pts)
    g1, g2 = kernel.profile_d1(t.s), kernel.profile_d2(t.s)
    closed = 2.0 * g1[..., None, None] * np.eye(2) + \
        4.0 * g2[..., None, None] * (t.D[..., :, None] * t.D[..., None, :])
    assert t.H11.tobytes() == closed.tobytes()
    assert kernel.cutoff is None or (t.s > kernel.cutoff**2).any()


@pytest.mark.parametrize("manifold", [
    ChartManifold(kind="torus", dim=1, periods=(5.0,)),
    ChartManifold(kind="torus", dim=2, periods=(3.0, 7.0)),
    EUC2,
    ChartManifold(kind="euclidean", dim=3),
], ids=["torus-1d", "torus-2d", "euclidean-2d", "euclidean-3d"])
def test_pair_tables_squared_distances(manifold):
    pts = np.random.default_rng(4).uniform(-4.0, 9.0, size=(30, manifold.dim))
    t = pair_tables(GaussianKernel(sigma=1.0), manifold, pts)
    D = t.D
    ordered = D[..., 0] * D[..., 0]
    for k in range(1, manifold.dim):
        ordered = ordered + D[..., k] * D[..., k]
    assert np.array_equal(t.s, ordered)
    einsum = np.einsum("ijk,ijk->ij", D, D)
    if manifold.dim <= 2:
        assert np.array_equal(t.s, einsum)
    else:
        # einsum adds three or more terms in another order
        np.testing.assert_allclose(t.s, einsum, rtol=4 * np.finfo(float).eps, atol=0)


def test_compact_support_profile_matches_plain_power():
    k = CompactSupportKernel(radius=1.2, power=3)
    r2 = 1.2**2
    rng = np.random.default_rng(8)
    # straddles the cutoff: inside, exactly at it, beyond it
    s = np.concatenate([rng.uniform(0.0, 3.0 * r2, size=200),
                        [0.0, r2, np.nextafter(r2, 0.0), np.nextafter(r2, 9.0)]])
    for values in (s, s.reshape(12, 17)):
        got = k.profile(values)
        ref = np.maximum(0.0, r2 - values) ** 3
        assert got.shape == ref.shape and got.dtype == ref.dtype
        assert np.array_equal(got, ref)
        assert np.array_equal(np.signbit(got), np.signbit(ref))
    assert (s > r2).any() and (s < r2).any()
    for scalar in (0.0, 0.7, r2, 2.0):
        got = k.profile(scalar)
        ref = np.maximum(0.0, r2 - np.asarray(scalar)) ** 3
        assert type(got) is type(ref) and got == ref
        assert np.signbit(got) == np.signbit(ref)
    assert np.isnan(k.profile(np.array([np.nan, 0.5])))[0]


def test_param_validation():
    with pytest.raises(SchemaError):
        GaussianKernel(sigma=0.0)
    with pytest.raises(SchemaError):
        InversePowerKernel(sigma=1.0, exponent=-1.0)
    with pytest.raises(SchemaError):
        CompactSupportKernel(radius=1.0, power=2)


def test_kernel_from_dict_round_trip():
    for k in (GaussianKernel(sigma=1.5),
              InversePowerKernel(sigma=0.8, exponent=3.0),
              CompactSupportKernel(radius=1.2, power=3)):
        rebuilt = kernel_from_dict(k.to_dict())
        assert rebuilt == k
    with pytest.raises(SchemaError):
        kernel_from_dict({"family": "lorentzian", "params": {}})
    with pytest.raises(SchemaError):
        kernel_from_dict({"family": "gaussian", "params": {}})


@pytest.mark.parametrize("data", [
    {"family": "gaussian", "params": {"sigma": 1.0, "radius": 3}},
    {"family": "gaussian", "params": {"sigma": True}},
    {"family": "gaussian", "params": {"sigma": "2"}},
    {"family": "gaussian", "params": {"sigma": None}},
    {"family": "gaussian", "params": {"sigma": float("nan")}},
    {"family": "gaussian", "params": {"sigma": -1.0}},
    {"family": "gaussian", "params": [1.0]},
    {"family": "inverse-power", "params": {"sigma": 1.0}},
    {"family": "inverse-power", "params": {"sigma": 1.0, "exponent": float("inf")}},
    {"family": "inverse-power", "params": {"sigma": 0.0, "exponent": 2.0}},
    *({"family": "compact-support-power", "params": params} for params in (
        {"radius": float("inf"), "power": 3}, {"radius": 1.0, "power": 3.5},
        {"radius": 1.0, "power": True}, {"radius": 1.0, "power": "3"},
        {"radius": 1.0, "power": float("inf")},
        {"radius": 1.0, "power": 3, "sigma": 1},
        # an integral float is not an integer, and 10**400 no float
        {"radius": 1.0, "power": 4.0}, {"radius": 10**400, "power": 3},
        {"radius": 1.0, "power": 10**400})),
    {"family": "gaussian", "params": {"sigma": 10**400}},
])
def test_kernel_params_are_exactly_the_family_fields(data):
    with pytest.raises(SchemaError):
        kernel_from_dict(data)


def test_kernel_params_are_stored_as_numbers():
    k = kernel_from_dict({"family": "inverse-power",
                          "params": {"sigma": 2, "exponent": 3}})
    assert k.params() == {"sigma": 2.0, "exponent": 3.0}
    assert all(type(v) is float for v in k.params().values())
    k = kernel_from_dict({"family": "compact-support-power",
                          "params": {"radius": 1.5, "power": 4}})
    assert k.params() == {"radius": 1.5, "power": 4} and type(k.power) is int
