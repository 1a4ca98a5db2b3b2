from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cvplab import (ChartManifold, CompactSupportKernel, DiscreteMeasure,
                    GaussianKernel, InversePowerKernel, NegativeDiagonalError,
                    SchemaError, WeightPositivityError, action,
                    deformed_actions, el_report, FormEvaluator,
                    frag_lower_bound, frag_second_variation,
                    fragment_deform, gram_spectrum, random_measure,
                    sample_scheme, second_variation_fd, stability_probe,
                    translation, volume_preserved)
from cvplab.jets import BASIS_FULL, FORM_Q1
from cvplab.variations import _EVALUATIONS_PER_CHUNK, _draw_trials


def _curve(rho, jf, volume_preserving=True):
    """The weights and jets of the one-fragment scheme of a jet field, by
    default with its scalars shifted to zero the volume defect."""
    c, u = np.ones((1, rho.count)), jf[None]
    if volume_preserving:
        return volume_preserved(rho, c, u)
    return c, u


def _random_vp_field(rho, rng, scale=1.0):
    scalar = scale * rng.normal(size=rho.count)
    jf = np.column_stack(
        [scalar, scale * rng.normal(size=(rho.count, rho.manifold.dim))])
    return _curve(rho, jf)[1][0]


def test_deform_tau_zero_is_base(csp5):
    jf = translation(csp5.rho.count, 1)
    curve = _curve(csp5.rho, jf, volume_preserving=False)
    assert fragment_deform(csp5.rho, *curve, 0.0) is csp5.rho


def test_deform_volume_constant_for_projected_scalars(csp5):
    rng = np.random.default_rng(0)
    curve = _curve(csp5.rho, _random_vp_field(csp5.rho, rng))
    for tau in (-0.1, 0.05, 0.2):
        assert fragment_deform(csp5.rho, *curve, tau).total_volume == \
            pytest.approx(csp5.rho.total_volume, rel=1e-13)


def test_deform_pure_vector_translates_support(csp5):
    jf = translation(csp5.rho.count, 1)
    curve = _curve(csp5.rho, jf, volume_preserving=False)
    out = fragment_deform(csp5.rho, *curve, 0.3)
    assert np.array_equal(out.weights, csp5.rho.weights)
    assert np.allclose(out.points, csp5.rho.points + 0.3)


def test_deform_weight_positivity_error(csp5):
    scalar = np.zeros(csp5.rho.count)
    scalar[2] = -1.0
    curve = _curve(csp5.rho, np.column_stack(
        [scalar, np.zeros((csp5.rho.count, 1))]))
    with pytest.raises(WeightPositivityError) as exc:
        fragment_deform(csp5.rho, *curve, 2.0)
    assert exc.value.point_index == 2


def _volume_defect(rho, c, u):
    """First-order volume change sum_ia w_i c_ia a_ia, fragment by fragment."""
    return float(sum(rho.weights @ (ca * ua[:, 0]) for ca, ua in zip(c, u)))


def test_curve_flag_validation(csp5):
    # a fragmented scheme whose scalars all equal one changes the volume
    n = csp5.rho.count
    c = np.random.default_rng(10).dirichlet(np.ones(3), size=n).T
    jets = np.zeros((3, n, 2))
    jets[:, :, 0] = 1.0
    assert _volume_defect(csp5.rho, c, jets) == pytest.approx(
        csp5.rho.total_volume, rel=1e-14)
    with pytest.raises(SchemaError):
        second_variation_fd(csp5.rho, csp5.kernel, c, jets, 1e-3)
    fixed = volume_preserved(csp5.rho, c, jets)
    assert abs(_volume_defect(csp5.rho, *fixed)) <= 1e-14


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
        fd = second_variation_fd(csp5.rho, csp5.kernel, *_curve(csp5.rho, jf),
                                 tau_step=1e-3 / norm)
        an = csp5.ev.sp1(jf, jf)
        assert abs(an - fd) <= 1e-5 * max(abs(fd), scale)


def test_fd_first_variation_vanishes(csp5):
    rng = np.random.default_rng(3)
    jf = _random_vp_field(csp5.rho, rng)
    curve = _curve(csp5.rho, jf)
    h = 1e-4
    s0 = action(csp5.rho, csp5.kernel)
    first = (action(fragment_deform(csp5.rho, *curve, h), csp5.kernel)
             - action(fragment_deform(csp5.rho, *curve, -h), csp5.kernel)) / (2 * h)
    assert abs(first) <= max(1e-6, 100 * 1e-6) * max(1.0, abs(s0))


def test_fd_requires_volume_preserving_curve(csp5):
    jf = np.column_stack([np.ones(csp5.rho.count),
                          np.zeros((csp5.rho.count, 1))])
    curve = _curve(csp5.rho, jf, volume_preserving=False)
    with pytest.raises(SchemaError):
        second_variation_fd(csp5.rho, csp5.kernel, *curve, 1e-3)


def _scheme_takers(ev):
    """Every public call taking the weights and jets of one scheme."""
    rho, kernel = ev.rho, ev.kernel
    return [
        lambda c, u: volume_preserved(rho, c, u),
        lambda c, u: fragment_deform(rho, c, u, 0.01),
        lambda c, u: second_variation_fd(rho, kernel, c, u, 1e-3),
        lambda c, u: deformed_actions(ev, c, u, [0.01]),
        lambda c, u: frag_second_variation(ev, c, u),
    ]


def _assert_rejected(ev, c, u, message):
    """Every scheme taker raises SchemaError with the same message."""
    for call in _scheme_takers(ev):
        with pytest.raises(SchemaError) as exc:
            call(c, u)
        assert str(exc.value) == message


def test_scheme_validation(csp5):
    n = csp5.rho.count
    good = np.full((2, n), 0.5)
    jets = np.zeros((2, n, 2))
    for call in _scheme_takers(csp5.ev):
        call(good, jets)
    _assert_rejected(csp5.ev, np.full((2, n), 0.4), jets,
                     "fragment weights must sum to one at every point")
    _assert_rejected(csp5.ev, np.array([[1.2] * n, [-0.2] * n]), jets,
                     "fragment weights must be non-negative")
    _assert_rejected(csp5.ev, good, jets[:1],
                     f"jets of shape (1, {n}, 2) do not fit weights of shape "
                     f"(2, {n}): need (L, n, 1 + m)")
    # (n, L, 1 + m) instead of (L, n, 1 + m)
    _assert_rejected(csp5.ev, good, np.zeros((n, 2, 2)),
                     f"jets of shape ({n}, 2, 2) do not fit weights of shape "
                     f"(2, {n}): need (L, n, 1 + m)")
    for bad in (np.nan, np.inf):
        weights = good.copy()
        weights[0, 1] = bad
        _assert_rejected(csp5.ev, weights, jets,
                         "fragment weights must sum to one at every point")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("slot", [0, 1])
def test_scheme_rejects_non_finite_jets(bad, slot):
    """The exact 5-point ring; one fragment whose jet has one non-finite
    entry, which the analytic forms would turn into nan."""
    manifold = ChartManifold(kind="torus", dim=1, periods=(5.0,))
    rho = DiscreteMeasure(manifold=manifold, points=np.arange(5.0)[:, None],
                          weights=np.ones(5))
    ev = FormEvaluator(rho, CompactSupportKernel(radius=np.sqrt(2.0), power=3))
    jets = np.zeros((1, 5, 2))
    jets[0, :, 1] = 1.0
    assert np.isfinite(frag_second_variation(ev, np.ones((1, 5)), jets))
    jets[0, 2, slot] = bad
    _assert_rejected(ev, np.ones((1, 5)), jets, "fragment jets must be finite")


def test_volume_preserved_checks_the_shifted_jets():
    """The exact 5-point ring; one fragment whose scalars are all 1e308 is
    finite, but its combined defect overflows, so the shift leaves -inf."""
    manifold = ChartManifold(kind="torus", dim=1, periods=(5.0,))
    rho = DiscreteMeasure(manifold=manifold, points=np.arange(5.0)[:, None],
                          weights=np.ones(5))
    jets = np.zeros((1, 5, 2))
    jets[0, :, 0] = 1e308
    assert fragment_deform(rho, np.ones((1, 5)), jets, 0.0) is rho
    with np.errstate(over="ignore"):
        with pytest.raises(SchemaError, match="fragment jets must be finite"):
            volume_preserved(rho, np.ones((1, 5)), jets)


def test_fragment_deform_single_fragment_equals_deform(csp5):
    # one fragment is the curve: points x + tau u, weights w (1 + tau a)
    rng = np.random.default_rng(4)
    jf = _random_vp_field(csp5.rho, rng)
    scheme = _curve(csp5.rho, jf)
    for tau in (0.0, 0.1, -0.05):
        a = fragment_deform(csp5.rho, *scheme, tau)
        assert np.array_equal(a.points, csp5.rho.points + tau * jf[:, 1:])
        assert np.array_equal(a.weights,
                              csp5.rho.weights * (1.0 + tau * jf[:, 0]))


def test_fragment_deform_two_point_split(single_gauss):
    # one atom split into two equal fragments pushed apart symmetrically
    rho = single_gauss.rho
    jets = np.array([[[0.0, 1.0]], [[0.0, -1.0]]])
    out = fragment_deform(rho, np.full((2, 1), 0.5), jets, tau=0.7)
    assert out.count == 2
    assert out.total_volume == pytest.approx(rho.total_volume, rel=1e-14)
    assert sorted(out.points[:, 0]) == pytest.approx([-0.7, 0.7])
    assert np.allclose(out.weights, [1.0, 1.0])


def test_fragment_deform_preserves_action_at_tau_zero(csp5):
    rng = np.random.default_rng(5)
    scheme = sample_scheme(csp5.rho, fragments=3, rng=rng)
    out = fragment_deform(csp5.rho, *scheme, 0.0)
    assert out is csp5.rho
    tiny = fragment_deform(csp5.rho, *scheme, 1e-300)
    assert action(tiny, csp5.kernel) == pytest.approx(
        action(csp5.rho, csp5.kernel), rel=1e-12)


def _dense_actions(ev, scheme, taus):
    """The dense oracle: one deformed measure and one action per tau."""
    return np.array([action(fragment_deform(ev.rho, *scheme, t), ev.kernel)
                     for t in taus])


@pytest.mark.parametrize("name", ["csp5", "gauss5", "lattice2d"])
def test_deformed_actions_match_dense_oracle(name, request):
    fx = request.getfixturevalue(name)
    rng = np.random.default_rng(13)
    taus = [-0.1, -0.02, 0.0, 0.02, 0.05, 0.1]
    for _ in range(5):
        scheme = sample_scheme(fx.rho, fragments=3, rng=rng)
        dense = _dense_actions(fx.ev, scheme, taus)
        fast = deformed_actions(fx.ev, *scheme, taus)
        assert np.all(np.abs(fast - dense) <= 1e-13 * np.abs(dense))


def test_deformed_actions_over_several_chunks():
    # every pair of 3 x 60 fragments interacts: several chunks of pairs
    manifold = ChartManifold(kind="torus", dim=1, periods=(2.0 * np.pi,))
    rho = random_measure(manifold, count=60, total_volume=5.0, seed=1)
    ev = FormEvaluator(rho, GaussianKernel(sigma=1.0))
    scheme = sample_scheme(rho, fragments=3, rng=np.random.default_rng(3))
    taus = [-0.02, 0.01, 0.02]
    assert len(scheme[0]) == 3
    assert (3 * 60) ** 2 // 2 * len(taus) > 2 * _EVALUATIONS_PER_CHUNK
    dense = _dense_actions(ev, scheme, taus)
    fast = deformed_actions(ev, *scheme, taus)
    assert np.all(np.abs(fast - dense) <= 1e-13 * np.abs(dense))


def test_deformed_actions_keep_pairs_that_move_inside_the_cutoff(csp5):
    """Points 0 and 2 lie beyond the cutoff; a fragment of each moves
    toward the other and comes inside it only at the largest |tau|."""
    rho, ev = csp5.rho, csp5.ev
    n, r = rho.count, csp5.kernel.cutoff
    d = rho.manifold.displacement(rho.points[2], rho.points[0])[0]
    jets = np.zeros((2, n, 2))
    jets[1, 0, 1], jets[1, 2, 1] = np.sign(d), -np.sign(d)
    scheme = np.full((2, n), 0.5), jets
    taus = [-0.5, 0.2, 0.5]

    def gap(tau):   # between the moving fragments, listed after fragment 0
        out = fragment_deform(rho, *scheme, tau).points
        return abs(rho.manifold.displacement(out[n + 2], out[n])[0])

    assert abs(d) > r and gap(0.5) < r
    assert gap(-0.5) > r and gap(0.2) > r
    dense = _dense_actions(ev, scheme, taus)
    fast = deformed_actions(ev, *scheme, taus)
    assert np.all(np.abs(fast - dense) <= 1e-13 * np.abs(dense))


def test_deformed_actions_raise_as_fragment_deform(csp5):
    """The first failure in grid order, then in the fragment-major order
    of fragment_deform, raises the same error."""
    n = csp5.rho.count
    jets = np.zeros((2, n, 2))
    jets[1, 1, 0] = 1.0   # factor 1 + tau*a <= 0 from tau = -1 down,
    jets[0, 3, 0] = 1.0   # here too, and fragment 0 is listed first
    jets[0, 2, 0] = -1.0  # <= 0 from tau = 1 up, later in the grid
    scheme = np.full((2, n), 0.5), jets
    taus = [0.5, -2.0, 2.0]
    with pytest.raises(WeightPositivityError) as dense:
        _dense_actions(csp5.ev, scheme, taus)
    with pytest.raises(WeightPositivityError) as fast:
        deformed_actions(csp5.ev, *scheme, taus)
    assert fast.value.point_index == dense.value.point_index == 3
    assert str(fast.value) == str(dense.value)

    # a finite jet whose moved point overflows at tau = -2
    jets = np.zeros((2, n, 2))
    jets[1, 0, 1] = 1e308
    scheme = np.full((2, n), 0.5), jets
    with np.errstate(over="ignore"):
        with pytest.raises(SchemaError) as dense:
            _dense_actions(csp5.ev, scheme, taus)
        with pytest.raises(SchemaError) as fast:
            deformed_actions(csp5.ev, *scheme, taus)
    assert str(fast.value) == str(dense.value) == "points and weights must be finite"


def test_frag_second_variation_single_fragment_reduces(csp5):
    rng = np.random.default_rng(6)
    jf = _random_vp_field(csp5.rho, rng)
    scheme = _curve(csp5.rho, jf)
    frag = frag_second_variation(csp5.ev, *scheme)
    plain = csp5.ev.sp1(jf, jf)
    assert frag == pytest.approx(plain, rel=1e-12)


def test_fd_oracle_agrees_with_frag_second_variation(csp5):
    """The FD oracle steps along fragment_deform, so it checks fragmented
    second variations too, on schemes of three fragments."""
    rng = np.random.default_rng(12)
    scale = abs(action(csp5.rho, csp5.kernel))
    checked = 0
    while checked < 10:
        c, u = sample_scheme(csp5.rho, fragments=3, rng=rng)
        if len(c) != 3:
            continue
        fd = second_variation_fd(csp5.rho, csp5.kernel, c, u,
                                 tau_step=1e-3 / np.abs(u).max())
        an = frag_second_variation(csp5.ev, c, u)
        assert abs(an - fd) <= 1e-5 * max(abs(fd), scale)
        checked += 1


@pytest.mark.parametrize("name", ["csp5", "lattice2d"])
def test_frag_second_variation_is_at_least_sp1_of_the_average(name, request):
    """On a measure whose Q1 is PSD every point term q_i is convex, so by
    Jensen a fragmented curve lies above the sp1 form of its c-averaged
    jet, with equality when every fragment carries the same jet."""
    f = request.getfixturevalue(name)
    assert gram_spectrum(f.ev, FORM_Q1, BASIS_FULL).psd
    n, m = f.rho.count, f.rho.manifold.dim
    rng = np.random.default_rng(10)
    for _ in range(20):
        c = rng.dirichlet(np.ones(3), size=n).T
        u = rng.normal(size=(3, n, 1 + m))
        average = (c[:, :, None] * u).sum(axis=0)
        assert frag_second_variation(f.ev, c, u) > f.ev.sp1(average, average)
        same = np.broadcast_to(u[0], u.shape)
        assert frag_second_variation(f.ev, c, same) == pytest.approx(
            f.ev.sp1(u[0], u[0]), rel=1e-12)


def test_frag_second_variation_splits_to_the_q1_minimum(gauss5):
    """Where Q1 is not PSD, splitting the worst point into two half-weight
    fragments along +-e, e the bottom eigenvector of its point block,
    leaves the average jet zero: the value is Q1's minimum eigenvalue."""
    report = gram_spectrum(gauss5.ev, FORM_Q1, BASIS_FULL)
    assert not report.psd
    values, vectors = np.linalg.eigh(gauss5.ev.point_blocks)
    worst = int(np.argmin(values[:, 0]))
    c = np.full((2, gauss5.rho.count), 0.5)
    u = np.zeros((2, gauss5.rho.count, 2))
    u[0, worst], u[1, worst] = vectors[worst, :, 0], -vectors[worst, :, 0]
    assert frag_second_variation(gauss5.ev, c, u) == pytest.approx(
        report.min_eigenvalue, rel=1e-12)


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
        c = rng.dirichlet(np.ones(3), size=csp5.rho.count).T
        val = frag_second_variation(csp5.ev, c, jets / c[..., None])
        assert val >= lb - 1e-10
    # it is reached at the weights sqrt(q_a) / sum_b sqrt(q_b)
    roots = np.sqrt(csp5.ev.q1_terms(jets, jets))
    best = roots / roots.sum(axis=0)
    val = frag_second_variation(csp5.ev, best, jets / best[..., None])
    assert val == pytest.approx(lb, rel=1e-12)


def test_frag_lower_bound_rejects_indefinite_base(single_gauss):
    # vector jets see Hess ell = -4 at the single atom: significantly negative
    jets = np.array([[[0.0, 1.0]]])
    with pytest.raises(NegativeDiagonalError):
        frag_lower_bound(single_gauss.ev, jets)


@st.composite
def _el_points(draw):
    """A symmetric measure and a kernel: a translated equispaced ring of odd
    count, so that no point sits at another's cut locus, where the wrapped
    long-range kernels have a kink, or the translated 4 x 4 triangular
    lattice.  A compact-support radius lies at least a tenth of a gap from
    every pair distance and below half the smallest period."""
    if draw(st.booleans()):
        n, gap = draw(st.sampled_from([3, 5, 7, 9])), draw(st.floats(0.8, 1.25))
        manifold = ChartManifold(kind="torus", dim=1, periods=(n * gap,))
        points = (gap * (np.arange(n) + draw(st.floats(0.0, 1.0))))[:, None]
        radius = gap * (draw(st.integers(1, (n - 1) // 2))
                        + draw(st.floats(0.1, 0.4)))
    else:
        gap, periods = 1.0, (4.0, 2.0 * np.sqrt(3.0))
        manifold = ChartManifold(kind="torus", dim=2, periods=periods)
        i, j = np.meshgrid(np.arange(4), np.arange(4), indexing="ij")
        offset = [draw(st.floats(0.0, p)) for p in periods]
        points = np.stack([i + 0.5 * j + offset[0],
                           j * np.sqrt(3.0) / 2.0 + offset[1]], axis=-1)
        points = points.reshape(-1, 2) % periods
        radius = draw(st.floats(1.1, 1.6))   # between 1 and sqrt(3)
    rho = DiscreteMeasure(manifold=manifold, points=points,
                          weights=np.ones(len(points)))
    sigma = gap * draw(st.floats(0.5, 1.5))
    kernel = draw(st.sampled_from([
        GaussianKernel(sigma=sigma),
        InversePowerKernel(sigma=sigma, exponent=draw(st.floats(1.0, 3.0))),
        CompactSupportKernel(radius=radius, power=draw(st.integers(3, 4)))]))
    return rho, kernel


@settings(max_examples=12, deadline=None)
@given(_el_points(), st.integers(0, 2**32 - 1))
def test_frag_second_variation_at_el_points(point, seed):
    """At an EL point the fragmented second variation of a stack is that of
    each scheme alone, and matches the finite-difference oracle.  The
    formula holds only there: long-range kernels on the lattice are
    filtered out by the EL precondition.  Both compare relative to the
    action where the second variation is smaller, since its terms cancel."""
    rho, kernel = point
    ev = FormEvaluator(rho, kernel)
    assume(el_report(ev)["weak_residual"] <= 1e-9)
    rng = np.random.default_rng(seed)
    schemes = [sample_scheme(rho, 3, rng) for _ in range(2)]
    frags = max(len(c) for c, _ in schemes)
    c = np.zeros((2, frags, rho.count))
    u = np.zeros((2, frags, rho.count, 1 + rho.manifold.dim))
    for t, (c_one, u_one) in enumerate(schemes):    # zero-weight padding
        c[t, :len(c_one)], u[t, :len(u_one)] = c_one, u_one
    stacked = frag_second_variation(ev, c, u)
    scale = abs(action(rho, kernel))
    for (c_one, u_one), value in zip(schemes, stacked):
        alone = frag_second_variation(ev, c_one, u_one)
        assert abs(value - alone) <= 1e-13 * max(abs(alone), scale)
        fd = second_variation_fd(rho, kernel, c_one, u_one,
                                 tau_step=1e-3 / np.abs(u_one).max())
        assert abs(alone - fd) <= 1e-6 * max(abs(fd), scale)


def test_stability_probe_zero_jets(csp5):
    """Zero jets leave every fragment where it is: each deformed action is
    the base action."""
    ev = csp5.ev
    c, u = sample_scheme(ev.rho, 2, np.random.default_rng(0))
    base = action(ev.rho, ev.kernel)
    values = deformed_actions(ev, c, np.zeros_like(u), [-0.02, 0.02])
    assert np.all(np.abs(values - base) <= 1e-14 * abs(base))


def test_stability_probe_report(csp5):
    rep = stability_probe(csp5.ev, fragments=3,
                          tau_grid=[-0.02, -0.01, 0.01, 0.02], trials=10,
                          seed=3)
    assert rep.min_delta >= -1e-12 * abs(rep.base_action)
    assert rep.max_fit_deviation <= 0.05
    assert len(rep.rows) == 40
    d = rep.to_dict()
    assert len(d["fits"]) == 10
    empty = stability_probe(csp5.ev, fragments=3, tau_grid=[0.01], trials=0,
                            seed=3)
    assert (empty.rows, empty.fits, empty.min_delta) == ([], [], np.inf)


PROBE_TAUS = [-0.02, -0.01, 0.01, 0.02]


def _reference_second_variation(ev, c, u):
    """The per-scheme formula: the double sum of the c-averaged jet plus the
    c-weighted diagonal terms of each fragment."""
    average = sum(ca[:, None] * ua for ca, ua in zip(c, u))
    return ev.double_sum(average, average) + float(
        ev.rho.weights @ sum(ca * ev.q1_terms(ua, ua) for ca, ua in zip(c, u)))


def _sequential_probe(ev, fragments, trials, seed, taus=PROBE_TAUS):
    """The per-trial oracles: sample_scheme, the dense deformed actions and
    the per-scheme second-variation formula, trial by trial."""
    rng = np.random.default_rng(seed)
    base = action(ev.rho, ev.kernel)
    for _ in range(trials):
        scheme = sample_scheme(ev.rho, fragments, rng)
        yield (scheme, _dense_actions(ev, scheme, taus) - base,
               _reference_second_variation(ev, *scheme))


def _reference_draws(rho, fragments, rng):
    """One scheme's random calls, in their order: the fragment count, the
    Dirichlet weights, then per fragment n scalars and the n x m vectors."""
    n, m = rho.count, rho.manifold.dim
    count = int(rng.integers(1, fragments + 1))
    c = rng.dirichlet(np.ones(count), size=n)
    draws = rng.normal(size=(count, n * (1 + m)))
    return c, np.concatenate(
        [draws[:, :n, None], draws[:, n:].reshape(count, n, m)], axis=2)


@pytest.mark.parametrize("name", ["csp5", "gauss5", "lattice2d"])
def test_probe_draws_are_the_sequential_draws(name, request):
    rho = request.getfixturevalue(name).rho
    batched = np.random.default_rng(5)
    c, jets = _draw_trials(rho, 3, 12, batched)
    rng, schemes = np.random.default_rng(5), np.random.default_rng(5)
    counts = set()
    for t in range(12):
        weights, raw = _reference_draws(rho, 3, rng)
        count = weights.shape[1]
        counts.add(count)
        assert c[t, :count].tobytes() == weights.T.tobytes()
        assert jets[t, :count].tobytes() == raw.tobytes()
        assert not c[t, count:].any() and not jets[t, count:].any()
        c_one, u_one = sample_scheme(rho, 3, schemes)
        assert c_one.tobytes() == weights.T.tobytes()
        assert u_one[..., 1:].tobytes() == raw[..., 1:].tobytes()
        assert u_one.tobytes() == volume_preserved(rho, weights.T, raw)[1].tobytes()
    assert counts == {1, 2, 3}
    assert (batched.bit_generator.state == schemes.bit_generator.state
            == rng.bit_generator.state)


def _count_evaluations(monkeypatch, kernel):
    """The sizes of the kernel family's profile calls from here on."""
    sizes, profile = [], type(kernel).profile
    monkeypatch.setattr(type(kernel), "profile",
                        lambda self, s: sizes.append(np.size(s)) or profile(self, s))
    return sizes


@pytest.mark.parametrize("name", ["csp5", "gauss5", "lattice2d"])
def test_probe_matches_the_per_trial_oracles(name, request, monkeypatch):
    fx = request.getfixturevalue(name)
    trials = 40
    sizes = _count_evaluations(monkeypatch, fx.ev.kernel)
    rep = stability_probe(fx.ev, fragments=3, tau_grid=PROBE_TAUS,
                          trials=trials, seed=17)
    monkeypatch.undo()
    # several chunks, each within the bound
    assert len(sizes) >= 4 and max(sizes) <= _EVALUATIONS_PER_CHUNK
    base = rep.base_action
    assert [fit[0] for fit in rep.fits] == list(range(trials))
    assert [row[:2] for row in rep.rows] == [
        (t, tau) for t in range(trials) for tau in PROBE_TAUS]
    counts = set()
    deltas = np.array([row[2] for row in rep.rows]).reshape(trials, -1)
    t2 = np.square(PROBE_TAUS)
    for t, (scheme, dense, predicted) in enumerate(
            _sequential_probe(fx.ev, 3, trials, seed=17)):
        counts.add(len(scheme[0]))
        assert np.all(np.abs(deltas[t] - dense) <= 1e-13 * abs(base))
        assert abs(rep.fits[t][2] - predicted) <= 1e-13 * abs(predicted)
        fitted = (deltas[t] @ t2) / (t2 @ t2)
        assert abs(rep.fits[t][1] - fitted) <= 1e-12 * abs(fitted)
    assert counts == {1, 2, 3}
    assert rep.min_delta == deltas.min()


def test_zero_weight_fragments_add_nothing(csp5):
    """Fragments of weight zero everywhere, listed before or after the
    others, with weight factors 1 + tau*a of -199 or -99 at some tau: they
    are not checked and add nothing to the actions or the second
    variation."""
    rho, ev = csp5.rho, csp5.ev
    scheme = sample_scheme(rho, 3, np.random.default_rng(2))
    c, u = scheme
    dead = np.zeros((1,) + u.shape[1:])
    dead[..., 0], dead[..., 1] = 1e4, -1e4
    for padded in (
            (np.vstack([np.zeros((2, rho.count)), c]),
             np.concatenate([dead, -dead, u])),
            (np.vstack([c, np.zeros((1, rho.count))]),
             np.concatenate([u, dead]))):
        plain = deformed_actions(ev, c, u, PROBE_TAUS)
        assert np.all(np.abs(deformed_actions(ev, *padded, PROBE_TAUS) - plain)
                      <= 1e-15 * np.abs(plain))
        assert np.array_equal(_dense_actions(ev, padded, PROBE_TAUS),
                              _dense_actions(ev, scheme, PROBE_TAUS))
        assert frag_second_variation(ev, *padded) == pytest.approx(
            frag_second_variation(ev, c, u), rel=1e-15)


@pytest.mark.parametrize("seed", [0, 2])
def test_probe_raises_at_the_first_failing_trial(csp5, seed):
    """A tau grid 20 times PROBE_TAUS makes some weight factor 1 + tau*a
    non-positive, first at trial 22 (seed 0) or 7 (seed 2)."""
    taus = [-0.4, -0.2, 0.2, 0.4]
    with pytest.raises(WeightPositivityError) as loop:
        for trial, _ in enumerate(_sequential_probe(csp5.ev, 3, 30, seed, taus)):
            pass
    assert trial + 1 == {0: 22, 2: 7}[seed]
    with pytest.raises(WeightPositivityError) as batched:
        stability_probe(csp5.ev, fragments=3, tau_grid=taus, trials=30,
                        seed=seed)
    assert str(batched.value) == str(loop.value)
    assert batched.value.point_index == loop.value.point_index


def test_probe_memory_stays_flat_over_many_trials(monkeypatch):
    """A Gaussian keeps every pair: 100 trials over 40 points take
    hundreds of chunks, each at most _EVALUATIONS_PER_CHUNK kernel
    evaluations, and the whole probe stays under 6 MB of traced memory,
    while one array over all (trial, pair, tau) evaluations would take
    more than 10 MB."""
    manifold = ChartManifold(kind="torus", dim=1, periods=(2.0 * np.pi,))
    rho = random_measure(manifold, count=40, total_volume=5.0, seed=2)
    ev = FormEvaluator(rho, GaussianKernel(sigma=1.0))
    ev.sp1_gram
    sizes = _count_evaluations(monkeypatch, ev.kernel)
    tracemalloc.start()
    try:
        rep = stability_probe(ev, fragments=3, tau_grid=PROBE_TAUS,
                              trials=100, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rep.fits) == 100
    assert max(sizes) <= _EVALUATIONS_PER_CHUNK
    assert sum(sizes) * 8 > 10e6 and len(sizes) > 300
    assert peak < 6e6, peak
