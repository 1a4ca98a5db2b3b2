"""Evaluators take one item or a stack over leading axes: the stack gives
what the per-item calls give."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvplab import (ChartManifold, CompactSupportKernel, FormEvaluator,
                    GaussianKernel, InversePowerKernel, PairTables, ell,
                    ell_gradient, linfield_residual, random_measure,
                    verify_lagrangian)
from cvplab.jets import jet_pair_block

KERNELS = [GaussianKernel(sigma=1.1), InversePowerKernel(sigma=0.9, exponent=2.5),
           CompactSupportKernel(radius=1.9, power=3)]
MANIFOLDS = [ChartManifold(kind="torus", dim=1, periods=(5.0,)),
             ChartManifold(kind="torus", dim=2, periods=(4.0, 5.0))]
CASES = dict(kernel=st.sampled_from(KERNELS), manifold=st.sampled_from(MANIFOLDS),
             seed=st.integers(0, 2**32 - 1))
EXAMPLES = settings(max_examples=15, deadline=None)


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def _one_pair(kernel, manifold, x, y) -> PairTables:
    """The tables of one pair, built as a one-row stack."""
    return PairTables(kernel, manifold.displacement(x, y)[None])


@EXAMPLES
@given(manifold=CASES["manifold"], seed=CASES["seed"])
def test_kernel_evaluators_broadcast_bit_for_bit(manifold, seed):
    """One pair, built as a one-row stack, is its row of the stack: for
    every family, the inverse-power one included, whose `**` rounds
    differently on numpy's scalar path."""
    rng = np.random.default_rng(seed)
    xs, ys = manifold.uniform_samples(6, rng), manifold.uniform_samples(4, rng)
    m = manifold.dim
    for kernel in KERNELS:
        stack = PairTables(kernel, manifold.displacement(xs[:, None, :], ys))
        for name, tail in (("L", ()), ("G", (m,)), ("H11", (m, m))):
            assert getattr(stack, name).shape == (6, 4) + tail
            one = [[getattr(_one_pair(kernel, manifold, x, y), name)[0]
                    for y in ys] for x in xs]
            assert _bits(getattr(stack, name)) == _bits(one)


@EXAMPLES
@given(**CASES)
def test_ell_and_its_gradient_broadcast(kernel, manifold, seed):
    rho = random_measure(manifold, count=7, total_volume=7.0, seed=seed % 2**31)
    ev = FormEvaluator(rho, kernel)
    xs = manifold.uniform_samples(12, np.random.default_rng(seed)).reshape(
        3, 4, manifold.dim)
    values = ell(ev, xs)
    gradients = ell_gradient(ev, xs)
    assert values.shape == (3, 4) and gradients.shape == (3, 4, manifold.dim)
    # a dot product per point against a matrix-vector product per stack
    L = PairTables(kernel, manifold.displacement(xs[..., None, :], rho.points)).L
    scale = np.abs(L) @ rho.weights + ev.nu / 2.0
    for idx in np.ndindex(3, 4):
        one = ell(ev, xs[idx])
        assert isinstance(one, float)
        assert abs(values[idx] - one) <= 1e-13 * scale[idx]
        assert _bits(gradients[idx]) == _bits(ell_gradient(ev, xs[idx]))


@EXAMPLES
@given(**CASES)
def test_forms_and_residuals_broadcast(kernel, manifold, seed):
    rho = random_measure(manifold, count=6, total_volume=6.0, seed=seed % 2**31)
    ev = FormEvaluator(rho, kernel)
    rng = np.random.default_rng(seed)
    u, v = rng.normal(size=(2, 2, 3, rho.count, 1 + manifold.dim))
    terms, sums = ev.q1_terms(u, v), ev.double_sum(u, v)
    assert terms.shape == (2, 3, rho.count) and sums.shape == (2, 3)
    residuals = linfield_residual(ev, u[0])
    assert residuals.shape == (3,)
    for idx in np.ndindex(2, 3):
        ui, vi = u[idx], v[idx]
        # the magnitudes of the terms summed, against cancellation
        t_scale = np.abs(ui).ravel() @ np.abs(ev.form_matrix("Q1")) @ np.abs(vi).ravel()
        block = jet_pair_block(ev.tables, rho.weights).reshape(ui.size, -1)
        b_scale = np.abs(ui).ravel() @ np.abs(block) @ np.abs(vi).ravel()
        assert np.abs(terms[idx] - ev.q1_terms(ui, vi)).max() <= 1e-13 * t_scale
        one = ev.double_sum(ui, vi)
        assert isinstance(one, float)
        assert abs(sums[idx] - one) <= 1e-13 * b_scale
    one = [linfield_residual(ev, ui) for ui in u[0]]
    assert isinstance(one[0], float)
    assert _bits(residuals) == _bits(one)
    assert linfield_residual(ev, u[0, :0]).shape == (0,)


def _verify_by_loop(kernel, manifold, sample_count, step, seed):
    """The per-sample finite-difference loop, one stencil point per call."""
    rng = np.random.default_rng(seed)
    xs = manifold.uniform_samples(sample_count, rng)
    ys = manifold.uniform_samples(sample_count, rng)
    scale = max(float(kernel.profile(0.0)), 1e-300)
    m = manifold.dim
    sym = err_g = err_h11 = err_h12 = 0.0

    def L(x, y):
        return _one_pair(kernel, manifold, x, y).L[0]

    for x, y in zip(xs, ys):
        sym = max(sym, abs(L(x, y) - L(y, x)))
        exact = _one_pair(kernel, manifold, x, y)
        an_g, an_h11, an_h12 = exact.G[0], exact.H11[0], -exact.H11[0]
        for a in range(m):
            ea = np.zeros(m)
            ea[a] = step
            fd_g = (L(x + ea, y) - L(x - ea, y)) / (2 * step)
            err_g = max(err_g, abs(an_g[a] - fd_g) / max(abs(fd_g), scale))
            for b in range(m):
                eb = np.zeros(m)
                eb[b] = step
                fd_h11 = (L(x + ea + eb, y) - L(x + ea - eb, y)
                          - L(x - ea + eb, y) + L(x - ea - eb, y)) / (4 * step**2)
                fd_h12 = (L(x + ea, y + eb) - L(x + ea, y - eb)
                          - L(x - ea, y + eb) + L(x - ea, y - eb)) / (4 * step**2)
                err_h11 = max(err_h11, abs(an_h11[a, b] - fd_h11)
                              / max(abs(fd_h11), scale))
                err_h12 = max(err_h12, abs(an_h12[a, b] - fd_h12)
                              / max(abs(fd_h12), scale))
    return sym, err_g, err_h11, err_h12


@EXAMPLES
@given(**CASES)
def test_verify_lagrangian_matches_the_per_sample_loop(kernel, manifold, seed):
    report = verify_lagrangian(kernel, manifold, sample_count=8, step=1e-4,
                               seed=seed)
    ours = (report.symmetry_defect, report.grad1_rel_error,
            report.hess11_rel_error, report.hess12_rel_error)
    for got, want in zip(ours, _verify_by_loop(kernel, manifold, 8, 1e-4, seed)):
        assert abs(got - want) <= 1e-12 * want


def _count_profile_calls(monkeypatch, kernel) -> list[int]:
    calls = [0]
    profile = type(kernel).profile

    def counted(self, s):
        calls[0] += 1
        return profile(self, s)

    monkeypatch.setattr(type(kernel), "profile", counted)
    return calls


@pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.family)
def test_evaluators_call_the_profile_a_fixed_number_of_times(monkeypatch, kernel,
                                                             csp5):
    manifold = MANIFOLDS[1]
    calls = _count_profile_calls(monkeypatch, kernel)
    counts = []
    for samples in (1, 4, 32):
        calls[0] = 0
        verify_lagrangian(kernel, manifold, sample_count=samples, step=1e-4, seed=0)
        counts.append(calls[0])
    assert counts[0] > 0 and counts == [counts[0]] * 3
    # ell at a stack of off-support samples is one profile evaluation
    ev = FormEvaluator(csp5.rho, kernel)
    samples = csp5.rho.manifold.uniform_samples(200, np.random.default_rng(1))
    calls[0] = 0
    values = ell(ev, samples)
    assert calls[0] == 1 and values.shape == (200,)
