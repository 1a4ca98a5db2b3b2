"""Fragmented variations, their finite-difference oracle and second variations.

A variation splits point i into L fragments with weight shares c_ia and
moves fragment a along the straight chart line x_i + tau*u_ia, its weight
rescaled by 1 + tau*a_ia.  An unfragmented curve is the one-fragment
scheme, c = 1: its second-order terms in (f, F) vanish, so its analytic
second variation is exactly the sp1 form of its jet field.  The fragment
jets are one (L, n, 1 + m) array: L jet fields of `cvplab.jets`.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .action import action
from .errors import NegativeDiagonalError, SchemaError, WeightPositivityError
from .jets import FormEvaluator, _as_jets
from .kernels import RadialKernel, _squared_norms
from .measure import DiscreteMeasure, _check_atoms


@dataclass(frozen=True)
class FragmentationScheme:
    """Row-stochastic fragment weights and one jet per fragment and point.

    A curve is the one-fragment scheme, weights np.ones((n, 1)).
    """

    weights: np.ndarray            # (n, L), rows sum to one
    jets: np.ndarray               # (L, n, 1 + m), rows [a, u_1..u_m]

    def __post_init__(self):
        c = np.atleast_2d(np.asarray(self.weights, dtype=float))
        u = np.asarray(self.jets, dtype=float)
        object.__setattr__(self, "weights", c)
        object.__setattr__(self, "jets", u)
        if (c < 0).any():
            raise SchemaError("fragment weights must be non-negative")
        if not np.abs(c.sum(axis=1) - 1.0).max(initial=0.0) <= 1e-12:
            raise SchemaError("fragment weights must sum to one at every point")
        if u.ndim != 3 or u.shape[:2] != c.shape[::-1] or u.shape[2] < 2:
            raise SchemaError(f"jets of shape {u.shape} do not fit weights of "
                              f"shape {c.shape}: need (L, n, 1 + m)")

    def combined_defect(self, rho: DiscreteMeasure) -> float:
        """First-order volume change sum_ia w_i c_ia a_ia."""
        scalars = self.weights.T * _as_jets(rho, self.jets, ndim=3)[:, :, 0]
        return float(sum(rho.weights @ row for row in scalars))

    def averaged_jet(self) -> np.ndarray:
        """(n, 1 + m) pointwise c-weighted average of the fragment jets."""
        return (self.weights.T[:, :, None] * self.jets).sum(axis=0)

    @classmethod
    def volume_preserved(cls, rho: DiscreteMeasure, weights: np.ndarray,
                         jets: np.ndarray) -> "FragmentationScheme":
        """Shift all fragment scalars by a constant to zero the combined defect."""
        scheme = cls(weights=weights, jets=np.array(jets, dtype=float, order="C"))
        scheme.jets[:, :, 0] -= scheme.combined_defect(rho) / rho.total_volume
        return scheme


def fragment_deform(scheme: FragmentationScheme, rho: DiscreteMeasure,
                    tau: float) -> DiscreteMeasure:
    """Split each point into its fragments, transported and reweighted.

    Fragment a of point i sits at x_i + tau*u_ia with weight
    w_i c_ia (1 + tau*a_ia); the fragments are listed fragment by
    fragment.  At tau = 0 the coincident fragments merge back to the base
    support.  Fragments with zero weight carry no point.
    """
    jets = _as_jets(rho, scheme.jets, ndim=3)
    if tau == 0.0:
        return rho
    frag, point = np.nonzero(scheme.weights.T > 0.0)
    moved = jets[frag, point]
    factors = 1.0 + tau * moved[:, 0]
    _check_factors(factors, frag, point, tau)
    return rho.replace(
        points=rho.points[point] + tau * moved[:, 1:],
        weights=rho.weights[point] * scheme.weights[point, frag] * factors)


def _check_factors(factors: np.ndarray, frag: np.ndarray, point: np.ndarray,
                   tau: float) -> None:
    """Raise at the first live fragment whose weight factor 1 + tau*a is
    non-positive; the fragments are listed fragment by fragment."""
    bad = np.flatnonzero(factors <= 0.0)
    if bad.size:
        i = int(point[bad[0]])
        raise WeightPositivityError(
            f"fragment {frag[bad[0]]} weight factor 1 + tau*a is non-positive "
            f"at point {i} (tau={tau:g})", point_index=i)


_EVALUATIONS_PER_CHUNK = 16384    # (pair, tau) kernel evaluations


def deformed_actions(ev: FormEvaluator, scheme: FragmentationScheme,
                     taus) -> np.ndarray:
    """action(fragment_deform(scheme, ev.rho, tau), ev.kernel) for each tau,
    summed over the fragment pairs that can interact, all taus at once.

    A fragment of point i moves at most reach_i = max|tau| max_a |u_ia|
    from x_i, so by the triangle inequality a fragment pair whose base
    points lie at least cutoff + reach_i + reach_j apart stays beyond the
    kernel's cutoff, where the profile is exactly +0.0, and is skipped.
    A kernel without a cutoff keeps every pair.  Each unordered pair is
    evaluated once and counted twice, a few thousand pairs at a time so
    that the temporaries stay in cache.  Raises what fragment_deform and
    DiscreteMeasure raise, at the first tau of the grid that fails.
    """
    rho, kernel = ev.rho, ev.kernel
    jets = _as_jets(rho, scheme.jets, ndim=3)
    taus = np.asarray(taus, dtype=float)
    # at tau = 0 the deformed measure is rho itself
    out = np.full(taus.shape, float(rho.weights @ ev.tables.L @ rho.weights))
    moving = taus != 0.0
    taus = taus[moving]
    live = scheme.weights.T > 0.0
    frag, point = np.nonzero(live)
    moved = jets[frag, point]
    factors = 1.0 + taus[:, None] * moved[:, 0]
    points = rho.points[point] + taus[:, None, None] * moved[:, 1:]
    weights = rho.weights[point] * scheme.weights[point, frag] * factors
    if not ((factors > 0.0).all() and (weights > 0.0).all()
            and np.isfinite(weights).all() and np.isfinite(points).all()):
        # raise at the first failing tau, as the dense path does
        for tau, f, x, w in zip(taus, factors, points, weights):
            _check_factors(f, frag, point, tau)
            _check_atoms(x, w)

    reach = np.abs(taus).max(initial=0.0) * np.where(
        live, np.sqrt(_squared_norms(jets[:, :, 1:])), 0.0).max(axis=0)
    cutoff = np.inf if kernel.cutoff is None else kernel.cutoff
    # far above the rounding of the moved points and their squared distances
    slack = 1e-9 * (1.0 + cutoff + reach.max() + np.abs(rho.points).max())
    near = np.sqrt(ev.tables.s) < cutoff + reach[:, None] + reach + slack
    i, j = np.nonzero(near)
    upper = i <= j
    i, j = i[upper], j[upper]

    slot = np.full(scheme.weights.shape, -1)    # live fragment index, or -1
    slot[point, frag] = np.arange(frag.size)
    p, q = slot[i][:, :, None], slot[j][:, None, :]
    pair, a, b = np.nonzero((p >= 0) & (q >= 0)
                            & ((i < j)[:, None, None] | (p <= q)))
    p, q = slot[i[pair], a], slot[j[pair], b]
    twice = np.where(p == q, 1.0, 2.0)
    total = np.zeros(taus.size)
    chunk = max(1, _EVALUATIONS_PER_CHUNK // max(1, taus.size))
    for start in range(0, p.size, chunk):
        part = slice(start, start + chunk)
        d = rho.manifold.displacement(np.take(points, p[part], axis=1),
                                      np.take(points, q[part], axis=1))
        total += (np.take(weights, p[part], axis=1)
                  * np.take(weights, q[part], axis=1)
                  * kernel.profile(_squared_norms(d))) @ twice[part]
    out[moving] = total
    return out


def second_variation_fd(rho: DiscreteMeasure, kernel: RadialKernel,
                        scheme: FragmentationScheme, tau_step: float) -> float:
    """Richardson-extrapolated centered second difference of the action
    along fragment_deform.

    Returns half the extrapolated second derivative, matching the
    convention of the analytic formula.  The scheme must preserve the
    volume to first order.
    """
    defect = scheme.combined_defect(rho)
    if abs(defect) > 1e-10 * max(1.0, rho.total_volume):
        raise SchemaError("finite-difference oracle needs a volume-preserving "
                          f"scheme, but its defect is {defect:g}")
    s0 = action(rho, kernel)

    def stencil(h):
        return (action(fragment_deform(scheme, rho, h), kernel) - 2.0 * s0
                + action(fragment_deform(scheme, rho, -h), kernel)) / h**2

    d_h = stencil(tau_step)
    d_h2 = stencil(tau_step / 2.0)
    return 0.5 * (4.0 * d_h2 - d_h) / 3.0


def _diagonals(ev: FormEvaluator, jets: np.ndarray) -> np.ndarray:
    """(n, L) array of nabla2_ell(i, u_a(i), u_a(i)) for each fragment jet u_a."""
    return np.column_stack([ev.q1_terms(u, u) for u in jets])


def frag_second_variation(ev: FormEvaluator, scheme: FragmentationScheme) -> float:
    """Half the second variation of a fragmented curve (weights inside).

    Double-sum term over the c-averaged jet (exact by bilinearity) plus
    the c-weighted diagonal Hessian-of-ell term.
    """
    diag = _diagonals(ev, scheme.jets)   # q1_terms checks each fragment's shape
    average = scheme.averaged_jet()
    return ev.double_sum(average, average) + float(
        ev.rho.weights @ (scheme.weights * diag).sum(axis=1))


def frag_second_variation_rescaled(ev: FormEvaluator, jets: np.ndarray,
                                   weights: np.ndarray) -> float:
    """The transformed fragmented second variation over (L, n, 1 + m) jets:
    weights only divide the diagonal term (with 0/0 := 0)."""
    jets = _as_jets(ev.rho, jets, ndim=3)
    diag = _diagonals(ev, jets).T                    # (L, n)
    c = np.atleast_2d(np.asarray(weights, dtype=float)).T
    live = c > 0
    scale = np.maximum(np.abs(diag).max(axis=1, keepdims=True), 1.0)
    bad = np.flatnonzero((np.where(live, 0.0, np.abs(diag))
                          > 1e-12 * scale).any(axis=1))
    if bad.size:
        raise SchemaError(
            f"fragment {bad[0]} has zero weight but non-zero diagonal term")
    ratio = np.divide(diag, c, out=np.zeros(diag.shape), where=live)
    total = jets.sum(axis=0)
    return float(sum((ev.rho.weights @ row for row in ratio),
                     ev.double_sum(total, total)))


def optimal_weights(values) -> tuple[np.ndarray, float]:
    """Minimize sum_a A_a / c_a over the simplex: c_a = sqrt(A_a)/sum sqrt(A).

    The minimized value equals lambda = (sum_a sqrt(A_a))^2; vanishing
    entries get zero weight (their contribution is zero in the limit).
    All-zero input returns uniform weights and lambda = 0.
    """
    a = np.asarray(values, dtype=float)
    if (a < 0).any():
        raise NegativeDiagonalError(f"negative entries in {a.tolist()}")
    roots = np.sqrt(a)
    total = roots.sum()
    if total == 0.0:
        return np.full(a.size, 1.0 / a.size), 0.0
    return roots / total, float(total**2)


def frag_lower_bound(ev: FormEvaluator, jets: np.ndarray,
                     tau_psd: float = 1e-8) -> float:
    """Fragmented second variation of (L, n, 1 + m) jets at the
    pointwise-optimal weights.

    Requires every per-point diagonal value nabla2_ell(u_a, u_a) to be
    non-negative up to tau_psd times its scale; small negatives are
    clipped to zero, larger ones abort.
    """
    jets = _as_jets(ev.rho, jets, ndim=3)
    diag = _diagonals(ev, jets)
    scale = max(float(np.abs(diag).max()), 1e-300)
    if (diag < -tau_psd * scale).any():
        worst = float(diag.min())
        raise NegativeDiagonalError(
            f"nabla2_ell diagonal reaches {worst:g}; base is not a "
            f"Q1-positive point")
    diag = np.maximum(diag, 0.0)
    total = jets.sum(axis=0)
    return ev.double_sum(total, total) + float(
        ev.rho.weights @ (np.sqrt(diag).sum(axis=1) ** 2))


@dataclass
class ProbeReport:
    """Fragmented-variation sweep around a base measure."""

    base_action: float
    min_delta: float
    max_fit_deviation: float
    rows: list[tuple[int, float, float]] = field(default_factory=list)
    fits: list[tuple[int, float, float]] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "base_action": self.base_action,
            "min_delta": self.min_delta,
            "max_fit_deviation": self.max_fit_deviation,
            "fits": [{"trial": t, "fitted": f, "predicted": p}
                     for t, f, p in self.fits],
        }

    def write_csv(self, path: str | Path) -> None:
        with Path(path).open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["trial", "tau", "delta_action"])
            for trial, tau, ds in self.rows:
                writer.writerow([trial, repr(float(tau)), repr(float(ds))])


def sample_scheme(rho: DiscreteMeasure, fragments: int,
                  rng: np.random.Generator,
                  jet_scale: float = 1.0) -> FragmentationScheme:
    """Random volume-preserving scheme with up to `fragments` fragments."""
    n, m = rho.count, rho.manifold.dim
    count = int(rng.integers(1, fragments + 1))
    c = rng.dirichlet(np.ones(count), size=n)
    # per fragment: n scalars, then the n x m vectors
    draws = jet_scale * rng.normal(size=(count, n * (1 + m)))
    jets = np.concatenate(
        [draws[:, :n, None], draws[:, n:].reshape(count, n, m)], axis=2)
    return FragmentationScheme.volume_preserved(rho, c, jets)


def stability_probe(ev: FormEvaluator, fragments: int, tau_grid, trials: int,
                    seed: int, jet_scale: float = 1.0) -> ProbeReport:
    """Evaluate the true action difference along random fragmented curves.

    For each sampled scheme around the evaluator's measure, records
    S(deformed) - S(base) on the tau grid and compares the least-squares
    quadratic coefficient with the analytic fragmented second variation.
    """
    rho = ev.rho
    taus = np.asarray(list(tau_grid), dtype=float)
    w = rho.weights
    base_action = float(w @ ev.tables.L @ w)
    rng = np.random.default_rng(seed)
    report = ProbeReport(base_action=base_action, min_delta=np.inf,
                         max_fit_deviation=0.0)
    for trial in range(trials):
        scheme = sample_scheme(rho, fragments, rng, jet_scale)
        deltas = deformed_actions(ev, scheme, taus) - base_action
        for t, ds in zip(taus, deltas):
            report.rows.append((trial, float(t), float(ds)))
        report.min_delta = min(report.min_delta, float(deltas.min()))
        t2 = taus**2
        fitted = float((deltas @ t2) / (t2 @ t2))
        predicted = frag_second_variation(ev, scheme)
        report.fits.append((trial, fitted, predicted))
        if predicted != 0.0:
            report.max_fit_deviation = max(
                report.max_fit_deviation, abs(fitted - predicted) / abs(predicted))
    return report
