"""Fragmented variations, their finite-difference oracle and second variations.

A variation splits point i into L fragments with weight shares c_ia and
moves fragment a along the straight chart line x_i + tau*u_ia, its weight
rescaled by 1 + tau*a_ia.  A scheme is a pair of arrays: the (L, n)
fragment weights c, whose columns sum to one, and the (L, n, 1 + m)
fragment jets u, L jet fields of `cvplab.jets`.  A stack of T schemes is
(T, L, n) weights and (T, L, n, 1 + m) jets.  An unfragmented curve is the
one-fragment scheme, c = np.ones((1, n)): its second-order terms in (f, F)
vanish, so its analytic second variation is exactly the sp1 form of its
jet field.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .action import action
from .errors import NegativeDiagonalError, SchemaError, WeightPositivityError
from .jets import FormEvaluator, _as_jets, nonnegative
from .kernels import RadialKernel, _squared_norms
from .measure import DiscreteMeasure


def _as_scheme(rho: DiscreteMeasure, c, u) -> tuple[np.ndarray, np.ndarray]:
    """c and u as C-ordered float arrays of one scheme, (L, n) and
    (L, n, 1 + m), or of a stack of them, on rho."""
    c = np.atleast_2d(np.ascontiguousarray(c, dtype=float))
    u = np.ascontiguousarray(u, dtype=float)
    if (c < 0).any():
        raise SchemaError("fragment weights must be non-negative")
    if not np.abs(c.sum(axis=-2) - 1.0).max(initial=0.0) <= 1e-12:
        raise SchemaError("fragment weights must sum to one at every point")
    if u.shape[:-1] != c.shape or u.shape[-1] < 2:
        raise SchemaError(f"jets of shape {u.shape} do not fit weights of "
                          f"shape {c.shape}: need (L, n, 1 + m)")
    if not np.isfinite(u).all():
        raise SchemaError("fragment jets must be finite")
    return c, _as_jets(rho, u)


def _volume_change(rho: DiscreteMeasure, c: np.ndarray, u: np.ndarray):
    """First-order volume change sum_ia w_i c_ia a_ia of each scheme."""
    return ((c * u[..., 0]) @ rho.weights).sum(axis=-1)


def volume_preserved(rho: DiscreteMeasure, c, u) -> tuple[np.ndarray, np.ndarray]:
    """One scheme or a stack, each with all its fragment scalars shifted by
    one constant that zeroes its first-order volume change."""
    c, u = _as_scheme(rho, c, u)
    u = u.copy()
    u[..., 0] -= _volume_change(rho, c, u)[..., None, None] / rho.total_volume
    return _as_scheme(rho, c, u)   # checks the shift


def fragment_deform(rho: DiscreteMeasure, c, u, tau: float) -> DiscreteMeasure:
    """Split each point into the fragments of one scheme, transported and
    reweighted.

    Fragment a of point i sits at x_i + tau*u_ia with weight
    w_i c_ia (1 + tau*a_ia); the fragments are listed fragment by
    fragment.  At tau = 0 the coincident fragments merge back to the base
    support.  Fragments with zero weight carry no point.  The tier-1 oracle
    of `deformed_actions`, which calls it only for an invalid trial's error.
    """
    c, jets = _as_scheme(rho, c, u)
    if tau == 0.0:
        return rho
    frag, point = np.nonzero(c > 0.0)
    moved = jets[frag, point]
    factors = 1.0 + tau * moved[:, 0]
    bad = np.flatnonzero(factors <= 0.0)
    if bad.size:
        i = int(point[bad[0]])
        raise WeightPositivityError(
            f"fragment {frag[bad[0]]} weight factor 1 + tau*a is non-positive "
            f"at point {i} (tau={tau:g})", point_index=i)
    return rho.replace(
        points=rho.points[point] + tau * moved[:, 1:],
        weights=rho.weights[point] * c[frag, point] * factors)


_EVALUATIONS_PER_CHUNK = 2048    # (trial, pair, tau) kernel evaluations


def deformed_actions(ev: FormEvaluator, c, u, taus) -> np.ndarray:
    """action(fragment_deform(ev.rho, c, u, tau), ev.kernel) for each tau,
    as a (len(taus),) array for one scheme or (T, len(taus)) for a stack.

    A fragment of point i moves at most reach_i = max|tau| max_a |u_ia|,
    so a fragment pair whose base points lie cutoff + reach_i + reach_j or
    more apart stays beyond the cutoff, where the profile is exactly +0.0,
    and is skipped; a kernel without a cutoff keeps every pair.  Each
    unordered pair is evaluated once and counted twice, in chunks of at
    most _EVALUATIONS_PER_CHUNK evaluations.  Zero-weight fragments add
    nothing.  Raises what a trial-by-trial loop over the dense path
    raises, at the same first trial, tau and fragment.
    """
    rho, kernel = ev.rho, ev.kernel
    c, jets = _as_scheme(rho, c, u)
    stack = c.shape[:-2]
    c, jets = c.reshape((-1,) + c.shape[-2:]), jets.reshape((-1,) + jets.shape[-3:])
    taus = np.asarray(taus, dtype=float)
    live = c > 0.0
    jets = np.where(live[..., None], jets, 0.0)    # dead slots stay at x_i
    points = rho.points + taus[:, None, None, None] * jets[:, None, :, :, 1:]
    masses = rho.weights * c[:, None] * (     # (T, k, L, n); w c > 0 if live
        1.0 + taus[:, None, None] * jets[:, None, :, :, 0])
    checked = live[:, None] & (taus != 0.0)[:, None, None]   # as fragment_deform
    if not (np.isfinite(points).all() and np.isfinite(masses).all()
            and (masses > 0.0)[checked].all()):
        # raise where a trial-by-trial loop over the dense path would
        for t, k in zip(*np.nonzero(checked.any(axis=(2, 3)))):
            fragment_deform(rho, c[t], jets[t], taus[k])

    reach = np.abs(taus).max(initial=0.0) * np.sqrt(
        _squared_norms(jets[..., 1:])).max(axis=(0, 1), initial=0.0)
    cutoff = np.inf if kernel.cutoff is None else kernel.cutoff
    # far above the rounding of the moved points and their squared distances
    slack = 1e-9 * (1.0 + cutoff + reach.max() + np.abs(rho.points).max())
    near = np.sqrt(ev.tables.s) < cutoff + reach[:, None] + reach + slack
    i, j = np.nonzero(np.triu(near))
    # schemes that use their first L slots share one list of slot pairs
    used = c.shape[1] - np.argmax(live.any(axis=2)[:, ::-1], axis=1)
    total = np.zeros((len(c), taus.size))
    for frags in sorted(set(used.tolist())):  # np.unique first imports 1.6 MB
        group = np.flatnonzero(used == frags)
        # slots (a, i) and (b, j); two slots of one point once, a <= b
        pair, a, b = np.nonzero((i < j)[:, None, None]
                                | np.tri(frags, dtype=bool).T)
        p, q = a * rho.count + i[pair], b * rho.count + j[pair]
        twice = np.where(p == q, 1.0, 2.0)
        # a chunk: `block` schemes times `span` of the pairs
        span = max(1, min(p.size, _EVALUATIONS_PER_CHUNK // max(1, taus.size)))
        block = max(1, _EVALUATIONS_PER_CHUNK // max(1, taus.size * span))
        for t in range(0, group.size, block):
            rows = group[t:t + block]
            x = points[rows, :, :frags].reshape(
                rows.size, taus.size, frags * rho.count, points.shape[-1])
            w = masses[rows, :, :frags].reshape(x.shape[:3])
            for start in range(0, p.size, span):
                ps, qs = p[start:start + span], q[start:start + span]
                d = rho.manifold.displacement(np.take(x, ps, axis=2),
                                              np.take(x, qs, axis=2))
                total[rows] += (
                    np.take(w, ps, axis=2) * np.take(w, qs, axis=2)
                    * kernel.profile(_squared_norms(d))) @ twice[start:start + span]
    # at tau = 0 the deformed measure is rho itself
    total[:, taus == 0.0] = rho.weights @ ev.tables.L @ rho.weights
    return total.reshape(stack + taus.shape)


def second_variation_fd(rho: DiscreteMeasure, kernel: RadialKernel, c, u,
                        tau_step: float) -> float:
    """Richardson-extrapolated centered second difference of the action
    along fragment_deform of one scheme.

    Returns half the extrapolated second derivative, matching the
    convention of the analytic formula.  The scheme must preserve the
    volume to first order.  The tier-1 oracle of the analytic second variation.
    """
    c, u = _as_scheme(rho, c, u)
    defect = float(_volume_change(rho, c, u))
    if abs(defect) > 1e-10 * max(1.0, rho.total_volume):
        raise SchemaError("finite-difference oracle needs a volume-preserving "
                          f"scheme, but its defect is {defect:g}")
    s0 = action(rho, kernel)

    def stencil(h):
        return (action(fragment_deform(rho, c, u, h), kernel) - 2.0 * s0
                + action(fragment_deform(rho, c, u, -h), kernel)) / h**2

    d_h = stencil(tau_step)
    d_h2 = stencil(tau_step / 2.0)
    return 0.5 * (4.0 * d_h2 - d_h) / 3.0


def frag_second_variation(ev: FormEvaluator, c, u) -> float | np.ndarray:
    """Half the second variation of a fragmented curve (weights inside), as
    a float for one scheme or a (T,) array for a stack.

    Double-sum term over the c-averaged jet (exact by bilinearity) plus
    the c-weighted diagonal Hessian-of-ell term.
    """
    c, u = _as_scheme(ev.rho, c, u)
    average = (c[..., None] * u).sum(axis=-3)
    return (ev.double_sum(average, average)
            + (c * ev.q1_terms(u, u)).sum(axis=-2) @ ev.rho.weights)


def frag_second_variation_rescaled(ev: FormEvaluator, jets: np.ndarray,
                                   weights: np.ndarray) -> float:
    """The transformed fragmented second variation over (L, n, 1 + m) jets
    and (L, n) weights: weights only divide the diagonal term (with
    0/0 := 0)."""
    jets = _as_jets(ev.rho, jets, ndim=3)
    diag = ev.q1_terms(jets, jets)
    c = np.atleast_2d(np.asarray(weights, dtype=float))
    live = c > 0
    scale = np.maximum(np.abs(diag).max(axis=1, keepdims=True), 1.0)
    bad = np.flatnonzero((np.where(live, 0.0, np.abs(diag))
                          > 1e-12 * scale).any(axis=1))
    if bad.size:
        raise SchemaError(
            f"fragment {bad[0]} has zero weight but non-zero diagonal term")
    ratio = np.divide(diag, c, out=np.zeros(diag.shape), where=live)
    total = jets.sum(axis=0)
    return ev.double_sum(total, total) + float((ratio @ ev.rho.weights).sum())


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


def frag_lower_bound(ev: FormEvaluator, jets: np.ndarray) -> float:
    """Fragmented second variation of (L, n, 1 + m) jets at the
    pointwise-optimal weights.

    Requires every per-point diagonal value `ev.q1_terms(u_a, u_a)` to be
    non-negative by the positivity rule of `jets.nonnegative`; small
    negatives are clipped to zero, larger ones abort.
    """
    jets = _as_jets(ev.rho, jets, ndim=3)
    diag = ev.q1_terms(jets, jets)
    worst = float(diag.min())
    if not nonnegative(worst, float(np.abs(diag).max())):
        raise NegativeDiagonalError(
            f"q1 diagonal term reaches {worst:g}; base is not a "
            f"Q1-positive point")
    diag = np.maximum(diag, 0.0)
    total = jets.sum(axis=0)
    return ev.double_sum(total, total) + float(
        ev.rho.weights @ (np.sqrt(diag).sum(axis=0) ** 2))


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


def _draw_trials(rho: DiscreteMeasure, fragments: int, trials: int,
                 rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """(T, fragments, n) weights and (T, fragments, n, 1 + m) jets of T random
    schemes before the volume shift, padded with zero-weight fragments."""
    n, m = rho.count, rho.manifold.dim
    c = np.zeros((trials, fragments, n))
    draws = np.zeros((trials, fragments, n * (1 + m)))
    for t in range(trials):
        count = int(rng.integers(1, fragments + 1))
        c[t, :count] = rng.dirichlet(np.ones(count), size=n).T
        # per fragment: n scalars, then the n x m vectors
        draws[t, :count] = rng.normal(size=(count, n * (1 + m)))
    vectors = draws[..., n:].reshape(trials, fragments, n, m)
    return c, np.concatenate([draws[..., :n, None], vectors], axis=3)


def sample_scheme(rho: DiscreteMeasure, fragments: int,
                  rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Weights and jets of a random volume-preserving scheme with up to
    `fragments` fragments: one trial of _draw_trials, without its padding."""
    c, jets = _draw_trials(rho, fragments, 1, rng)
    count = int(c[0].any(axis=1).sum())   # drawn weights are positive
    return volume_preserved(rho, c[0, :count], jets[0, :count])


def stability_probe(ev: FormEvaluator, fragments: int, tau_grid, trials: int,
                    seed: int) -> ProbeReport:
    """Evaluate the true action difference along random fragmented curves.

    Draws every trial's scheme as sample_scheme does, then records
    S(deformed) - S(base) on the tau grid and compares each trial's
    least-squares quadratic coefficient with its analytic fragmented
    second variation, for all trials in one batched pass.
    """
    rho = ev.rho
    taus = np.asarray(list(tau_grid), dtype=float)
    c, u = _draw_trials(rho, fragments, trials, np.random.default_rng(seed))
    schemes = volume_preserved(rho, c, u)
    base_action = float(rho.weights @ ev.tables.L @ rho.weights)
    deltas = deformed_actions(ev, *schemes, taus) - base_action
    t2 = taus**2
    fitted = (deltas @ t2) / (t2 @ t2)
    predicted = frag_second_variation(ev, *schemes)
    nonzero = predicted != 0.0
    deviation = np.abs(fitted - predicted)[nonzero] / np.abs(predicted[nonzero])
    return ProbeReport(
        base_action=base_action,
        min_delta=float(deltas.min(initial=np.inf)),
        max_fit_deviation=float(np.fmax.reduce(deviation, initial=0.0)),
        rows=list(zip(np.repeat(np.arange(trials), taus.size).tolist(),
                      np.tile(taus, trials).tolist(), deltas.ravel().tolist())),
        fits=list(zip(range(trials), fitted.tolist(), predicted.tolist())))
