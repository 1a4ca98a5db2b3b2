"""Projected gradient descent for the action under the volume constraint."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .errors import (InfeasibleProjectionError, NonFiniteIterateError,
                     SchemaError, known_fields, number)
from .jets import action_hessian, weak_residual
from .kernels import RadialKernel, pair_tables
from .measure import DiscreteMeasure

NEWTON_RESIDUAL = 0.1    # weak residual from which Newton steps are tried
NEWTON_HALVINGS = 8      # backtracking halvings of a Newton step
NEWTON_CUTOFF = 1e-9     # pseudo-inverse cutoff, relative to max |eigenvalue|
PRUNE_AFTER = 5          # consecutive iterations at the floor before pruning
BB_STEP_MIN = 1e-10      # clip of a Barzilai-Borwein trial step
BB_STEP_MAX = 1e10
STEP_INITIAL = 0.05      # first gradient trial of a run
ARMIJO_SLOPE = 1e-4      # sufficient-decrease constant of both searches
MAX_BACKTRACKS = 80      # gradient trials of one search before a stall
WEIGHT_FLOOR_REL = 1e-8  # weight floor as a fraction of the mean weight


@dataclass(frozen=True)
class OptimizerConfig:
    """What a run must reach, and how often `trace.csv` records a row."""

    max_iterations: int = 100_000
    tolerance_weak_el: float = 1e-6
    trace_period: int = 50

    def __post_init__(self):
        for f in fields(self):
            # a field with an integer default takes integers, the rest numbers
            object.__setattr__(self, f.name, number(
                getattr(self, f.name), f"optimizer {f.name}",
                integer=isinstance(f.default, int), above=0))

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "OptimizerConfig":
        known_fields(data, cls.__dataclass_fields__, "optimizer config")
        return cls(**data)


@dataclass
class OptimizerTrace:
    """Per-iteration rows: (iteration, action, weak EL residual, step size).

    The step is the last accepted gradient step, which a Newton iteration
    leaves as it is.  `trials` counts the pair tables built for gradient
    and Newton trials.  Atoms are named by their index in the start
    measure: those pruned at the floor, in pruning order, those merged
    into an earlier atom on return, and those at the floor at the end.
    """

    rows: list[tuple[int, float, float, float]] = field(default_factory=list)
    status: str = "running"       # "converged" | "stalled" | "budget-exhausted"
    newton_steps: int = 0
    pruned_points: list[int] = field(default_factory=list)
    merged_points: list[int] = field(default_factory=list)
    floored_points: list[int] = field(default_factory=list)
    trials: int = 0

    def to_dict(self) -> dict:
        """The stop status and the counters, without the rows."""
        return {"status": self.status, "iterations": self.rows[-1][0],
                "newton_steps": self.newton_steps, "trials": self.trials,
                "pruned_points": self.pruned_points,
                "merged_points": self.merged_points,
                "floored_points": self.floored_points}


def project_volume(weights: np.ndarray, target_volume: float,
                   weight_floor: float = 0.0) -> np.ndarray:
    """Euclidean projection onto {w >= floor, sum w = target_volume}.

    KKT form w*_i = max(floor, w_i + lam); the multiplier is found exactly
    by scanning the clip count over the sorted weights.  A target that is
    not finite and positive, a non-finite weight, or weights whose
    magnitudes sum beyond float range, is rejected.
    """
    w = np.asarray(weights, dtype=float)
    n = w.size
    number(target_volume, "target volume", above=0)
    # summed as Python floats, which overflow to inf without a warning
    if not math.isfinite(sum(np.abs(w).tolist())):
        raise SchemaError("weights must be finite, with a finite sum")
    if n * weight_floor > target_volume:
        raise InfeasibleProjectionError(
            f"{n} weights with floor {weight_floor} cannot sum to {target_volume}")
    order = np.sort(w)
    csum = np.cumsum(order)
    total = csum[-1]
    for k in range(n):  # k smallest entries clipped to the floor
        free = n - k
        lam = (target_volume - k * weight_floor
               - (total - (csum[k - 1] if k else 0.0))) / free
        clip_ok = k == 0 or order[k - 1] + lam <= weight_floor + 1e-15
        free_ok = order[k] + lam >= weight_floor - 1e-15
        if clip_ok and free_ok:
            return np.maximum(weight_floor, w + lam)
    return np.full(n, target_volume / n)  # unreachable for consistent input


def _gradients(tables, weights, rows=None):
    rows = tables.L @ weights if rows is None else rows   # the caller's, if any
    grad_ell = np.einsum("ija,j->ia", tables.G, weights)
    # dS/dx_i = 2 w_i sum_j w_j grad1 L(x_i, x_j); dS/dw_i = 2 row_sum_i
    gx = 2.0 * weights[:, None] * grad_ell
    return (float(weights @ rows), gx, 2.0 * rows,
            weak_residual(rows - rows.min(), grad_ell))


def _newton_direction(tables, weights, gx, gw):
    """Newton direction (n, 1+m) in the unit-jet coordinates (a_i, u_i).

    The Hessian (`action_hessian`) is restricted to the volume constraint
    sum_i w_i a_i = 0 and pseudo-inverted over its eigenvalues above
    NEWTON_CUTOFF * max |lambda|, so that degenerate minimizer families
    and negative curvature are left out and the direction descends.
    Returns the direction and its slope, the gradient's dot product with it.
    """
    n, m = gx.shape
    grad = np.hstack([(weights * gw)[:, None], gx]).ravel()
    normal = np.zeros((n, 1 + m))
    normal[:, 0] = weights / np.linalg.norm(weights)
    proj = np.eye(n * (1 + m)) - np.outer(normal, normal)
    eigenvalues, eigenvectors = np.linalg.eigh(
        proj @ action_hessian(tables, weights) @ proj)
    kept = eigenvalues > NEWTON_CUTOFF * np.abs(eigenvalues).max()
    basis = eigenvectors[:, kept]  # orthogonal to the normal
    direction = -(basis @ ((basis.T @ grad) / eigenvalues[kept]))
    return direction.reshape(n, 1 + m), float(grad @ direction)


def _merge(tables, w):
    """Merge each atom into the first earlier kept atom i that the kernel
    cannot tell it from, L[i, j] == L[i, i]: their distance rounds away in
    the profile.  The weights add up and atom i keeps its position.
    Returns the mask of the kept atoms and their weights."""
    close = np.triu(tables.L == np.diag(tables.L)[:, None], 1)
    into = np.arange(len(w))
    for j in np.flatnonzero(close.any(axis=0)):
        kept = np.flatnonzero(close[:j, j] & (into[:j] == np.arange(j)))
        into[j] = kept[0] if kept.size else j
    kept = into == np.arange(len(w))
    return kept, np.bincount(into, weights=w, minlength=len(w))[kept]


def minimize(rho0: DiscreteMeasure, kernel: RadialKernel,
             config: OptimizerConfig) -> tuple[DiscreteMeasure, OptimizerTrace]:
    """Minimize the action over positions and weights at fixed total volume.

    Spectral projected gradient over the stacked variable with Armijo
    backtracking; the sufficient-decrease test uses the projected
    displacement, so it remains meaningful on the weight simplex.  The
    first trial of a gradient step is the Barzilai-Borwein step of the last
    accepted change s = (dx, dw), y = (dgx, dgw): the long step <s,s>/<s,y>
    on odd iterations and the short step <s,y>/<y,y> on even ones (the ABB
    rule), clipped to [BB_STEP_MIN, BB_STEP_MAX].  On the first iteration,
    right after pruning and when <s,y> <= 0 (s = 0 included) it is the last
    accepted gradient step doubled instead, or STEP_INITIAL before any;
    each rejected trial halves it.  Once the weak residual is at most
    NEWTON_RESIDUAL, each iteration first tries a safeguarded Newton step
    (`_newton_direction`, at most NEWTON_HALVINGS halvings from the full
    step), kept only if it satisfies Armijo on its slope and at least
    halves the weak residual; after a rejected trial the next waits until
    the residual has halved.  An atom that ends PRUNE_AFTER consecutive
    iterations at the weight floor is dropped and the weights are projected
    back onto the volume.  The weight floor is WEIGHT_FLOOR_REL times the
    mean weight, and both searches test sufficient decrease with
    ARMIJO_SLOPE, so accepted steps never increase the action.

    The run stops as stalled when a gradient step finds no decrease in
    MAX_BACKTRACKS trials, or when an iteration ends in exactly the state
    one of the two iterations before it ended in: x, w, the next first
    trial, the fallback step, the Newton threshold and the floor counts are
    everything the next iteration reads, so from there on the run would
    cycle forever.

    On return, atoms that the kernel cannot tell apart are merged
    (`_merge`); the trace rows belong to the last iterate before that.
    """
    manifold = rho0.manifold
    x = rho0.points.copy()
    w = rho0.weights.copy()
    volume = rho0.total_volume
    floor = WEIGHT_FLOOR_REL * volume / rho0.count
    trace = OptimizerTrace()
    step = STEP_INITIAL
    tables = pair_tables(kernel, manifold, x)
    act, gx, gw, residual = _gradients(tables, w)
    trace.rows.append((0, act, residual, step))
    start_index = np.arange(rho0.count)  # each atom's index in the start

    def evaluate(xn, wn):
        """The pair tables, row sums and action of one trial (xn, wn)."""
        trial = pair_tables(kernel, manifold, xn)
        trace.trials += 1
        rows = trial.L @ wn
        return trial, rows, float(wn @ rows)

    at_floor = floor * (1 + 1e-12)
    floored_for = np.zeros(rho0.count, dtype=int)
    newton_below = NEWTON_RESIDUAL
    fallback = step   # the first gradient trial without a secant pair
    first = step      # the next iteration's first gradient trial
    # the states the last two iterations ended in (the start, before any)
    seen = [(x.tobytes(), w.tobytes(), first, fallback, newton_below,
             floored_for.tobytes())]
    it = 0
    if residual <= config.tolerance_weak_el:
        trace.status = "converged"   # at the start: no iteration runs
    else:
        for it in range(1, config.max_iterations + 1):
            if not (np.isfinite(act) and np.isfinite(gx).all() and np.isfinite(gw).all()):
                raise NonFiniteIterateError(
                    f"non-finite action or gradient at iteration {it}",
                    iteration=it, points=x, weights=w)
            accepted = None  # _gradients of the accepted trial (xn, wn)
            if residual <= newton_below:
                direction, slope = _newton_direction(tables, w, gx, gw)
                t = 1.0
                for _ in range(NEWTON_HALVINGS + 1):
                    xn = x + t * direction[:, 1:]
                    wn = project_volume(w * (1.0 + t * direction[:, 0]), volume, floor)
                    trial, rows, trial_act = evaluate(xn, wn)
                    if trial_act <= act + ARMIJO_SLOPE * t * slope:
                        accepted = _gradients(trial, wn, rows)
                        if accepted[3] <= residual / 2:
                            break
                        accepted = None
                    t *= 0.5
                if accepted is None:
                    newton_below = residual / 2  # try again once it has halved
                else:
                    trace.newton_steps += 1
            if accepted is None:
                trial_step = first
                for _ in range(MAX_BACKTRACKS):
                    xn = x - trial_step * gx
                    wn = project_volume(w - trial_step * gw, volume, floor)
                    trial, rows, trial_act = evaluate(xn, wn)
                    moved = float(((xn - x) ** 2).sum() + ((wn - w) ** 2).sum())
                    if trial_act <= act - ARMIJO_SLOPE / trial_step * moved:
                        accepted = _gradients(trial, wn, rows)
                        break
                    trial_step *= 0.5
                if accepted is None:
                    trace.status = "stalled"
                    break
                step = trial_step
                fallback = step * 2.0
            sx, sw = xn - x, wn - w   # the secant pair s, y of the accepted change
            yx, yw = accepted[1] - gx, accepted[2] - gw
            ss = float((sx * sx).sum() + sw @ sw)
            sy = float((sx * yx).sum() + sw @ yw)
            yy = float((yx * yx).sum() + yw @ yw)
            x, w, tables = xn, wn, trial
            act, gx, gw, residual = accepted
            floored_for = np.where(w <= at_floor, floored_for + 1, 0)
            pruned = floored_for >= PRUNE_AFTER
            if pruned.any():
                trace.pruned_points += start_index[pruned].tolist()
                kept = ~pruned
                x, start_index, floored_for = x[kept], start_index[kept], floored_for[kept]
                w = project_volume(w[kept], volume, floor)
                tables = pair_tables(kernel, manifold, x)
                act, gx, gw, residual = _gradients(tables, w)
                sy = 0.0   # the pair spans the atoms before pruning
            if it % config.trace_period == 0:
                trace.rows.append((it, act, residual, step))
            if residual <= config.tolerance_weak_el:
                trace.status = "converged"
                break
            # the ABB rule: the long step on odd iterations, the short on even ones
            first = (min(max(ss / sy if it % 2 == 0 else sy / yy, BB_STEP_MIN), BB_STEP_MAX)
                     if sy > 0 else fallback)
            state = (x.tobytes(), w.tobytes(), first, fallback, newton_below,
                     floored_for.tobytes())
            if state in seen:
                trace.status = "stalled"
                break
            seen = [state, seen[0]]
        else:
            trace.status = "budget-exhausted"

    # act and residual belong to the last accepted (x, w)
    if not trace.rows or trace.rows[-1][0] != it:
        trace.rows.append((it, act, residual, step))
    kept, w = _merge(tables, w)
    trace.merged_points = start_index[~kept].tolist()
    trace.floored_points = start_index[kept][w <= at_floor].tolist()
    return rho0.replace(points=x[kept], weights=w), trace
