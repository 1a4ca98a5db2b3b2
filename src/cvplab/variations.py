"""Push-forward variation curves, fragmentation, and second variations.

The variation family is the linear representative: weights are rescaled
by 1 + tau*a and points transported along straight chart lines x + tau*u,
so the curve's second-order terms in (f, F) vanish and the analytic
second variation is exactly the sp1 form of the generating jet field.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .action import action
from .errors import (NegativeDiagonalError, SchemaError, WeightPositivityError)
from .jets import FormEvaluator, JetField
from .kernels import RadialKernel
from .measure import DiscreteMeasure


def volume_project_scalar(rho: DiscreteMeasure, jf: JetField) -> JetField:
    """Shift the scalar component so the first-order volume defect vanishes."""
    w = rho.weights
    shift = float(w @ jf.scalar) / float(w.sum())
    return JetField(scalar=jf.scalar - shift, vector=jf.vector)


@dataclass(frozen=True)
class VariationCurve:
    base: DiscreteMeasure
    jet: JetField
    volume_preserving: bool = False

    def __post_init__(self):
        if self.jet.count != self.base.count:
            raise SchemaError("jet field length must match the measure")
        if self.volume_preserving:
            defect = float(self.base.weights @ self.jet.scalar)
            if abs(defect) > 1e-10 * max(1.0, self.base.total_volume):
                raise SchemaError(
                    f"curve flagged volume-preserving but defect is {defect:g}")

    @classmethod
    def volume_preserved(cls, base: DiscreteMeasure, jf: JetField) -> "VariationCurve":
        return cls(base=base, jet=volume_project_scalar(base, jf),
                   volume_preserving=True)


def deform(curve: VariationCurve, tau: float) -> DiscreteMeasure:
    """Measure at parameter tau: points x + tau*u, weights w(1 + tau*a)."""
    base = curve.base
    if tau == 0.0:
        return base
    factors = 1.0 + tau * curve.jet.scalar
    bad = np.flatnonzero(factors <= 0.0)
    if bad.size:
        raise WeightPositivityError(
            f"weight factor 1 + tau*a is non-positive at point {bad[0]} "
            f"(tau={tau:g})", point_index=int(bad[0]))
    return base.replace(points=base.points + tau * curve.jet.vector,
                        weights=base.weights * factors)


def second_variation_fd(rho: DiscreteMeasure, kernel: RadialKernel,
                        curve: VariationCurve, tau_step: float) -> float:
    """Richardson-extrapolated centered second difference of the action.

    Returns half the extrapolated second derivative, matching the
    convention of the analytic formula.
    """
    if not curve.volume_preserving:
        raise SchemaError("finite-difference oracle needs a volume-preserving curve")
    s0 = action(rho, kernel)

    def stencil(h):
        return (action(deform(curve, h), kernel) - 2.0 * s0
                + action(deform(curve, -h), kernel)) / h**2

    d_h = stencil(tau_step)
    d_h2 = stencil(tau_step / 2.0)
    return 0.5 * (4.0 * d_h2 - d_h) / 3.0


@dataclass(frozen=True)
class FragmentationScheme:
    """Row-stochastic weight fields and one jet field per fragment."""

    weights: np.ndarray            # (n, L), rows sum to one
    jets: tuple[JetField, ...]
    volume_preserving: bool = False

    def __post_init__(self):
        c = np.atleast_2d(np.asarray(self.weights, dtype=float))
        object.__setattr__(self, "weights", c)
        object.__setattr__(self, "jets", tuple(self.jets))
        if (c < 0).any():
            raise SchemaError("fragment weights must be non-negative")
        if not np.allclose(c.sum(axis=1), 1.0, rtol=0, atol=1e-12):
            raise SchemaError("fragment weights must sum to one at every point")
        if len(self.jets) != c.shape[1]:
            raise SchemaError("need one jet field per fragment")
        for jf in self.jets:
            if jf.count != c.shape[0]:
                raise SchemaError("jet field length must match the weight rows")

    @property
    def fragment_count(self) -> int:
        return self.weights.shape[1]

    def combined_defect(self, rho: DiscreteMeasure) -> float:
        return float(sum(
            rho.weights @ (self.weights[:, a] * self.jets[a].scalar)
            for a in range(self.fragment_count)))

    def averaged_jet(self) -> JetField:
        """Pointwise c-weighted average of the fragment jets."""
        c = self.weights
        scalar = sum(c[:, a] * self.jets[a].scalar
                     for a in range(self.fragment_count))
        vector = sum(c[:, a][:, None] * self.jets[a].vector
                     for a in range(self.fragment_count))
        return JetField(scalar=scalar, vector=vector)

    @classmethod
    def volume_preserved(cls, rho: DiscreteMeasure, weights: np.ndarray,
                         jets: list[JetField]) -> "FragmentationScheme":
        """Shift all fragment scalars by a constant to zero the combined defect."""
        raw = cls(weights=weights, jets=tuple(jets))
        shift = raw.combined_defect(rho) / rho.total_volume
        fixed = tuple(JetField(scalar=jf.scalar - shift, vector=jf.vector)
                      for jf in raw.jets)
        return cls(weights=raw.weights, jets=fixed, volume_preserving=True)


def fragment_deform(scheme: FragmentationScheme, rho: DiscreteMeasure,
                    tau: float) -> DiscreteMeasure:
    """Split each point into its fragments, transported and reweighted.

    At tau = 0 the coincident fragments merge back to the base support.
    Fragments with zero weight carry no point.
    """
    if scheme.weights.shape[0] != rho.count:
        raise SchemaError("scheme size must match the measure")
    if tau == 0.0:
        return rho
    pts, ws = [], []
    for a in range(scheme.fragment_count):
        c_a = scheme.weights[:, a]
        keep = c_a > 0.0
        if not keep.any():
            continue
        jf = scheme.jets[a]
        factors = 1.0 + tau * jf.scalar[keep]
        if (factors <= 0.0).any():
            bad = int(np.flatnonzero(keep)[np.argmax(factors <= 0.0)])
            raise WeightPositivityError(
                f"fragment {a} weight factor non-positive at point {bad}",
                point_index=bad)
        pts.append(rho.points[keep] + tau * jf.vector[keep])
        ws.append(rho.weights[keep] * c_a[keep] * factors)
    return rho.replace(points=np.vstack(pts), weights=np.concatenate(ws))


def _diagonals(ev: FormEvaluator, jets) -> np.ndarray:
    """(n, L) array of nabla2_ell(i, u_a(i), u_a(i)) for each fragment jet u_a."""
    return np.column_stack([ev.q1_terms(jf, jf) for jf in jets])


def _summed_double_sum(ev: FormEvaluator, jets) -> float:
    """Kernel double sum of the summed jet field sum_a u_a with itself."""
    summed = JetField(scalar=sum(jf.scalar for jf in jets),
                      vector=sum(jf.vector for jf in jets))
    return ev.double_sum(summed, summed)


def frag_second_variation(ev: FormEvaluator, scheme: FragmentationScheme) -> float:
    """Half the second variation of a fragmented curve (weights inside).

    Double-sum term over the c-averaged jet (exact by bilinearity) plus
    the c-weighted diagonal Hessian-of-ell term.
    """
    averaged = scheme.averaged_jet()
    total = ev.double_sum(averaged, averaged)
    diag = _diagonals(ev, scheme.jets)
    return total + float(ev.rho.weights @ (scheme.weights * diag).sum(axis=1))


def frag_second_variation_rescaled(ev: FormEvaluator, jets: list[JetField],
                                   weights: np.ndarray) -> float:
    """The transformed fragmented second variation: weights only divide
    the diagonal term (with 0/0 := 0)."""
    total = _summed_double_sum(ev, jets)
    c = np.atleast_2d(np.asarray(weights, dtype=float))
    w = ev.rho.weights
    for a, diag in enumerate(_diagonals(ev, jets).T):
        ratio = np.zeros(ev.rho.count)
        live = c[:, a] > 0
        ratio[live] = diag[live] / c[live, a]
        dead_mass = np.abs(diag[~live])
        if (dead_mass > 1e-12 * max(np.abs(diag).max(), 1.0)).any():
            raise SchemaError(
                f"fragment {a} has zero weight but non-zero diagonal term")
        total += float(w @ ratio)
    return total


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


def frag_lower_bound(ev: FormEvaluator, jets: list[JetField],
                     tau_psd: float = 1e-8) -> float:
    """Fragmented second variation at the pointwise-optimal weights.

    Requires every per-point diagonal value nabla2_ell(u_a, u_a) to be
    non-negative up to tau_psd times its scale; small negatives are
    clipped to zero, larger ones abort.
    """
    diag = _diagonals(ev, jets)
    scale = max(float(np.abs(diag).max()), 1e-300)
    if (diag < -tau_psd * scale).any():
        worst = float(diag.min())
        raise NegativeDiagonalError(
            f"nabla2_ell diagonal reaches {worst:g}; base is not a "
            f"Q1-positive point")
    diag = np.maximum(diag, 0.0)
    return _summed_double_sum(ev, jets) + float(
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
    jets = [JetField(scalar=jet_scale * rng.normal(size=n),
                     vector=jet_scale * rng.normal(size=(n, m)))
            for _ in range(count)]
    return FragmentationScheme.volume_preserved(rho, c, jets)


def stability_probe(ev: FormEvaluator, fragments: int, tau_grid, trials: int,
                    seed: int, jet_scale: float = 1.0) -> ProbeReport:
    """Evaluate the true action difference along random fragmented curves.

    For each sampled scheme around the evaluator's measure, records
    S(deformed) - S(base) on the tau grid and compares the least-squares
    quadratic coefficient with the analytic fragmented second variation.
    """
    rho, kernel = ev.rho, ev.kernel
    taus = np.asarray(list(tau_grid), dtype=float)
    w = rho.weights
    base_action = float(w @ ev.tables.L @ w)
    rng = np.random.default_rng(seed)
    report = ProbeReport(base_action=base_action, min_delta=np.inf,
                         max_fit_deviation=0.0)
    for trial in range(trials):
        scheme = sample_scheme(rho, fragments, rng, jet_scale)
        deltas = np.array([
            action(fragment_deform(scheme, rho, t), kernel) - base_action
            for t in taus])
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
