"""Linearized field equations and surface-layer integrals.

A jet field solves the linearized field equations when, at every support
point, both the scalar bracket

    <u, D ell>(x_i) = sum_j w_j [ (a_i + a_j) L_ij + (u_i - u_j).grad1 L_ij ]
                      - a_i * nu / 2

and its chart gradient vanish.  The surface-layer integral of a solution
over a region Omega couples only the pairs straddling the boundary:

    osi(Omega) = - sum_{i in Omega} sum_{j not in Omega}
                     w_i w_j  D1_{u_i} D2_{u_j} L(x_i, x_j).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError, SchemaError
from .jets import FORM_SP1, FormEvaluator, JetField, jet_pair_block
from .kernels import RadialKernel, pair_tables
from .measure import DiscreteMeasure


@dataclass(frozen=True)
class RegionMask:
    """A subset of support points, as a boolean mask with a label."""

    inside: np.ndarray
    label: str = ""

    def __post_init__(self):
        mask = np.asarray(self.inside, dtype=bool).ravel()
        mask.setflags(write=False)
        object.__setattr__(self, "inside", mask)

    @classmethod
    def from_indices(cls, count: int, indices, label: str = "") -> "RegionMask":
        mask = np.zeros(count, dtype=bool)
        mask[np.asarray(indices, dtype=int)] = True
        return cls(inside=mask, label=label)

    @property
    def size(self) -> int:
        return int(self.inside.sum())

    def complement(self) -> "RegionMask":
        return RegionMask(inside=~self.inside, label=f"complement({self.label})")


class LinearizedOperator:
    """Matrix of the linearized field equations over the unit-jet basis.

    The equations are the Euler-Lagrange equations of sp1, so the matrix
    is W^-1 SP1: the SP1 Gram of `evaluator`, each row divided by the
    weight of its point.  Row
    blocks follow the point-major [scalar, e_1, ..., e_m] ordering of the
    jet coefficients, so `matrix @ jf.stacked()` gives the stacked
    bracket values and bracket gradients.
    """

    def __init__(self, evaluator: FormEvaluator):
        self.evaluator = evaluator
        self.rho = evaluator.rho
        row_weights = np.repeat(self.rho.weights, 1 + self.rho.manifold.dim)
        self.matrix = evaluator.form_matrix(FORM_SP1)  # a new array: divide in place
        self.matrix /= row_weights[:, None]

    def apply(self, jf: JetField) -> np.ndarray:
        if jf.count != self.rho.count or jf.dim != self.rho.manifold.dim:
            raise DimensionMismatchError("jet field does not match the operator")
        return self.matrix @ jf.stacked()

    def residual(self, jf: JetField) -> float:
        """Max-norm of the stacked bracket values and gradients."""
        return float(np.abs(self.apply(jf)).max())


def assemble_linfield(ev: FormEvaluator) -> LinearizedOperator:
    return LinearizedOperator(ev)


@dataclass(frozen=True)
class LinfieldSolution:
    """Numerical kernel of the linearized operator."""

    solutions: tuple[JetField, ...]
    eigenvalues: np.ndarray  # of the symmetrized SP1 Gram, ascending
    threshold: float
    residuals: tuple[float, ...]

    @property
    def dimension(self) -> int:
        return len(self.solutions)

    def to_dict(self) -> dict:
        return {
            "dimension": self.dimension,
            "eigenvalues": self.eigenvalues.tolist(),
            "threshold": self.threshold,
            "residuals": list(self.residuals),
            "solutions": [jf.to_dict() for jf in self.solutions],
        }


def solve_linfield(op: LinearizedOperator,
                   threshold_rel: float = 1e-10) -> LinfieldSolution:
    """Kernel of the linearized operator from the SP1 eigendecomposition.

    W is positive and diagonal, so ker(W^-1 SP1) = ker(SP1): the
    evaluator's SP1 eigenvectors with |lambda| <= threshold_rel *
    max |lambda| span the returned solution space (orthonormal in
    coefficient space).
    """
    if not 0.0 <= threshold_rel < 1.0:
        raise SchemaError("kernel threshold must lie in [0, 1)")
    _, eigenvalues, eigenvectors = op.evaluator.sp1_eigh
    magnitude = np.abs(eigenvalues)
    cut = threshold_rel * magnitude.max()
    dim = op.rho.manifold.dim
    solutions = tuple(JetField.from_stacked(column, dim)
                      for column in eigenvectors[:, magnitude <= cut].T)
    residuals = tuple(op.residual(jf) for jf in solutions)
    return LinfieldSolution(solutions=solutions, eigenvalues=eigenvalues,
                            threshold=float(cut), residuals=residuals)


def _region_osi(block: np.ndarray, regions: list[RegionMask],
                jf: JetField) -> np.ndarray:
    """Surface-layer integrals of one jet over a family of regions.

    The boundary-pair matrix P_ij = w_i w_j D1_{u_i} D2_{u_j} L(x_i, x_j)
    is the jet-pair block contracted with the jet at both ends; each
    region is the masked sum of P over inside rows and outside columns.
    """
    n, dim = block.shape[0], block.shape[1] - 1
    if any(r.inside.size != n for r in regions):
        raise DimensionMismatchError("region mask does not match the measure")
    if jf.count != n or jf.dim != dim:
        raise DimensionMismatchError("jet field does not match the measure")
    c = jf.stacked().reshape(n, 1 + dim)
    pair = np.einsum("ia,iajb,jb->ij", c, block, c)
    mask = np.array([r.inside for r in regions], dtype=float)
    inside_rows = mask @ pair
    outside = np.subtract(1.0, mask, out=mask)  # reuses the mask buffer
    return -np.einsum("rj,rj->r", inside_rows, outside)


def surface_layer_integral(rho: DiscreteMeasure, kernel: RadialKernel,
                           region: RegionMask, jf: JetField) -> float:
    """Boundary-pair double sum of the jet-differentiated kernel over Omega."""
    block = jet_pair_block(pair_tables(kernel, rho.manifold, rho.points),
                           rho.weights)
    return float(_region_osi(block, [region], jf)[0])


def arc_regions(rho: DiscreteMeasure, axis: int = 0) -> list[RegionMask]:
    """All proper contiguous arcs in the sorted order along one chart axis.

    Intended for one-dimensional supports, where arcs exhaust the
    connected regions up to cyclic relabeling.  Arc (start, length)
    holds the points of rank start, ..., start + length - 1 (mod n).
    """
    n = rho.count
    rank = np.argsort(np.argsort(rho.points[:, axis]))
    start = np.repeat(np.arange(n), n - 1)
    length = np.tile(np.arange(1, n), n)
    inside = (rank[None, :] - start[:, None]) % n < length[:, None]
    return [RegionMask(inside=mask, label=f"arc(start={s}, length={k})")
            for mask, s, k in zip(inside, start.tolist(), length.tolist())]


def random_regions(rho: DiscreteMeasure, count: int, seed: int) -> list[RegionMask]:
    """Seeded random proper subsets (never empty, never everything)."""
    if rho.count < 2:
        raise SchemaError("random regions need at least two points")
    rng = np.random.default_rng(seed)
    regions = []
    for k in range(count):
        size = int(rng.integers(1, rho.count))
        idx = rng.choice(rho.count, size=size, replace=False)
        regions.append(RegionMask.from_indices(rho.count, idx,
                                               label=f"random(seed_draw={k})"))
    return regions


@dataclass
class OSIReport:
    """Surface-layer integral values over a family of regions."""

    values: list[tuple[str, float]] = field(default_factory=list)
    min_value: float = np.inf
    min_region: str = ""
    residual: float = np.nan        # linearized-equation residual of the jet
    solution_hypothesis: bool = False  # residual small enough to claim positivity

    @property
    def all_positive(self) -> bool:
        return self.min_value > 0.0

    def to_dict(self) -> dict:
        return {
            "osi": [v for _, v in self.values],   # in the order of the regions
            "min_value": self.min_value,
            "min_region": self.min_region,
            "residual": self.residual,
            "solution_hypothesis": self.solution_hypothesis,
            "all_positive": self.all_positive,
        }


def osi_report(op: LinearizedOperator, jf: JetField, regions: list[RegionMask],
               residual_tolerance: float = 1e-6) -> OSIReport:
    """Evaluate the surface-layer integral of one jet over many regions.

    Positivity is only expected when the jet solves the linearized field
    equations of `op`; the report records the residual and whether it is
    below the stated tolerance, without enforcing anything.
    """
    if not regions:
        raise SchemaError("need at least one region")
    residual = op.residual(jf)
    report = OSIReport(residual=residual,
                       solution_hypothesis=bool(residual <= residual_tolerance))
    values = _region_osi(op.evaluator.block, regions, jf)
    report.values = [(r.label, float(v)) for r, v in zip(regions, values)]
    k = int(np.argmin(values))
    report.min_value, report.min_region = float(values[k]), regions[k].label
    return report
