"""Linearized field equations and surface-layer integrals.

A jet field solves the linearized field equations when, at every support
point, both the scalar bracket

    <u, D ell>(x_i) = sum_j w_j [ (a_i + a_j) L_ij + (u_i - u_j).grad1 L_ij ]
                      - a_i * nu / 2

and its chart gradient vanish.  These are the Euler-Lagrange equations of
sp1, so their operator over the unit jets is W^-1 SP1, read from
`FormEvaluator.sp1_gram`.  The surface-layer integral of a solution
over a region Omega couples only the pairs straddling the boundary:

    osi(Omega) = - sum_{i in Omega} sum_{j not in Omega}
                     w_i w_j  D1_{u_i} D2_{u_j} L(x_i, x_j).

Jet fields are (n, 1 + m) arrays as in `cvplab.jets`, and the solutions
one (k, n, 1 + m) array.  A region family is a pair: an (R, n) boolean
array whose row r marks the points inside region r, and its R labels.
`osi_report` evaluates a whole stack over a family as one (k, R) array.
On the family of `arc_regions`, `arc_osi` returns the same table from
prefix sums over the sorted ring, with no mask: O(n^2), not O(n^4).
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatchError, SchemaError
from .jets import FormEvaluator, _as_jets, jet_pair_block
from .kernels import RadialKernel, pair_tables
from .measure import DiscreteMeasure


def _rows(ev: FormEvaluator) -> np.ndarray:
    """W over the unit jets: each point's weight once per slot, as (N, 1)."""
    return np.repeat(ev.rho.weights, 1 + ev.rho.manifold.dim)[:, None]


def linfield_operator(ev: FormEvaluator) -> np.ndarray:
    """W^-1 SP1 over the unit jets, as a new (N, N) array."""
    return ev.sp1_gram / _rows(ev)


def linfield_residual(ev: FormEvaluator, u):
    """Max-norm of W^-1 SP1 u, the bracket values and gradients: a float
    for one jet field, a (k,) array for a (k, n, 1 + m) stack."""
    u = _as_jets(ev.rho, u)
    # one (N, 1) column per field: each product stays a matrix-vector one
    columns = u.reshape(u.shape[:-2] + (len(ev.sp1_gram), 1))
    return np.abs(ev.sp1_gram @ columns / _rows(ev)).max(axis=(-2, -1))


# kernel cut of `solve_linfield`, relative to the largest |eigenvalue| of SP1
KERNEL_THRESHOLD_REL = 1e-10


def solve_linfield(ev: FormEvaluator) -> tuple[np.ndarray, float]:
    """Kernel of the linearized operator from the SP1 eigendecomposition.

    W is positive and diagonal, so ker(W^-1 SP1) = ker(SP1): the
    evaluator's SP1 eigenvectors with |lambda| <= threshold, the cut
    KERNEL_THRESHOLD_REL * max |lambda|, span the solution space.  Returns
    them as a (k, n, 1 + m) stack (orthonormal in coefficient space) and
    the threshold.
    """
    magnitude = np.abs(ev.sp1_eigenvalues)
    cut = float(KERNEL_THRESHOLD_REL * magnitude.max())
    jets = ev.sp1_eigenvectors(magnitude <= cut).T.reshape(
        -1, ev.rho.count, 1 + ev.rho.manifold.dim)
    return jets, cut


def _pair_matrix(rho: DiscreteMeasure, block: np.ndarray, u) -> np.ndarray:
    """P_ij = w_i w_j D1_{u_i} D2_{u_j} L(x_i, x_j), as (k, n, n), of a
    (k, n, 1 + m) stack: the jet-pair block contracted with the jet at
    both ends."""
    u = _as_jets(rho, u, ndim=3)
    return np.einsum("kia,iajb,kjb->kij", u, block.reshape(u.shape[1:] * 2), u)


def _region_osi(rho: DiscreteMeasure, block: np.ndarray, inside: np.ndarray,
                u) -> np.ndarray:
    """Surface-layer integrals (k, R) of a (k, n, 1 + m) stack over R regions.

    Each region is the masked sum of the pair matrix P over inside rows
    and outside columns.  That sum skips P_ii, so the SP1 Gram serves as
    the block.
    """
    inside = np.asarray(inside, dtype=bool)
    if inside.ndim != 2 or inside.shape[1] != rho.count:
        raise DimensionMismatchError(f"region masks of shape {inside.shape} on a "
                                     f"measure with {rho.count} points")
    mask = inside.astype(float)
    return -np.einsum("krj,rj->kr", mask @ _pair_matrix(rho, block, u), 1.0 - mask)


def surface_layer_integral(rho: DiscreteMeasure, kernel: RadialKernel,
                           inside: np.ndarray, u) -> float:
    """Boundary-pair double sum of the jet-differentiated kernel over the
    region of the (n,) boolean mask `inside`."""
    block = jet_pair_block(pair_tables(kernel, rho.manifold, rho.points),
                           rho.weights)
    u = _as_jets(rho, u, ndim=2)[None]
    return float(_region_osi(rho, block, np.asarray(inside)[None], u)[0, 0])


def arc_label(n: int, index: int) -> str:
    """Label of arc `index` of the n(n - 1) arcs on n points, which run
    start-major, then by length."""
    start, length = divmod(index, n - 1)
    return f"arc(start={start}, length={length + 1})"


def arc_regions(rho: DiscreteMeasure) -> tuple[np.ndarray, list[str]]:
    """All proper contiguous arcs in the sorted order along the first axis.

    Intended for one-dimensional supports, where arcs exhaust the connected
    regions up to cyclic relabeling.  Arc (start, length) holds the points of
    rank start, ..., start + length - 1 (mod n); a one-point measure has
    none.  With `osi_report`, the tier-1 oracle of `arc_osi`.
    """
    n = rho.count
    rank = np.argsort(np.argsort(rho.points[:, 0]))
    offset = (rank - np.arange(n)[:, None]) % n   # (start, point): rank - start
    inside = (offset[:, None] < np.arange(1, n)[:, None]).reshape(-1, n)
    return inside, [arc_label(n, r) for r in range(len(inside))]


def arc_osi(ev: FormEvaluator, u) -> np.ndarray:
    """Surface-layer integrals (k, n(n - 1)) of a (k, n, 1 + m) stack over
    the arcs of `arc_regions`, in its order, without masks.

    With P the pair matrix, its diagonal zeroed and its points in ring
    order, an arc A gives osi(A) = -(sum_{a in A} r_a - sum_{a, b in A} P_ab),
    r the row sums of P.  Both sums are read from cumulative sums over the
    ring laid out twice, so that every arc is one contiguous run.  A
    one-point measure has no arc: the table is (k, 0).
    """
    n = ev.rho.count
    order = np.argsort(ev.rho.points[:, 0])
    pair = _pair_matrix(ev.rho, ev.sp1_gram, u)
    pair[:, np.arange(n), np.arange(n)] = 0.0
    pair = pair[:, order[:, None], order]
    # sums over [0, a) x [0, b) of the doubled ring, and over [0, a) of its row sums
    sums = np.zeros((len(pair), 2 * n + 1, 2 * n + 1))
    sums[:, 1:, 1:] = np.tile(pair, (1, 2, 2))
    sums = sums.cumsum(axis=1).cumsum(axis=2)
    rows = np.zeros((len(pair), 2 * n + 1))
    rows[:, 1:] = np.tile(pair.sum(axis=2), 2).cumsum(axis=1)
    start = np.repeat(np.arange(n), n - 1)
    end = start + np.tile(np.arange(1, n), n)   # one past the arc's last point
    within = (sums[:, end, end] - sums[:, start, end] - sums[:, end, start]
              + sums[:, start, start])
    return within - (rows[:, end] - rows[:, start])


def random_regions(rho: DiscreteMeasure, count: int,
                   seed: int) -> tuple[np.ndarray, list[str]]:
    """Seeded random proper subsets (never empty, never everything)."""
    n = rho.count
    if n < 2:
        raise SchemaError("random regions need at least two points")
    rng = np.random.default_rng(seed)
    inside = np.zeros((count, n), dtype=bool)
    for row in inside:
        row[rng.choice(n, size=int(rng.integers(1, n)), replace=False)] = True
    return inside, [f"random(seed_draw={k})" for k in range(count)]


def osi_report(ev: FormEvaluator, u,
               regions: tuple[np.ndarray, list[str]]) -> np.ndarray:
    """Surface-layer integrals (k, R) of a (k, n, 1 + m) stack over a region
    family: row k holds jet k's values in the order of the R labels.
    Positivity is only expected of jets that solve the linearized field
    equations on `ev`'s measure, which `linfield_residual` measures.
    """
    inside, labels = regions
    if not labels or len(labels) != len(inside):
        raise SchemaError("need one label for each of at least one region")
    return _region_osi(ev.rho, ev.sp1_gram, inside, u)
