"""Discrete jet fields and the quadratic/bilinear forms over them.

A jet pairs a scalar with a tangent vector at a support point, as one
(1 + m,) row [a, u_1, ..., u_m]; a jet field carries one jet per point
of a fixed measure, as one (n, 1 + m) array of such rows.  The three forms

    q1(u, v)  = sum_i w_i [a_i b_i ell_i + a_i v_i.grad ell_i
                           + b_i u_i.grad ell_i + u_i.Hess ell_i.v_i]
    sp1(u, v) = sum_ij w_i w_j D1_u D2_v L(x_i, x_j) + q1(u, v)
    sp2(u, v) = sp1(u, v) + q1(u, v)

take two jet fields, or stacks of them over leading axes, and are
assembled as Gram matrices over the canonical per-point unit-jet basis
(ordering: point-major blocks [scalar, e_1, ..., e_m], so a raveled jet
field is its coefficient vector).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .errors import CvpError, DimensionMismatchError, SchemaError
from .geometry import TORUS
from .kernels import PairTables, RadialKernel, pair_tables
from .measure import DiscreteMeasure

FORM_Q1 = "Q1"
FORM_SP1 = "SP1"
FORM_SP2 = "SP2"
BASIS_FULL = "full"
BASIS_SCALAR = "scalar_only"
BASIS_VECTOR = "vector_only"
# the slots of each point's (1 + m) unit jets that a basis keeps
_BASIS_SLOTS = {BASIS_FULL: slice(None), BASIS_SCALAR: slice(0, 1),
                BASIS_VECTOR: slice(1, None)}
# largest basis whose Gram `gram_spectrum` gives a dense (N, N) eigensolve
MAX_DENSE_DIM = 4096
# the positivity rule of the Gram, OSI and fragmented-variation checks: a
# minimum passes down to -TAU_PSD times the largest |value| it is read from
TAU_PSD = 1e-8


def nonnegative(minimum: float, scale: float) -> bool:
    return bool(minimum >= -TAU_PSD * scale)


def positive(minimum: float, scale: float) -> bool:
    """The strict mirror of `nonnegative`."""
    return bool(minimum > TAU_PSD * scale)


def translation(count: int, dim: int, axis: int = 0) -> np.ndarray:
    """The (count, 1 + dim) jet field moving every point along one chart axis."""
    u = np.zeros((count, 1 + dim))
    u[:, 1 + axis] = 1.0
    return u


def _as_jets(rho: DiscreteMeasure, u, ndim: int | None = None) -> np.ndarray:
    """u as a C-ordered float array of shape (..., n, 1 + m) on rho, with
    exactly ndim axes if ndim is given.

    C order because einsum's last bits depend on the memory layout of its
    operands, and solution jets are views of a transposed eigenvector block.
    """
    u = np.ascontiguousarray(u, dtype=float)
    if u.ndim < 2 or u.shape[-2:] != (rho.count, 1 + rho.manifold.dim) \
            or ndim not in (None, u.ndim):
        need = {2: "(n, 1 + m)", 3: "(L, n, 1 + m)"}.get(ndim, "(..., n, 1 + m)")
        raise DimensionMismatchError(
            f"jets of shape {u.shape} on a measure with {rho.count} points in "
            f"dimension {rho.manifold.dim}; need {need}")
    return u


def _as_jet(jet, dim: int) -> tuple[float, np.ndarray]:
    """The scalar and the vector of a finite (1 + dim,) jet row."""
    jet = np.asarray(jet, dtype=float)
    if jet.shape != (1 + dim,):
        raise DimensionMismatchError(
            f"a jet of shape {jet.shape} in dimension {dim}; need ({1 + dim},)")
    if not np.isfinite(jet).all():
        raise SchemaError("jet components must be finite")
    return jet[0], jet[1:]


def jet_pair_block(tables: PairTables, weights: np.ndarray) -> np.ndarray:
    """B[i, a, j, b] = w_i w_j D1_{e_a} D2_{e_b} L(x_i, x_j) over the unit jets.

    The kernel double sum of two jet fields is u . B . v over their
    raveled arrays.  grad2 = -grad1 and hess12 = -hess11 for radial
    kernels on flat charts.
    """
    n, _, m = tables.G.shape
    block = np.empty((n, 1 + m, n, 1 + m))
    block[:, 0, :, 0] = tables.L
    block[:, 0, :, 1:] = -tables.G
    block[:, 1:, :, 0] = tables.G.transpose(0, 2, 1)
    block[:, 1:, :, 1:] = -tables.H11.transpose(0, 2, 1, 3)
    block *= weights[:, None, None, None] * weights[None, None, :, None]
    return block


def _point_jets(tables: PairTables, weights: np.ndarray) -> np.ndarray:
    """Per-point (n, 1+m, 1+m) blocks [[r_i, grad ell_i], [grad ell_i, Hess ell_i]].

    r_i = sum_j w_j L(x_i, x_j) is ell_i + nu/2: the ell jet up to nu.
    """
    n, _, m = tables.G.shape
    jets = np.empty((n, 1 + m, 1 + m))
    jets[:, 0, 0] = tables.L @ weights
    jets[:, 0, 1:] = jets[:, 1:, 0] = np.einsum("ija,j->ia", tables.G, weights)
    jets[:, 1:, 1:] = np.einsum("ijab,j->iab", tables.H11, weights)
    return jets


def _smith(a: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """(U, d) with U a V = diag(d), U and V unimodular and each d_k dividing
    d_k+1 > 0: the Smith form of a square integer matrix, by row and column
    reduction on the smallest entry left.  None if a is singular."""
    a, m = a.copy(), len(a)
    u = np.eye(m, dtype=np.int64)
    for k in range(m):
        while True:
            rest = np.abs(a[k:, k:])
            if not rest.any():
                return None
            i, j = np.unravel_index(np.where(rest > 0, rest, rest.max() + 1).argmin(),
                                    rest.shape)
            a[[k, k + i]], u[[k, k + i]] = a[[k + i, k]], u[[k + i, k]]
            a[:, [k, k + j]] = a[:, [k + j, k]]
            q = a[k + 1:, k] // a[k, k]
            a[k + 1:] -= np.outer(q, a[k])
            u[k + 1:] -= np.outer(q, u[k])
            a[:, k + 1:] -= np.outer(a[:, k], a[k, k + 1:] // a[k, k])
            if a[k + 1:, k].any() or a[k, k + 1:].any():
                continue   # a remainder is left: it is the next, smaller pivot
            bad = np.argwhere(a[k + 1:, k + 1:] % a[k, k])
            if not len(bad):
                break
            a[k] += a[k + 1 + bad[0, 0]]   # brings in an entry d_k does not divide
            u[k] += u[k + 1 + bad[0, 0]]
        if a[k, k] < 0:
            a[k], u[k] = -a[k], -u[k]
    return u, np.diag(a).copy()


def _lattice(rho: DiscreteMeasure) -> tuple[np.ndarray, np.ndarray] | None:
    """The translation group whose one orbit rho is, with equal weights.

    Returns None, or (g, d): the invariant factors d > 1 of the group
    G = Z_d1 x ... x Z_dr, and each point's (n, r) coordinates in G
    relative to point 0.  Weights must agree to 4 ulp of their mean.  The
    generators are the m shortest linearly independent wrapped
    displacements x_j - x_0 (for m <= 3 these successive minima form a
    basis); every displacement and every period vector must have integer
    coordinates in them to 1e-12, and the Smith form U Lambda V = diag(d)
    of the periods' coordinates Lambda must have prod(d) = n and give n
    distinct coordinates (U a) mod d.  The torus need not be aligned with
    the lattice: a triangular lattice on a rectangular torus is sheared, so
    G is not Z_side^2.
    """
    manifold, n, w = rho.manifold, rho.count, rho.weights
    if manifold.kind != TORUS or n < 2 \
            or np.ptp(w) > 4.0 * np.finfo(float).eps * w.mean():
        return None
    m = manifold.dim
    delta = manifold.displacement(rho.points, rho.points[0])
    basis, frame = [], []   # frame: the Gram-Schmidt orthonormal rows
    for v in delta[np.argsort(np.einsum("ja,ja->j", delta, delta), kind="stable")]:
        rest = v - sum((q @ v) * q for q in frame)
        if np.linalg.norm(rest) > 1e-6 * np.linalg.norm(v):
            basis.append(v)
            frame.append(rest / np.linalg.norm(rest))
            if len(basis) == m:
                break
    else:
        return None
    # sum_i a_i b_i = x reads frame.x = tri^T a, tri[i, j] = b_i.q_j lower triangular
    frame = np.array(frame).T
    tri = np.array(basis) @ frame
    target = np.vstack([delta, np.diag(manifold.periods)]) @ frame
    coords = np.empty_like(target)
    for j in reversed(range(m)):
        coords[:, j] = (target[:, j] - coords[:, j + 1:] @ tri[j + 1:, j]) / tri[j, j]
    whole = np.rint(coords)
    if np.abs(coords - whole).max() > 1e-12:
        return None
    whole = whole.astype(np.int64)
    smith = _smith(whole[n:].T)   # columns: the period vectors
    if smith is None or np.prod(smith[1]) != n:
        return None
    u, d = smith
    g = (whole[:n] @ u.T) % d
    if np.bincount(np.ravel_multi_index(g.T, d)).max() > 1:   # |G| = n
        return None
    return g[:, d > 1], d[d > 1]


def _waves(g: np.ndarray, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The characters chi_k(g) = exp(2 pi i sum_a k_a g_a / d_a) of G at the
    points, as real waves: the (r, 1, n) values +-1 of each self-conjugate
    character, and the (c, 2, n) cos and -sin of one character of each
    other conjugate pair {chi, conj chi}."""
    k = np.indices(d).reshape(len(d), -1).T
    key, conj = np.ravel_multi_index(k.T, d), np.ravel_multi_index((-k % d).T, d)
    period = int(d[-1])   # every d_a divides the last
    turns = (k * (period // d)) @ g.T % period   # the phases in 1/period turns
    cos, sin = (f(2.0 * np.pi * np.arange(period) / period) for f in (np.cos, np.sin))
    pair = turns[key < conj]
    return cos[turns[key == conj]][:, None], np.stack([cos[pair], -sin[pair]], 1)


def _symbol_vectors(groups, solved, picks) -> np.ndarray:
    """The (N, s) eigenvector columns of a block-circulant Gram at picks, places
    in its symbols' eigenvalues raveled group by group, from their eigenpairs.

    Each group holds (q, p, n) waves and the (q, pk, pk) symbols on them,
    k = 1 + m.  An eigenvector x = (x_1..x_p) of a symbol gives the Gram's
    eigenvector sum_h wave_h (x) x_h / sqrt(n / p): the two waves of a
    conjugate pair have squared norm n / 2 and are orthogonal, and so are
    the waves of any two characters.
    """
    vectors = np.empty((picks.size, sum(lam.size for lam, _ in solved)))
    start = 0
    for (waves, _), (lam, e) in zip(groups, solved):
        _, p, n = waves.shape
        k = e.shape[-1] // p
        mine = (picks >= start) & (picks < start + lam.size)
        symbol, vector = np.divmod(picks[mine] - start, p * k)
        # (selected, point, slot), summed over the waves h
        vectors.reshape(-1, n, k)[mine] = waves[symbol].transpose(0, 2, 1) \
            @ (e[symbol, :, vector].reshape(-1, p, k) * np.sqrt(p / n))
        start += lam.size
    return vectors.T


def _eigh(a: np.ndarray, vectors: bool = True):
    try:
        return (np.linalg.eigh if vectors else np.linalg.eigvalsh)(a)
    except np.linalg.LinAlgError as exc:
        raise CvpError(f"eigendecomposition failed: {exc}") from exc


def weak_residual(ell: np.ndarray, grad_ell: np.ndarray) -> float:
    """max_i max(|ell(x_i)|, |grad ell(x_i)|_inf): the EL residual on the support."""
    return max(float(np.abs(ell).max()), float(np.abs(grad_ell).max()))


def _gram(tables: PairTables, weights: np.ndarray,
          point_blocks: np.ndarray) -> np.ndarray:
    """The jet-pair block with the point blocks on its diagonal, symmetric
    bit for bit: L and H11 are symmetric, the wrapped displacements antisymmetric."""
    n, k, _ = point_blocks.shape
    gram = jet_pair_block(tables, weights)
    gram[range(n), :, range(n), :] += point_blocks
    # LAPACK picks Householder signs from signed zeros, and the block
    # has -0.0 where G = 0: adding +0.0 makes every zero +0.0
    gram += 0.0
    return gram.reshape(n * k, n * k)


def action_hessian(tables: PairTables, weights: np.ndarray) -> np.ndarray:
    """Hessian of the action in the unit-jet coordinates a_i = dw_i/w_i, u_i = dx_i.

    It is 2 (SP1 - diag(w_i ell_i) on the scalar slots) for any nu: twice
    the Gram of the point blocks w_i ell_jet_i with their scalar slot
    zeroed, so at an EL point, where every ell_i vanishes, twice SP1.
    """
    blocks = weights[:, None, None] * _point_jets(tables, weights)
    blocks[:, 0, 0] = 0.0
    return 2.0 * _gram(tables, weights, blocks)


class FormEvaluator:
    """Pair tables, the calibrated nu, the ell jet, the (n, 1+m, 1+m) point
    blocks w_i ell_jet_i (Q1's diagonal) and the SP1 Gram.

    The one handle for ell, the forms and the linearized field equations
    on a measure: every function that evaluates ell or a form, reports on
    ell or solves the linearized equations takes an instance, so build one
    per measure.  nu = 2 min_i sum_j w_j L(x_i, x_j), so min_i ell(x_i) = 0
    exactly; for a non-minimizing measure that is a convention.
    """

    def __init__(self, rho: DiscreteMeasure, kernel: RadialKernel):
        self.rho = rho
        self.kernel = kernel
        self.tables = pair_tables(kernel, rho.manifold, rho.points)
        # ell, grad ell and Hess ell at each point over the unit jets
        self.ell_jet = _point_jets(self.tables, rho.weights)
        self.nu = 2.0 * float(self.ell_jet[:, 0, 0].min())
        self.ell_jet[:, 0, 0] -= self.nu / 2.0
        self.ell = self.ell_jet[:, 0, 0]
        self.grad_ell = self.ell_jet[:, 0, 1:]
        self.point_blocks = rho.weights[:, None, None] * self.ell_jet

    @cached_property
    def sp1_gram(self) -> np.ndarray:
        """The SP1 Gram, the measure's one (n(1+m))^2 array: the jet-pair
        block plus the point blocks, symmetric as built.  The forms, the
        spectra, W^-1 SP1 and the surface-layer integrals all read it."""
        return _gram(self.tables, self.rho.weights, self.point_blocks)

    @cached_property
    def _symbols(self) -> tuple[np.ndarray, list] | None:
        """(d, groups) when rho is one equal-weight orbit of a translation
        group (`_lattice`) whose SP1 Gram is block circulant; None otherwise.

        Block (i, j) of such a Gram is F(g_j - g_i), F(g_j) = block (0, j),
        so it commutes with the group: on the jets chi (x) e of a character
        chi it acts as the (1+m) x (1+m) Hermitian symbol
        S(chi) = sum_j F(g_j) chi(g_j).  The two groups hold the symbols as
        real symmetric matrices beside their waves (`_waves`): S itself for
        a self-conjugate chi, and [[X, -Y], [Y, X]] for the pair
        {chi, conj chi}, S(chi) = X + iY.  A pair at half a period breaks
        that form for a kernel with a slope there, as its wrapped displacement
        may take either sign: a displacement from point 0 within 1e-9 of half
        a period keeps the dense path unless the kernel's cutoff is at most it.
        """
        found = _lattice(self.rho)
        if found is None:
            return None
        half = 0.5 * np.asarray(self.rho.manifold.periods)
        at_half = np.abs(np.abs(self.tables.D[:, 0]) - half) <= 1e-9
        if (at_half & (half < (self.kernel.cutoff or np.inf))).any():
            return None
        g, d = found
        n, k = self.rho.count, 1 + self.rho.manifold.dim
        blocks = self.sp1_gram[:k].reshape(k, n, k).transpose(1, 0, 2).reshape(n, k * k)
        real, pairs = _waves(g, d)
        x, y = ((pairs[:, h] @ blocks).reshape(-1, k, k) for h in (0, 1))
        groups = [(real, (real[:, 0] @ blocks).reshape(-1, k, k)),
                  (pairs, np.concatenate([np.concatenate([x, y], 2),
                                          np.concatenate([-y, x], 2)], 1))]
        return d, [(waves, 0.5 * (sym + sym.transpose(0, 2, 1)))
                   for waves, sym in groups]

    @property
    def lattice(self) -> list[int] | None:
        """The invariant factors of the translation group whose symbols give
        the SP1 spectrum, or None when it comes from the dense Gram."""
        return None if self._symbols is None else self._symbols[0].tolist()

    @cached_property
    def _sp1_solve(self) -> tuple:
        """The one SP1 solve: the `eigh` of `sp1_gram`, or on a lattice the
        ascending eigenvalues, the eigenpairs of each group of symbols from
        one batched eigh, and the stable order that sorts their eigenvalues."""
        if self._symbols is None:
            return _eigh(self.sp1_gram)
        solved = [_eigh(symbols) for _, symbols in self._symbols[1]]
        values = np.concatenate([lam.ravel() for lam, _ in solved])
        order = np.argsort(values, kind="stable")
        return values[order], solved, order

    @property
    def sp1_eigenvalues(self) -> np.ndarray:
        """Ascending eigenvalues of the full SP1 Gram, from its one solve."""
        return self._sp1_solve[0]

    def sp1_eigenvectors(self, select) -> np.ndarray:
        """The (N, s) orthonormal eigenvector columns that select picks over
        `sp1_eigenvalues`, from the one solve; on a lattice only these are
        mapped from the symbols."""
        if self._symbols is None:
            return self._sp1_solve[1][:, select]
        _, solved, order = self._sp1_solve
        return _symbol_vectors(self._symbols[1], solved, order[select])

    def q1_terms(self, u, v) -> np.ndarray:
        """Per-point terms u_i . ell_jet_i . v_i of q1 (ell's second jet
        derivatives): (n,) for two (n, 1 + m) fields, (..., n) for stacks."""
        u, v = _as_jets(self.rho, u), _as_jets(self.rho, v)
        return np.einsum("...ia,iab,...ib->...i", u, self.ell_jet, v)

    def q1(self, u, v):
        return self.q1_terms(u, v) @ self.rho.weights

    def sp1(self, u, v):
        """u . SP1 . v over the raveled jets: a float for two jet fields, an
        array for stacks of them."""
        u, v = _as_jets(self.rho, u), _as_jets(self.rho, v)
        gram = self.sp1_gram.reshape(u.shape[-2:] * 2)
        return (np.tensordot(u, gram, axes=2) * v).sum(axis=(-2, -1))

    def double_sum(self, u, v):
        """sum_ij w_i w_j D1_{u_i} D2_{v_j} L(x_i, x_j), diagonal included."""
        return self.sp1(u, v) - self.q1(u, v)

    def sp2(self, u, v):
        return self.sp1(u, v) + self.q1(u, v)

    def form_matrix(self, form_id: str) -> np.ndarray:
        """Gram matrix over the unit jets as a new array: Q1, SP1 or SP1 + Q1.

        Q1 is block diagonal with the point blocks w_i ell_jet_i; SP1 is a
        copy of `sp1_gram`, and SP2 adds the point blocks to that copy.  The
        tier-1 oracle of the forms; a run reads it only as a report's matrix.
        """
        if form_id not in (FORM_Q1, FORM_SP1, FORM_SP2):
            raise SchemaError(f"unknown form id {form_id!r}")
        n, k = self.rho.count, 1 + self.rho.manifold.dim
        out = (np.zeros((n, k, n, k)) if form_id == FORM_Q1
               else self.sp1_gram.reshape(n, k, n, k).copy())
        if form_id != FORM_SP1:
            out[range(n), :, range(n), :] += self.point_blocks
        return out.reshape(n * k, n * k)


def nabla1_nabla2_L(kernel: RadialKernel, manifold, x, y, jet_x, jet_y) -> float:
    """D1_{jet_x} D2_{jet_y} L(x, y) at two arbitrary chart points, along
    two (1 + m,) jets: the tier-1 oracle of the double sum and the OSI."""
    (ax, ux), (ay, uy) = _as_jet(jet_x, manifold.dim), _as_jet(jet_y, manifold.dim)
    t = PairTables(kernel, manifold.displacement(x, y)[None])   # one-row stack
    L, g1, h12 = t.L[0], t.G[0], -t.H11[0]
    return float(ax * ay * L + ax * (uy @ (-g1)) + ay * (ux @ g1) + ux @ h12 @ uy)


@dataclass(frozen=True)
class GramReport:
    form_id: str
    basis: str
    matrix: np.ndarray
    eigenvalues: np.ndarray
    min_eigenvalue: float
    scale: float
    tau_psd: float
    psd: bool
    strictly_positive: bool

    def to_dict(self) -> dict:
        """Everything but the matrix, which stays in memory only."""
        out = {f.name: getattr(self, f.name) for f in fields(self)
               if f.name != "matrix"}
        return {**out, "eigenvalues": self.eigenvalues.tolist()}


def _basis_indices(n: int, m: int, basis: str) -> np.ndarray:
    if basis not in _BASIS_SLOTS:
        raise SchemaError(f"unknown basis {basis!r}")
    return np.arange(n * (1 + m)).reshape(n, 1 + m)[:, _BASIS_SLOTS[basis]].ravel()


def gram_spectrum(ev: FormEvaluator, form_id: str,
                  basis: str = BASIS_FULL) -> GramReport:
    """Gram matrix of a form over the canonical unit-jet basis plus spectrum.

    Every SP1 restriction reads the evaluator's one SP1 Gram, and the full
    basis its one solve.  A form that owns blocks, Q1 its point blocks and
    on a lattice (`ev.lattice`) SP1 its symbols, takes every spectrum from
    the sub-blocks on the basis's slots.  Only the other Grams run a dense
    eigensolve, and only these are capped at MAX_DENSE_DIM.
    """
    m = ev.rho.manifold.dim
    idx = _basis_indices(ev.rho.count, m, basis)
    owned = None   # (blocks, the indices of the basis's slots in each block)
    if form_id == FORM_Q1:
        owned = [(ev.point_blocks, _basis_indices(1, m, basis))]
    elif form_id == FORM_SP1 and ev.lattice is not None:
        owned = [(sym, _basis_indices(waves.shape[1], m, basis))
                 for waves, sym in ev._symbols[1]]
    if owned is None and idx.size > MAX_DENSE_DIM:
        raise SchemaError(f"basis dimension {idx.size} exceeds cap {MAX_DENSE_DIM}")
    matrix = ev.sp1_gram if form_id == FORM_SP1 else ev.form_matrix(form_id)
    if basis != BASIS_FULL:
        matrix = matrix[np.ix_(idx, idx)]
    if form_id == FORM_SP1 and basis == BASIS_FULL:
        eigenvalues = ev.sp1_eigenvalues
    else:
        stacks = [matrix] if owned is None else [b[:, j[:, None], j] for b, j in owned]
        eigenvalues = np.sort(np.concatenate(
            [_eigh(s, vectors=False).ravel() for s in stacks]))
    scale = float(max(matrix.max(), -matrix.min()))   # |matrix|, not a copy
    min_eig = float(eigenvalues[0])
    return GramReport(form_id=form_id, basis=basis, matrix=matrix,
                      eigenvalues=eigenvalues, min_eigenvalue=min_eig,
                      scale=scale, tau_psd=TAU_PSD, psd=nonnegative(min_eig, scale),
                      strictly_positive=positive(min_eig, scale))
