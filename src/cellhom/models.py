"""Cell-energy models with analytic gradients.

A model assigns an energy to the discrete gradient of one lattice cell (a
d x n_cols matrix whose columns are stencil-site positions minus the mean
of the 2^d corner positions) and, for multilattice models, to the per-cell
internal shift s (d x m).  All built-ins are translation invariant by
construction: the corner-block mean is subtracted from every column on
entry, so adding the same vector to each column never changes the energy.

Each model defines one method, ``_evaluate(F, S, bonds)``, which returns
the energies of a batch of centred cells together with their gradient
``(dE/dF, dE/dS)``; an energy is never evaluated without its gradient.
The single-cell API wraps batches of one.

Kernels read a batch F (B, d, n_cols) in batch-last memory: its transpose
(n_cols, d, B) is C-contiguous, each F[:, a, j] a contiguous row; another
layout is copied first.  They add rows one by one in index order, as in
``reduce(np.add, rows)``, never by numpy reductions over short axes, whose
order follows the layout and the batch size: results depend on values alone.

Bond models are one family: each holds a ``PairPotential`` and evaluates
any batch over a bond table of its columns, phi = V_r(|b|) and phi' from
one ``value_and_deriv`` pass per bond: column pairs i, j, weights w and
reference lengths r.  The potential's ``hessian`` gives the bonds' Hessian
blocks, which the stiffness preconditioner and the elastic lattice sum
read.  A potential restricted to one shell keeps only that shell's bonds
in its table.  Harmonic springs are the pair model of
``harmonic_pair(2k, r0)`` at cutoff 1.  The internal shifts S are the
columns after the stencil's, so the multilattice model's one table holds
the cell's edges and the arms from its corners to the internal atom.  A
model's own table holds one cell's bonds; ``_sample_bonds`` compiles a
sample's interior cells into unique site pairs, so that the whole sample
is one batch entry whose columns are its sites, and ``_moving_bonds``
keeps of those the bonds with a free end, each evaluated once per call:
the energies of the bonds that join two pinned sites never change, so they
are taken once and the energy is still the whole table's sum, bit for bit.
Gradients are exact except at the non-smooth points of bond lengths
|b| = 0, where the zero element of the subdifferential is returned for the
offending term.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import permutations
from typing import Callable, Optional

import numpy as np

from .lattice import (LatticeSpec, build_lattice, integer_box, lattice_vectors_within,
                      simplex_maps)

__all__ = [
    "EnergyModel",
    "PairPotential",
    "MatrixDensity",
    "QuadraticForm",
    "harmonic_spring_model",
    "pair_potential_model",
    "quasiconvex_wrapper_model",
    "quadratic_form_model",
    "multilattice_harmonic_model",
    "lennard_jones",
    "harmonic_pair",
    "frobenius_squared_density",
]

_ZERO_BOND = 1e-14


def _rows(F):
    """The batch-last memory (n_cols, d, B) of F (B, d, n_cols), C-contiguous."""
    return np.ascontiguousarray(np.transpose(F, (2, 1, 0)))


class EnergyModel:
    """Base class for cell energies.

    Attributes:
        name: identifier used in run outputs.
        spec: the LatticeSpec the model is defined on.
        n_cols: stencil width (2^d for unit-cell models).
        m: internal-atom count.
        growth: optional (c, c_prime, c_dblprime) with
            c*|F|^2 - c_prime <= W(F, argmin s) <= c_dblprime*(|F|^2 + |s|^2 + 1),
            i.e. growth exponent 2; None when no such constants are claimed
            (e.g. attractive pair potentials, which are not coercive).
        nonnegative: True when W >= 0 everywhere.
        frame_indifferent: True when W(RF, Rs) = W(F, s) for rotations R.
    """

    def __init__(self, name, spec, m=0, growth=None,
                 nonnegative=False, frame_indifferent=False):
        self.name = name
        self.spec = spec
        self.m = m
        self.growth = growth
        self.nonnegative = nonnegative
        self.frame_indifferent = frame_indifferent

    @property
    def n_cols(self) -> int:
        return self.spec.n_cols

    # -- batched interface ------------------------------------------------

    def energy_many(self, F, S=None) -> np.ndarray:
        """Energies of a batch of cells; F has shape (B, d, n_cols)."""
        return self._cells(np.asarray(F, dtype=float), S, True)[0]

    def _cells(self, F, S, grad):
        """The kernel on cells F (B, d, n_cols) centred on their corner mean;
        with ``grad`` the gradient is chained back through the centring;
        without it, for ``Problem.energy_only`` only, ``_energy`` is called."""
        nc = self.spec.n_corners
        T = _rows(F)
        F = (T - reduce(np.add, T[:nc]) / nc).transpose(2, 1, 0)
        if not grad:
            return self._energy(F, S)
        E, (gF, gS) = self._energy_gradient(F, S)
        G = gF.transpose(2, 1, 0)
        G[:nc] -= reduce(np.add, G) / nc
        return E, (gF, gS)

    # -- single-cell convenience -------------------------------------------

    def energy(self, F, s=None) -> float:
        S = None if s is None else np.asarray(s, dtype=float)[None]
        return float(self.energy_many(np.asarray(F, dtype=float)[None], S)[0])

    # -- kernel entry points on centred batches -----------------------------

    def _energy(self, F, S, bonds=None):
        """The energies of ``_evaluate``, for ``Problem.energy_only`` only."""
        return self._evaluate(F, S, bonds)[0]

    def _energy_gradient(self, F, S, bonds=None):
        return self._evaluate(F, S, bonds)

    def _evaluate(self, F, S, bonds=None):
        """(E, (dE/dF, dE/dS)): the energies E of centred cells F (B, d,
        n_cols) with shifts S (B, d, m) or None, and their gradient, dE/dS
        None without shifts.  ``bonds``, a bond table over the columns of F,
        is read by pair-bond models only.  F is read through ``_rows(F)``;
        dE/dF is returned batch-last too."""
        raise NotImplementedError

    def _sample_bonds(self, cell_sites):
        """Bond table of the sample whose interior cells hold the sites
        ``cell_sites`` (C, n_cols); None evaluates the sample cell by cell."""
        return None


# ---------------------------------------------------------------------------
# bond models: one pair-potential family (harmonic springs are one member)
# ---------------------------------------------------------------------------


class _BondModel(EnergyModel):
    """Energy as a weighted sum of V_r(|b|), ``potential.value_and_deriv(r,
    |b|)[0]``, over the bond vectors b = X[:, :, j] - X[:, :, i] of a bond
    table, r the bond's reference length and X = [F | S], the shifts after
    the stencil columns; ``table`` holds one cell's bonds.  Pair models also
    carry their ``cutoff``.
    """

    def __init__(self, name, spec, potential, bonds, weights, rest, **meta):
        super().__init__(name, spec, **meta)
        self.potential = potential
        self.bonds = np.asarray(bonds)                 # (n_bonds, 2) column indices
        self.weights = np.asarray(weights, dtype=float)
        rest = np.broadcast_to(np.asarray(rest, dtype=float), self.weights.shape)
        self.table = _BondTable((self.bonds[:, 0], self.bonds[:, 1], self.weights, rest))

    def _sample_bonds(self, cell_sites):
        """The cells' bonds as unique site pairs, each weighted by the sum of
        its per-cell weights over the cells that hold it."""
        if self.m:
            return None     # internal shifts belong to cells, not to site pairs
        i, j, w, rest = self.table
        I, J = cell_sites[:, i].ravel(), cell_sites[:, j].ravel()
        lo, hi = np.minimum(I, J), np.maximum(I, J)
        _, first, inv = np.unique(lo * (int(cell_sites.max()) + 1) + hi,
                                  return_index=True, return_inverse=True)
        n = len(cell_sites)
        return _BondTable((lo[first], hi[first], np.bincount(inv, weights=np.tile(w, n)),
                           np.tile(rest, n)[first]))

    def _stiffness(self, M):
        """Laplacian weights c (d, d) of the affine state: c[alpha, a] sums
        w K[alpha, alpha] delta_a^2 over the table, K = ``potential.hessian``
        at b = M (z_j - z_i), delta the bond's lattice offset; at M = I, c is
        (|det A| / 2) C[alpha, a, alpha, a] of ``pair_elastic_tensor``.  None
        unless every weight is finite and nonnegative and every coordinate
        has a positive one."""
        i, j, w, rest = self.table
        b = (M @ (self.spec.stencil[:, j] - self.spec.stencil[:, i])).T
        delta = self.spec.offsets_int[j] - self.spec.offsets_int[i]
        with np.errstate(all="ignore"):     # a collapsed bond gives inf or nan
            K = np.ascontiguousarray(np.einsum("kaa->ak", self.potential.hessian(rest, b)))
            c = K @ (w[:, None] * delta**2)
        if np.all(np.isfinite(c)) and c.min() >= 0 and np.all(c.max(axis=1) > 0):
            return c
        return None

    def _moving_bonds(self, bonds, free, y):
        """The bonds of the sample table ``bonds`` with an end among the sites
        ``free`` (a mask), as a table whose ``energy`` is the whole table's
        at any sites that agree with y (n_sites, d) on the pinned ones: the
        energies of the bonds that join two pinned sites are taken here, once."""
        keep = free[bonds[0]] | free[bonds[1]]
        fixed = _BondTable(c[~keep] for c in bonds)
        L = self._bonds(y.T[None], None, fixed)[1]
        V = np.empty(len(keep))
        V[~keep] = self.potential.value_and_deriv(fixed[3][:, None], L)[0][:, 0]
        return _MovingBonds(bonds, keep, V)

    def _bonds(self, F, S, table):
        """Bond vectors b (d, n_bonds, B) and lengths L (n_bonds, B) of the
        table over X = [F | S], the flat end indices (I, J) and the shape of
        X's batch-last memory."""
        T = _rows(F) if S is None else np.concatenate((_rows(F), S.T))
        (I, J), shape = table.flat(T.shape[::-1]), T.shape
        flat = T.reshape(-1)                # copies only a batch in another layout
        b = flat.take(J)                    # (d, n_bonds, B) bond vectors
        b -= flat.take(I)
        # drop a batch copy first: a lower heap peak is not trimmed and re-faulted
        del T, flat
        return b, np.sqrt(np.einsum("akb,akb->kb", b, b)), (I, J), shape

    def _evaluate(self, F, S, bonds=None):
        if self.m and S is None:
            raise ValueError("multilattice model needs an internal shift s")
        table = self.table if bonds is None else bonds
        b, L, (I, J), shape = self._bonds(F, S, table)
        V, dV = self.potential.value_and_deriv(table[3][:, None], L)
        E = table.energy(V)
        coef = table[2][:, None] * dV
        if L.min(initial=np.inf) > _ZERO_BOND:
            coef /= L
        else:                               # the zero subgradient at |b| = 0
            coef = np.where(L > _ZERO_BOND, coef / np.where(L > _ZERO_BOND, L, 1.0), 0.0)
        b *= coef                           # dE/dF[:, :, j] of each bond
        size = shape[0] * shape[1] * shape[2]
        gT = np.bincount(J.ravel(), b.ravel(), minlength=size)
        gT -= np.bincount(I.ravel(), b.ravel(), minlength=size)
        G, n = gT.reshape(shape).transpose(2, 1, 0), F.shape[2]
        return E, (G[:, :, :n], None if S is None else G[:, :, n:])


class _BondTable(tuple):
    """Bond table ``(i, j, w, rest)`` whose ``flat(shape)`` gives the flat
    indices (d, n_bonds, B) of the ends i and j in a batch-last batch of that
    shape, F[b, a, j] at (j d + a) B + b; a sample table builds them once."""

    def flat(self, shape):
        cached = getattr(self, "_flat", (None,))
        if cached[0] != shape:
            rows = np.arange(shape[0] * shape[1]).reshape(shape[1], 1, shape[0])
            cached = self._flat = (shape, tuple(rows + rows.size * e[:, None] for e in self[:2]))
        return cached[1]

    def energy(self, V, w=None):
        """The energies of a batch from its bond energies V (n_bonds, B) and
        weights w, the table's own by default: one dot per cell, so a cell's
        energy does not depend on its batch."""
        w = self[2] if w is None else w
        return (np.ascontiguousarray(V.T)[:, None, :] @ w[:, None])[:, 0, 0]


class _MovingBonds(_BondTable):
    """The rows ``keep`` of a one-entry sample table ``full``, beside that
    table's weights w and V, the energies of all of its bonds in table
    order; the rest of ``full`` is not kept.  ``energy`` writes the kept
    bonds' energies into V and takes the dot with w, so the others' stay as
    they were set and the sum is the full table's bit for bit."""

    def __new__(cls, full, keep, V):
        table = super().__new__(cls, (c[keep] for c in full))
        table.w, table.keep, table.V = full[2], keep, V
        return table

    def energy(self, V):
        self.V[self.keep] = V.ravel()
        return super().energy(self.V[:, None], self.w)


def _cell_edges(d: int) -> np.ndarray:
    """Corner-index pairs (i, j) of the d*2^(d-1) unit-cell edges, sorted:
    j sets one bit that i lacks."""
    return np.array([(i, i | 1 << a) for i in range(2**d) for a in range(d) if not i >> a & 1])


@dataclass(frozen=True)
class PairPotential:
    """A family of radial potentials V_r(rho) indexed by the shell radius.

    ``value_and_deriv(r, rho)`` returns the energy of a bond of rest length
    r stretched to length rho and its derivative in rho, ``(V, V')``, in one
    pass over what the two share; ``deriv2`` is V'', read by ``hessian``
    alone.  Both must broadcast over numpy arrays.  ``nonnegative`` marks
    families with V >= 0 so downstream checks may rely on a nonnegative
    total energy.  ``shell``, when set, restricts the family to the bonds of
    that rest length: pair models and the elastic lattice sum keep only the
    lattice vectors with |r - shell| < 1e-9.
    """

    value_and_deriv: Callable
    deriv2: Callable
    name: str = "pair"
    nonnegative: bool = False
    shell: Optional[float] = None

    def on_shell(self, r):
        """Mask of the rest lengths r (an array) that this potential acts on."""
        return np.full(r.shape, True) if self.shell is None else np.abs(r - self.shell) < 1e-9

    def hessian(self, r, b):
        """The Hessian blocks K (n, d, d) of V_r(|b|) at the bond vectors b
        (n, d) of rest lengths r: K = V''(L) u u^T + (V'(L) / L)(I - u u^T),
        L = |b|, u = b / L."""
        L = np.sqrt(np.einsum("ka,ka->k", b, b))
        u = b / L[:, None]
        uu = u[:, :, None] * u[:, None, :]
        return (self.deriv2(r, L)[:, None, None] * uu
                + (self.value_and_deriv(r, L)[1] / L)[:, None, None] * (np.eye(b.shape[1]) - uu))


def lennard_jones(epsilon=1.0, sigma=1.0) -> PairPotential:
    """4*eps*((sigma/rho)^12 - (sigma/rho)^6), minimum at 2^(1/6)*sigma."""
    if not (np.isfinite(epsilon) and 0 < sigma < np.inf):     # NaN fails too
        raise ValueError("Lennard-Jones needs a finite epsilon and a positive, finite sigma")

    def value_and_deriv(r, rho):
        x = (sigma / rho) ** 6
        return 4.0 * epsilon * (x * x - x), 4.0 * epsilon * (-12.0 * x * x + 6.0 * x) / rho

    def deriv2(r, rho):
        x = (sigma / rho) ** 6
        return 4.0 * epsilon * (156.0 * x * x - 42.0 * x) / rho**2

    return PairPotential(value_and_deriv, deriv2, name="lennard-jones")


def harmonic_pair(k=1.0, r0=1.0, shell=None) -> PairPotential:
    """(k/2)(rho - r0)^2, optionally restricted to the bonds of rest length
    ``shell``."""
    if not (0 <= k < np.inf and np.isfinite(r0) and (shell is None or 0 < shell < np.inf)):
        raise ValueError("harmonic pair needs finite k >= 0 and r0, and a positive, finite shell")

    def value_and_deriv(r, rho):
        stretch = np.asarray(rho, dtype=float) - r0
        return 0.5 * k * stretch ** 2, k * stretch

    return PairPotential(value_and_deriv,
                         lambda r, rho: k * np.ones_like(np.asarray(rho, dtype=float)),
                         name="harmonic-pair", nonnegative=True, shell=shell)


def pair_potential_model(spec: LatticeSpec, potential: PairPotential,
                         cutoff: float) -> EnergyModel:
    """Finite-range pair interactions split over cells.

    Every unordered pair of stencil sites within ``cutoff`` (and, for a
    potential with a ``shell``, at that distance) becomes a bond whose
    energy is divided by the number of cells containing the pair in the
    bulk, so summing over interior cells counts each lattice bond once
    (boundary cells that are missing are not compensated).  The returned
    model carries a fresh spec whose stencil radius covers the cutoff, with
    or without a shell.  Raises ``ValueError`` when no bond is left.

    Note the bulk normalization: each unordered bond contributes one V, so
    the Cauchy-Born density of this model is half the ordered-pair lattice
    sum sum_{x != 0} V(|Mx|)/|det A|.
    """
    if spec.m != 0:
        raise ValueError("pair potential model is defined on Bravais lattices")
    deltas, _ = lattice_vectors_within(spec, cutoff)
    if len(deltas) == 0:
        raise ValueError("empty stencil: cutoff below the nearest-neighbour distance")
    # The corners of the cells {|c|_inf <= R} are the sites {-R..R+1}^d,
    # whose differences cover |delta|_inf <= 2R+1: the smallest such R.
    R = int(np.max(np.abs(deltas))) // 2
    model_spec = build_lattice(spec.d, spec.A, stencil_offsets=integer_box(-R, R, spec.d))

    off = model_spec.offsets_int  # (n_cols, d), site offsets in {-R..R+1}^d
    pos = model_spec.stencil.T    # (n_cols, d), Cartesian
    i, j = np.triu_indices(len(off), k=1)
    b = pos[i] - pos[j]
    r = np.sqrt((b[:, None, :] @ b[:, :, None])[:, 0, 0])   # rounds as norm(b[p]) does
    bond = (r <= cutoff + 1e-12) & potential.on_shell(r)
    if not bond.any():
        raise ValueError(f"no bond of rest length {potential.shell} within the cutoff {cutoff}")
    i, j, r = i[bond], j[bond], r[bond]
    # The cells c whose stencil holds both sites number, per axis,
    # 2 * radius - |off_i - off_j| (both off - c must lie in {-R..R+1}).
    count = np.prod(2 * model_spec.radius - np.abs(off[i] - off[j]), axis=1)
    model = _BondModel("pair", model_spec, potential, np.stack([i, j], axis=1), 1.0 / count, r,
                       nonnegative=potential.nonnegative, frame_indifferent=True)
    model.cutoff = float(cutoff)
    return model


def harmonic_spring_model(spec: LatticeSpec, k: float, r0: float) -> EnergyModel:
    """Nearest-neighbour harmonic springs on the 2D unit square lattice.

    The cell energy is (k/2) * sum over the four cell edges of
    (|deformed edge| - r0)^2, which over interior cells reproduces the
    bulk bond sum with one term per unordered nearest-neighbour pair: the
    pair model of ``harmonic_pair(2k, r0)`` at cutoff 1, whose edges each
    weigh 1/2 per cell.
    """
    if not (0 < k < np.inf and 0 < r0 < np.inf):      # NaN fails too
        raise ValueError("spring stiffness and rest length must be positive and finite")
    if spec.d != 2 or not np.allclose(spec.A, np.eye(2)) or spec.n_cols != 4:
        raise ValueError("harmonic spring model requires the 2D unit square lattice")
    k, r0 = float(k), float(r0)
    model = pair_potential_model(spec, harmonic_pair(2.0 * k, r0), 1.0)
    model.name = "harmonic"
    model.growth = (0.5 * k, 2.0 * k * r0**2, 4.0 * k * max(1.0, r0**2))
    return model


# ---------------------------------------------------------------------------
# the quasiconvex wrapper
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MatrixDensity:
    """A continuum density V on d x d matrices and its gradient.

    ``value`` maps (..., d, d) arrays to (...); ``grad`` maps them to
    (..., d, d).  ``p`` is the declared growth exponent and ``growth`` the
    optional (c, c_prime, c_dblprime) constants.
    """

    value: Callable
    grad: Callable
    p: float = 2.0
    growth: Optional[tuple] = None
    name: str = "density"
    nonnegative: bool = False
    objective: bool = False   # V(RM) = V(M) for rotations R


def frobenius_squared_density() -> MatrixDensity:
    return MatrixDensity(
        value=lambda M: np.sum(np.square(M), axis=(-2, -1)),
        grad=lambda M: 2.0 * M,
        p=2.0,
        growth=(1.0, 0.0, 1.0),
        name="frobenius-squared",
        nonnegative=True,
        objective=True,
    )


class QuasiconvexWrapperModel(EnergyModel):
    def __init__(self, spec, density):
        super().__init__(
            "quasiconvex-wrapper", spec, nonnegative=density.nonnegative,
            frame_indifferent=density.objective,
        )
        self.density = density
        # The d! Kuhn (Freudenthal) simplices walk from corner 0 one axis at a
        # time, in each axis order; bit j of a corner's column index is its
        # coordinate on axis j.  Per simplex: G_S(F) = F @ B_S, a fixed
        # (n_cols, d) matrix, and _w holds the volumes |S|.
        walks = [np.cumsum([0] + [1 << a for a in perm]) for perm in permutations(range(spec.d))]
        self._B, self._w = simplex_maps(np.eye(spec.n_cols)[walks], spec.corners.T)
        # row (s, k) is column k of B_S: G_S[:, :, k] = F @ B_S[:, k]
        self._Bt = self._B.transpose(0, 2, 1).reshape(-1, spec.n_cols)
        # Cell-level growth constants are exact for quadratic densities:
        # sum_S |S| |F B_S|^2 is a quadratic form whose extreme eigenvalues
        # on the zero-row-sum subspace bound the energy both ways.
        if density.growth is not None and density.p == 2:
            K = np.einsum("s,snk,smk->nm", self._w, self._B, self._B)
            P = np.eye(spec.n_cols) - np.full((spec.n_cols,) * 2, 1.0 / spec.n_cols)
            eig = np.linalg.eigvalsh(P @ K @ P)
            lam_min = float(eig[eig > 1e-12].min())
            lam_max = float(eig.max())
            cv, cvp, cvpp = density.growth
            self.growth = (
                cv * lam_min,
                cvp * spec.det_abs,
                cvpp * max(lam_max, spec.det_abs) + cvpp,
            )

    def _evaluate(self, F, S, bonds=None):
        # per-simplex gradients G (B, n_simplices, d, d), memory [s, k, a, b]
        n_s, n, d = self._B.shape
        G = (self._Bt @ _rows(F).reshape(n, -1)).reshape(n_s, d, d, -1).transpose(3, 0, 2, 1)
        E = reduce(np.add, self._w[:, None] * self.density.value(G).T)
        DV = self.density.grad(G) * self._w[:, None, None]   # (B, n_simplices, d, d)
        gX = self._Bt.T @ DV.transpose(1, 3, 2, 0).reshape(n_s * d, -1)
        return E, (gX.reshape(n, d, -1).transpose(2, 1, 0), None)


def quasiconvex_wrapper_model(spec: LatticeSpec, density: MatrixDensity) -> EnergyModel:
    """Cell energy obtained by integrating a matrix density over the cell.

    The corner values are interpolated affinely on each of the d! Kuhn
    simplices, and the energy is the exact integral sum_S |S| * V(G_S) of
    the piecewise-constant interpolant gradient.  For quasiconvex V the
    homogenized density reproduces V itself.
    """
    if spec.n_cols != spec.n_corners:
        raise ValueError("quasiconvex wrapper requires a unit-cell stencil")
    if spec.m != 0:
        raise ValueError("quasiconvex wrapper is defined on Bravais lattices")
    return QuasiconvexWrapperModel(spec, density)


# ---------------------------------------------------------------------------
# quadratic-form model (multi-constant energies beyond pair potentials)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuadraticForm:
    """Quadratic form Q on d x d matrices, stored via its Hessian.

    Q(M) = vec(M)^T H vec(M) / 2 with H symmetric (row-major vec).
    """

    d: int
    H: np.ndarray

    def __post_init__(self):
        self.H.setflags(write=False)

    def value(self, M):
        v = np.asarray(M).reshape(*np.asarray(M).shape[:-2], self.d * self.d)
        return 0.5 * np.einsum("...i,ij,...j->...", v, self.H, v)

    def tensor(self):
        """Hessian entries as a (d, d, d, d) array: d^2 Q / dM_ij dM_kl."""
        return self.H.reshape(self.d, self.d, self.d, self.d)

    @staticmethod
    def from_moduli(mu: float, lam: float, d: int = 2) -> "QuadraticForm":
        """Q(M) = mu*|sym M|^2 + (lam/2)*(tr M)^2."""
        n = d * d
        H = np.zeros((n, n))
        for i in range(d):
            for j in range(d):
                for k in range(d):
                    for l in range(d):
                        h = mu * ((i == k) * (j == l) + (i == l) * (j == k))
                        h += lam * (i == j) * (k == l)
                        H[i * d + j, k * d + l] = h
        return QuadraticForm(d=d, H=H)


def _sym_basis(d):
    mats = []
    for i in range(d):
        E = np.zeros((d, d))
        E[i, i] = 1.0
        mats.append(E)
    for i in range(d):
        for j in range(i + 1, d):
            E = np.zeros((d, d))
            E[i, j] = E[j, i] = 2**-0.5
            mats.append(E)
    return mats


def _antisym_basis(d):
    mats = []
    for i in range(d):
        for j in range(i + 1, d):
            E = np.zeros((d, d))
            E[i, j] = 2**-0.5
            E[j, i] = -(2**-0.5)
            mats.append(E)
    return mats


def check_quadratic_form(Q: QuadraticForm):
    """Admissibility gate: psd, definite on symmetric, zero on antisymmetric."""
    scale = max(1.0, float(np.max(np.abs(Q.H))))
    eig = np.linalg.eigvalsh(0.5 * (Q.H + Q.H.T))
    if eig.min() < -1e-10 * scale:
        raise ValueError("inadmissible Q: not positive semidefinite")
    B = np.stack([m.reshape(-1) for m in _sym_basis(Q.d)], axis=1)
    sym_eig = np.linalg.eigvalsh(B.T @ Q.H @ B)
    if sym_eig.min() <= 1e-10 * scale:
        raise ValueError("inadmissible Q: not positive definite on symmetric matrices")
    for W in _antisym_basis(Q.d):
        if abs(Q.value(W)) > 1e-10 * scale:
            raise ValueError("inadmissible Q: does not vanish on antisymmetric matrices")


def _smoothstep(u):
    """C-infinity step h, 0 at u <= 0 and 1 at u >= 1, and its derivative h'."""
    u = np.asarray(u, dtype=float)
    if np.all(u <= 0):                  # the general path gives +0.0 here too
        return np.zeros_like(u), np.zeros_like(u)
    u = np.clip(u, 0.0, 1.0)
    a = np.where(u > 0, np.exp(-1.0 / np.where(u > 0, u, 1.0)), 0.0)
    b = np.where(u < 1, np.exp(-1.0 / np.where(u < 1, 1.0 - u, 1.0)), 0.0)
    inner = (u > 0) & (u < 1)
    ui = np.where(inner, u, 0.5)
    dh = a * b * (1.0 / ui**2 + 1.0 / (1.0 - ui) ** 2) / (a + b) ** 2
    return a / (a + b), np.where(inner, dh, 0.0)


class QuadraticFormModel(EnergyModel):
    """det|A|*Q(U - Id) + |Fr|^2 + chi, Fp/Fr the split of the corner block
    into its best 2x2 gradient and the residual, U = sqrt(Fp^T Fp).

    No eigensolve: with C = Fp^T Fp, U = (C + |det Fp| Id) / tau, where
    tau = tr U = sqrt(tr C + 2|det Fp|) (Hoger & Carlson, Q. Appl. Math. 42
    (1984) 113-117).  d Q(U - Id) / d Fp = 2 Fp T with U T + T U = S =
    sym grad Q(U - Id); Cayley-Hamilton gives 2 tau U T = U S - S U + tau S
    = tau (S + omega J), J = [[0, 1], [-1, 0]], and the polar factor is
    R = (Fp + sgn(det Fp) cof Fp) / tau, so 2 Fp T = R (S + omega J).
    Nothing divides by det U, so cells near det Fp = 0 stay exact to
    rounding; at Fp = 0 (tau = 0) the stretch term has zero gradient.
    """

    def __init__(self, spec, Q, kappa, delta):
        qmax = float(np.max(np.abs(np.linalg.eigvalsh(Q.H))))
        super().__init__(
            "quadratic-form", spec,
            growth=(min(0.5, 0.05 * kappa),
                    4.0 * (spec.det_abs * qmax * spec.d + kappa + 1.0),
                    8.0 * (spec.det_abs * qmax + kappa + 1.0)),
            nonnegative=True, frame_indifferent=True,
        )
        self.Q = Q
        self.kappa = kappa
        self.delta = delta
        Z = spec.corners
        self._lift = Z.T @ np.linalg.inv(Z @ Z.T)   # Fp = F @ lift
        # Q on symmetric matrices [[x, y], [y, z]] is w^T K w / 2, w = (x, y, z)
        P = np.array([[1, 0, 0], [0, 1, 0], [0, 1, 0], [0, 0, 1]], dtype=float)
        self._K = P.T @ (0.5 * (Q.H + Q.H.T)) @ P

    def _evaluate(self, F, S, bonds=None):
        """Fp = [[a, b], [c, d]] and the class docstring's formulas on rows X of F."""
        B, _, n = F.shape
        X = _rows(F).reshape(n, 2 * B)            # row j: F[:, 0, j], then F[:, 1, j]
        P = self._lift.T @ X                      # row p: Fp[:, 0, p], Fp[:, 1, p]
        Fr = X - self.spec.corners.T @ P
        a, b, c, d = P[0, :B], P[1, :B], P[0, B:], P[1, B:]
        det = a * d - b * c
        adet = np.abs(det)
        C11 = a * a + c * c
        C22 = b * b + d * d
        tau = np.sqrt(C11 + C22 + 2.0 * adet)
        inv_tau = np.divide(1.0, tau, out=np.zeros_like(tau), where=tau > 0)
        x = (C11 + adet) * inv_tau - 1.0          # U - Id
        y = (a * b + c * d) * inv_tau
        z = (C22 + adet) * inv_tau - 1.0
        K = self._K
        S11 = K[0, 0] * x + K[0, 1] * y + K[0, 2] * z
        S12 = 0.5 * (K[1, 0] * x + K[1, 1] * y + K[1, 2] * z)
        S22 = K[2, 0] * x + K[2, 1] * y + K[2, 2] * z
        scale = self.spec.det_abs
        E1 = 0.5 * scale * (x * S11 + 2.0 * y * S12 + z * S22)

        u = (self.delta - det) / (0.5 * self.delta)
        h, dh = _smoothstep(u)
        E = E1 + reduce(np.add, np.square(Fr).reshape(2 * n, B))
        penalized = h.any()         # else det Fp >= delta in every cell, and chi = 0
        if penalized:
            grow = 1.0 + reduce(np.add, np.square(X).reshape(2 * n, B))
            E += self.kappa * h * grow
        sg = np.where(det < 0, -1.0, 1.0)
        R11, R12 = (a + sg * d) * inv_tau, (b - sg * c) * inv_tau
        R21, R22 = (c - sg * b) * inv_tau, (d + sg * a) * inv_tau
        # U - Id and U differ by Id, which commutes with S
        omega = (S12 * (x - z) + y * (S22 - S11)) * inv_tau
        M12, M21 = S12 + omega, S12 - omega
        gP = np.empty_like(P)                     # dE/dFp in the rows of P
        gP[0, :B] = scale * (R11 * S11 + R12 * M21)
        gP[1, :B] = scale * (R11 * M12 + R12 * S22)
        gP[0, B:] = scale * (R21 * S11 + R22 * M21)
        gP[1, B:] = scale * (R21 * M12 + R22 * S22)
        gR = 2.0 * Fr.reshape(n, 2, B)
        if penalized:
            # d chi / d Fp = kappa h'(u) (-2 / delta) grow cof Fp
            p = self.kappa * dh * (-2.0 / self.delta) * grow
            gP[0, :B] += p * d
            gP[1, :B] -= p * c
            gP[0, B:] -= p * b
            gP[1, B:] += p * a
            gR += ((2.0 * self.kappa) * h) * X.reshape(n, 2, B)
        gX = (self._lift @ gP).reshape(n, 2, B)
        gX += gR
        return E, (gX.transpose(2, 1, 0), None)


def quadratic_form_model(spec: LatticeSpec, Q: QuadraticForm,
                         kappa: float = 1.0, delta: float = 0.5) -> EnergyModel:
    """Frame-indifferent cell energy whose Hessian at the identity is 2*Q.

    The corner block splits orthogonally into its best affine part Fp and
    a residual; the energy is det|A|*Q(U - Id) + |residual|^2, with the
    stretch U = sqrt(Fp^T Fp) in 2D closed form, plus a smooth orientation
    penalty kappa*h(det Fp)*(1 + |F|^p) that switches on below
    det Fp = delta, which keeps reflected states away from the zero set.
    """
    if spec.d != 2 or spec.n_cols != spec.n_corners:
        raise ValueError("quadratic form model requires a 2D unit-cell stencil")
    if spec.m != 0:
        raise ValueError("quadratic form model is defined on Bravais lattices")
    if Q.d != spec.d:
        raise ValueError("dimension mismatch between Q and the lattice")
    check_quadratic_form(Q)
    if not (0 < kappa < np.inf and 0 < delta < 1):    # NaN fails too
        raise ValueError("need a finite kappa > 0 and 0 < delta < 1")
    return QuadraticFormModel(spec, Q, float(kappa), float(delta))


# ---------------------------------------------------------------------------
# multilattice harmonic model
# ---------------------------------------------------------------------------


def multilattice_harmonic_model(spec: LatticeSpec, k: float, r0: float) -> EnergyModel:
    """One internal atom per square cell, harmonically tethered.

    A bond model over the columns [corners | s]: the four unit edges and the
    four arms from each corner to the internal atom, every bond carrying
    (k/2)(|b| - r)^2 with rest length r = 1 on the edges and r0 = |z_1| (the
    corner distance) on the arms; s is the offset of the internal atom from
    the deformed cell mean.
    """
    if spec.m != 1:
        raise ValueError("unsupported internal count: model needs m = 1")
    if spec.d != 2 or not np.allclose(spec.A, np.eye(2)) or spec.n_cols != 4:
        raise ValueError("multilattice harmonic model requires the 2D unit square lattice")
    if not 0 < k < np.inf:                            # NaN fails too
        raise ValueError("spring stiffness must be positive and finite")
    z1 = np.linalg.norm(spec.corners[:, 0])
    if not abs(r0 - z1) <= 1e-9:
        raise ValueError(f"rest length must equal the corner distance {z1}")
    k, r0 = float(k), float(r0)

    def value_and_deriv(r, rho):
        stretch = rho - r
        return 0.5 * k * stretch ** 2, k * stretch

    spring = PairPotential(value_and_deriv, lambda r, rho: k * np.ones_like(rho),
                           name="harmonic-pair", nonnegative=True)
    bonds = np.concatenate((_cell_edges(2), [(j, 4) for j in range(4)]))
    return _BondModel("multilattice-harmonic", spec, spring, bonds, np.ones(8),
                      [1.0] * 4 + [r0] * 4, m=1, nonnegative=True, frame_indifferent=True,
                      growth=(0.25 * k, 4.0 * k * (1.0 + r0**2), 8.0 * k * (1.0 + r0**2)))
