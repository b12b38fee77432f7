"""Minimization of the total interior-cell energy under affine pinning.

The free variables are the positions of sites not touching any boundary
cell, plus (for multilattice models) the internal shifts of every interior
cell.  When a mean value s0 is prescribed for the shifts, they enter the
energy projected onto it, s - mean(s) + s0, so the constraint holds
identically along all iterates and the gradient is the projected one.
The pinned sites carry the affine datum y = M x.  Energies and gradients
come from ``Problem._evaluate``, which writes the free variables into one
site buffer per problem through a view of the free cube, so no evaluation
copies the datum.  A pair-bond model sees the whole sample as one batch
entry, over its interior cells' bonds compiled once into unique site
pairs, so each bond with a free end is evaluated once per call; a bond
between two pinned sites is evaluated once, when the problem is assembled.
Any other model sees the interior cells, centred on their corner mean, and
its cell gradients are scattered back onto the sites.

The minimizer is L-BFGS over a preallocated ring of its last pairs and
their Gram matrix: the two-loop recursion runs on at most ``history``
floats plus four matrix-vector products.  Its initial inverse Hessian is
H0 = gamma P^-1, with P^-1 from ``Problem.precondition``, applied once per
accepted gradient: the descent keeps P^-1 g beside g, and the ring keeps
P^-1 y = P^-1 g_new - P^-1 g_old beside each y.  P is a Dirichlet
Laplacian of the free sites, the identity on the internal shifts: for
coordinate alpha, sum_a c[alpha, a] D_a over the second differences D_a
along the site axes, weighted by the bond stiffness as in Packwood et al.,
J. Chem. Phys. 144 (2016) 164109.  On the cell route c = 1, the graph
Laplacian, which makes the iteration count independent of N.  On the bond
route c comes from the bonds' Hessian blocks at the affine state
(``_BondModel._stiffness``); for nearest-neighbour springs at a diagonal M
it makes P the Hessian itself.  Where some weight is negative (compression,
shear) or not finite (a collapsed bond), or a coordinate has none, P is the
identity: those Hessians are indefinite or not bounded by a Laplacian, and
the unweighted one put compression and LJ winners in higher basins.  Each
result records its line-search backtracks, the trial steps after the unit
step, and its wall time.

The first step is steepest descent.  The line search tries the unit step
first.  Every trial step is one energy-and-gradient evaluation, so the step
it accepts keeps its gradient and no point is evaluated twice.  A step
whose energy rises above the rounding floor of the current energy,
1e-12 (1 + |E|), is halved, ranked on energies alone, until the Armijo test
(constant 1e-4) holds.  A step that fails the Armijo test but stays within
that floor cannot be ranked by energy any more; it is bracketed and
bisected on the directional derivative instead, until the approximate Wolfe
conditions of Hager & Zhang (SIAM J. Optim. 16 (2005) 170-192) hold.
Accepted energies never rise above that floor, and pinned coordinates never
change.  Everything is deterministic given the options, including the
random warm starts, which draw from per-start counter-based generators.
Each result records why its search stopped.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .fields import Deformation, affine_deformation
from .lattice import CellGrid
from .models import EnergyModel

__all__ = [
    "SolveOptions",
    "SolveResult",
    "Problem",
    "minimize",
    "buckling_start",
    "start_fields",
    "multi_start_minimize",
    "DivergedEvaluation",
]


class DivergedEvaluation(RuntimeError):
    """Raised when the energy evaluates to a non-finite value."""


@dataclass(frozen=True)
class SolveOptions:
    grad_tol: float = 1e-8          # sup-norm of the gradient
    max_iter: int = 5000
    history: int = 10               # quasi-Newton memory length
    n_random_starts: int = 8
    perturb_amp: float = 0.1        # lattice units
    seed: int = 0

    def __post_init__(self):
        for name in ("max_iter", "history", "n_random_starts", "seed"):
            _integer(getattr(self, name), name)
        if not (np.isfinite(self.grad_tol) and self.grad_tol > 0):
            raise ValueError("grad_tol must be positive and finite")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if self.history < 0:
            raise ValueError("history must be nonnegative")
        if self.n_random_starts < 0:
            raise ValueError("n_random_starts must be nonnegative")
        if not (np.isfinite(self.perturb_amp) and self.perturb_amp >= 0):
            raise ValueError("perturb_amp must be nonnegative and finite")


def _integer(value, name):
    """``value`` itself when it is an integer (a bool is not), else ValueError."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


@dataclass
class SolveResult:
    energy: float
    argmin: Deformation
    internal: np.ndarray | None     # (C, d, m) internal shifts
    iterations: int
    converged: bool
    grad_norm: float
    start_label: str
    stop: str                       # converged | max_iter | line_search_stall
    n_evals: int                    # evaluations, each an energy with its gradient
    n_backtracks: int = 0           # line-search trials after the unit step
    wall_s: float = 0.0             # wall time of the search
    failed_starts: list = field(default_factory=list)  # multistart labels that diverged
    starts: list = field(default_factory=list)   # multistart record, one dict per start


class Problem:
    """Assembled cell problem: grid + model + affine boundary data.

    A start must carry the pinned values of ``affine_deformation`` bit for
    bit; all evaluations go through ``_evaluate``.  ``bonds`` is the table
    the kernel reads, None for models evaluated cell by cell: of the whole
    sample's bonds, those with a free end.  It holds the energies of the
    others, taken once from the datum, and the whole table's weights, so
    that the energy is the whole table's bit for bit and so are the free
    sites' gradients.
    ``preconditioner`` names P: "laplacian" on the cell route, "stiffness"
    on the bond route where the stiffness weights qualify, else "identity".
    Kernels read batch-last memory: the problem's site buffer y itself as
    ``y.T[None]`` (bond route), or the cells gathered by one ``take`` into
    an (n_cols, d, C) buffer; the cell gradients go back onto y by one
    ``np.bincount`` over ``_scatter``.  Since the buffer is shared, one
    problem evaluates on one thread at a time.
    """

    def __init__(self, grid: CellGrid, model: EnergyModel, M, s0=None):
        if model.spec.n_cols != grid.spec.n_cols or model.spec.d != grid.spec.d:
            raise ValueError("incompatible stencil between model and grid")
        if not np.allclose(model.spec.A, grid.spec.A):
            raise ValueError("model and grid live on different lattices")
        if grid.spec.radius < model.spec.radius:
            raise ValueError("incompatible stencil radius vs N: grid too narrow")
        self.grid = grid
        self.model = model
        self.M = np.asarray(M, dtype=float)
        self.d = grid.spec.d
        self.n_free = int(grid.free_mask.sum())
        self.free_idx = np.nonzero(grid.free_mask)[0]
        self.cell_sites = grid.interior_cell_sites
        self.n_cells = self.cell_sites.shape[0]
        bonds = model._sample_bonds(self.cell_sites)
        # the sites the kernel reads: the affine datum, whose free sites, the
        # cube [r + 1, N - 1 - r]^d, each evaluation overwrites in place
        N, r = grid.N, grid.spec.radius
        side = N - 1 - 2 * r
        self._sites = affine_deformation(grid, self.M).y
        self._site_shape = (N + 1,) * self.d + (self.d,)
        self._cube = (slice(r + 1, N - r),) * self.d
        self._free_shape = (side,) * self.d + (self.d,)
        # the start screen's pairs: two stencil sites of one interior cell, one of them free
        a, b = np.triu_indices(self.cell_sites.shape[1], k=1)
        i, j = self.cell_sites[:, a].ravel(), self.cell_sites[:, b].ravel()
        held = grid.free_mask[i] | grid.free_mask[j]
        self._pairs = i[held], j[held]
        if bonds is None:               # flat indices of the cells' sites in y
            self._scatter = self.d * self.cell_sites[:, :, None] + np.arange(self.d)
            self._gather = np.ascontiguousarray(self._scatter.transpose(1, 2, 0))
            weights = np.ones((1, self.d))  # one graph Laplacian for every coordinate
            self.preconditioner = "laplacian"
            self.bonds = None
        else:
            self.bonds = model._moving_bonds(bonds, grid.free_mask, self._sites)
            weights = model._stiffness(self.M)
            self.preconditioner = "identity" if weights is None else "stiffness"
        self._sine = None
        if weights is not None and self.n_free:
            self._sine, self._inv_eig = _dirichlet_laplacian(side, self.d, weights)

        self.m = model.m
        if self.m == 0 and s0 is not None:
            raise ValueError("internal variables undefined for Bravais model")
        self.s0 = None if s0 is None else np.asarray(s0, dtype=float).reshape(self.d, self.m)
        self.n_internal = self.n_cells * self.d * self.m
        self.n_vars = self.n_free * self.d + self.n_internal

    # -- variable packing ---------------------------------------------------

    def pack(self, deformation: Deformation, internal=None):
        """The variables of a deformation and of (C, d, m) internal shifts,
        which x holds batch-last, as (m, d, C); no shifts stand for zeros,
        which ``unpack`` maps to s0 when it is set."""
        x = np.zeros(self.n_vars)
        x[: self.n_free * self.d] = deformation.y[self.free_idx].ravel()
        if internal is not None:
            x[self.n_free * self.d:] = np.ravel(np.transpose(internal))
        return x

    def _free(self, y):
        """The free sites of y (n_sites, d), or of its flat memory, as a view
        of the free cube, whose C order is ``free_idx`` order."""
        return y.reshape(self._site_shape)[self._cube]

    def _put(self, y, x):
        """Write the site block of ``x`` into the free sites of ``y``."""
        self._free(y)[...] = x[: self.n_free * self.d].reshape(self._free_shape)

    def unpack(self, x):
        """(y, s): fresh site positions and the (C, d, m) internal shifts,
        None for a Bravais model; with s0 the shifts are s - mean(s) + s0."""
        y = self._sites.copy()
        self._put(y, x)
        return y, self._shifts(x)

    def _shifts(self, x):
        """The shifts of ``unpack``."""
        if self.m == 0:
            return None
        s = x[self.n_free * self.d:].reshape(self.m * self.d, self.n_cells)
        if self.s0 is not None:
            s = s - s.mean(axis=1, keepdims=True) + self.s0.T.reshape(-1, 1)
        return s.reshape(self.m, self.d, self.n_cells).T

    def start_vector(self, deformation: Deformation, internal=None):
        pinned = ~self.grid.free_mask
        if not np.array_equal(deformation.y[pinned], self._sites[pinned]):
            raise ValueError("start does not satisfy the boundary pinning")
        return self.pack(deformation, internal)

    # -- energy assembly ----------------------------------------------------

    def _evaluate(self, x, grad):
        """Total interior-cell energy at ``x`` and, with ``grad``, the pair
        (energy, gradient in the flat variables).

        The kernel, ``model._energy`` or ``model._energy_gradient``, gets
        either the sample as one batch entry whose columns are the sites, or
        the interior cells' discrete gradients centred on the corner mean,
        whose gradient is chained through the centring and scattered back
        onto the sites.  Every kernel computes the gradient with the energy;
        without ``grad``, which only ``energy_only`` passes, it is dropped
        unchecked.  Raises ``DivergedEvaluation`` on a non-finite energy or
        site gradient.
        """
        y, s = self._sites, self._shifts(x)
        self._put(y, x)
        if self.bonds is not None:
            kernel = self.model._energy_gradient if grad else self.model._energy
            out = kernel(y.T[None], s, self.bonds)       # F: (1, d, n_sites)
        else:
            F = y.take(self._gather).transpose(2, 1, 0)  # (C, d, n_cols)
            out = self.model._cells(F, s, grad)
        if not grad:
            E = float(out.sum())
            if not math.isfinite(E):
                raise DivergedEvaluation("diverged evaluation")
            return E
        E_cells, (gF, gS) = out
        E = float(E_cells.sum())
        if self.bonds is not None:
            g_sites = gF[0].T                            # y's memory, (n_sites, d)
        else:
            g_sites = np.bincount(self._scatter.ravel(), gF.transpose(0, 2, 1).ravel(),
                                  minlength=y.size)
        if not (math.isfinite(E) and np.isfinite(g_sites).all()):
            raise DivergedEvaluation("diverged evaluation")
        g = np.empty(self.n_vars)
        g[: self.n_free * self.d].reshape(self._free_shape)[...] = self._free(g_sites)
        if self.m > 0:      # batch-last; with s0, the gradient through the projection
            gS = gS.T.reshape(self.m * self.d, self.n_cells)
            if self.s0 is not None:
                gS = gS - gS.mean(axis=1, keepdims=True)
            g[self.n_free * self.d:] = gS.ravel()
        return E, g

    def precondition(self, v):
        """P^-1 v for the quasi-Newton initial Hessian.  P is a Dirichlet
        Laplacian of the free sites (see ``preconditioner``), and the
        identity on the internal shifts, whose block of ``v`` is returned
        unchanged.  Where P is the identity, or with no free site, ``v``
        itself is returned."""
        if self._sine is None:
            return v
        n, side, S = self.n_free * self.d, self._sine.shape[0], self._sine
        w = v[:n]
        for a in range(self.d):                 # to the sine basis, one site axis at a time
            w = S @ w.reshape(side ** a, side, -1)
        w = w * self._inv_eig
        for a in range(self.d):                 # and back: S is its own inverse
            w = S @ w.reshape(side ** a, side, -1)
        return np.concatenate((w.ravel(), v[n:]))

    def energy_only(self, x) -> float:
        """The energy of ``value_and_grad``; no library path calls it, only
        the benchmark, which times it and traces it."""
        return self._evaluate(x, False)

    def value_and_grad(self, x):
        return self._evaluate(x, True)


def _dirichlet_laplacian(side, d, weights):
    """The orthonormal DST-I matrix on ``side`` points, a symmetric
    involution, and the inverse eigenvalues, shaped (side^(d-1), side, k),
    of the Laplacian sum_a weights[alpha, a] D_a on the cube of side^d free
    sites, first axis slowest, per coordinate alpha of the k rows of
    ``weights``; D_a is the second difference along axis a with pinned
    neighbours held at zero, diagonal in that basis."""
    k = np.arange(1, side + 1)
    sine = np.sqrt(2.0 / (side + 1)) * np.sin(np.outer(k, k) * (np.pi / (side + 1)))
    lam = 2.0 - 2.0 * np.cos(k * (np.pi / (side + 1)))
    # sum_a weights[:, a] lam_{i_a}, shape (side,)*d + (k,)
    eig = sum(g[..., None] * weights[:, a] for a, g in enumerate(np.ix_(*[lam] * d)))
    return sine, (1.0 / eig).reshape(side ** (d - 1), side, len(weights))


# ---------------------------------------------------------------------------
# minimization
# ---------------------------------------------------------------------------

_ARMIJO = 1e-4
_WOLFE_SIGMA = 0.9        # curvature constant of the approximate Wolfe test
_WOLFE_DELTA = 0.1        # its decrease constant: phi'(t) <= (2 delta - 1) phi'(0)
_ENERGY_FLOOR = 1e-12     # relative rounding tolerance of a total energy
_BACKTRACK = 0.5
_MAX_BACKTRACKS = 60      # trial evaluations per line search after the unit step


def _line_search(problem: Problem, x, E, direction, slope):
    """One step along ``direction`` from ``x``; slope = phi'(0) < 0.

    Returns ``(x_new, E_new, g_new, evals)``, with ``x_new = None`` when no
    acceptable step was found; every trial is one ``value_and_grad`` call,
    so an accepted step keeps the gradient it was evaluated with, and the
    trials after the unit step number ``evals - 1``.  A trial that diverges,
    in its energy or its gradient, counts as too long.
    """
    floor = E + _ENERGY_FLOOR * (1.0 + abs(E))

    def trial(t):
        x_t = x + t * direction
        try:
            return (x_t, *problem.value_and_grad(x_t))
        except DivergedEvaluation:
            return x_t, np.inf, None

    t = 1.0
    x_t, E_t, g_t = trial(t)
    evals = 1
    if E + _ARMIJO * slope < E_t <= floor:
        # Below the rounding floor energies cannot rank steps: bracket and
        # bisect on phi'(t) = g(x + t d) . d instead.
        lo, hi = 0.0, np.inf
        while True:
            if E_t > floor:
                hi = t
            else:
                dphi = g_t @ direction
                if dphi < _WOLFE_SIGMA * slope:
                    lo = t
                elif dphi > (2.0 * _WOLFE_DELTA - 1.0) * slope:
                    hi = t
                else:
                    return x_t, E_t, g_t, evals
            if evals > _MAX_BACKTRACKS:
                return None, E, None, evals
            t = 2.0 * t if hi == np.inf else 0.5 * (lo + hi)
            x_t, E_t, g_t = trial(t)
            evals += 1

    # halve on energies until the Armijo test holds
    while not E_t <= E + _ARMIJO * t * slope:
        if evals > _MAX_BACKTRACKS:
            return None, E, None, evals
        t *= _BACKTRACK
        x_t, E_t, g_t = trial(t)
        evals += 1
    return x_t, E_t, g_t, evals


class _History:
    """The last ``size`` accepted pairs (s, y) of the quasi-Newton descent,
    in rows S[a] and Y[a] of a ring whose slots ``order`` lists oldest first,
    with Z[a] = P^-1 y_a beside them; where P is the identity, Z is Y itself.
    Also kept are rho_a = 1 / s_a . y_a, the newest pair's scale
    gamma = s . y / y . z and the Gram entries SY[a][b] = s_a . y_b for
    a older than b, the only ones the recursions read, in Python lists that
    each push updates, so a direction converts none.  The initial inverse
    Hessian is H0 = gamma P^-1, which ``direction`` applies through P^-1 g
    and the rows Z, so it needs no P^-1 of its own.  A push costs one
    matrix-vector product over the n variables, a direction four."""

    def __init__(self, size, n, identity=True):
        self.S, self.Y = np.empty((size, n)), np.empty((size, n))
        self.Z = self.Y if identity else np.empty((size, n))
        self.SY = [[0.0] * size for _ in range(size)]
        self.rho, self.order = [0.0] * size, []

    def push(self, s, y, z):
        """Add the pair (s, y) with z = P^-1 y, unless it fails the curvature
        test; with P the identity, z is y."""
        sy, yy, order = float(s @ y), float(y @ y), self.order
        if self.rho and sy > 1e-12 * (float(s @ s) * yy) ** 0.5:
            p = order.pop(0) if len(order) == len(self.rho) else len(order)
            order.append(p)
            k = len(order)              # the filled slots are rows [0, k)
            self.S[p], self.Y[p], self.rho[p] = s, y, 1.0 / sy
            if self.Z is not self.Y:
                self.Z[p] = z
            self.gamma = sy / (yy if z is y else float(y @ z))
            for a, sy_a in enumerate((self.S[:k] @ y).tolist()):
                self.SY[a][p] = sy_a

    def direction(self, g, pg):
        """-H g, given pg = P^-1 g, by Nocedal's two-loop recursion (Math.
        Comp. 35 (1980) 773-782) from H0 = gamma P^-1: its middle step is
        gamma P^-1 (-g - sum_a alpha_a y_a) = gamma (-pg - sum_a alpha_a z_a),
        its dot products s_a . q and y_a . r are taken from S g, Y q and the
        Gram entries of swept pairs."""
        order, rho, k = self.order, self.rho, len(self.order)
        if not k:
            return -g
        S, Y, G = self.S[:k], self.Y[:k], self.SY
        sg = (S @ g).tolist()
        alpha = [0.0] * k
        for t, a in reversed(list(enumerate(order))):
            acc = sg[a]
            for b in order[t + 1:]:
                acc += alpha[b] * G[a][b]
            alpha[a] = -rho[a] * acc
        q = np.array(alpha) @ self.Z[:k]     # q = gamma (-pg - alpha Z), in place
        q += pg
        q *= -self.gamma
        yq = (Y @ q).tolist()
        c = [0.0] * k
        for t, a in enumerate(order):
            acc = yq[a]
            for b in order[:t]:
                acc += c[b] * G[b][a]
            c[a] = alpha[a] - rho[a] * acc
        d = np.array(c) @ S
        d += q
        return d


def minimize(problem: Problem, opts: SolveOptions, start: Deformation, internal_start=None,
             start_label: str = "custom") -> SolveResult:
    """Limited-memory quasi-Newton descent from one start.

    Terminates when the gradient sup-norm drops below ``opts.grad_tol``
    (``stop = "converged"``), when the iteration cap is hit (``"max_iter"``)
    or when the line search finds no step (``"line_search_stall"``); the
    last accepted iterate is returned.  No accepted energy exceeds the
    previous one by more than its rounding floor.  P^-1 is applied once per
    gradient, none with ``opts.history`` 0; where ``problem.precondition``
    returns its argument, P is the identity and is not applied again.
    """
    t0 = time.perf_counter()
    x = problem.start_vector(start, internal_start)
    E, g = problem.value_and_grad(x)
    n_evals = 1
    pg = problem.precondition(g) if opts.history else g
    identity = pg is g
    history = _History(opts.history, g.size, identity)
    iterations = n_backtracks = 0
    converged = bool(np.abs(g).max(initial=0.0) <= opts.grad_tol)
    stop = "max_iter"

    while not converged and iterations < opts.max_iter:
        direction = history.direction(g, pg)
        slope = direction @ g
        if not math.isfinite(slope) or slope >= 0:
            direction = -g
            slope = -(g @ g)
            history.order.clear()

        x_new, E_new, g_new, evals = _line_search(problem, x, E, direction, slope)
        n_evals += evals
        n_backtracks += evals - 1
        if x_new is None:
            stop = "line_search_stall"
            break
        if not E_new <= E + _ENERGY_FLOOR * (1.0 + abs(E)):
            raise RuntimeError(f"line search raised the energy from {E!r} to {E_new!r}")
        pg_new = g_new if identity else problem.precondition(g_new)
        y = g_new - g
        history.push(x_new - x, y, y if identity else pg_new - pg)
        x, E, g, pg = x_new, E_new, g_new, pg_new
        iterations += 1
        converged = bool(np.abs(g).max() <= opts.grad_tol)

    y, s = problem.unpack(x)
    return SolveResult(
        energy=E,
        argmin=Deformation(problem.grid, y),
        internal=s,
        iterations=iterations,
        converged=converged,
        grad_norm=float(np.abs(g).max(initial=0.0)),
        start_label=start_label,
        stop="converged" if converged else stop,
        n_evals=n_evals,
        n_backtracks=n_backtracks,
        wall_s=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# warm starts
# ---------------------------------------------------------------------------


def buckling_start(grid: CellGrid, M) -> Deformation:
    """Affine field plus the 2-periodic zig-zag that relaxes compression.

    Each compressed column m of M (|m| < 1) contributes the alternating
    displacement 0.5*(-1)^z * sqrt(1/|m|^2 - 1) * (-m_2, m_1) along its
    lattice direction, which restores every bulk bond in that direction to
    unit length; pinned sites keep the affine datum.
    """
    if grid.spec.d != 2:
        raise ValueError("buckling start is 2D-only")
    M = np.asarray(M, dtype=float)
    out = affine_deformation(grid, M)
    disp = np.zeros_like(out.y)
    for col in range(2):
        m = M[:, col]
        nsq = float(m @ m)
        if nsq >= 1.0 or nsq < 1e-20:
            continue
        amp = 0.5 * np.sqrt(1.0 / nsq - 1.0)
        vec = np.array([-m[1], m[0]])
        signs = np.where(grid.site_multi[:, col] % 2 == 0, 1.0, -1.0)
        disp += amp * signs[:, None] * vec[None, :]
    out.y[grid.free_mask] += disp[grid.free_mask]
    return out


def _rng_for_start(seed: int, index: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=int(seed) & (2**64 - 1), spawn_key=(index,))
    return np.random.Generator(np.random.Philox(ss))


_COLLAPSED = 1e-8         # a start with a shorter stencil pair is jittered


def _min_bond_length(problem: Problem, y) -> float:
    """Shortest distance at sites y between two stencil sites of one interior
    cell, at least one of them free: the start jitter cannot part a pinned
    pair."""
    i, j = problem._pairs
    b = y.take(j, axis=0) - y.take(i, axis=0)
    return float(np.sqrt(np.einsum("ka,ka->k", b, b).min(initial=np.inf)))


def start_fields(problem: Problem, opts: SolveOptions):
    """The starts of ``multi_start_minimize``, in order, as (label, deformation,
    internal shifts): affine, buckling (2D, when it differs from affine) and
    ``opts.n_random_starts`` random perturbations of the affine field.  The
    shifts are None, which starts them at s0 or zero, except on random starts
    without s0.  A start with a collapsed bond is jittered by 1e-6 so its
    gradient exists.  A random start is not screened when the affine one's
    shortest pair provably outlasts its perturbation.
    """
    starts = []
    affine = affine_deformation(problem.grid, problem.M)
    starts.append(("affine", affine, None))

    if problem.d == 2:
        buck = buckling_start(problem.grid, problem.M)
        if not np.array_equal(buck.y, affine.y):
            starts.append(("buckling", buck, None))

    for k in range(opts.n_random_starts):
        rng = _rng_for_start(opts.seed, k)
        dfm = affine.copy()
        noise = rng.uniform(-opts.perturb_amp, opts.perturb_amp,
                            size=(problem.n_free, problem.d))
        dfm.y[problem.free_idx] += noise
        internal = None
        if problem.m > 0 and problem.s0 is None:
            internal = rng.uniform(-opts.perturb_amp, opts.perturb_amp,
                                   size=(problem.n_cells, problem.d, problem.m))
        starts.append((f"random-{k}", dfm, internal))

    shortest = _min_bond_length(problem, affine.y)
    # a uniform perturbation of amplitude a moves each end of a pair by at most
    # a sqrt(d), so its distance by at most 2 a sqrt(d); a second floor of
    # margin covers the rounding of the perturbed coordinates
    parted = shortest - 2.0 * opts.perturb_amp * np.sqrt(problem.d) >= 2 * _COLLAPSED
    first_random = len(starts) - opts.n_random_starts
    for idx, (label, dfm, internal) in enumerate(starts):
        if idx >= first_random and parted:
            break
        if (shortest if idx == 0 else _min_bond_length(problem, dfm.y)) < _COLLAPSED:
            rng = _rng_for_start(opts.seed, 10_000 + idx)
            dfm = dfm.copy()
            dfm.y[problem.free_idx] += rng.uniform(
                -1e-6, 1e-6, size=(problem.n_free, problem.d))
            starts[idx] = (label, dfm, internal)
    return starts


def multi_start_minimize(problem: Problem, opts: SolveOptions) -> SolveResult:
    """Minimize from every start of ``start_fields``; lowest energy wins.

    Energies within the rounding floor 1e-12 (1 + |E|) of the incumbent's
    tie, and the earliest start wins a tie.  The winner keeps its own
    ``converged`` and ``stop``; its ``starts`` records every start that
    returned, in order, and its ``failed_starts`` the labels of starts
    whose evaluation diverged.
    """
    results, failed = [], []
    for label, dfm, internal in start_fields(problem, opts):
        try:
            results.append(minimize(problem, opts, dfm, internal, start_label=label))
        except DivergedEvaluation:
            failed.append(label)
    if not results:
        raise DivergedEvaluation(f"all starts failed: {', '.join(failed)}")
    best = results[0]
    for r in results[1:]:
        if r.energy < best.energy - _ENERGY_FLOOR * (1.0 + abs(best.energy)):
            best = r
    best.failed_starts = failed
    best.starts = [{"label": r.start_label, "energy": r.energy, "stop": r.stop,
                    "iterations": r.iterations, "n_evals": r.n_evals,
                    "n_backtracks": r.n_backtracks, "wall_s": r.wall_s}
                   for r in results]
    return best
